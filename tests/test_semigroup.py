import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aperylef import (
    AperyError,
    EmptyInput,
    GcdNotOne,
    InvalidGenerator,
    NotInSemigroup,
    SizeLimit,
    compute_beta_gamma,
    create_semigroup,
)
from aperylef import semigroup

import semigroup_oracle


# -- independent oracles used to freeze derived values -----------------------

def oracle_membership(gens, bound):
    """Plain DP table, independent of the library implementation."""
    table = [False] * (bound + 1)
    table[0] = True
    for s in range(1, bound + 1):
        table[s] = any(g <= s and table[s - g] for g in gens)
    return table


def oracle_orders(gens, bound):
    """Plain order DP: ord(s) = 1 + max ord(s - g) over members s - g, else -1."""
    orders = [0] + [-1] * bound
    for s in range(1, bound + 1):
        best = max((orders[s - g] for g in gens if g <= s and orders[s - g] >= 0), default=-1)
        orders[s] = best + 1 if best >= 0 else -1
    return orders


def oracle_minimal_generators(gens):
    """Remove each generator reachable from the others by exhaustive search."""
    gens = sorted(set(gens))

    def reachable(target, pool):
        # bounded exhaustive combination search
        stack = [(target, 0)]
        while stack:
            value, idx = stack.pop()
            if value == 0:
                return True
            for i in range(idx, len(pool)):
                if pool[i] <= value:
                    stack.append((value - pool[i], i))
        return False

    return tuple(g for g in gens if not reachable(g, [h for h in gens if h != g]))


def oracle_representations(gens, s):
    out = []

    def rec(idx, remaining, acc):
        if idx == len(gens) - 1:
            q, r = divmod(remaining, gens[idx])
            if r == 0:
                out.append(acc + (q,))
            return
        for lam in range(remaining // gens[idx] + 1):
            rec(idx + 1, remaining - lam * gens[idx], acc + (lam,))

    rec(0, s, ())
    return out


# -- create_semigroup ---------------------------------------------------------

def test_create_paper_instance():
    S = create_semigroup([8, 10, 11, 12])
    assert S.generators == (8, 10, 11, 12)
    assert S.multiplicity == 8


def test_create_whole_naturals():
    S = create_semigroup([1])
    assert S.frobenius == -1
    assert S.apery_table().elements == (0,)


def test_create_reduces_to_minimal_generators():
    S = create_semigroup([6, 4, 10, 9])
    assert S.generators == (4, 6, 9)
    assert S.generators == oracle_minimal_generators([6, 4, 10, 9])


def test_create_errors():
    with pytest.raises(EmptyInput):
        create_semigroup([])
    with pytest.raises(GcdNotOne):
        create_semigroup([4, 6])
    with pytest.raises(InvalidGenerator):
        create_semigroup([0, 3])
    with pytest.raises(InvalidGenerator):
        create_semigroup([-2, 3])


BAD_ENTRIES = (0, -3, True, False, 2.0)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_create_semigroup_matches_the_dijkstra_oracle(data):
    # unsorted lists with duplicates, sums of entries (redundant generators),
    # a common factor (gcd > 1) and now and then an entry that is no generator
    factor = data.draw(st.sampled_from((1, 1, 1, 2, 3)))
    gens = [factor * g for g in data.draw(st.lists(st.integers(1, 30), max_size=6))]
    if gens:
        pairs = data.draw(st.lists(st.tuples(st.sampled_from(gens), st.sampled_from(gens)), max_size=3))
        gens += [a + b for a, b in pairs] + gens[: data.draw(st.integers(0, 2))]
    gens += data.draw(st.lists(st.sampled_from(BAD_ENTRIES), max_size=1))
    gens = data.draw(st.permutations(gens))
    try:
        expected = semigroup_oracle.create(gens)
    except AperyError as exc:
        with pytest.raises(type(exc)):
            create_semigroup(gens)
        return
    S = create_semigroup(gens)
    assert (S.generators, S._apery) == expected


@given(st.integers(-2, 14), st.integers(1, 5), st.integers(0, 30))
@settings(max_examples=60, deadline=None)
def test_the_walk_lists_the_sweeps_minimal_tuples_in_order(m, count, top):
    try:
        expected = list(semigroup_oracle.minimal_tuples(m, count, top))
    except InvalidGenerator:
        with pytest.raises(InvalidGenerator):
            list(semigroup.minimal_tuples(m, count, top))
        return
    walked = list(semigroup.minimal_tuples(m, count, top))
    assert [S.generators for S in walked] == expected
    for S in walked:
        assert S._apery == semigroup_oracle.apery_residues(S.generators)


# -- membership / frobenius ----------------------------------------------------

def test_contains_against_oracle_table(corpus):
    S = create_semigroup([8, 10, 11, 12])
    table = oracle_membership((8, 10, 11, 12), 60)
    for s in range(61):
        assert S.contains(s) == table[s]
    assert not S.contains(25)
    assert S.contains(0)
    assert not S.contains(-3)
    for S in corpus:
        bound = S.frobenius + 2 * S.multiplicity
        table = oracle_membership(S.generators, bound)
        assert [S.contains(s) for s in range(bound + 1)] == table
        assert S.frobenius == max(s for s in range(bound + 1) if not table[s])


def test_contains_generator_sum():
    S = create_semigroup([15, 21, 35])
    assert S.contains(36)


def test_frobenius_values():
    # anchored to the listed apery maxima: f = max(Ap) - multiplicity
    assert create_semigroup([8, 10, 11, 12]).frobenius == 33 - 8
    assert create_semigroup([16, 18, 21, 27]).frobenius == 99 - 16
    assert create_semigroup([1]).frobenius == -1


# -- apery sets ----------------------------------------------------------------

LISTED_APERY = {
    (8, 10, 11, 12): (0, 10, 11, 12, 21, 22, 23, 33),
    (16, 18, 21, 27): (0, 18, 21, 27, 36, 39, 42, 45, 54, 57, 60, 63, 72, 78, 81, 99),
    (6, 7, 8, 9, 10): (0, 7, 8, 9, 10, 17),
    (15, 21, 35): (0, 21, 35, 42, 56, 63, 70, 77, 84, 91, 98, 112, 119, 133, 154),
}


@pytest.mark.parametrize("gens,expected", sorted(LISTED_APERY.items()))
def test_apery_sets_match_listings(gens, expected):
    table = create_semigroup(list(gens)).apery_table()
    assert table.elements == expected
    assert len(table.elements) == gens[0]


def test_apery_table_invariants():
    S = create_semigroup([16, 18, 21, 27])
    table = S.apery_table()
    for e in table.elements:
        assert S.contains(e) and not S.contains(e - S.multiplicity)
    assert table.socle_degree == table.orders[-1] == 5


# -- orders and representations --------------------------------------------------

def test_order_values(corpus):
    assert create_semigroup([8, 10, 11, 12]).order(33) == 3
    assert create_semigroup([16, 18, 21, 27]).order(99) == 5
    assert create_semigroup([8, 10, 11, 12]).order(0) == 0
    for S in corpus:
        table = S.apery_table()
        bound = table.elements[-1] + S.multiplicity
        orders = oracle_orders(S.generators, bound)
        assert table.orders == tuple(orders[e] for e in table.elements)
        assert [S.order(s) for s in range(bound + 1) if S.contains(s)] == [
            o for o in orders if o >= 0
        ]


def test_order_and_membership_far_past_the_apery_table():
    # Iterative memoized recurrence: no RecursionError at depth 50_000.
    assert create_semigroup([2, 3]).order(100_000) == 50_000
    S = create_semigroup([16, 18, 21, 27])
    assert S.contains(10**9)
    assert not S.contains(S.frobenius)


def test_order_size_limit(monkeypatch):
    # one deep call, and orders asked in steps that each add a few values
    monkeypatch.setattr(semigroup, "ORDERS_LIMIT", 100)
    with pytest.raises(SizeLimit):
        create_semigroup([2, 3]).order(1_000)
    S = create_semigroup([2, 3])
    assert S.order(90) == 45
    with pytest.raises(SizeLimit):
        for s in range(90, 1_000):
            S.order(s)
    assert S.order(90) == 45  # what the walk memoized before the cap stays


@given(st.lists(st.integers(2, 40), min_size=1, max_size=5), st.integers(0, 60), st.booleans())
@settings(max_examples=200, deadline=None)
def test_the_table_orders_are_those_of_the_order_walk(gens, past, asked_first):
    # the table takes the orders of the Apery set in one pass over its sorted
    # elements; they are S.order's, also on a semigroup whose memo already
    # holds orders off the Apery set (s is above its largest element)
    gens = gens + [gens[0] + 1]
    S = create_semigroup(gens)
    if asked_first:
        S.order(max(S._apery) + 1 + past)
    table = S.apery_table()
    walk = create_semigroup(gens)
    assert table.orders == tuple(walk.order(e) for e in table.elements)
    assert table.orders == tuple(S.order(e) for e in table.elements)
    assert table.socle_degree == max(table.orders)


def test_apery_table_size_limit(monkeypatch):
    # the table's pass holds one order per Apery element
    monkeypatch.setattr(semigroup, "ORDERS_LIMIT", 12)
    assert create_semigroup([12, 13]).apery_table().orders[-1] == 11
    with pytest.raises(SizeLimit):
        create_semigroup([13, 14]).apery_table()


def test_order_rejects_non_members():
    S = create_semigroup([8, 10, 11, 12])
    with pytest.raises(NotInSemigroup):
        S.order(25)


def test_representations_22():
    S = create_semigroup([8, 10, 11, 12])
    reps = semigroup_oracle.representations(S, 22)
    assert reps == [(0, 1, 0, 1), (0, 0, 2, 0)]  # lex descending
    assert reps == sorted(oracle_representations((8, 10, 11, 12), 22), reverse=True)


def test_representations_zero_and_99():
    S = create_semigroup([16, 18, 21, 27])
    assert semigroup_oracle.representations(S, 0) == [(0, 0, 0, 0)]
    exps = set(semigroup_oracle.representations(S, 99))
    assert (0, 4, 0, 1) in exps and (0, 2, 3, 0) in exps


def test_maximal_representations():
    S = create_semigroup([8, 10, 11, 12])
    maxr = S.maximal_representations(22)
    assert maxr == [(0, 1, 0, 1), (0, 0, 2, 0)]
    assert all(sum(r) == S.order(22) == 2 for r in maxr)

    T = create_semigroup([15, 21, 35])
    assert T.maximal_representations(84) == [(0, 4, 0)]

    for g, unit in zip(T.generators, ((1, 0, 0), (0, 1, 0), (0, 0, 1))):
        assert T.maximal_representations(g) == [unit]


def test_max_apery_element_of_8_10_11_12_has_two_maximal_representations():
    # 33 = 10+11+12 = 3*11, both of degree 3 = ord(33)
    S = create_semigroup([8, 10, 11, 12])
    exps = S.maximal_representations(33)
    assert exps == [(0, 1, 1, 1), (0, 0, 3, 0)]
    oracle = [
        e for e in oracle_representations((8, 10, 11, 12), 33) if sum(e) == 3
    ]
    assert sorted(exps) == sorted(oracle)


def test_maximal_representations_are_the_representations_of_top_degree(corpus):
    # the walk down the order recurrence finds every maximal representation
    for S in corpus:
        for s in range(S.frobenius + 2 * S.multiplicity + 1):
            if S.contains(s):
                top = [r for r in semigroup_oracle.representations(S, s) if sum(r) == S.order(s)]
                assert S.maximal_representations(s) == top, (S.generators, s)


@st.composite
def codim_2_to_5_semigroups(draw):
    """The generator tuple of a semigroup with 3 to 6 minimal generators."""
    m = draw(st.integers(3, 20))
    rest = draw(st.lists(st.integers(m + 1, 4 * m), min_size=2, max_size=5, unique=True))
    try:
        gens = create_semigroup([m] + rest).generators
    except AperyError:
        gens = ()
    assume(3 <= len(gens) <= 6)
    return gens


@given(codim_2_to_5_semigroups(), st.booleans())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_the_max_reps_pass_gives_the_walks_maximal_representations(gens, frame_first):
    # the table's one pass over the sorted Apery set gives every element the
    # representations that maximal_representations walks down to on a fresh
    # semigroup, and counts as many toward MAXIMAL_REPS_LIMIT; a frame built
    # first leaves values in the memo that the pass keeps
    S, walk = create_semigroup(gens), create_semigroup(gens)
    if frame_first:
        S.frame()
    table = S.apery_table()
    assert table.max_reps == tuple(tuple(walk.maximal_representations(e)) for e in table.elements)
    assert S._reps_built == walk._reps_built
    assert all(sum(r) == d and r[0] == 0 for reps, d in zip(table.max_reps, table.orders) for r in reps)


def test_the_max_reps_pass_stops_at_the_cap(monkeypatch):
    # one representation per Apery element of <30000, 30001, 30002>: the pass
    # raises at the first value past the cap, with no more of them built
    monkeypatch.setattr(semigroup, "MAXIMAL_REPS_LIMIT", 1_000)
    S = create_semigroup([30000, 30001, 30002])
    with pytest.raises(SizeLimit):
        S.apery_table().max_reps
    assert S._reps_built == 1_001 and len(S._max_reps) == 1_000
    # many representations per element, past those the frame built first
    S = create_semigroup([40, 61, 62, 63, 64, 65])
    S.frame()
    monkeypatch.setattr(semigroup, "MAXIMAL_REPS_LIMIT", S._reps_built + 50)
    with pytest.raises(SizeLimit):
        S.apery_table().max_reps
    assert S._reps_built > semigroup.MAXIMAL_REPS_LIMIT and len(S._max_reps) < S.multiplicity


# -- m-purity --------------------------------------------------------------------

def test_m_pure_paper_instances():
    assert create_semigroup([8, 10, 11, 12]).apery_table().m_pure_verdict().symmetric
    assert create_semigroup([6, 7, 8, 9, 10]).apery_table().m_pure_verdict().symmetric


def test_m_pure_failure_with_witness():
    verdict = create_semigroup([4, 5, 6, 7]).apery_table().m_pure_verdict()
    assert not verdict.symmetric
    w = verdict.witness
    assert w.condition == "sum"
    assert {w.left, w.right} == {5, 6} and w.expected == 7


def test_is_symmetric_is_the_definition(corpus):
    # exactly one of s and F - s is in S, for every 0 <= s <= F
    symmetric = 0
    for S in corpus:
        F = S.frobenius
        expected = all(S.contains(s) != S.contains(F - s) for s in range(F + 1))
        assert S.is_symmetric() == expected, S
        symmetric += expected
    assert 0 < symmetric < len(corpus)


def test_m_pure_semigroups_are_symmetric(corpus):
    # Kunz: the sweep rejects a semigroup that is not symmetric as not m-pure
    pure = [S for S in corpus if S.apery_table().m_pure_verdict()]
    assert pure
    assert all(S.is_symmetric() for S in pure)


def test_symmetric_hilbert_without_m_purity():
    # order symmetry is strictly stronger than a symmetric Hilbert function
    from aperylef import build_algebra

    S = create_semigroup([4, 5, 7])
    table = S.apery_table()
    A = build_algebra(table)
    info = A.gorenstein_info()
    assert A.hilbert() == (1, 2, 1)
    assert info["hilbert_symmetric"]
    assert info["socle_dimension"] == 2
    assert not table.m_pure_verdict().symmetric


# -- frame data --------------------------------------------------------------------

def test_beta_gamma_paper_values():
    f1 = compute_beta_gamma(create_semigroup([8, 10, 11, 12]))
    assert f1.beta == (1, 3, 1) and f1.gamma == (1, 1, 1)
    assert f1.rho == (0, 1, 0)

    f2 = compute_beta_gamma(create_semigroup([15, 21, 35]))
    assert f2.beta == f2.gamma == (4, 2)
    assert f2.rho == (0, 0)

    f3 = compute_beta_gamma(create_semigroup([16, 18, 21, 27]))
    assert f3.beta == (4, 3, 1) and f3.gamma == (4, 2, 1)
    assert f3.gamma_witness[2] == (0, 2, 0, 1)  # 63 = 2*18 + 27


def test_beta_gamma_of_2400_2401_2402():
    frame = create_semigroup([2400, 2401, 2402]).frame()
    assert frame.beta == frame.gamma == (1, 1199)
    assert frame.rho == (0, 0) and frame.gamma_witness == {}
    assert frame.is_monomial_ci()


def test_beta_gamma_oracle_16_18_21_27():
    S = create_semigroup([16, 18, 21, 27])
    table = S.apery_table()
    apery_orders = dict(zip(table.elements, table.orders))
    frame = compute_beta_gamma(S)
    for pos, g in enumerate(S.generators[1:], start=1):
        valid_beta = [0]
        valid_gamma = [0]
        for h in range(1, table.elements[-1] // g + 2):
            reps = oracle_representations(S.generators, h * g)
            if not reps:
                continue
            order = max(map(sum, reps))
            if apery_orders.get(h * g) == h == order:
                valid_beta.append(h)
                if sum(1 for e in reps if sum(e) == order) == 1:
                    valid_gamma.append(h)
        assert frame.beta[pos - 1] == max(valid_beta)
        assert frame.gamma[pos - 1] == max(valid_gamma)


def small_minimal_tuples():
    """The semigroups minimally generated by m < g_2 < ... <= m + 14, for
    m = 2..11 and 2 to 5 generators: codimensions 1 to 4."""
    for m in range(2, 12):
        for count in range(2, 6):
            yield from semigroup.minimal_tuples(m, count, m + 14)


def test_the_frame_scan_stops_at_the_first_h_that_fails():
    # the h with h*g an Apery element of order h are 1..beta, and those
    # with a unique maximal representation 1..gamma, so the scan that stops
    # at the first failing h gives the frame of the scan over every h
    cases = gapped = 0
    for S in small_minimal_tuples():
        frame = S.frame()
        got = (frame.beta, frame.gamma, frame.rho, frame.gamma_witness)
        assert got == semigroup_oracle.frame_by_full_scan(S), S
        cases += 1
        gapped += any(b >= g + 2 for b, g in zip(frame.beta, frame.gamma))
    assert cases > 3000 and gapped > 50


def test_symmetry_by_the_apery_sum_is_the_pairing_test():
    # 2*sum(Ap) == m*max(Ap) is g == (F + 1)/2 by Selmer's formula
    verdicts = [(S.is_symmetric(), semigroup_oracle.is_symmetric_by_pairing(S)) for S in small_minimal_tuples()]
    assert all(got == want for got, want in verdicts)
    assert 100 < sum(got for got, _ in verdicts) < len(verdicts)


def test_box_elements_paper_cases():
    f1 = compute_beta_gamma(create_semigroup([8, 10, 11, 12]))
    assert set(f1.box_gamma) == set(f1.table.elements)  # Gamma = Ap
    assert f1.gamma_minus_apery() == ()
    assert set(f1.box_b) > set(f1.table.elements)  # B strictly larger
    assert f1.b_minus_apery() == tuple(sorted(set(f1.box_b) - set(f1.table.elements)))
    assert set(f1.table.elements) <= set(f1.box_gamma) <= set(f1.box_b)

    f2 = compute_beta_gamma(create_semigroup([15, 21, 35]))
    assert set(f2.box_b) == set(f2.table.elements)  # B = Ap: monomial CI
    assert f2.b_minus_apery() == ()

    f3 = compute_beta_gamma(create_semigroup([6, 7, 8, 9, 10]))
    assert f3.box_b == f3.box_gamma  # Gamma = B
    assert 15 in f3.gamma_minus_apery()
    assert f3.gamma_minus_apery() == f3.b_minus_apery()
    assert f3.box_gamma_points() == 16
    assert len(set(f3.box_gamma)) == 15


# -- randomized invariant suite ----------------------------------------------------

@given(
    st.lists(st.integers(1, 40), min_size=1, max_size=5).flatmap(
        lambda rest: st.tuples(st.just((1,) + tuple(rest)),
                               st.lists(st.integers(0, 5), min_size=len(rest), max_size=len(rest)))
    )
)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_box_values_are_the_values_of_every_box_tuple(case):
    # the first generator takes no part, as in the frame's boxes
    gens, bounds = case
    assert semigroup._box_values(gens, bounds) == semigroup_oracle.box_values(gens, bounds)


def test_randomized_invariants(corpus):
    rng = random.Random(7)
    assert len(corpus) >= 200
    for S in corpus:
        table = S.apery_table()
        # one apery element per residue class
        assert len(table.elements) == S.multiplicity
        assert len({e % S.multiplicity for e in table.elements}) == S.multiplicity
        frame = compute_beta_gamma(S)
        apery = set(table.elements)
        assert apery <= set(frame.box_gamma) <= set(frame.box_b)
        # outermost bounds always coincide
        assert frame.gamma[0] == frame.beta[0]
        assert frame.gamma[-1] == frame.beta[-1]
        # every apery element stays outside S after one multiplicity step
        for e in table.elements:
            assert not S.contains(e - S.multiplicity)
        # every maximal representation fits the beta box, and the
        # lex-greatest one additionally fits the gamma box
        for reps in table.max_reps:
            for r in reps:
                assert all(l <= b for l, b in zip(r[1:], frame.beta))
            lex_max = reps[0]
            assert all(l <= g for l, g in zip(lex_max[1:], frame.gamma))
        # superadditivity of the order on sampled pairs
        for _ in range(20):
            s, t = rng.choice(table.elements), rng.choice(table.elements)
            assert S.order(s + t) >= S.order(s) + S.order(t)
        # maximal representations are representations of the right degree
        for e, reps in zip(table.elements, table.max_reps):
            everything = semigroup_oracle.representations(S, e)
            for r in reps:
                assert r in everything
                assert sum(r) == S.order(e)
                assert r[0] == 0
