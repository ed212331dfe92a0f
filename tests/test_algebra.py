import math
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bareiss_oracle
import colon_oracle
import exponent_oracle
import multiplication_oracle
import product_oracle
import relations_oracle
from aperylef import algebra as algebra_module
from aperylef import (
    AperyError,
    DegreeOutOfRange,
    InternalFault,
    InvalidStep,
    LinearForm,
    NotApplicable,
    SizeLimit,
    SparsePoly,
    box_algebra,
    build_algebra,
    build_gamma_algebra,
    ci_tilde_ideal,
    codim3_defining_ideal,
    compute_beta_gamma,
    create_semigroup,
    multiplication_matrix,
    parse_polynomial,
    rank_info,
    transfer_wlp,
)
from aperylef.cli import analyze_record
from aperylef.linalg import POINT_PRIME, fraction_rank, point_rank
from relations_oracle import brute_force_relations, same_ideal_through_degree


def algebra_of(gens):
    return build_algebra(create_semigroup(list(gens)).apery_table())


def gaussian_hilbert(degrees):
    """Coefficient oracle: product of (1 + t + ... + t^(d-1)) factors."""
    coeffs = [1]
    for d in degrees:
        out = [0] * (len(coeffs) + d - 1)
        for i, a in enumerate(coeffs):
            for j in range(d):
                out[i + j] += a
        coeffs = out
    return tuple(coeffs)


# -- build_algebra ------------------------------------------------------------

def test_graded_dimensions_8_10_11_12():
    A = algebra_of([8, 10, 11, 12])
    assert A.hilbert() == (1, 3, 3, 1)
    assert A.variables == ("y", "z", "w")


def test_products_follow_apery_membership():
    A = algebra_of([8, 10, 11, 12])
    assert A.var_labels == (10, 11, 12)
    assert A.times[10][2] == 22
    assert A.times[10][0] is None  # 20 leaves the apery set
    product = product_oracle.products(A)
    for label in (0, 10, 11, 12, 21, 22, 23, 33):
        assert product(0, label) == product(label, 0) == label
    table = create_semigroup([8, 10, 11, 12]).apery_table()
    order_of = table.order_of
    for a in table.elements:
        for v, image in zip(A.var_labels, A.times[a]):
            member = a + v in order_of and order_of[a + v] == order_of[a] + 1
            assert image == (a + v if member else None)


def test_hilbert_function_values():
    assert algebra_of([16, 18, 21, 27]).hilbert() == (1, 3, 4, 4, 3, 1)
    assert algebra_of([1]).hilbert() == (1,)
    # oracle: count apery elements per order
    table = create_semigroup([16, 18, 21, 27]).apery_table()
    counts = [0] * (max(table.orders) + 1)
    for o in table.orders:
        counts[o] += 1
    assert algebra_of([16, 18, 21, 27]).hilbert() == tuple(counts)


def test_hilbert_total_is_multiplicity(corpus):
    for S in corpus[:60]:
        A = build_algebra(S.apery_table())
        assert sum(A.hilbert()) == S.multiplicity


# -- gamma algebra -------------------------------------------------------------

def test_gamma_algebra_16_18_21_27():
    frame = compute_beta_gamma(create_semigroup([16, 18, 21, 27]))
    G = build_gamma_algebra(frame)
    assert G.dimension == 30
    assert G.hilbert() == gaussian_hilbert((5, 3, 2))
    assert G.hilbert() == (1, 3, 5, 6, 6, 5, 3, 1)
    # the rewrite z^3 -> y^2*w in action
    assert G.var_labels[1] == (0, 1, 0)
    assert G.times[(0, 2, 0)][1] == (2, 0, 1)


def test_gamma_algebra_ci_cases_return_apery_algebra():
    frame = compute_beta_gamma(create_semigroup([15, 21, 35]))
    G = build_gamma_algebra(frame)
    assert G.kind == "apery"
    assert G.dimension == 15

    frame2 = compute_beta_gamma(create_semigroup([8, 10, 11, 12]))
    assert build_gamma_algebra(frame2).hilbert() == (1, 3, 3, 1)


def test_gamma_algebra_not_applicable_for_codim4_non_ci():
    frame = compute_beta_gamma(create_semigroup([6, 7, 8, 9, 10]))
    with pytest.raises(NotApplicable):
        build_gamma_algebra(frame)


# -- multiplication matrices -----------------------------------------------------

def test_multiplication_matrix_rational():
    A = algebra_of([8, 10, 11, 12])
    M = multiplication_matrix(A, LinearForm.rational([1, 1, 1]), 1, 1)
    assert M.row_labels == [21, 22, 23] and M.col_labels == [10, 11, 12]
    values = [[int(e.constant_value()) for e in row] for row in M.entries]
    assert values == [[1, 1, 0], [1, 1, 1], [0, 1, 1]]
    assert bareiss_oracle.determinant(M) == Fraction(-1)


def test_multiplication_matrix_single_variable_rank():
    # y*10 = 0, y*11 = 21, y*12 = 22: two independent images
    A = algebra_of([8, 10, 11, 12])
    M = multiplication_matrix(A, LinearForm.rational([1, 0, 0]), 1, 1)
    assert rank_info(M)[0] == 2


def test_multiplication_matrix_degree_zero_column():
    A = algebra_of([8, 10, 11, 12])
    M = multiplication_matrix(A, LinearForm.symbolic(A), 0, 1)
    assert M.ncols == 1 and M.nrows == 3
    column = [str(row[0]) for row in M.entries]
    assert column == ["y", "z", "w"]


def test_multiplication_matrix_symbolic_generic_rank():
    A = algebra_of([8, 10, 11, 12])
    M = multiplication_matrix(A, LinearForm.symbolic(A), 1, 1)
    assert rank_info(M)[0] == 3


def test_multiplication_matrix_degree_errors():
    A = algebra_of([8, 10, 11, 12])
    with pytest.raises(DegreeOutOfRange):
        multiplication_matrix(A, LinearForm.symbolic(A), 3, 1)
    with pytest.raises(DegreeOutOfRange):
        multiplication_matrix(A, LinearForm.symbolic(A), 0, 4)


def test_a_one_step_map_does_no_polynomial_arithmetic(monkeypatch):
    """A map by the form itself holds its coefficient polynomials as they
    are; only a map of two or more steps multiplies, and adds only where
    two paths meet."""
    calls = []
    for name in ("__add__", "__mul__"):
        original = getattr(SparsePoly, name)
        monkeypatch.setattr(SparsePoly, name, lambda a, b, f=original, n=name: calls.append(n) or f(a, b))
    A = algebra_of([16, 18, 21, 27])
    for d in range(A.top_degree):
        multiplication_matrix(A, LinearForm.symbolic(A), d, 1)
        multiplication_matrix(A, LinearForm.rational([2, 0, -1]), d, 1)
    assert calls == []
    multiplication_matrix(A, LinearForm.symbolic(A), 0, 2)
    # the second step multiplies once per nonzero product of two variables,
    # and adds once per such product that meets a path already there
    products = [image for a in A.var_labels for image in A.times[a]]
    products = [p for p in products if p is not None]
    assert calls.count("__mul__") == len(products)
    assert calls.count("__add__") == len(products) - len(set(products)) > 0


def test_paths_that_cancel_leave_the_zero_entry():
    """y*w, w*y and z^2 = y*w reach one label from 1, and at (1, 2, -2) the
    three paths give 1*(-2) + (-2)*1 + 2*2 = 0: the entry is the zero
    polynomial, with no term left standing."""
    G = box_algebra(("y", "z", "w"), (1, 1, 1), rewrite=(1, (1, 0, 1)))
    L = LinearForm.rational([1, 2, -2])
    got = multiplication_matrix(G, L, 0, 2)
    assert got.entries == multiplication_oracle.multiplication_matrix(G, L, 0, 2).entries
    assert got.entries[got.row_labels.index((1, 0, 1))][0].terms == {}


@st.composite
def symbolic_map_algebras(draw):
    """An algebra whose maps multiplication_matrix builds: the Apery algebra
    of a semigroup with 4 or 5 minimal generators, or a box algebra on three
    variables with a degree-preserving rewrite of one pure power into a
    mixed monomial, as a gamma algebra has."""
    if draw(st.booleans()):
        m = draw(st.integers(4, 9))
        rest = draw(st.sets(st.integers(m + 1, 3 * m), min_size=3, max_size=4))
        gens = [m] + sorted(rest)
        assume(math.gcd(*gens) == 1)
        A = algebra_of(gens)
        assume(A.exponents is None)  # 4 or 5 minimal generators
        return A
    bounds = [draw(st.integers(1, 3)) for _ in range(3)]
    i = draw(st.integers(0, 2))
    j, k = [x for x in range(3) if x != i]
    a = draw(st.integers(1, bounds[i]))
    repl = [0, 0, 0]
    repl[j], repl[k] = a, bounds[i] + 1 - a
    return box_algebra(("y", "z", "w"), bounds, rewrite=(i, tuple(repl)), kind="gamma")


def every_map(alg):
    D = alg.top_degree
    return [(d, power) for d in range(D) for power in range(1, D - d + 1)]


def term_lists(matrix):
    return [[list(e.terms.items()) for e in row] for row in matrix.entries]


@given(symbolic_map_algebras(), st.lists(st.integers(-3, 3), min_size=3, max_size=4))
@settings(max_examples=25, deadline=None, derandomize=True)
def test_maps_equal_the_reference_builder(A, values):
    """Every map, by the generic form and by a rational one, equals the map
    of the builder that does every step's arithmetic; so does every map of
    a colon quotient, which builds its own.  Ranking the maps and taking
    their ranks at a point leave every entry's terms as they were, though
    entries are shared."""
    values = (values * 2)[: len(A.variables)]
    assume(any(values))
    forms = [LinearForm.symbolic(A), LinearForm.rational(values)]
    point = dict(zip(A.variables, range(2, 9)))
    held = {}
    for d, power in every_map(A):
        for L in forms:
            got = multiplication_matrix(A, L, d, power)
            want = multiplication_oracle.multiplication_matrix(A, L, d, power)
            assert (got.row_labels, got.col_labels) == (want.row_labels, want.col_labels)
            assert got.entries == want.entries, (d, power, L)
            held[d, power, L] = got, term_lists(got)
        held[d, power, "map"] = A.map_matrix(d, power), term_lists(A.map_matrix(d, power))
    for matrix, _ in held.values():
        rank_info(matrix)
        point_rank(matrix, point)
    for Q in filter(None, map(A.colon_step, A.variables)):
        for d, power in every_map(Q):
            want = multiplication_oracle.multiplication_matrix(Q, LinearForm.symbolic(Q), d, power)
            assert Q.map_matrix(d, power).entries == want.entries, (Q.variables, d, power)
    for matrix, terms in held.values():
        assert term_lists(matrix) == terms


# -- colon ideals ------------------------------------------------------------------

def test_colon_monomial_box():
    G = box_algebra(("y", "z"), (4, 2))  # K[y,z]/(y^5, z^3)
    Q = G.colon_step("z")
    assert Q.hilbert() == (1, 2, 2, 2, 2, 1)
    ideal = colon_oracle.annihilator(G, Q)
    assert ideal == [[(y, 2) for y, z in labels if z == 2] for labels in G.basis]
    assert sum(map(len, ideal)) + Q.dimension == G.dimension


def test_colon_large_power_gives_zero_quotient():
    G = box_algebra(("y", "z"), (4, 2))
    assert colon_oracle.colon_steps(G, "z", 2) is not None
    assert colon_oracle.colon_steps(G, "z", 3) is None
    assert colon_oracle.colon_steps(G, "z", G.top_degree + 1) is None


def test_colon_by_a_name_that_is_not_a_variable_is_an_invalid_step():
    # a colon step by such a name is None, as by a killed variable; a
    # quotient chain refuses the name
    G = box_algebra(("y", "z"), (4, 2))
    A = algebra_of([8, 10, 11, 12])
    for alg, name in [(G, "w"), (G, "Y"), (G, ""), (A, "x2")]:
        assert alg.colon_step(name) is None
        with pytest.raises(InvalidStep, match="not a variable"):
            transfer_wlp(alg, [(name, 1)], seed=0)


def test_a_colon_step_is_built_once_per_variable():
    # an algebra keeps each quotient as it keeps each map, so a chain and the
    # codim-3 identification walk the same quotients
    for alg in (box_algebra(("y", "z"), (4, 2)), algebra_of([16, 18, 21, 27]), algebra_of([8, 10, 11, 12])):
        for v in alg.variables:
            Q = alg.colon_step(v)
            assert Q is not None and alg.colon_step(v) is Q
            assert Q.hilbert() == tuple(len(b) for b in Q.basis)
    G = box_algebra(("y", "z"), (1, 0))
    assert G.colon_step("z") is None and G.colon_step("z") is None


def test_colon_reproduces_apery_algebra_from_gamma_box():
    S = create_semigroup([16, 18, 21, 27])
    G = build_gamma_algebra(compute_beta_gamma(S))
    Q = G.colon_step("z").colon_step("z")
    assert Q.hilbert() == build_algebra(S.apery_table()).hilbert() == (1, 3, 4, 4, 3, 1)


def test_colon_subspace_is_an_ideal(corpus):
    for S in corpus[:25]:
        A = build_algebra(S.apery_table())
        if A.top_degree < 1:
            continue
        for var in A.variables[:2]:
            Q = A.colon_step(var)
            ideal = colon_oracle.annihilator(A, Q)
            members = {lab for labels in ideal for lab in labels}
            for label in members:
                for image in A.times[label]:
                    assert image is None or image in members
                # (0:x) is what x kills
                assert A.times[label][A.variables.index(var)] is None
            # dimension additivity in every degree
            padded = list(Q.hilbert()) + [0] * (A.top_degree + 1 - len(Q.hilbert()))
            for d in range(A.top_degree + 1):
                assert len(ideal[d]) + padded[d] == A.hilbert()[d]


# -- maps of colon quotients -------------------------------------------------------

# the benchmark's named instances, and <16,18,21,27>, whose codimension-3
# chain has C = 2 steps, so its second step is a quotient of a quotient
NAMED_INSTANCES = (
    (120, 216, 291, 328), (102, 177, 192, 202), (60, 66, 71, 77, 83), (16, 18, 21, 27),
)


def slice_cases(corpus):
    """(parent, colon quotient) pairs.

    The single-variable colon quotients of the apery algebras of the m-pure
    corpus members and of the named instances (those of the conjecture
    harness), and for every codimension-3 structured one the quotient of the
    gamma box by the C-th power of z and the chain of C single z-steps (each
    step a quotient of the one before).
    """
    semigroups = [S for S in corpus if S.apery_table().m_pure_verdict()]
    semigroups += [create_semigroup(list(g)) for g in NAMED_INSTANCES]
    for S in semigroups:
        A = build_algebra(S.apery_table())
        for var in A.variables:
            Q = A.colon_step(var)
            if Q is not None:
                yield A, Q
        frame = S.frame()
        if len(S.generators) != 4 or frame.is_ci() or not S.apery_table().m_pure_verdict():
            continue
        C = codim3_defining_ideal(S).data["C"]
        G = build_gamma_algebra(frame)
        yield G, colon_oracle.colon_by_power(G, "z", C)
        step = G
        for _ in range(C):
            Q = step.colon_step("z")
            if Q is None:
                break
            yield step, Q
            step = Q


def kept_variables(parent, Q):
    """The positions in parent's variables of the variables Q keeps."""
    return [parent.var_labels.index(lab) for lab in Q.var_labels]


def sliced(full, rows, cols, kept, symbols):
    """full's entries on the given rows and columns, each polynomial restated
    over symbols, those of the kept variables; no entry may hold the symbol
    of a variable that is not kept."""
    row_at = {lab: i for i, lab in enumerate(full.row_labels)}
    col_at = {lab: j for j, lab in enumerate(full.col_labels)}

    def restate(entry):
        if not isinstance(entry, SparsePoly):
            return entry
        assert all(not x for exps in entry.terms for i, x in enumerate(exps) if i not in kept)
        return SparsePoly(symbols, {tuple(exps[i] for i in kept): c for exps, c in entry.terms.items()})

    return [[restate(full.entries[row_at[r]][col_at[c]]) for c in cols] for r in rows]


def map_cases(alg):
    """The maps the routes rank on quotients, the power-2 maps and the
    narrow-sense SLP maps; checking every power costs about 4 s more."""
    D = alg.top_degree
    for d in range(D):
        for power in sorted({1, 2, D - 2 * d}):
            if 1 <= power and d + power <= D:
                yield d, power


def check_torus_identity(alg, d, power, rng):
    """alg's symbolic map at 3 random points t >= 1 is
    diag(t^r(w')) M(1) diag(t^-r(w)), with M(1) its map_matrix and r the
    exponents of the monomial algebra it is."""
    counts = alg.map_matrix(d, power)
    symbolic = multiplication_oracle.multiplication_matrix(alg, LinearForm.symbolic(alg), d, power)
    assert counts.row_labels == symbolic.row_labels
    assert counts.col_labels == symbolic.col_labels
    assert all(isinstance(e, int) for row in counts.entries for e in row)
    for _ in range(3):
        point = [rng.randint(1, 50) for _ in alg.variables]

        def weight(lab):
            return math.prod(Fraction(t) ** k for t, k in zip(point, alg.exponents[lab]))

        image = [
            [weight(top) * c / weight(bottom) for bottom, c in zip(counts.col_labels, row)]
            for top, row in zip(counts.row_labels, counts.entries)
        ]
        assert symbolic.specialize(dict(zip(alg.variables, point))).entries == image
    return counts, symbolic


@pytest.fixture
def built(monkeypatch):
    """The kinds of the algebras whose symbolic maps the package builds, a
    one-step map off the table or a longer one with multiplication_matrix;
    the tests' own calls of multiplication_matrix are not counted."""
    kinds = []
    original, one_step = algebra_module.multiplication_matrix, algebra_module.OneStepMap.__init__

    def recording(alg, L, d, power=1):
        kinds.append(alg.kind)
        return original(alg, L, d, power)

    def recording_one_step(self, alg, d):
        kinds.append(alg.kind)
        one_step(self, alg, d)

    monkeypatch.setattr(algebra_module, "multiplication_matrix", recording)
    monkeypatch.setattr(algebra_module.OneStepMap, "__init__", recording_one_step)
    return kinds


def test_quotient_maps_are_slices_of_the_parent_maps(corpus, built):
    """A colon quotient builds its own maps, and each is its parent's map on
    the quotient's rows and columns: the same path counts on a monomial
    algebra, the same polynomials over the quotient's symbols on any other,
    with no symbol of a killed variable in a row the quotient keeps."""
    quotients = dropping = chained = maps = monomial = 0
    for parent, Q in slice_cases(corpus):
        quotients += 1
        kept = kept_variables(parent, Q)
        dropping += len(kept) < len(parent.variables)
        chained += parent.kind == "quotient"
        monomial += Q.exponents is not None
        for d, power in map_cases(Q):
            got = Q.map_matrix(d, power)
            assert got.row_labels == list(Q.basis[d + power]) and got.col_labels == list(Q.basis[d])
            want = sliced(parent.map_matrix(d, power), got.row_labels, got.col_labels, kept, Q.variables)
            assert got.entries == want, (Q, d, power)
            maps += 1
    assert "quotient" in built  # a non-monomial quotient builds its maps itself
    assert quotients > 100 and maps > 2000
    assert dropping and chained and monomial


# small codimension-3 structured semigroups, with chains of C = 1, 2 and 3
# single z-steps from their gamma algebras
GAMMA_INSTANCES = (
    (5, 6, 7, 8), (8, 9, 11, 13), (8, 10, 11, 13), (8, 11, 13, 14), (16, 18, 21, 27),
    (11, 14, 15, 18), (11, 15, 18, 19),
)


@st.composite
def quotient_roots(draw):
    """(algebra, quotients): an Apery algebra of 2 to 5 generators, a box
    algebra with a rewrite, or a gamma algebra, with the gamma algebra's
    codimension-3 chain steps G/(0:z^k), k = 1..C, as extra quotients."""
    kind = draw(st.sampled_from(["apery", "box", "gamma"]))
    if kind == "apery":
        m = draw(st.integers(3, 9))
        rest = draw(st.sets(st.integers(m + 1, 3 * m), min_size=1, max_size=4))
        gens = [m] + sorted(rest)
        assume(math.gcd(*gens) == 1)
        return algebra_of(gens), []
    if kind == "box":
        return draw(symbolic_map_algebras().filter(lambda A: A.kind == "gamma")), []
    S = create_semigroup(list(draw(st.sampled_from(GAMMA_INSTANCES))))
    G = build_gamma_algebra(S.frame())
    C = codim3_defining_ideal(S).data["C"]
    return G, [colon_oracle.colon_steps(G, "z", k) for k in range(1, C + 1)]


@given(quotient_roots())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_colon_quotients_build_their_own_maps(root):
    """Every colon quotient to depth 2 is an algebra of its own: its maps
    equal the reference builder's on the quotient (a monomial quotient's as
    the torus identity with its own exponents), and the exponents of a
    monomial quotient are its parent's on its labels, with the killed
    coordinates, which are 0 there, dropped."""
    A, chain = root
    pairs = [(A, Q) for Q in chain]
    layer = [A]
    for _ in range(2):
        layer_pairs = [(P, Q) for P in layer for Q in map(P.colon_step, P.variables) if Q is not None]
        pairs += layer_pairs
        layer = [Q for _, Q in layer_pairs]
    rng = random.Random(repr(A))
    for parent, Q in pairs:
        assert (Q.exponents is None) == (parent.exponents is None)
        if Q.exponents is not None:
            kept = kept_variables(parent, Q)
            labels = [lab for labels in Q.basis for lab in labels]
            assert set(Q.exponents) == set(labels)
            for lab in labels:
                r = parent.exponents[lab]
                assert Q.exponents[lab] == tuple(r[i] for i in kept)
                assert not any(x for i, x in enumerate(r) if i not in kept)
        for d, power in every_map(Q):
            if Q.exponents is not None:
                check_torus_identity(Q, d, power, rng)
                continue
            got = Q.map_matrix(d, power)
            want = multiplication_oracle.multiplication_matrix(Q, LinearForm.symbolic(Q), d, power)
            assert (got.row_labels, got.col_labels) == (want.row_labels, want.col_labels)
            assert got.entries == want.entries, (Q, d, power)


def one_step_draws(alg, rng):
    """Points for a one-step map: witness-sized values; values in 0..2,
    where many maps are deficient; values that vanish modulo the point
    prime or have it in their denominator, where the rank mod p can fall
    below the rank over Q; and rational values."""
    unlucky = [POINT_PRIME, 2 * POINT_PRIME, POINT_PRIME + 1, Fraction(1, POINT_PRIME), 1, 2]
    for values in (lambda: rng.randint(1, 10_000), lambda: rng.randint(0, 2),
                   lambda: rng.choice(unlucky), lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 4))):
        for _ in range(3):
            yield {v: values() for v in alg.variables}


@given(quotient_roots())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_one_step_maps_are_the_builders_maps_read_off_the_table(root):
    """Every one-step map of a non-monomial algebra, on the algebra, its
    chain quotients and its colon quotients to depth 2, is read off the
    table: at each draw its rank_at is point_rank of the map that
    multiplication_matrix builds by the generic form, the independent
    builder, and then its symbolic entries are that map's entries."""
    A, chain = root
    algebras, layer = [A] + chain, [A]
    for _ in range(2):
        layer = [Q for P in layer for Q in map(P.colon_step, P.variables) if Q is not None]
        algebras += layer
    rng = random.Random(repr(A))
    for alg in algebras:
        if alg.exponents is not None:
            continue
        for d in range(alg.top_degree):
            got = alg.map_matrix(d, 1)
            want = multiplication_matrix(alg, LinearForm.symbolic(alg), d, 1)
            assert isinstance(got, algebra_module.OneStepMap)
            for point in one_step_draws(alg, rng):
                assert got.rank_at(point) == point_rank(want, point), (alg, d, point)
            assert (got.row_labels, got.col_labels) == (want.row_labels, want.col_labels)
            assert got.entries == want.entries, (alg, d)


def test_a_one_step_map_of_full_rank_at_a_point_builds_no_polynomial(monkeypatch):
    """A one-step map reads a point into its cells modulo the point prime;
    its symbolic entries are built only for a rank below full there, and
    then point_rank certifies it."""
    built = []
    original = algebra_module.OneStepMap._symbolic_entries
    monkeypatch.setattr(algebra_module.OneStepMap, "_symbolic_entries",
                        lambda self: built.append(self) or original(self))
    A = algebra_of([16, 18, 21, 27])
    point = {"y": 3, "z": 5, "w": 7}
    maps = [A.map_matrix(d, 1) for d in range(A.top_degree)]
    assert [m.rank_at(point) for m in maps] == [1, 3, 4, 3, 1] and built == []
    B = algebra_of([7, 8, 10, 19])  # Hilbert (1, 3, 3), a 3 x 3 map of generic rank 2
    maps = [B.map_matrix(d, 1) for d in range(B.top_degree)]
    assert [m.rank_at(point) for m in maps] == [1, 2] and built == maps[1:]
    assert maps[1].generic_rank() == 2


@given(quotient_roots())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_the_variable_actions_commute_and_generate(root):
    """The table's contract, on the algebra, its chain quotients and its
    colon quotients to depth 2: each variable sends a label to one of the
    next degree or to None, times[times[w][i]][j] == times[times[w][j]][i]
    with None absorbing, and every label of positive degree is an image."""
    A, chain = root
    algebras, layer = [A] + chain, [A]
    for _ in range(2):
        layer = [Q for P in layer for Q in map(P.colon_step, P.variables) if Q is not None]
        algebras += layer
    for alg in algebras:
        degree = {lab: d for d, labels in enumerate(alg.basis) for lab in labels}
        assert set(alg.times) == set(degree)

        def act(w, i):
            return None if w is None else alg.times[w][i]

        n = len(alg.variables)
        for w in degree:
            assert len(alg.times[w]) == n
            assert all(t is None or degree[t] == degree[w] + 1 for t in alg.times[w])
            for i in range(n):
                for j in range(i + 1, n):
                    assert act(act(w, i), j) == act(act(w, j), i), (alg, w, i, j)
        images = {t for w in degree for t in alg.times[w]} - {None}
        assert images == {lab for lab, d in degree.items() if d > 0}, alg


def test_a_colon_quotient_of_a_monomial_algebra_may_be_the_zero_ring():
    A = algebra_of([8, 10, 11])
    assert A.exponents is not None
    assert colon_oracle.colon_steps(A, "y", A.top_degree + 1) is None
    Q = colon_oracle.colon_by_power(A, "y", A.top_degree + 1)
    assert Q.dimension == 0 and Q.exponents == {}


@given(quotient_roots())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_colon_steps_are_the_colon_by_the_power(root):
    """(0:x^(c+1)) in A is (0:x) in A/(0:x^c): c colon steps by x give the
    one-shot quotient by x^c, for c = 0 to past the top degree, and None
    where that quotient is the zero ring."""
    A, _ = root
    for x in A.variables:
        for c in range(A.top_degree + 2):
            want = colon_oracle.colon_by_power(A, x, c)
            got = colon_oracle.colon_steps(A, x, c)
            if not want.dimension:
                assert got is None, (A, x, c)
                continue
            assert got is not None, (A, x, c)
            assert (got.variables, got.basis, got.var_labels) == (want.variables, want.basis, want.var_labels)
            assert got.times == want.times and got.exponents == want.exponents, (A, x, c)


@st.composite
def three_generator_semigroups(draw):
    g1 = draw(st.integers(3, 14))
    rest = draw(st.lists(st.integers(g1 + 1, 40), min_size=2, max_size=2, unique=True))
    try:
        S = create_semigroup([g1] + rest)
    except AperyError:
        S = None
    assume(S is not None and len(S.generators) == 3)
    return S


@given(three_generator_semigroups())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_codim2_maps_are_torus_images_of_their_path_counts(S):
    # the torus argument: M(t) = diag(t^r(w')) M(1) diag(t^-r(w)), so the
    # generic rank is rank M(1), on the algebra and its colon quotients
    A = build_algebra(S.apery_table())
    assert A.exponents is not None
    rng = random.Random(repr(S.generators))
    for alg in [A] + [Q for Q in map(A.colon_step, A.variables) if Q is not None]:
        for d, power in map_cases(alg):
            counts, symbolic = check_torus_identity(alg, d, power, rng)
            assert rank_info(symbolic)[0] == fraction_rank(counts.entries)


@st.composite
def codim_at_most_2_semigroups(draw):
    g1 = draw(st.integers(2, 16))
    rest = draw(st.lists(st.integers(g1 + 1, 50), min_size=1, max_size=2, unique=True))
    try:
        S = create_semigroup([g1] + rest)
    except AperyError:
        S = None
    assume(S is not None and len(S.generators) <= 3)
    return S


@given(codim_at_most_2_semigroups())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_exponent_vectors_are_those_of_the_walk_over_the_table(S):
    """An Apery algebra of codimension at most 2 reads each label's vector
    off its one maximal representation, and each colon quotient, to depth 2
    and down every power chain, off its parent's: each is the vector that
    the walk over the algebra's own table gives."""
    table = S.apery_table()
    A = build_algebra(table)
    assert all(len(reps) == 1 for reps in table.max_reps)
    assert A.exponents == {e: reps[0][1:] for e, reps in zip(table.elements, table.max_reps)}
    algebras, layer = [A], [A]
    for _ in range(2):
        layer = [Q for P in layer for Q in map(P.colon_step, P.variables) if Q is not None]
        algebras += layer
    algebras += [Q for x in A.variables for c in range(2, A.top_degree + 1)
                 if (Q := colon_oracle.colon_steps(A, x, c)) is not None]
    for alg in algebras:
        assert alg.exponents == exponent_oracle.exponent_vectors(alg), alg
        assert all(len(r) == len(alg.variables) for r in alg.exponents.values())


def test_a_second_maximal_representation_in_a_monomial_algebra_is_an_internal_fault():
    table = create_semigroup([8, 10, 11]).apery_table()
    reps = list(table.max_reps)
    reps[-1] = reps[-1] + ((0, 0, 0),)
    table.__dict__["max_reps"] = tuple(reps)
    with pytest.raises(InternalFault, match="maximal representations"):
        build_algebra(table)


@pytest.mark.parametrize("gens, symbolic", [((8, 10, 11), False), ((16, 18, 21, 27), True)])
def test_ranks_route_builds_symbolic_maps_only_above_codimension_2(gens, symbolic, built):
    analyze_record(list(gens), method="ranks", seed_root=0)
    assert bool(built) == symbolic
    assert (algebra_of(gens).exponents is None) == symbolic


def test_one_algebra_per_table_while_it_is_held():
    table = create_semigroup([8, 10, 11, 12]).apery_table()
    A = build_algebra(table)
    assert build_algebra(table) is A
    assert A.map_matrix(1, 1) is A.map_matrix(1, 1)
    ref = weakref.ref(A)
    del A
    assert ref() is None  # the table holds its algebra only weakly
    assert build_algebra(table).hilbert() == (1, 3, 3, 1)


# -- defining ideals ----------------------------------------------------------------

def test_ci_tilde_ideal_8_10_11_12():
    frame = compute_beta_gamma(create_semigroup([8, 10, 11, 12]))
    ideal = ci_tilde_ideal(frame)
    assert ideal.generator_texts() == ["y^2", "z^2 - y*w", "w^2"]
    assert ideal.data["is_ci"] is True
    assert ideal.data["is_monomial_ci"] is False


def test_ci_tilde_ideal_15_21_35():
    frame = compute_beta_gamma(create_semigroup([15, 21, 35]))
    ideal = ci_tilde_ideal(frame)
    assert ideal.generator_texts() == ["y^5", "z^3"]
    assert frame.rho == (0, 0)
    assert ideal.data["is_monomial_ci"] is True


def test_ci_flag_for_codim4_example():
    frame = compute_beta_gamma(create_semigroup([6, 7, 8, 9, 10]))
    ideal = ci_tilde_ideal(frame)
    assert ideal.data["is_ci"] is False
    assert ideal.data["box_gamma_points"] == 16
    assert ideal.data["box_gamma_elements"] == 15


def test_codim3_defining_ideal_16_18_21_27():
    ideal = codim3_defining_ideal(create_semigroup([16, 18, 21, 27]))
    assert ideal.generator_texts() == [
        "y^5",
        "z^3 - y^2*w",
        "w^2",
        "y^3*z",
        "z*w",
    ]
    d = ideal.data
    assert (d["mu2"], d["mu4"]) == (2, 1)
    assert d["C"] == 2
    assert (d["h2"], d["h3"], d["h4"]) == (3, 1, 1)
    assert (d["omega_d"], d["omega_e"]) == (141, 99)


def test_codim3_not_applicable_cases():
    with pytest.raises(NotApplicable):
        codim3_defining_ideal(create_semigroup([8, 10, 11, 12]))  # CI
    with pytest.raises(NotApplicable):
        codim3_defining_ideal(create_semigroup([15, 21, 35]))  # 3 generators
    with pytest.raises(NotApplicable):
        codim3_defining_ideal(create_semigroup([4, 5, 6, 7]))  # not order-symmetric


# -- brute force relations -------------------------------------------------------------

def test_brute_force_degree2_kernel_8_10_11_12():
    A = algebra_of([8, 10, 11, 12])
    bf = brute_force_relations(A, 2)
    degree2 = bf.data["by_degree"][2]
    texts = {str(p) for p in degree2}
    assert texts == {"y^2", "-y*w + z^2", "w^2"}


def test_brute_force_monomial_ci_15_21_35():
    A = algebra_of([15, 21, 35])
    bf = brute_force_relations(A, 5)
    assert [str(p) for p in bf.data["by_degree"][3]] == ["z^3"]
    degree5 = {str(p) for p in bf.data["by_degree"][5]}
    assert "y^5" in degree5
    expected = [parse_polynomial(t, ("y", "z")) for t in ("y^5", "z^3")]
    assert same_ideal_through_degree(bf.generators, expected, ("y", "z"), 7)


def test_brute_force_matches_codim3_ideal():
    S = create_semigroup([16, 18, 21, 27])
    ideal = codim3_defining_ideal(S)
    bf = brute_force_relations(build_algebra(S.apery_table()), 5)
    assert same_ideal_through_degree(ideal.generators, bf.generators, ideal.variables, 6)
    listed = [
        parse_polynomial(t, ideal.variables)
        for t in ("y^5", "z^3 - y^2*w", "w^2", "z*w", "y^3*z")
    ]
    assert same_ideal_through_degree(ideal.generators, listed, ideal.variables, 6)


def test_rref_nullspace_oracle_reduced_form():
    basis = relations_oracle.rref_nullspace([[0, 1, 0, 1]], 4)
    assert basis == [[1, 0, 0, 0], [0, 0, 1, 0], [0, -1, 0, 1]]
    # the second pivot is cleared from the row above it
    assert relations_oracle.rref_nullspace([[1, 1, 1], [0, 1, 2]], 3) == [[1, -2, 1]]


@st.composite
def small_algebras(draw):
    """An Apery algebra of a few small generators, or a box algebra with an
    optional degree-preserving pure-power rewrite."""
    if draw(st.booleans()):
        m = draw(st.integers(3, 7))
        rest = draw(st.sets(st.integers(m + 1, 3 * m), min_size=1, max_size=3))
        gens = [m] + sorted(rest)
        assume(math.gcd(*gens) == 1)
        return algebra_of(gens)
    n = draw(st.integers(1, 3))
    names = ("y", "z", "w")[:n]
    bounds = [draw(st.integers(1, 3)) for _ in range(n)]
    rewrite = None
    if n > 1 and draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        repl = [0] * n
        for _ in range(bounds[i] + 1):
            repl[draw(st.sampled_from([j for j in range(n) if j != i]))] += 1
        rewrite = (i, tuple(repl))
    return box_algebra(names, bounds, rewrite=rewrite)


@given(small_algebras())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_brute_force_kernel_matches_rref_nullspace(A):
    # each monomial lands on one label or on zero, so the kernel read off the
    # labels is the reduced-echelon nullspace of the evaluation matrix
    top = A.top_degree
    bf = brute_force_relations(A, top + 1)
    for d in range(1, top + 2):
        assert bf.data["by_degree"][d] == relations_oracle.rref_relations(A, d), d


def test_brute_force_size_limit():
    A = algebra_of([250, 251, 252, 253])
    with pytest.raises(SizeLimit):
        brute_force_relations(A, 2)


def test_tilde_ideal_matches_brute_force_for_ci(corpus):
    checked = 0
    for S in corpus:
        if checked >= 8:
            break
        frame = compute_beta_gamma(S)
        if not frame.is_ci() or S.multiplicity > 40 or not frame.gamma:
            continue
        A = build_algebra(S.apery_table())
        top = A.top_degree
        ideal = ci_tilde_ideal(frame)
        bf = brute_force_relations(A, top + 1)
        assert same_ideal_through_degree(
            ideal.generators, bf.generators, ideal.variables, top + 1
        ), S.generators
        checked += 1
    assert checked >= 3


# -- product table sanity ----------------------------------------------------------------

def test_commutativity_and_associativity(corpus):
    for S in corpus[:40]:
        A = build_algebra(S.apery_table())
        if A.dimension > 100:
            continue
        labels = [lab for b in A.basis for lab in b]
        product = product_oracle.products(A)
        for x in labels:
            for y in labels:
                assert product(x, y) == product(y, x)
        for x in labels:
            for y in labels:
                xy = product(x, y)
                for z in labels:
                    yz = product(y, z)
                    left = product(xy, z) if xy is not None else None
                    right = product(x, yz) if yz is not None else None
                    assert left == right
