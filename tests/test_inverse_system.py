import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aperylef import (
    DegreeOutOfRange,
    DependentBasis,
    InvalidDualGenerator,
    NotGorenstein,
    SparsePoly,
    create_semigroup,
    dual_algebra_view,
    dual_socle_generator,
    hessian,
    build_algebra,
    mixed_hessian,
    monomials_of_degree,
    parse_polynomial,
    rank_info,
)
from aperylef import inverse_system
from aperylef.cli import from_dual_record
from aperylef.errors import SizeLimit
from bareiss_oracle import determinant
from dual_forms import dual_form_text
from inverse_system_oracle import (
    ann_contains,
    apply_operator,
    catalecticant_rank,
    match_annihilator_scale,
    partial,
)

YZW = ("y", "z", "w")
F_16 = parse_polynomial("y^4*w + y^2*z^3", YZW)
CUBIC_5VAR = parse_polynomial("a^2*x + a*b*y + b^2*z")
QUARTIC_5VAR = parse_polynomial("a^2*x*z + a*b*y*z + 1/2*b^2*z^2")


def mono(vars_, exps):
    return SparsePoly.monomial(vars_, exps)


# -- dual socle generator -----------------------------------------------------

def test_dual_generator_16_18_21_27():
    table = create_semigroup([16, 18, 21, 27]).apery_table()
    assert str(dual_socle_generator(table)) == "y^4*w + y^2*z^3"


def test_dual_generator_8_10_11_12():
    # both maximal representations of 33 survive: 10+11+12 and 3*11
    table = create_semigroup([8, 10, 11, 12]).apery_table()
    F = dual_socle_generator(table)
    assert str(F) == "y*z*w + z^3"
    reps = {r[1:] for r in table.max_reps[-1]}
    assert F.terms.keys() == reps
    assert all(c == 1 for c in F.terms.values())


def test_dual_generator_15_21_35():
    table = create_semigroup([15, 21, 35]).apery_table()
    assert str(dual_socle_generator(table)) == "y^4*z^2"


def test_dual_generator_requires_order_symmetry():
    with pytest.raises(NotGorenstein):
        dual_socle_generator(create_semigroup([4, 5, 6, 7]).apery_table())


def test_dual_generator_coefficients_are_one(corpus):
    for S in corpus:
        table = S.apery_table()
        if not table.m_pure_verdict():
            continue
        F = dual_socle_generator(table)
        assert all(c == 1 for c in F.terms.values())


# -- operator application ------------------------------------------------------

def test_apply_single_differentiation():
    x = ("x",)
    assert apply_operator(mono(x, (1,)), mono(x, (2,))) == parse_polynomial("2*x", x)


def test_apply_fourth_derivative():
    op = mono(YZW, (4, 0, 0))
    assert apply_operator(op, F_16) == parse_polynomial("24*w", YZW)


def test_apply_identity_operator():
    one = SparsePoly.constant(YZW, 1)
    assert apply_operator(one, F_16) == F_16


def test_ann_contains():
    assert ann_contains(F_16, mono(YZW, (0, 1, 1)))  # z*w
    assert not ann_contains(F_16, SparsePoly.constant(YZW, 1))
    # literal binomial has derivative constants in the way
    binom = parse_polynomial("z^3 - y^2*w", YZW)
    assert not ann_contains(F_16, binom)
    scaled = match_annihilator_scale(F_16, binom)
    assert scaled is not None
    assert ann_contains(F_16, scaled)
    assert scaled == parse_polynomial("2*z^3 - y^2*w", YZW)


def test_match_annihilator_scale_rejects_non_relations():
    assert match_annihilator_scale(F_16, parse_polynomial("z^2 - y*w", YZW)) is None


@st.composite
def operators(draw):
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        exps = tuple(draw(st.integers(0, 2)) for _ in range(3))
        terms[exps] = terms.get(exps, Fraction(0)) + Fraction(draw(st.integers(-4, 4)))
    return SparsePoly(YZW, terms)


@given(operators(), operators())
@settings(max_examples=50, deadline=None)
def test_operator_application_is_multiplicative_and_linear(p, q):
    # operators compose multiplicatively: (pq)(X)F = p(X)(q(X)F)
    assert apply_operator(p * q, F_16) == apply_operator(p, apply_operator(q, F_16))
    assert apply_operator(p + q, F_16) == apply_operator(p, F_16) + apply_operator(q, F_16)


@given(st.data())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_monomial_operator_is_iterated_partials(data):
    exponents = st.tuples(*[st.integers(0, 12)] * 3)
    coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    F = SparsePoly(YZW, data.draw(st.dictionaries(exponents, coefficients, max_size=5)))
    a = data.draw(exponents)
    expected = F
    for i, k in enumerate(a):
        for _ in range(k):
            expected = partial(expected, i)
    assert apply_operator(mono(YZW, a), F) == expected


@given(st.integers(0, 2), st.integers(0, 2))
@settings(max_examples=30, deadline=None)
def test_operator_partials_commute(i, j):
    ei = tuple(1 if k == i else 0 for k in range(3))
    ej = tuple(1 if k == j else 0 for k in range(3))
    lhs = apply_operator(mono(YZW, ei), apply_operator(mono(YZW, ej), F_16))
    rhs = apply_operator(mono(YZW, ej), apply_operator(mono(YZW, ei), F_16))
    assert lhs == rhs


# -- catalecticants ---------------------------------------------------------------

def test_catalecticant_rank_five_variables():
    assert catalecticant_rank(CUBIC_5VAR, 1) == 5
    assert catalecticant_rank(QUARTIC_5VAR, 2) == 10
    assert catalecticant_rank(CUBIC_5VAR, 0) == 1


def test_catalecticant_symmetry():
    for F in (F_16, CUBIC_5VAR, QUARTIC_5VAR):
        D = F.degree()
        for d in range(D + 1):
            assert catalecticant_rank(F, d) == catalecticant_rank(F, D - d)


def test_view_hilbert_vectors():
    assert dual_algebra_view(CUBIC_5VAR).hilbert == (1, 5, 5, 1)
    assert dual_algebra_view(QUARTIC_5VAR).hilbert == (1, 5, 10, 5, 1)
    assert dual_algebra_view(parse_polynomial("x^3")).hilbert == (1, 1, 1, 1)


def test_view_matches_apery_hilbert(corpus):
    checked = 0
    for S in corpus:
        table = S.apery_table()
        if not table.m_pure_verdict() or S.multiplicity < 3:
            continue
        F = dual_socle_generator(table)
        if F.degree() < 1:
            continue
        A = build_algebra(table)
        assert dual_algebra_view(F).hilbert == A.hilbert(), S.generators
        checked += 1
        if checked >= 20:
            break
    assert checked >= 10


def oracle_greedy_basis(F, d):
    """The degree-d monomials, in graded-lex descending order, whose image
    under F is independent of the images of the monomials chosen before it;
    each image is reduced against the chosen ones, one row at a time."""
    target = monomials_of_degree(F.vars, F.degree() - d)
    chosen, rows, pivots = [], [], []
    for m in monomials_of_degree(F.vars, d):
        img = apply_operator(mono(F.vars, m), F)
        vec = [img.terms.get(t, Fraction(0)) for t in target]
        for r, p in zip(rows, pivots):
            if vec[p]:
                factor = vec[p] / r[p]
                vec = [a - factor * b for a, b in zip(vec, r)]
        pivot = next((i for i, x in enumerate(vec) if x), None)
        if pivot is not None:
            chosen.append(m)
            rows.append(vec)
            pivots.append(pivot)
    return tuple(chosen)


def test_view_bases_match_greedy_oracle(corpus):
    forms = [F_16, CUBIC_5VAR, QUARTIC_5VAR, parse_polynomial("x^3")]
    for S in corpus:
        table = S.apery_table()
        if table.m_pure_verdict():
            forms.append(dual_socle_generator(table))
    assert len(forms) > 4
    for F in forms:
        view = dual_algebra_view(F)
        for d in range(F.degree() + 1):
            assert view.bases[d] == oracle_greedy_basis(F, d), (str(F), d)
            assert catalecticant_rank(F, d) == len(view.bases[d]), (str(F), d)


def test_view_rejects_bad_input():
    with pytest.raises(InvalidDualGenerator):
        dual_algebra_view(parse_polynomial("x^2 + y^3"))
    with pytest.raises(InvalidDualGenerator):
        dual_algebra_view(SparsePoly.zero(("x",)))
    with pytest.raises(InvalidDualGenerator):
        dual_algebra_view(parse_polynomial("3"), require_positive_degree=True)


@given(st.data())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_view_derivative_table_is_every_derivative_up_to_the_degree(data):
    F = parse_polynomial(dual_form_text(data))
    D, n = F.degree(), len(F.vars)
    view = dual_algebra_view(F)
    table = view.derivatives
    assert len(table) == math.comb(D + n, n)
    assert set(table) == {a for d in range(D + 1) for a in monomials_of_degree(F.vars, d)}
    for a, image in table.items():
        assert image == apply_operator(mono(F.vars, a), F), a
    for i in range(D + 1):
        for j in range(D + 1 - i):
            oracle = [
                [apply_operator(mono(F.vars, r) * mono(F.vars, c), F) for c in view.bases[j]]
                for r in view.bases[i]
            ]
            assert view.pairing(i, j).entries == oracle, (i, j)
    for k, name in enumerate(F.vars):
        derived = apply_operator(mono(F.vars, tuple(int(i == k) for i in range(n))), F)
        step = view.colon_step(name)
        assert (step.F if step is not None else SparsePoly.zero(F.vars)) == derived
    # the table does not enter a view's equality or repr
    assert dual_algebra_view(F) == view
    assert "derivatives" not in repr(view)


@given(st.data())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_derivative_table_entry_is_the_monomial_operator_applied(data):
    exponents = st.tuples(*[st.integers(0, 5)] * 3)
    coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    F = SparsePoly(YZW, data.draw(st.dictionaries(exponents, coefficients, max_size=5)))
    a = data.draw(exponents)
    before = dict(F.terms)
    entry = inverse_system._derivatives(F, [a])[a]
    assert entry == apply_operator(SparsePoly.monomial(F.vars, a), F)
    partials = F
    for i, k in enumerate(a):
        for _ in range(k):
            partials = partial(partials, i)
    assert entry == partials
    # the entry is built unchecked, so it must hold what validation would keep
    assert entry == SparsePoly(entry.vars, entry.terms)
    assert all(type(c) is Fraction and c for c in entry.terms.values())
    assert F.terms == before


def test_from_dual_record_takes_each_scanned_derivative_once(monkeypatch):
    taken = []
    derive = inverse_system._derivative

    def counted(a, F):
        taken.append(a)
        return derive(a, F)

    monkeypatch.setattr(inverse_system, "_derivative", counted)
    for F in (F_16, CUBIC_5VAR, QUARTIC_5VAR, parse_polynomial("a^2*x0 + a*b*x1 + b^2*x2")):
        taken.clear()
        from_dual_record(str(F), seed_root=0)
        D, n = F.degree(), len(F.vars)
        assert len(taken) == math.comb(D + n, n), str(F)
        assert sorted(taken) == sorted(a for d in range(D + 1) for a in monomials_of_degree(F.vars, d))


def test_view_size_limit(monkeypatch):
    # a degree-D form in n variables scans the C(D + n, n) monomials of
    # degree at most D
    monkeypatch.setattr(inverse_system, "DUAL_MONOMIALS_LIMIT", 10)
    assert dual_algebra_view(parse_polynomial("x^9")).hilbert == (1,) * 10
    assert dual_algebra_view(parse_polynomial("x^2*y + y^3")).socle_degree == 3
    with pytest.raises(SizeLimit):
        dual_algebra_view(parse_polynomial("x^10"))
    with pytest.raises(SizeLimit):
        dual_algebra_view(parse_polynomial("x^4 + y^4"))


# -- hessians ----------------------------------------------------------------------

HESS1_DISPLAY_SUPPORT = [
    [{(2, 0, 1), (0, 3, 0)}, {(1, 2, 0)}, {(3, 0, 0)}],
    [{(1, 2, 0)}, {(2, 1, 0)}, set()],
    [{(3, 0, 0)}, set(), set()],
]

HESS2_DISPLAY_SUPPORT = [
    [{(0, 0, 1)}, set(), {(0, 1, 0)}, {(1, 0, 0)}],
    [set(), {(0, 1, 0)}, {(1, 0, 0)}, set()],
    [{(0, 1, 0)}, {(1, 0, 0)}, set(), set()],
    [{(1, 0, 0)}, set(), set(), set()],
]

BASIS1 = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
BASIS2 = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1)]


def symmetric(matrix):
    return matrix.entries == [list(column) for column in zip(*matrix.entries)]


def assert_support_pattern(matrix, pattern):
    for row, expected_row in zip(matrix.entries, pattern):
        for entry, expected in zip(row, expected_row):
            assert set(entry.terms) == expected
            assert all(c > 0 for c in entry.terms.values())


def test_hessian1_support_matches_display():
    H = hessian(F_16, 1, BASIS1)
    assert symmetric(H)
    assert_support_pattern(H, HESS1_DISPLAY_SUPPORT)
    # exact scalars
    assert H.entries[0][0] == parse_polynomial("12*y^2*w + 2*z^3", YZW)
    assert H.entries[0][1] == parse_polynomial("6*y*z^2", YZW)
    assert H.entries[0][2] == parse_polynomial("4*y^3", YZW)
    assert H.entries[1][1] == parse_polynomial("6*y^2*z", YZW)


def test_hessian2_support_matches_display():
    H = hessian(F_16, 2, BASIS2)
    assert symmetric(H)
    assert_support_pattern(H, HESS2_DISPLAY_SUPPORT)


def test_hessian_determinants():
    H1 = hessian(F_16, 1, BASIS1)
    assert determinant(H1) == parse_polynomial("-96*y^8*z", YZW)
    H2 = hessian(F_16, 2, BASIS2)
    det2 = determinant(H2)
    # a positive multiple of y^4 (oracle: anti-diagonal cofactor expansion)
    assert set(det2.terms) == {(4, 0, 0)}
    assert det2.terms[(4, 0, 0)] == Fraction(82944)


def test_hessian_of_cubic_counterexample_is_singular():
    view = dual_algebra_view(CUBIC_5VAR)
    H = hessian(CUBIC_5VAR, 1, view.bases[1])
    assert determinant(H) == SparsePoly.zero(CUBIC_5VAR.vars)
    assert rank_info(H)[0] < H.nrows


def test_trivial_hessian():
    H = hessian(parse_polynomial("x^2"), 1, [(1,)])
    assert H.entries[0][0].constant_value() == 2


def test_hessian_rejects_dependent_basis():
    with pytest.raises(DependentBasis):
        hessian(F_16, 2, [(0, 0, 2), (0, 1, 1)])  # w^2 and z*w both annihilate F
    with pytest.raises(DependentBasis):
        hessian(F_16, 1, [(1, 0, 0), (1, 0, 0)])


def test_hessian_rejects_malformed_exponent_tuples():
    # a tuple of the wrong length or with a negative exponent is refused
    # before any derivative is looked up
    for basis in ([(1, 0)], [(1, 0, 0, 0)], [(2, -1, 0)], [(1, 0, 0), (2, 0, -1)]):
        with pytest.raises(DependentBasis):
            hessian(F_16, 1, basis)
        with pytest.raises(DependentBasis):
            hessian(F_16, 1, basis, view=dual_algebra_view(F_16))
        with pytest.raises(DependentBasis):
            mixed_hessian(F_16, 2, 1, BASIS2, basis)


def test_hessians_read_the_view_of_their_form_and_refuse_another():
    view = dual_algebra_view(F_16)
    assert hessian(F_16, 2, BASIS2, view=view) == hessian(F_16, 2, BASIS2)
    assert mixed_hessian(F_16, 2, 3, view=view) == mixed_hessian(F_16, 2, 3, view.bases[2], view.bases[3])
    F = parse_polynomial("x^2*y + y^2*z + x*z^2")
    other = dual_algebra_view(parse_polynomial("x^3 + y^3 + z^3"))
    with pytest.raises(ValueError):
        mixed_hessian(F, 1, 1, view=other)
    with pytest.raises(ValueError):
        hessian(F, 1, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], view=other)


def test_mixed_hessian_coincides_with_hessian_on_diagonal():
    square = hessian(F_16, 2, BASIS2)
    mixed = mixed_hessian(F_16, 2, 2, BASIS2, BASIS2)
    assert mixed.entries == square.entries


def test_mixed_hessian_even_case_shape():
    M = mixed_hessian(F_16, 2, 3)
    assert (M.nrows, M.ncols) == (4, 4)
    assert rank_info(M)[0] == 4


def test_mixed_hessian_full_differentiation():
    D = F_16.degree()
    M = mixed_hessian(F_16, 0, D)
    assert (M.nrows, M.ncols) == (1, 1)
    assert M.entries[0][0].is_constant()
    assert M.entries[0][0].constant_value() != 0


def test_hessian_symmetry_and_rank_on_corpus(corpus):
    checked = 0
    for S in corpus:
        table = S.apery_table()
        if not table.m_pure_verdict():
            continue
        F = dual_socle_generator(table)
        if F.degree() < 2:
            continue
        view = dual_algebra_view(F)
        H = hessian(F, 1, view.bases[1])
        assert symmetric(H)
        if H.nrows <= 8:
            det = determinant(H)
            assert (not det) == (rank_info(H)[0] < H.nrows)
        checked += 1
        if checked >= 12:
            break
    assert checked >= 6


def test_hessian_det_zero_iff_rank_deficient():
    for F, d, basis in (
        (F_16, 1, BASIS1),
        (F_16, 2, BASIS2),
        (CUBIC_5VAR, 1, dual_algebra_view(CUBIC_5VAR).bases[1]),
        (parse_polynomial("x*y"), 1, [(1, 0), (0, 1)]),
    ):
        H = hessian(F, d, basis)
        det = determinant(H)
        assert (not det) == (rank_info(H)[0] < H.nrows)


@pytest.mark.parametrize("d, power", [(0, 9), (-1, 1), (3, 1), (2, 2), (0, 0), (1, -1)])
def test_both_algebra_kinds_reject_the_same_map_degrees(d, power):
    # both have socle degree 3: the view of x^2*y + y^3 and the Apery algebra
    view = dual_algebra_view(parse_polynomial("x^2*y + y^3"))
    A = build_algebra(create_semigroup([8, 10, 11, 12]).apery_table())
    assert view.socle_degree == A.top_degree == 3
    for obj in (view, A):
        with pytest.raises(DegreeOutOfRange):
            obj.map_matrix(d, power)


@pytest.mark.parametrize("name", ["q", "", "X", "x2"])
def test_both_algebra_kinds_give_no_colon_step_by_a_name_that_is_not_a_variable(name):
    view = dual_algebra_view(parse_polynomial("x^2*y + y^3"))
    A = build_algebra(create_semigroup([8, 10, 11, 12]).apery_table())
    for obj in (view, A):
        assert name not in obj.variables
        assert obj.colon_step(name) is None


@pytest.mark.parametrize("i, j", [(-1, 0), (0, -1), (4, 0), (5, 0), (0, 4)])
def test_view_pairing_rejects_degrees_outside_the_socle_range(i, j):
    view = dual_algebra_view(parse_polynomial("x^2*y + y^3"))
    with pytest.raises(DegreeOutOfRange):
        view.pairing(i, j)


def test_view_builds_each_pairing_once():
    view = dual_algebra_view(parse_polynomial("x^2*y + y^3"))
    assert view.pairing(1, 2) is view.pairing(1, 2)
    assert view.pairing_matrix(0, 1) is view.pairing(2, 0)
    # the kept pairings do not enter a view's equality or repr
    assert view == dual_algebra_view(view.F)
    assert "_pairings" not in repr(view)
