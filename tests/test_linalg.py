import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aperylef import Matrix, SparsePoly, linalg, rank_info
from aperylef.errors import InternalFault, SizeLimit
from aperylef.linalg import (
    POINT_PRIME,
    SYMBOLIC_RANK_LIMIT,
    _divide,
    _guard,
    _pack_rows,
    fraction_rank,
    point_rank,
)

import bareiss_oracle


def sym(name, variables=("a2", "a3")):
    return SparsePoly.variable(variables, name)


def matrix(entries):
    return Matrix(list(range(len(entries))), list(range(len(entries[0]))), entries)


def generic_rank(m):
    rank, _ = rank_info(m)
    return rank


def test_generic_rank_symbolic_examples():
    a2, a3 = sym("a2"), sym("a3")
    assert generic_rank(matrix([[a2, a3], [a3, a2]])) == 2
    zero = SparsePoly.zero(("a2", "a3"))
    assert generic_rank(matrix([[zero, zero], [zero, zero]])) == 0
    # rank-1 symbolic matrix
    assert generic_rank(matrix([[a2, a3], [a2, a3]])) == 1


def test_generic_rank_rational_entries():
    assert generic_rank(matrix([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])) == 1
    assert generic_rank(matrix([[1, 1, 0], [1, 1, 1], [0, 1, 1]])) == 3


def test_determinant_examples():
    m = matrix([[1, 1, 0], [1, 1, 1], [0, 1, 1]])
    assert bareiss_oracle.determinant(m) == Fraction(-1)
    # the only pivot of the first step needs a column swap
    assert bareiss_oracle.determinant(matrix([[0, 1], [1, 0]])) == Fraction(-1)
    a2, a3 = sym("a2"), sym("a3")
    d = bareiss_oracle.determinant(matrix([[a2, a3], [a3, a2]]))
    assert d == a2 * a2 - a3 * a3


def test_packed_exact_division():
    v = ("x", "y")
    x, y = SparsePoly.variable(v, "x"), SparsePoly.variable(v, "y")
    row = [x * x - y * y, x + y, x * x + y * y, x, x * 3]
    ((f, g, inexact, one, three, quotient),), width = _pack_rows([row + [x - y]], v)
    guard = _guard(len(v), width)
    assert _divide(f, g, guard) == quotient
    # x^2 + y^2 = (x - y)(x + y) + 2y^2: the monomial y^2 borrows from x's field
    with pytest.raises(InternalFault):
        _divide(inexact, g, guard)
    # x / 3x: the coefficients leave a remainder
    with pytest.raises(InternalFault):
        _divide(one, three, guard)


def test_packing_clears_row_denominators_and_orders_monomials_graded_lex():
    v = ("x", "y")
    x, y = SparsePoly.variable(v, "x"), SparsePoly.variable(v, "y")
    rows, _ = _pack_rows([[x * Fraction(1, 2), y * Fraction(1, 3)], [Fraction(3, 4), x]], v)
    assert [sorted(p.values()) for p in rows[0]] == [[3], [2]]
    assert [sorted(p.values()) for p in rows[1]] == [[3], [4]]
    polys = [x * x, x * y, y * y, x, y, SparsePoly.constant(v, 1)]  # graded-lex descending
    packed = [next(iter(p)) for p in _pack_rows([polys], v)[0][0]]
    assert packed == sorted(packed, reverse=True)


def test_rank_info_refuses_large_symbolic_matrices():
    n = SYMBOLIC_RANK_LIMIT + 1
    variables = ("t",)
    t = SparsePoly.variable(variables, "t")
    zero = SparsePoly.zero(variables)
    entries = [[t if i == j else zero for j in range(n)] for i in range(n)]
    with pytest.raises(SizeLimit):
        rank_info(matrix(entries))
    # rational matrices are ranked exactly at any size
    assert rank_info(matrix([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])) == (n, False)


def test_specialize():
    a2, a3 = sym("a2"), sym("a3")
    m = matrix([[a2, a3], [a3, a2]])
    s = m.specialize({"a2": 2, "a3": 2})
    assert fraction_rank(s.entries) == 1


def poly_entry(data):
    """c0 + c1*a2 + c2*a3 with small integer coefficients; a third are zero,
    so the elimination meets zero pivots and swaps rows and columns."""
    if data.draw(st.integers(0, 2)) == 0:
        return SparsePoly.zero(("a2", "a3"))
    c0, c1, c2 = (data.draw(st.integers(-2, 2)) for _ in range(3))
    return SparsePoly.constant(("a2", "a3"), c0) + sym("a2") * c1 + sym("a3") * c2


@given(st.integers(1, 4), st.booleans(), st.data())
@settings(max_examples=40, deadline=None)
def test_bareiss_det_matches_cofactor_expansion(n, symbolic, data):
    if symbolic:
        entries = [[poly_entry(data) for _ in range(n)] for _ in range(n)]
    else:
        entries = [
            [Fraction(data.draw(st.integers(-6, 6))) for _ in range(n)] for _ in range(n)
        ]

    def cofactor_det(rows):
        if len(rows) == 1:
            return rows[0][0]
        total = rows[0][0] * 0  # the zero of the entries' kind
        for j in range(len(rows)):
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            total += (-1) ** j * rows[0][j] * cofactor_det(minor)
        return total

    expected = cofactor_det(entries)
    got = bareiss_oracle.determinant(matrix(entries))
    assert got == expected
    # rank deficiency iff det vanishes for square matrices
    assert (generic_rank(matrix(entries)) < n) == (expected == 0)
    if not symbolic:
        assert (fraction_rank(entries) < n) == (expected == 0)


@given(st.integers(1, 5), st.integers(1, 5), st.data())
@settings(max_examples=80, deadline=None)
def test_point_rank_is_the_rank_of_the_specialized_matrix(nrows, ncols, data):
    entries = [[poly_entry(data) for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 1 and data.draw(st.booleans()):
        # a repeated row or column makes the matrix deficient at every point
        if data.draw(st.booleans()):
            entries[-1] = list(entries[0])
        elif ncols > 1:
            for row in entries:
                row[-1] = row[0]
    # values and coefficients from a small range, so points are often
    # deficient, and values the prime divides (or whose denominator it
    # divides), so the rank mod p is often below the rank over Q
    unlucky = st.sampled_from([0, POINT_PRIME, 2 * POINT_PRIME, POINT_PRIME + 1, Fraction(1, POINT_PRIME)])
    point = {
        "a2": data.draw(st.one_of(
            st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)), unlucky)),
        "a3": data.draw(st.one_of(st.integers(-3, 3), unlucky)),
    }
    m = matrix(entries)
    assert point_rank(m, point) == fraction_rank(m.specialize(point).entries)


def rational_poly_entry(data, variables=("a2", "a3", "a4")):
    """Up to three terms of degree at most 2 with coefficients p/q; a third
    of the entries are zero."""
    if data.draw(st.integers(0, 2)) == 0:
        return SparsePoly.zero(variables)
    terms = {}
    for _ in range(data.draw(st.integers(1, 3))):
        exps = [0] * len(variables)
        for _ in range(data.draw(st.integers(0, 2))):
            exps[data.draw(st.integers(0, len(variables) - 1))] += 1
        terms[tuple(exps)] = Fraction(data.draw(st.integers(-4, 4)), data.draw(st.integers(1, 3)))
    return SparsePoly(variables, terms)


@given(st.integers(1, 4), st.integers(1, 4), st.data())
@settings(max_examples=60, deadline=None)
def test_packed_bareiss_matches_the_sparse_poly_oracle(nrows, ncols, data):
    entries = [[rational_poly_entry(data) for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 1 and data.draw(st.booleans()):
        # a repeated row, scaled by a rational: deficient at every point
        factor = Fraction(data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3)))
        entries[-1] = [e * factor for e in entries[0]]
    m = matrix(entries)
    rank = generic_rank(m)
    assert rank == bareiss_oracle.exact_rank(m)
    # no point has a larger rank, and a point drawn from a wide range reaches it
    small = [{v: data.draw(st.integers(-2, 2)) for v in ("a2", "a3", "a4")} for _ in range(3)]
    assert all(point_rank(m, p) <= rank for p in small)
    rng = random.Random(nrows * 10 + ncols)
    wide = [{v: rng.randint(1, 10**6) for v in ("a2", "a3", "a4")} for _ in range(3)]
    assert any(point_rank(m, p) == rank for p in wide)


def test_point_rank_falls_back_to_the_exact_rank():
    a2, a3 = sym("a2"), sym("a3")
    # deficient mod p, full over Q: an entry equal to the prime
    assert point_rank(matrix([[a2]]), {"a2": POINT_PRIME, "a3": 1}) == 1
    assert point_rank(matrix([[a2, a3], [a3, a3]]), {"a2": POINT_PRIME + 1, "a3": 1}) == 2
    # a coefficient whose denominator the prime divides
    scaled = a2 * Fraction(1, POINT_PRIME)
    assert point_rank(matrix([[scaled, a3], [a3, a2]]), {"a2": 1, "a3": 1}) == 2
    # rank 1 over Q (determinant 1 - 1), but rank 2 if 1/p were read as 0
    assert point_rank(matrix([[scaled, a3], [a3, a2 * POINT_PRIME]]), {"a2": 1, "a3": 1}) == 1
    # a value whose denominator the prime divides
    assert point_rank(matrix([[a2, 1], [1, a3]]), {"a2": Fraction(1, POINT_PRIME), "a3": 1}) == 2
    assert point_rank(matrix([[a2]]), {"a2": 0, "a3": 0}) == 0
    assert point_rank(Matrix([], [0, 1], []), {}) == 0


def test_point_rank_is_the_generic_rank_where_the_rank_mod_p_reaches_it(monkeypatch):
    a2, a3 = sym("a2"), sym("a3")
    zero = SparsePoly.zero(("a2", "a3"))
    deficient = matrix([[a2, a3, zero], [a2 * 2, a3 * 2, zero], [zero, zero, zero]])
    assert generic_rank(deficient) == 1
    monkeypatch.setattr(Matrix, "specialize", lambda m, a: pytest.fail("specialized"))
    assert point_rank(deficient, {"a2": 2, "a3": 3}) == 1


def test_point_rank_specializes_where_the_rank_mod_p_is_below_the_rank_over_q():
    a2 = sym("a2")
    zero = SparsePoly.zero(("a2", "a3"))
    # rank 0 mod p, rank 2 over Q and generically
    m = matrix([[a2, zero, zero], [zero, a2, zero], [zero, zero, zero]])
    assert point_rank(m, {"a2": POINT_PRIME, "a3": 1}) == 2


def test_point_rank_at_a_point_deficient_over_q():
    a2, a3 = sym("a2"), sym("a3")
    zero = SparsePoly.zero(("a2", "a3"))
    # generically full, rank 1 where a2 = a3
    assert point_rank(matrix([[a2, a3], [a3, a2]]), {"a2": 2, "a3": 2}) == 1
    # generically of rank 2, rank 1 where a2 = a3 and rank 0 where both vanish
    deficient = matrix([[a2, a3, zero], [a3, a2, zero], [zero, zero, zero]])
    assert point_rank(deficient, {"a2": 1, "a3": 1}) == 1
    assert point_rank(deficient, {"a2": 0, "a3": 0}) == 0
    assert point_rank(deficient, {"a2": 1, "a3": 2}) == 2


def test_a_matrix_eliminates_its_generic_rank_once(monkeypatch):
    a2, a3 = sym("a2"), sym("a3")
    entries = [[a2, a3], [a2, a3]]
    m = matrix(entries)
    calls = []
    monkeypatch.setattr(linalg, "rank_info", lambda x: calls.append(x) or rank_info(x))
    assert point_rank(m, {"a2": 1, "a3": 2}) == 1
    assert m.generic_rank() == m.generic_rank() == 1
    assert len(calls) == 1 and calls[0] is m
    # the kept rank is no part of the matrix's value
    assert m == matrix(entries) and repr(m) == repr(matrix(entries))
