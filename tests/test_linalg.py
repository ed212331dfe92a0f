from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aperylef import Matrix, SparsePoly, generic_rank, polynomial_determinant, rank_info
from aperylef.errors import NotSquare, SizeLimit
from aperylef.linalg import POINT_PRIME, SYMBOLIC_RANK_LIMIT, exact_div, fraction_nullspace, fraction_rank, point_rank


def sym(name, variables=("a2", "a3")):
    return SparsePoly.variable(variables, name)


def matrix(entries):
    return Matrix(list(range(len(entries))), list(range(len(entries[0]))), entries)


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
    assert polynomial_determinant(m) == Fraction(-1)
    # the only pivot of the first step needs a column swap
    assert polynomial_determinant(matrix([[0, 1], [1, 0]])) == Fraction(-1)
    a2, a3 = sym("a2"), sym("a3")
    d = polynomial_determinant(matrix([[a2, a3], [a3, a2]]))
    assert d == a2 * a2 - a3 * a3


def test_determinant_errors():
    with pytest.raises(NotSquare):
        polynomial_determinant(Matrix([0], [0, 1], [[1, 2]]))
    big = matrix([[Fraction(int(i == j)) for j in range(13)] for i in range(13)])
    with pytest.raises(SizeLimit):
        polynomial_determinant(big)


def test_exact_division():
    v = ("x", "y")
    f = SparsePoly(v, {(2, 0): Fraction(1), (0, 2): Fraction(-1)})
    g = SparsePoly(v, {(1, 0): Fraction(1), (0, 1): Fraction(1)})
    q = exact_div(f, g)
    assert q * g == f


def test_fraction_nullspace_reduced_form():
    rows = [[Fraction(0), Fraction(1), Fraction(0), Fraction(1)]]
    basis = fraction_nullspace(rows, 4)
    assert basis == [
        [Fraction(1), Fraction(0), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(-1), Fraction(0), Fraction(1)],
    ]
    # the second pivot is cleared from the row above it
    rows = [[Fraction(1), Fraction(1), Fraction(1)], [Fraction(0), Fraction(1), Fraction(2)]]
    assert fraction_nullspace(rows, 3) == [[Fraction(1), Fraction(-2), Fraction(1)]]


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
    got = polynomial_determinant(matrix(entries))
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
    # values and coefficients from a small range, so points are often deficient
    point = {
        "a2": Fraction(data.draw(st.integers(-3, 3)), data.draw(st.integers(1, 3))),
        "a3": data.draw(st.integers(-3, 3)),
    }
    m = matrix(entries)
    assert point_rank(m, point) == fraction_rank(m.specialize(point).entries)


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
