"""The fraction-free elimination on SparsePoly entries, kept as a test oracle.

This is the Bareiss elimination that `aperylef.linalg` ran before it moved
to integer coefficients on packed monomials: every entry is lifted to a
SparsePoly over one variable tuple, and the division by the previous pivot
is a leading-term loop on Fraction coefficients.  Tests compare the packed
kernel's ranks against it, and read determinants, which the package never
takes, off it.
"""

from fractions import Fraction

from aperylef import linalg
from aperylef.polynomial import SparsePoly, grlex_key


def leading_term(p: SparsePoly) -> tuple[tuple[int, ...], Fraction]:
    """The graded-lex largest term of a nonzero polynomial."""
    if not p.terms:
        raise ValueError("zero polynomial has no leading term")
    exps = max(p.terms, key=grlex_key)
    return exps, p.terms[exps]


def with_vars(p: SparsePoly, variables: tuple[str, ...]) -> SparsePoly:
    """p embedded into a superset variable tuple, matching by name."""
    pos = []
    for v in p.vars:
        if v not in variables:
            raise ValueError(f"variable {v!r} missing from target tuple")
        pos.append(variables.index(v))
    out = {}
    for e, c in p.terms.items():
        ne = [0] * len(variables)
        for i, exp in zip(pos, e):
            ne[i] = exp
        out[tuple(ne)] = c
    return SparsePoly(variables, out)


def exact_div(f: SparsePoly, g: SparsePoly) -> SparsePoly:
    """Divide f by g assuming exact divisibility (true inside Bareiss)."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    if not f:
        return SparsePoly(f.vars)
    if g.is_constant():
        c = g.constant_value()
        return SparsePoly(f.vars, {e: cc / c for e, cc in f.terms.items()})
    ge, gc = leading_term(g)
    quotient: dict[tuple[int, ...], Fraction] = {}
    rem = f
    while rem:
        re_, rc = leading_term(rem)
        qe = tuple(a - b for a, b in zip(re_, ge))
        if any(x < 0 for x in qe):
            raise ArithmeticError("inexact polynomial division")
        qc = rc / gc
        quotient[qe] = quotient.get(qe, Fraction(0)) + qc
        rem = rem - SparsePoly.monomial(f.vars, qe, qc) * g
    return SparsePoly(f.vars, quotient)


def lift(entries) -> list[list[SparsePoly]]:
    """Every entry as a SparsePoly over the variables of the SparsePoly
    entries, in order of first appearance."""
    names: list[str] = []
    for row in entries:
        for e in row:
            if isinstance(e, SparsePoly):
                names.extend(v for v in e.vars if v not in names)
    variables = tuple(names)
    return [
        [with_vars(e, variables) if isinstance(e, SparsePoly) else SparsePoly.constant(variables, e)
         for e in row]
        for row in entries
    ]


def bareiss(rows: list[list[SparsePoly]]) -> tuple[int, int, SparsePoly | None]:
    """Fraction-free elimination with full pivoting: (rank, sign, last pivot)."""
    m = [list(row) for row in rows]
    if not m or not m[0]:
        return 0, 1, None
    nrows, ncols = len(m), len(m[0])
    sign = 1
    prev = None
    for k in range(min(nrows, ncols)):
        found = next(((r, c) for r in range(k, nrows) for c in range(k, ncols) if m[r][c]), None)
        if found is None:
            return k, sign, prev
        pr, pc = found
        if pr != k:
            m[k], m[pr] = m[pr], m[k]
            sign = -sign
        if pc != k:
            for row in m:
                row[k], row[pc] = row[pc], row[k]
            sign = -sign
        pivot = m[k][k]
        for r in range(k + 1, nrows):
            for c in range(k + 1, ncols):
                e = pivot * m[r][c] - m[r][k] * m[k][c]
                if prev is not None:
                    e = exact_div(e, prev)
                m[r][c] = e
        prev = pivot
    return min(nrows, ncols), sign, prev


def exact_rank(matrix: linalg.Matrix) -> int:
    """The generic rank by fraction-free elimination at any size; a matrix
    with no symbolic entry is ranked by Gaussian elimination."""
    if not matrix.is_symbolic():
        return linalg.fraction_rank([[e.constant_value() if isinstance(e, SparsePoly) else Fraction(e)
                                      for e in row] for row in matrix.entries])
    return bareiss(lift(matrix.entries))[0]


def determinant(matrix: linalg.Matrix) -> SparsePoly:
    """The determinant of a nonempty square matrix, as a SparsePoly."""
    rows = lift(matrix.entries)
    rank, sign, last = bareiss(rows)
    if rank < len(rows):
        return SparsePoly(rows[0][0].vars)
    return last * sign if sign < 0 else last
