"""The reduced-echelon nullspace over the rationals, kept as a test oracle.

`aperylef.algebra.brute_force_relations` once found its relations as the
nullspace of the evaluation matrix of monomials onto the algebra's labels,
in reduced row echelon form with respect to the graded-lex descending
monomial list.  It now reads that basis off the labels directly; tests
compare the two.
"""

from fractions import Fraction

from aperylef.polynomial import SparsePoly, monomials_of_degree


def rref(rows):
    """Reduced row echelon form of rows and its pivot columns."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    if not m or not m[0]:
        return m, pivots
    nrows, ncols = len(m), len(m[0])
    for col in range(ncols):
        row = len(pivots)
        pivot = next((r for r in range(row, nrows) if m[r][col]), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        pv = m[row][col]
        m[row] = [x / pv for x in m[row]]
        for r in range(nrows):
            if r != row and m[r][col]:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[row])]
        pivots.append(col)
        if len(pivots) == nrows:
            break
    return m, pivots


def rref_nullspace(rows, ncols):
    """Nullspace basis in reduced echelon form w.r.t. the column order.

    Each vector has coefficient 1 at one free column and its support at that
    column plus earlier pivot columns.
    """
    if not rows:
        return [[Fraction(int(i == j)) for i in range(ncols)] for j in range(ncols)]
    reduced, pivots = rref(rows)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r][free]
        basis.append(vec)
    return basis


def relations(alg, d):
    """The degree-d kernel of the monomial evaluation map onto alg, as the
    reduced-echelon nullspace of its 0/1 matrix (one row per label)."""
    monos = monomials_of_degree(alg.variables, d)
    landed = []
    for exps in monos:
        label = alg.basis[0][0]
        for vlab, e in zip(alg.var_labels, exps):
            for _ in range(e):
                if label is not None:
                    label = alg.product(label, vlab)
        landed.append(label)
    targets = alg.basis[d] if d <= alg.top_degree else ()
    rows = [[int(landed[j] == lab) for j in range(len(monos))] for lab in targets]
    return [
        SparsePoly(alg.variables, {m: c for m, c in zip(monos, vec) if c})
        for vec in rref_nullspace(rows, len(monos))
    ]
