"""Relations of a graded algebra, kept as test oracles.

`brute_force_relations` reads the degreewise kernel of the monomial
evaluation map onto an algebra off the label each monomial lands on.
`rref_relations` finds the same kernel as the reduced-echelon nullspace of
the evaluation matrix, with respect to the graded-lex descending monomial
list.  `same_ideal_through_degree` compares two ideals degree by degree by
exact ranks.  Tests check the defining ideals of `aperylef.algebra` against
them.
"""

from fractions import Fraction
from typing import Sequence

from aperylef import GradedAlgebra, IdealDescription, SizeLimit
from aperylef.linalg import fraction_rank
from aperylef.polynomial import SparsePoly, monomials_of_degree

BRUTE_FORCE_DIM_LIMIT = 200


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


def rref_relations(alg, d):
    """The degree-d kernel of the monomial evaluation map onto alg, as the
    reduced-echelon nullspace of its 0/1 matrix (one row per label)."""
    monos = monomials_of_degree(alg.variables, d)
    landed = []
    for exps in monos:
        label = alg.basis[0][0]
        for i, e in enumerate(exps):
            for _ in range(e):
                if label is not None:
                    label = alg.times[label][i]
        landed.append(label)
    targets = alg.basis[d] if d <= alg.top_degree else ()
    rows = [[int(landed[j] == lab) for j in range(len(monos))] for lab in targets]
    return [
        SparsePoly(alg.variables, {m: c for m, c in zip(monos, vec) if c})
        for vec in rref_nullspace(rows, len(monos))
    ]


def brute_force_relations(alg: GradedAlgebra, max_degree: int) -> IdealDescription:
    """Degreewise kernels of the monomial evaluation map onto the algebra.

    For every degree d <= max_degree, abstract monomials in the degree-1
    variables are multiplied out through the table of variable actions.  Each monomial
    lands on one label or on zero, so the kernel has a basis read off
    directly, in graded-lex descending order of its free monomial: a
    monomial that lands on zero alone, and a monomial minus the first one
    landing on the same label.  That is the kernel in reduced echelon form
    over the graded-lex descending monomial list.
    """
    if alg.dimension > BRUTE_FORCE_DIM_LIMIT:
        raise SizeLimit(f"algebra dimension {alg.dimension} exceeds {BRUTE_FORCE_DIM_LIMIT}")
    names = alg.variables
    by_degree: dict[int, list[SparsePoly]] = {}
    gens: list[SparsePoly] = []
    degrees: list[int] = []
    for d in range(1, max_degree + 1):
        polys = []
        first: dict = {}  # label -> the first monomial landing on it
        for exps in monomials_of_degree(names, d):
            label = alg.basis[0][0]
            for i in (i for i, e in enumerate(exps) for _ in range(e)):
                label = alg.times[label][i]
                if label is None:
                    break
            if label is None:
                polys.append(SparsePoly.monomial(names, exps))
            elif label in first:
                polys.append(SparsePoly(names, {first[label]: -1, exps: 1}))
            else:
                first[label] = exps
        by_degree[d] = polys
        gens.extend(polys)
        degrees.extend([d] * len(polys))
    return IdealDescription(
        generators=gens,
        degrees=degrees,
        variables=names,
        data={"by_degree": by_degree, "max_degree": max_degree},
    )


def ideal_degree_span(
    generators: Sequence[SparsePoly], variables: tuple[str, ...], d: int
) -> list[list[Fraction]]:
    """Coefficient rows spanning the degree-d slice of the generated ideal."""
    monos = monomials_of_degree(variables, d)
    index = {m: i for i, m in enumerate(monos)}
    rows = []
    for g in generators:
        gd = g.degree()
        if gd < 0 or gd > d:
            continue
        for mult in monomials_of_degree(variables, d - gd):
            shifted = g * SparsePoly.monomial(variables, mult)
            row = [Fraction(0)] * len(monos)
            for e, c in shifted.terms.items():
                row[index[e]] = c
            rows.append(row)
    return rows


def same_ideal_through_degree(
    gens_a: Sequence[SparsePoly],
    gens_b: Sequence[SparsePoly],
    variables: tuple[str, ...],
    max_degree: int,
) -> bool:
    """Degreewise span equality of two ideals, checked by exact ranks."""
    for d in range(1, max_degree + 1):
        rows_a = ideal_degree_span(gens_a, variables, d)
        rows_b = ideal_degree_span(gens_b, variables, d)
        ra = fraction_rank(rows_a)
        rb = fraction_rank(rows_b)
        if ra != rb or fraction_rank(rows_a + rows_b) != ra:
            return False
    return True
