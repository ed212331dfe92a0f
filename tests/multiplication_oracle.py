"""The multiplication-map builder that does every step's arithmetic, kept as
a test oracle.

This is how `aperylef.algebra.multiplication_matrix` built a map before it
stopped computing what it already knows: each column starts from its label
with a unit coefficient, every step multiplies the label's coefficient by
each variable's coefficient polynomial, and every arrival at a label is
added to what is there, starting from zero.  Tests compare the builder's
maps against it entry by entry.
"""

from aperylef.algebra import GradedAlgebra, LinearForm, _check_map_degrees
from aperylef.linalg import Matrix
from aperylef.polynomial import SparsePoly


def multiplication_matrix(alg: GradedAlgebra, L: LinearForm, d: int, power: int = 1) -> Matrix:
    """Matrix of multiplication by L^power from degree d to degree d+power."""
    _check_map_degrees(alg, d, power)
    if len(L.coefficients) != len(alg.variables):
        raise ValueError("linear form arity does not match the algebra")
    symbols = L.symbol_names()
    coeff_polys = []
    for c in L.coefficients:
        if isinstance(c, str):
            coeff_polys.append(SparsePoly.variable(symbols, c))
        else:
            coeff_polys.append(SparsePoly.constant(symbols, c))
    rows = list(alg.basis[d + power])
    cols = list(alg.basis[d])
    row_index = {lab: i for i, lab in enumerate(rows)}
    zero = SparsePoly.zero(symbols)
    unit = SparsePoly.constant(symbols, 1)
    entries = [[zero] * len(cols) for _ in rows]
    for j, col in enumerate(cols):
        vec = {col: unit}
        for _ in range(power):
            nxt: dict = {}
            for lab, coeff in vec.items():
                for target, cpoly in zip(alg.times[lab], coeff_polys):
                    if target is None or not cpoly:
                        continue
                    nxt[target] = nxt.get(target, zero) + coeff * cpoly
            vec = {lab: c for lab, c in nxt.items() if c}
        for lab, coeff in vec.items():
            entries[row_index[lab]][j] = coeff
    return Matrix(rows, cols, entries)
