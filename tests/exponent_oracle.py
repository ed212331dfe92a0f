"""The exponent vectors of a monomial algebra by a walk over its table, kept
as a test oracle.

This is how `aperylef.algebra` found the exponent vectors of a monomial
algebra before an Apery algebra read them off its maximal representations
and a colon quotient off its parent's: r(1) = 0 and r(w*x_i) = r(w) + e_i,
in one walk over the table in degree order.
"""

from aperylef import GradedAlgebra, InternalFault


def exponent_vectors(alg: GradedAlgebra) -> dict:
    """r(w) of every label of alg.  The table of a commutative, associative
    algebra generated in degree 1 is that of k[x]/(monomial ideal) exactly
    when this is well defined, so a label reached with two vectors, or not
    reached, raises InternalFault.  The zero ring has no labels."""
    vectors = {lab: (0,) * len(alg.var_labels) for labels in alg.basis[:1] for lab in labels}
    for labels in alg.basis:
        for lab in labels:
            r = vectors.get(lab)
            if r is None:
                raise InternalFault(f"label {lab!r} is not a product of the variables")
            for i, target in enumerate(alg.times[lab]):
                if target is None:
                    continue
                v = r[:i] + (r[i] + 1,) + r[i + 1:]
                if vectors.setdefault(target, v) != v:
                    raise InternalFault(f"label {target!r} is reached with exponents {vectors[target]} and {v}")
    return vectors
