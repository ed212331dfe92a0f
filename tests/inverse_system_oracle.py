"""Differential operators on a dual form, kept as a test oracle.

A polynomial p acts on F as the constant-coefficient differential operator
p(X): each monomial x^a of p differentiates F a_i times in the i-th
variable, which sends x^b to b!/(b-a)! x^(b-a) when b >= a and to zero
otherwise.  `aperylef.inverse_system` takes each (x^a)(X)F once, into the
derivative table of a dual view.  Here `apply_operator` multiplies out the
falling factorials factor by factor and `partial` takes one derivative at a
time, so tests compare the table against both.  The literal annihilator
tests and the catalecticant rank, which only tests read, live here too.
"""

from fractions import Fraction

from aperylef.linalg import fraction_rank
from aperylef.polynomial import SparsePoly, monomials_of_degree

from bareiss_oracle import leading_term


def partial(p: SparsePoly, index: int) -> SparsePoly:
    """The partial derivative of p with respect to its index-th variable."""
    out = {}
    for e, c in p.terms.items():
        k = e[index]
        if k:
            out[e[:index] + (k - 1,) + e[index + 1:]] = c * k
    return SparsePoly(p.vars, out)


def apply_operator(p: SparsePoly, F: SparsePoly) -> SparsePoly:
    """Apply p as a constant-coefficient differential operator to F.

    Each monomial operator of p acts by its exponent tuple; the map extends
    linearly with exact rational coefficients.
    """
    if len(p.vars) != len(F.vars):
        raise ValueError("operator and polynomial must have the same variable count")
    out = {}
    for a, ca in p.terms.items():
        for b, cb in F.terms.items():
            if any(ai > bi for ai, bi in zip(a, b)):
                continue
            c = ca * cb
            for ai, bi in zip(a, b):
                for k in range(ai):
                    c *= bi - k
            e = tuple(bi - ai for ai, bi in zip(a, b))
            out[e] = out.get(e, Fraction(0)) + c
    return SparsePoly(F.vars, out)


def ann_contains(F: SparsePoly, p: SparsePoly) -> bool:
    """Literal annihilator test: does p(X) kill F exactly?"""
    return not apply_operator(p, F)


def match_annihilator_scale(F: SparsePoly, p: SparsePoly) -> SparsePoly | None:
    """Rescale the tail of p against its leading term to land in the annihilator.

    Candidate relations coming from additive identities hold only up to the
    derivative constants, so the tail gets one scalar: returns lead + s*tail
    annihilating F, or None when no scalar works.
    """
    if not p:
        return p
    lead_exps, lead_coeff = leading_term(p)
    lead = SparsePoly.monomial(p.vars, lead_exps, lead_coeff)
    tail = p - lead
    lead_img = apply_operator(lead, F)
    tail_img = apply_operator(tail, F)
    if not tail_img:
        return p if not lead_img else None
    if not lead_img:
        return None
    # need lead_img + s*tail_img = 0 for a single scalar s
    ratio = None
    if set(lead_img.terms) != set(tail_img.terms):
        return None
    for e, c in lead_img.terms.items():
        r = -c / tail_img.terms[e]
        if ratio is None:
            ratio = r
        elif ratio != r:
            return None
    return lead + tail * ratio


def catalecticant_rank(F: SparsePoly, d: int) -> int:
    """Rank of all degree-d monomial operators applied to F.

    Equals the dimension of the degree-d component of the algebra presented
    by F.
    """
    if d < 0 or d > F.degree():
        return 0
    target = monomials_of_degree(F.vars, F.degree() - d)
    rows = []
    for m in monomials_of_degree(F.vars, d):
        image = apply_operator(SparsePoly.monomial(F.vars, m), F)
        rows.append([image.terms.get(t, Fraction(0)) for t in target])
    return fraction_rank(rows)
