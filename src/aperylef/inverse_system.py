"""Macaulay-style inverse systems: dual generators, dual views, Hessians.

A homogeneous polynomial F presents a graded Artinian Gorenstein algebra as
differential operators modulo the annihilator of F.  Everything reads one
derivative table, the map a -> (x^a)(X)F over exponent tuples: a pairing
entry (m*m')(X)F depends only on the product m*m', so each derivative is
taken once.  A dual view builds the table for every |a| <= D, the monomials
it scans anyway, and two builders read it.  `_images` writes the images of
degree-d monomial operators as coefficient rows: their pivot columns,
taken in graded-lex descending order, are the greedy monomial basis of a
dual view, and a given basis is independent iff the rank of its rows
equals its size.  `_pairing` looks up the products of two monomial bases, so its
entries are polynomials in F's variables.

A view reads every matrix off one pairing, `DualAlgebraView.pairing(i, j)`
on its own bases.  By Maeno-Watanabe (2009) the map by the p-th power of a
generic linear form from degree d has the rank of the pairing of degrees
D-d-p and d, and the mixed Hessian of degrees (i, j) is the pairing of
degrees i and j; a point of F's variables is the linear form with those
coefficients.  The Lefschetz routes and the `hessian` command take a view
and read its pairing.  The free functions `hessian` and `mixed_hessian`
build the same pairing on bases a caller supplies, after checking them, off
the table of a view of F when given one and otherwise off a table of just
the derivatives they need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, sub
from typing import Optional, Sequence

from .errors import DependentBasis, InternalFault, InvalidDualGenerator, NotGorenstein, SizeLimit
from .linalg import Matrix, fraction_rank, pivot_columns
from .polynomial import SparsePoly, monomials_of_degree
from .semigroup import AperyTable
from .algebra import variable_names

# The monomials of degree at most D that dual_algebra_view scans, once as
# operators and once as targets; C(D + n, n) for a degree-D form in n
# variables.
DUAL_MONOMIALS_LIMIT = 1000

__all__ = [
    "dual_socle_generator",
    "DualAlgebraView",
    "dual_algebra_view",
    "hessian",
    "mixed_hessian",
]


def _derivative(a: tuple[int, ...], F: SparsePoly) -> SparsePoly:
    """(x^a)(X)F for the exponent tuple a of a monomial operator.

    x^a sends x^b to b!/(b-a)! x^(b-a) when b >= a componentwise and to zero
    otherwise; distinct b that survive give distinct b-a, so the terms are
    clean as built.
    """
    out = {}
    for b, cb in F.terms.items():
        # math.perm(bi, ai) is bi!/(bi-ai)!, and zero when ai > bi
        factor = math.prod(map(math.perm, b, a))
        if factor:
            out[tuple(map(sub, b, a))] = cb * factor
    return SparsePoly._from_clean(F.vars, out)


def dual_socle_generator(table: AperyTable) -> SparsePoly:
    """Sum of the monomials of all maximal representations of the apery top.

    Requires the order-symmetric (Gorenstein) case; every coefficient is 1.
    """
    if not table.m_pure_verdict():
        raise NotGorenstein(
            "dual generator exists only for order-symmetric apery sets"
        )
    codim = len(table.semigroup.generators) - 1
    names = variable_names(codim)
    terms = {rep[1:]: Fraction(1) for rep in table.max_reps[-1]}
    return SparsePoly(names, terms)


def _derivatives(F: SparsePoly, exps) -> dict[tuple[int, ...], SparsePoly]:
    """The table a -> (x^a)(X)F over the exponent tuples exps."""
    return {a: _derivative(a, F) for a in exps}


def _images(F: SparsePoly, d: int, monos: Sequence[tuple[int, ...]], table: dict) -> list[list[Fraction]]:
    """Coefficient rows of the images of degree-d monomial operators on F.

    Row i holds the coefficients of monos[i](X)F, read off the derivative
    table, over the degree D-d monomials in graded-lex descending order; a
    zero image is a zero row.
    """
    target = monomials_of_degree(F.vars, F.degree() - d)
    index = {m: i for i, m in enumerate(target)}
    rows = []
    for m in monos:
        row = [Fraction(0)] * len(target)
        image = table.get(m)
        if image:
            for e, c in image.terms.items():
                row[index[e]] = c
        rows.append(row)
    return rows


def _pairing(table: dict, variables: tuple[str, ...], rows: Sequence, cols: Sequence) -> list[list[SparsePoly]]:
    """Entries (r*c)(X)F for the exponent tuples r of rows and c of cols,
    looked up in a derivative table of F; a product missing from the table
    has degree above F's and kills it."""
    zero = SparsePoly.zero(variables)
    return [[table.get(tuple(map(add, r, c)), zero) for c in cols] for r in rows]


@dataclass
class DualAlgebraView:
    """Graded data of the algebra presented by F, with chosen monomial bases.

    bases[d] lists exponent tuples of degree-d monomials, greedily selected
    in graded-lex descending order so that their images under F are linearly
    independent; the basis sizes are the catalecticant ranks and form a
    symmetric Hilbert vector.  derivatives maps every exponent tuple a with
    |a| <= D to (x^a)(X)F: the images behind the bases and every pairing
    entry are read off it.
    """

    F: SparsePoly
    variables: tuple[str, ...]
    bases: tuple[tuple[tuple[int, ...], ...], ...]
    hilbert: tuple[int, ...]
    socle_degree: int
    derivatives: dict[tuple[int, ...], SparsePoly] = field(compare=False, repr=False)

    @property
    def top_degree(self) -> int:
        return self.socle_degree

    def is_gorenstein(self) -> bool:
        return True

    @property
    def codim(self) -> int:
        return self.hilbert[1] if len(self.hilbert) > 1 else 0

    def symbols(self) -> tuple[str, ...]:
        """The view's variables.  The Lefschetz routes read ``variables``; this
        name stays because perfbench/checks.py assigns witness points
        through it."""
        return self.variables

    def pairing(self, i: int, j: int) -> Matrix:
        """Entries (m*m')(X)F for m in bases[i] (rows) and m' in bases[j]
        (columns); rows and columns are labelled by exponent tuples."""
        rows, cols = self.bases[i], self.bases[j]
        return Matrix(list(rows), list(cols), _pairing(self.derivatives, self.variables, rows, cols))

    def pairing_matrix(self, d: int, power: int) -> Matrix:
        """Symbolic matrix with the rank of multiplication by a generic form.

        The target degree d+power pairs perfectly with degree D-d-power, so
        the rank of the multiplication map equals the rank of the pairing of
        degrees D-d-power and d.  The overall factorial scalar is dropped;
        only ranks are read off this matrix.
        """
        D = self.socle_degree
        if power < 1 or d < 0 or d + power > D:
            raise ValueError("map outside the graded range")
        return self.pairing(D - d - power, d)

    # the protocol the Lefschetz routes share with GradedAlgebra
    map_matrix = pairing_matrix

    def colon_step(self, variable: str) -> Optional["DualAlgebraView"]:
        """Quotient by the annihilator of one variable; None for the zero ring.

        The annihilator of the derivative of F by the variable is the colon of
        the annihilator of F, so the derivative presents the quotient.
        """
        idx = self.variables.index(variable)
        derived = self.derivatives.get(tuple(int(i == idx) for i in range(len(self.variables))))
        return dual_algebra_view(derived) if derived else None


def dual_algebra_view(F: SparsePoly, require_positive_degree: bool = False) -> DualAlgebraView:
    """Select per-degree monomial bases for the algebra presented by F."""
    if not F:
        raise InvalidDualGenerator("zero polynomial does not present an algebra")
    if not F.is_homogeneous():
        raise InvalidDualGenerator("the dual generator must be homogeneous")
    D = F.degree()
    if require_positive_degree and D < 1:
        raise InvalidDualGenerator("the dual generator must have degree at least 1")
    scanned = math.comb(D + len(F.vars), len(F.vars))
    if scanned > DUAL_MONOMIALS_LIMIT:
        raise SizeLimit(
            f"the dual view of a degree-{D} form in {len(F.vars)} variables scans {scanned} "
            f"monomials, above the cap {DUAL_MONOMIALS_LIMIT}"
        )
    bases = []
    derivatives = {}
    for d in range(D + 1):
        # the greedy basis: each monomial whose image is independent of the
        # images of the monomials before it in graded-lex descending order
        monos = monomials_of_degree(F.vars, d)
        derivatives.update(_derivatives(F, monos))
        columns = list(zip(*_images(F, d, monos, derivatives)))
        bases.append(tuple(monos[i] for i in pivot_columns(columns)))
    hilbert = tuple(len(b) for b in bases)
    if hilbert != hilbert[::-1]:
        raise InternalFault(f"catalecticant ranks {hilbert} are not symmetric")
    return DualAlgebraView(
        F=F,
        variables=F.vars,
        bases=tuple(bases),
        hilbert=hilbert,
        socle_degree=D,
        derivatives=derivatives,
    )


def _validate_basis(F: SparsePoly, d: int, basis: Sequence) -> list[tuple[int, ...]]:
    """The exponent tuples of a basis of degree-d monomials in F's variables."""
    exps = []
    for b in basis:
        if isinstance(b, SparsePoly):
            if len(b.terms) != 1 or next(iter(b.terms.values())) != 1:
                raise DependentBasis("basis entries must be plain monomials")
            e = next(iter(b.terms))
        else:
            e = tuple(int(x) for x in b)
        if len(e) != len(F.vars) or min(e, default=0) < 0:
            raise DependentBasis(f"basis entry {e} is not an exponent tuple of {len(F.vars)} variables")
        if sum(e) != d:
            raise DependentBasis(f"basis monomial {e} does not have degree {d}")
        exps.append(e)
    return exps


def _basis_pairing(
    F: SparsePoly, view: DualAlgebraView | None, d: int, row_basis: Sequence, t: int, col_basis: Sequence
) -> Matrix:
    """The pairing of a degree-d basis (rows) against a degree-t basis
    (columns), after checking that each is an independent set of monomials;
    entries come off the view's derivative table, or off a table of just the
    derivatives needed when no view is given."""
    rows = _validate_basis(F, d, row_basis)
    cols = _validate_basis(F, t, col_basis)
    if view is None:
        table = _derivatives(F, {*rows, *cols, *(tuple(map(add, r, c)) for r in rows for c in cols)})
    elif view.F != F:
        raise ValueError(f"the dual view presents {view.F}, not {F}")
    else:
        table = view.derivatives
    for degree, exps in ((d, rows), (t, cols)):
        if fraction_rank(_images(F, degree, exps, table)) != len(exps):
            raise DependentBasis("basis monomials are dependent in the algebra presented by F")
    return Matrix(
        [SparsePoly.monomial(F.vars, e) for e in rows],
        [SparsePoly.monomial(F.vars, e) for e in cols],
        _pairing(table, F.vars, rows, cols),
    )


def hessian(F: SparsePoly, d: int, basis: Sequence, view: DualAlgebraView | None = None) -> Matrix:
    """Symmetric matrix of second-layer derivatives over a degree-d basis.

    A view given must present F; its derivative table is read.
    """
    return _basis_pairing(F, view, d, basis, d, basis)


def mixed_hessian(
    F: SparsePoly,
    d: int,
    t: int,
    row_basis: Sequence | None = None,
    col_basis: Sequence | None = None,
    view: DualAlgebraView | None = None,
) -> Matrix:
    """Rectangular pairing of a degree-d basis against a degree-t basis.

    A missing basis is the view's, and a view is built when one is missing
    and none is given; a view given must present F.
    """
    if view is None and (row_basis is None or col_basis is None):
        view = dual_algebra_view(F)
    if row_basis is None:
        row_basis = view.bases[d]
    if col_basis is None:
        col_basis = view.bases[t]
    return _basis_pairing(F, view, d, row_basis, t, col_basis)
