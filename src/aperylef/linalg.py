"""Exact linear algebra over rationals and polynomial entries.

There is one elimination per job.  `pivot_columns` is the forward pass of
Gaussian elimination over the rationals, behind ranks and greedy bases.
`_bareiss` is the fraction-free (Bareiss 1968) elimination with full
pivoting behind symbolic ranks: every intermediate entry is a minor of the
input matrix, so the division by the previous pivot is exact and entries
stay polynomial.  It runs on packed polynomials: each row is scaled by the
LCM of its denominators, so coefficients are ints, and each monomial is one
int whose fields hold the total degree and the exponents, sized from the
minor degree bound with a guard bit, so monomials multiply by adding ints
and compare in graded-lex order as ints.  Exact division is a leading-term
loop (Monagan-Pearce 2007); an exponent that borrows into a guard bit, or a
coefficient remainder, raises InternalFault, so nothing wraps silently.

The generic rank of a symbolic matrix is its rank over the field of rational
functions in the entry variables, which equals the maximum rank over all
specializations.  Fraction-free elimination certifies it for symbolic
matrices up to SYMBOLIC_RANK_LIMIT; above the cap (above_symbolic_cap)
rank_info raises SizeLimit, and only a point of full rank can certify such a
matrix.  A Matrix ranks itself through the two operations the verdict core
uses, rank_at (point_rank) and generic_rank (rank_info, None above the cap),
so the cap policy lives here alone.

`point_rank` is the rank over Q of a matrix at one point.  It evaluates the
entries modulo the prime POINT_PRIME = 2^61 - 1 straight from their terms and
eliminates there, fraction-free, so no inverse is taken (`_rank_mod_p`).  A
minor nonzero mod p is nonzero over Q at the point, and a minor nonzero at
the point is a nonzero polynomial, so

    rank mod p  <=  rank over Q at the point  <=  generic rank.

A full rank mod p is therefore the rank at the point, and so is a deficient
rank mod p that equals the certified generic rank; a Matrix keeps its generic
rank once computed, so the verdict core's own generic_rank call on a
deficient map costs nothing more.  Only where the two ranks differ (an
unlucky point, where p divides a denominator or a minor, or a matrix above
the symbolic cap, whose generic rank is None) is the specialized matrix
ranked exactly.  A one-step map of an algebra (algebra.OneStepMap) reads
its entries mod p off the algebra's table instead, and hands any rank below
full to point_rank.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .errors import InternalFault, SizeLimit
from .polynomial import SparsePoly

SYMBOLIC_RANK_LIMIT = 64
POINT_PRIME = (1 << 61) - 1


def pivot_columns(rows: Sequence[Sequence[Fraction]]) -> list[int]:
    """Columns that are not combinations of the columns left of them.

    The forward pass of Gaussian elimination clears each pivot column below
    the pivot.  The pivot row is zero left of its pivot column, so the row
    updates start at that column.
    """
    # entries that are Fractions already are kept: rebuilding one costs about
    # as much as an elimination step on it
    m = [[x if isinstance(x, Fraction) else Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    if not m or not m[0]:
        return pivots
    nrows, ncols = len(m), len(m[0])
    for col in range(ncols):
        row = len(pivots)
        pivot = next((r for r in range(row, nrows) if m[r][col]), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        for r in range(row + 1, nrows):
            if m[r][col]:
                factor = m[r][col] / m[row][col]
                for c in range(col, ncols):
                    m[r][c] -= factor * m[row][c]
        pivots.append(col)
        if len(pivots) == nrows:
            break
    return pivots


def fraction_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank over the rationals by ordinary Gaussian elimination."""
    return len(pivot_columns(rows))


# -- fraction-free elimination on packed monomials ------------------------------
#
# A packed polynomial is a dict from a monomial packed into one int to a
# nonzero int coefficient; see _pack_rows for the layout.


def _pack_rows(entries, variables: tuple[str, ...]) -> tuple[list[list[dict[int, int]]], int]:
    """The entries as packed polynomials over variables: (rows, width).

    variables holds every name of a nonconstant entry; a constant entry
    packs as the monomial 1 whatever its names.  Each row is multiplied by
    the LCM of its coefficient denominators, which leaves the rank
    unchanged.  A monomial packs into fields of width bits: its total
    degree in the top field, then one field per variable, the first
    variable highest, so comparing the ints compares monomials in graded-lex
    order.  Every entry of the elimination is a minor, and a
    k x k minor of entries of degree at most e has degree at most k*e; a
    field holds that bound plus one guard bit, so a product of two minors
    adds its fields with no carry.
    """
    n = len(variables)
    k = min(len(entries), len(entries[0]))
    e = max((x.degree() for row in entries for x in row if isinstance(x, SparsePoly)), default=0)
    width = (k * max(e, 0)).bit_length() + 1
    shift = {v: (n - 1 - i) * width for i, v in enumerate(variables)}
    top = n * width
    rows = []
    for row in entries:
        polys = []
        for x in row:
            if isinstance(x, SparsePoly) and not x.is_constant():
                shifts = [shift[v] for v in x.vars]
                polys.append({
                    sum(exps) << top | sum(a << b for a, b in zip(exps, shifts)): c
                    for exps, c in x.terms.items()
                })
            else:
                c = x.constant_value() if isinstance(x, SparsePoly) else Fraction(x)
                polys.append({0: c} if c else {})
        lcm = math.lcm(1, *(c.denominator for poly in polys for c in poly.values()))
        rows.append([{m: c.numerator * (lcm // c.denominator) for m, c in poly.items()} for poly in polys])
    return rows, width


def _guard(nvars: int, width: int) -> int:
    """The top bit of every field of a packed monomial over nvars variables."""
    return sum(1 << (i * width + width - 1) for i in range(nvars + 1))


def _cross(a: dict[int, int], b: dict[int, int], c: dict[int, int], d: dict[int, int]) -> dict[int, int]:
    """a*b - c*d on packed polynomials."""
    out: dict[int, int] = {}
    get = out.get
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = ma + mb
            out[m] = get(m, 0) + ca * cb
    for mc, cc in c.items():
        for md, cd in d.items():
            m = mc + md
            out[m] = get(m, 0) - cc * cd
    return {m: x for m, x in out.items() if x}


def _divide(f: dict[int, int], g: dict[int, int], guard: int) -> dict[int, int]:
    """f / g on packed polynomials, where g divides f exactly.

    The leading term of the remainder is divided by that of g, largest
    first, until nothing remains (Monagan-Pearce 2007); a heap holds the
    remainder's monomials.  A quotient monomial that borrows into a guard bit
    (or below zero), or a coefficient remainder, means g does not divide f,
    which Bareiss rules out: InternalFault.
    """
    lead = max(g)
    lc = g[lead]
    tail = [(m, c) for m, c in g.items() if m != lead]
    rem = dict(f)
    heap = [-m for m in rem]
    heapq.heapify(heap)
    quotient: dict[int, int] = {}
    while heap:
        m = -heapq.heappop(heap)
        c = rem.pop(m, 0)
        if not c:
            continue  # cancelled after it was pushed
        qm = m - lead
        qc, r = divmod(c, lc)
        if r or qm < 0 or qm & guard:
            raise InternalFault("inexact division in fraction-free elimination")
        quotient[qm] = qc
        for tm, tc in tail:
            x = qm + tm
            v = rem.get(x, 0) - qc * tc
            if not v:
                rem.pop(x, None)
            else:
                if x not in rem:
                    heapq.heappush(heap, -x)
                rem[x] = v
    return quotient


def _bareiss(rows: list[list[dict[int, int]]], guard: int) -> int:
    """The rank, by fraction-free elimination with full pivoting.

    The pivot is the first nonzero entry of the trailing block in row-major
    order; each step divides by the previous pivot.
    """
    m = [list(row) for row in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    prev = None
    for k in range(min(nrows, ncols)):
        found = next(((r, c) for r in range(k, nrows) for c in range(k, ncols) if m[r][c]), None)
        if found is None:
            return k
        pr, pc = found
        if pr != k:
            m[k], m[pr] = m[pr], m[k]
        if pc != k:
            for row in m:
                row[k], row[pc] = row[pc], row[k]
        top = m[k]
        pivot = top[k]
        for r in range(k + 1, nrows):
            row = m[r]
            lead = row[k]
            for c in range(k + 1, ncols):
                e = _cross(pivot, row[c], lead, top[c])
                if prev is not None and e:
                    e = _divide(e, prev, guard)
                row[c] = e
        prev = pivot
    return min(nrows, ncols)


@dataclass
class Matrix:
    """Labeled matrix with exact entries (int, Fraction or SparsePoly)."""

    row_labels: list
    col_labels: list
    entries: list
    # the certified generic rank, once generic_rank has computed it
    _generic_rank: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    @property
    def nrows(self) -> int:
        return len(self.row_labels)

    @property
    def ncols(self) -> int:
        return len(self.col_labels)

    def variables(self) -> tuple[str, ...]:
        """Every name of a nonconstant entry, sorted; () for a matrix of
        numbers."""
        names: set[str] = set()
        for row in self.entries:
            for e in row:
                if isinstance(e, SparsePoly) and e.terms and not e.is_constant():
                    names.update(e.vars)
        return tuple(sorted(names))

    def is_symbolic(self) -> bool:
        return bool(self.variables())

    def specialize(self, assignment) -> "Matrix":
        """Substitute values for every symbolic variable; entries become Fractions."""
        out = []
        for row in self.entries:
            new_row = []
            for e in row:
                if isinstance(e, SparsePoly):
                    new_row.append(e.evaluate({v: assignment[v] for v in e.vars}))
                else:
                    new_row.append(Fraction(e))
            out.append(new_row)
        return Matrix(list(self.row_labels), list(self.col_labels), out)

    def rank_at(self, assignment) -> int:
        """The exact rank over Q with every symbol set to its value in
        assignment (point_rank), which lies between the rank mod POINT_PRIME
        and the generic rank."""
        return point_rank(self, assignment)

    def generic_rank(self) -> Optional[int]:
        """The certified generic rank (rank_info), the largest rank at any
        point, or None above the symbolic cap, where only a point of full
        rank can certify the matrix.  It is eliminated once and kept."""
        if above_symbolic_cap(self):
            return None
        if self._generic_rank is None:
            self._generic_rank = rank_info(self)[0]
        return self._generic_rank

    def to_text(self) -> str:
        cells = [[str(e) for e in row] for row in self.entries]
        widths = [max(len(cells[r][c]) for r in range(self.nrows)) for c in range(self.ncols)] if self.nrows else []
        lines = []
        for row in cells:
            lines.append("[ " + "  ".join(s.rjust(w) for s, w in zip(row, widths)) + " ]")
        return "\n".join(lines)


def above_symbolic_cap(matrix: Matrix) -> bool:
    """True when the matrix is symbolic and above SYMBOLIC_RANK_LIMIT, where
    fraction-free elimination is refused."""
    return max(matrix.nrows, matrix.ncols) > SYMBOLIC_RANK_LIMIT and matrix.is_symbolic()


def rank_info(matrix: Matrix) -> tuple[int, bool]:
    """(rank, probabilistic flag) for a labeled matrix.

    Rational matrices are eliminated exactly at any size, symbolic ones by
    certified fraction-free elimination up to SYMBOLIC_RANK_LIMIT; a symbolic
    matrix above the cap raises SizeLimit.  Every rank returned is exact, so
    the flag is False; the pair stays for the callers that unpack it.
    """
    if matrix.nrows == 0 or matrix.ncols == 0:
        return 0, False
    variables = matrix.variables()
    if not variables:
        return fraction_rank([[e.constant_value() if isinstance(e, SparsePoly) else e for e in row]
                              for row in matrix.entries]), False
    if max(matrix.nrows, matrix.ncols) > SYMBOLIC_RANK_LIMIT:
        raise SizeLimit(
            f"symbolic rank of a {matrix.nrows}x{matrix.ncols} matrix exceeds cap {SYMBOLIC_RANK_LIMIT}"
        )
    rows, width = _pack_rows(matrix.entries, variables)
    return _bareiss(rows, _guard(len(variables), width)), False


def _mod_p(x) -> int:
    """An int or a Fraction modulo POINT_PRIME; ZeroDivisionError when the
    prime divides its denominator."""
    den = x.denominator
    if den == 1:
        return x.numerator % POINT_PRIME
    if not den % POINT_PRIME:
        raise ZeroDivisionError("the denominator vanishes modulo the point prime")
    return x.numerator * pow(den, -1, POINT_PRIME) % POINT_PRIME


def _rows_mod_p(entries, assignment) -> list[list[int]]:
    """The entries at the point, modulo POINT_PRIME, read off their terms.

    The residues of the point's values and of each monomial are kept per
    variable tuple, so a monomial shared by many entries is raised once.  A
    zero entry, as most entries of a sparse map are, reads 0 before any
    lookup, and an int entry, as every entry of a path-count map is, next.
    """
    p = POINT_PRIME
    by_vars: dict = {}  # variable tuple -> (value residues, monomial residues)

    def residue(e) -> int:
        if not e:
            return 0
        if isinstance(e, int):
            return e % p
        if not isinstance(e, SparsePoly):
            return _mod_p(e)
        known = by_vars.get(e.vars)
        if known is None:
            known = by_vars[e.vars] = ([_mod_p(assignment[v]) for v in e.vars], {})
        values, monomials = known
        total = 0
        for exps, c in e.terms.items():
            mono = monomials.get(exps)
            if mono is None:
                mono = 1
                for v, k in zip(values, exps):
                    if k:
                        mono = mono * pow(v, k, p) % p
                monomials[exps] = mono
            total += _mod_p(c) * mono
        return total % p

    return [[residue(e) for e in row] for row in entries]


def _rank_mod_p(m: list[list[int]]) -> int:
    """Rank over the field of integers modulo POINT_PRIME of residues in
    0..POINT_PRIME-1, by fraction-free elimination in place.

    Each row below the pivot row becomes a*row - x*(pivot row), where a is
    the pivot and x the row's entry in the pivot column.  a is nonzero mod
    p, so the rows span the same space as after Gaussian elimination, with
    no inverse taken.  Columns left of the pivot are zero in both rows and
    stay zero.
    """
    p = POINT_PRIME
    nrows, ncols = len(m), len(m[0])
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        top = m[rank]
        a = top[col]
        for r in range(rank + 1, nrows):
            x = m[r][col]
            if x:
                m[r] = [(a * u - x * v) % p for u, v in zip(m[r], top)]
        rank += 1
        if rank == nrows:
            break
    return rank


def point_rank(matrix: Matrix, assignment) -> int:
    """Rank over Q of the matrix with every symbol set to its value in assignment.

    The rank is taken modulo POINT_PRIME first.  Since rank mod p <= rank at
    the point <= generic rank, a full rank mod p is the rank at the point, and
    a deficient one is too when it equals the matrix's generic_rank.  A rank
    mod p below the generic rank, a generic rank of None (above the symbolic
    cap), or an entry whose denominator the prime divides is ranked exactly:
    specialize, then fraction_rank.
    """
    full = min(matrix.nrows, matrix.ncols)
    if full == 0:
        return 0
    try:
        rows = _rows_mod_p(matrix.entries, assignment)
    except ZeroDivisionError:  # a denominator the prime divides
        rows = None
    if rows is not None:
        rank = _rank_mod_p(rows)
        if rank == full or rank == matrix.generic_rank():
            return rank
    return fraction_rank(matrix.specialize(assignment).entries)
