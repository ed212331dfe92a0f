"""Numerical semigroup arithmetic on the Apery set.

Ap[r] is the least element of S congruent to r mod the multiplicity g_1; it
is the only table a semigroup keeps.  s is in S iff s >= Ap[s mod g_1], the
Frobenius number is max(Ap) - g_1, and the order of s is

    ord(s) = 1 + max(ord(s - g) : g generator, s - g in S),  ord(0) = 0,

the largest total degree of a representation of s as a sum of generators.
Ap is built one generator at a time by the round-robin step (Boecker and
Liptak 2007): adding g walks each of the gcd(g, g_1) cycles r -> r + g of the
residues once, from the cycle's least entry, and relaxes every entry by g, so
one step costs O(g_1).  A sweep carries the Apery list of a generator prefix
down the tuple tree the same way.  Every w - g in S of an Apery element w is
another Apery element, so the orders of the Apery set cost O(n*g_1).

A representation of s is its exponent tuple over the generators.  A maximal
representation (one of total degree ord(s)) less one generator g is one of
s - g, where ord(s - g) = ord(s) - 1, and g added to any of those gives
one of s.  So the maximal representations come from a memoized walk down the
same recurrence, at a cost in proportion to how many there are;
MAXIMAL_REPS_LIMIT caps how many one semigroup builds, and ORDERS_LIMIT caps
the orders it holds.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import product as iter_product
from typing import Iterator, Optional, Sequence

from .errors import EmptyInput, GcdNotOne, InternalFault, InvalidGenerator, NotInSemigroup, SizeLimit

# Maximal representations one semigroup may build, summed over every value
# the walk memoizes.  The most in the tests is 30,000, one per Apery element
# of <30000, 30001, 30002>.  Reaching the cap takes about 5 s and 180 MB on a
# 2-core Intel Xeon host (<1000, 1501, 1502, ..., 1520>).
MAXIMAL_REPS_LIMIT = 500_000

# Values the order recurrence of one semigroup may hold, memoized or waiting
# on the walk's stack.  The most in the tests is 99,999, for order(100_000) on
# <2, 3>; an Apery table holds one per element.  On a 2-core Intel Xeon host
# order(3_000_000) on <2, 3> reaches the cap in 0.7-1.1 s and 58 MB, and
# orders asked 50,000 apart fill the memo to it in 2.7-4.7 s and 123 MB.
ORDERS_LIMIT = 1_000_000


class NumericalSemigroup:
    """A numerical semigroup given by its minimal generators.

    Use :func:`create_semigroup`; the constructor assumes an already reduced,
    sorted, gcd-1 generator tuple and its Apery list, indexed by residue.
    Orders are memoized as they are asked for.
    """

    def __init__(self, generators: tuple[int, ...], apery: list[int]):
        self.generators = tuple(generators)
        self.multiplicity = self.generators[0]
        self._apery = apery
        self._orders = {0: 0}
        # exponent tuples of the maximal representations, lex-descending
        self._max_reps = {0: ((0,) * len(self.generators),)}
        self._reps_built = 1
        self.frobenius = max(apery) - self.multiplicity
        self._apery_table: Optional[AperyTable] = None
        self._frame: Optional[FrameData] = None

    def contains(self, s: int) -> bool:
        return s >= 0 and s >= self._apery[s % self.multiplicity]

    def is_symmetric(self) -> bool:
        """Whether exactly one of s and F - s is in S for every integer s.

        On the Apery list: w_max - w is an Apery element for every Apery
        element w.  An m-pure semigroup is symmetric (Kunz 1970), so this
        rejects most of a sweep before any order is computed.
        """
        ap, m = self._apery, self.multiplicity
        top = self.frobenius + m
        return all(ap[(top - w) % m] == top - w for w in ap)

    def order(self, s: int) -> int:
        """Largest total degree over all representations of s."""
        if not self.contains(s):
            raise NotInSemigroup(f"{s} is not in the semigroup")
        orders, stack = self._orders, [s]
        while stack:
            t = stack.pop()
            if t in orders:
                continue
            below = [t - g for g in self.generators if self.contains(t - g)]
            missing = [u for u in below if u not in orders]
            if missing:
                stack += [t] + missing
            else:
                orders[t] = 1 + max(orders[u] for u in below)
            if len(stack) + len(orders) > ORDERS_LIMIT:
                raise SizeLimit(f"the orders of {self!r} up to {s} exceed cap {ORDERS_LIMIT}")
        return orders[s]

    def maximal_representations(self, s: int) -> list[tuple[int, ...]]:
        """Representations achieving ord(s), lex-descending (lex-max first)."""
        self.order(s)  # every member below s now has its order memoized
        orders, memo, gens = self._orders, self._max_reps, self.generators
        stack = [s]
        while stack:
            t = stack[-1]
            if t in memo:
                stack.pop()
                continue
            below = [(i, t - g) for i, g in enumerate(gens) if orders.get(t - g) == orders[t] - 1]
            missing = [u for _, u in below if u not in memo]
            if missing:
                stack += missing
                continue
            stack.pop()
            reps = {e[:i] + (e[i] + 1,) + e[i + 1:] for i, u in below for e in memo[u]}
            self._reps_built += len(reps)
            if self._reps_built > MAXIMAL_REPS_LIMIT:
                raise SizeLimit(
                    f"{self!r} needs more than {MAXIMAL_REPS_LIMIT} maximal representations"
                )
            memo[t] = tuple(sorted(reps, reverse=True))
        return list(memo[s])

    def apery_table(self) -> "AperyTable":
        if self._apery_table is None:
            self._apery_table = _build_apery_table(self)
        return self._apery_table

    def frame(self) -> "FrameData":
        """The beta/gamma frame, computed once per semigroup."""
        if self._frame is None:
            self._frame = compute_beta_gamma(self)
        return self._frame

    def __repr__(self) -> str:
        return f"NumericalSemigroup{self.generators}"


def _with_generator(apery: list, g: int) -> list:
    """The Apery list of <S, g> from the Apery list of S (round robin).

    Entries are indexed by residue mod g_1 = len(apery); math.inf marks a
    class S does not reach yet.  The residues split into gcd(g, g_1) cycles
    r -> (r + g) mod g_1.  The least element of <S, g> in class r is the
    least Ap[r - k*g] + k*g, and the chain of additions of g that reaches it
    need not pass the cycle's least entry, since starting there costs no
    more.  So one walk around each cycle from its least entry, keeping the
    running value min(Ap[r], previous + g), gives every class.
    """
    g1 = len(apery)
    out = list(apery)
    d = math.gcd(g, g1)
    step = g % g1
    for p in range(d):
        r = min(range(p, g1, d), key=out.__getitem__)
        w = out[r]
        if w == math.inf:
            continue
        for _ in range(g1 // d - 1):
            r += step
            if r >= g1:
                r -= g1
            w += g
            if w < out[r]:
                out[r] = w
            else:
                w = out[r]
    return out


def create_semigroup(gens: Sequence[int]) -> NumericalSemigroup:
    """Validate, deduplicate, and reduce a generator list to the minimal set."""
    gens = list(gens)
    if not gens:
        raise EmptyInput("at least one generator is required")
    if any((not isinstance(g, int)) or isinstance(g, bool) or g <= 0 for g in gens):
        raise InvalidGenerator("generators must be positive integers")
    uniq = sorted(set(gens))
    if reduce(math.gcd, uniq) != 1:
        raise GcdNotOne(f"gcd of {tuple(uniq)} is not 1")
    g1 = uniq[0]
    apery = [0] + [math.inf] * (g1 - 1)
    minimal = [g1]
    for g in uniq[1:]:
        # g is a minimal generator iff the smaller generators do not reach it
        if g < apery[g % g1]:
            minimal.append(g)
            apery = _with_generator(apery, g)
    return NumericalSemigroup(tuple(minimal), apery)


def minimal_tuples(m: int, count: int, top: int) -> Iterator[NumericalSemigroup]:
    """The semigroups minimally generated by m < g_2 < ... < g_count <= top.

    They come in the lexicographic order of their generator tuples, the order
    of itertools.combinations.  The walk carries the Apery list of each
    prefix, so a candidate already in the prefix's semigroup is dropped with
    every tuple that extends it, and a tuple of gcd > 1 (an entry left
    infinite) yields nothing.
    """
    if m < 1:
        if max(0, top - m) >= count - 1:  # there is a tuple to reject
            raise InvalidGenerator("generators must be positive integers")
        return

    def extend(gens: tuple[int, ...], apery: list, low: int):
        if len(gens) == count:
            if math.inf not in apery:
                yield NumericalSemigroup(gens, apery)
            return
        for g in range(low, top - (count - len(gens)) + 2):
            if g < apery[g % m]:
                yield from extend(gens + (g,), _with_generator(apery, g), g + 1)

    yield from extend((m,), [0] + [math.inf] * (m - 1), m + 1)


@dataclass(frozen=True)
class MPureWitness:
    """First index (1-based, over the sorted elements) violating symmetry."""

    index: int
    condition: str  # "sum" or "order"
    left: int
    right: int
    expected: int


@dataclass(frozen=True)
class MPureVerdict:
    symmetric: bool
    witness: Optional[MPureWitness]

    def __bool__(self) -> bool:
        return self.symmetric


@dataclass
class AperyTable:
    """The apery set of S w.r.t. its multiplicity, with orders and maximal reps.

    elements are the least semigroup members of each residue class mod g_1,
    sorted increasingly; orders[i] = ord(elements[i]); max_reps[i] lists the
    exponent tuple of every maximal representation of elements[i] (all have
    first exponent 0), built on first access.
    """

    semigroup: NumericalSemigroup
    elements: tuple[int, ...]
    orders: tuple[int, ...]
    socle_degree: int
    _m_pure: Optional[MPureVerdict] = field(default=None, repr=False)
    # a weak reference to the table's graded algebra (algebra.build_algebra)
    _algebra: Optional[weakref.ref] = field(default=None, repr=False, compare=False)

    @cached_property
    def max_reps(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        S = self.semigroup
        rows = tuple(tuple(S.maximal_representations(e)) for e in self.elements)
        # w - g_1 is not in S for an apery element w, so no representation
        # of w uses g_1
        for e, row in zip(self.elements, rows):
            if any(r[0] for r in row):
                raise InternalFault(f"a maximal representation of apery element {e} uses g_1")
        return rows

    def order_of(self) -> dict[int, int]:
        return dict(zip(self.elements, self.orders))

    def elements_of_order(self, d: int) -> list[int]:
        return [e for e, o in zip(self.elements, self.orders) if o == d]

    def m_pure_verdict(self) -> MPureVerdict:
        if self._m_pure is None:
            self._m_pure = _m_pure_check(self)
        return self._m_pure


def _build_apery_table(S: NumericalSemigroup) -> AperyTable:
    elements = tuple(sorted(S._apery))
    orders = tuple(S.order(e) for e in elements)
    return AperyTable(
        semigroup=S,
        elements=elements,
        orders=orders,
        socle_degree=orders[-1],
    )


def _m_pure_check(table: AperyTable) -> MPureVerdict:
    e, o = table.elements, table.orders
    m = len(e)
    for i in range(m):
        j = m - 1 - i
        if e[i] + e[j] != e[-1]:
            return MPureVerdict(False, MPureWitness(i + 1, "sum", e[i], e[j], e[-1]))
        if o[i] + o[j] != o[-1]:
            return MPureVerdict(False, MPureWitness(i + 1, "order", o[i], o[j], o[-1]))
    return MPureVerdict(True, None)


@dataclass
class FrameData:
    """Per-generator exponent bounds and the two boxes they span.

    beta[i] is the largest h with h*g_{i+2} in the apery set and of order h;
    gamma[i] additionally requires a unique maximal representation.  rho[i]
    is 1 exactly when gamma[i] < beta[i], and then gamma_witness[i] is a
    maximal representation of (gamma[i]+1)*g_{i+2} avoiding that generator.
    box_b / box_gamma are the element sets swept by exponents up to beta /
    gamma; the apery set always sits inside box_gamma inside box_b
    (compute_beta_gamma checks it), and gamma_minus_apery / b_minus_apery
    list the box elements outside it.
    """

    table: AperyTable
    beta: tuple[int, ...]
    gamma: tuple[int, ...]
    rho: tuple[int, ...]
    gamma_witness: dict[int, tuple[int, ...]]
    box_b: tuple[int, ...]
    box_gamma: tuple[int, ...]

    @property
    def semigroup(self) -> NumericalSemigroup:
        return self.table.semigroup

    def box_gamma_points(self) -> int:
        return math.prod(g + 1 for g in self.gamma)

    def is_ci(self) -> bool:
        """Complete intersection: the gamma box adds no new elements."""
        return set(self.box_gamma) == set(self.table.elements)

    def is_monomial_ci(self) -> bool:
        return set(self.box_b) == set(self.table.elements)

    def gamma_minus_apery(self) -> tuple[int, ...]:
        apery = set(self.table.elements)
        return tuple(v for v in self.box_gamma if v not in apery)

    def b_minus_apery(self) -> tuple[int, ...]:
        apery = set(self.table.elements)
        return tuple(v for v in self.box_b if v not in apery)


def compute_beta_gamma(S: NumericalSemigroup) -> FrameData:
    table = S.apery_table()
    gens = S.generators
    apery_orders = table.order_of()
    omega_max = table.elements[-1]
    beta: list[int] = []
    gamma: list[int] = []
    rho: list[int] = []
    witness: dict[int, tuple[int, ...]] = {}
    for idx in range(1, len(gens)):
        g = gens[idx]
        b = gm = 0
        for h in range(1, omega_max // g + 1):
            v = h * g
            if apery_orders.get(v) != h:
                continue
            b = max(b, h)
            if len(S.maximal_representations(v)) == 1:
                gm = max(gm, h)
        beta.append(b)
        gamma.append(gm)
        rho.append(0 if b == gm else 1)
        if gm < b:
            pure = tuple(
                (gm + 1) if j == idx else 0 for j in range(len(gens))
            )
            others = [
                r for r in S.maximal_representations((gm + 1) * g)
                if r != pure
            ]
            if not others:
                raise InternalFault(f"gamma < beta at {g} without a second maximal representation")
            # Any non-pure maximal representation avoids the generator itself.
            if any(r[idx] for r in others):
                raise InternalFault(f"a second maximal representation of {(gm + 1) * g} uses {g}")
            witness[idx] = others[0]  # lex-greatest, enumeration is lex-descending
    box_b = _box_values(gens, beta)
    box_gamma = _box_values(gens, gamma)
    frame = FrameData(
        table=table,
        beta=tuple(beta),
        gamma=tuple(gamma),
        rho=tuple(rho),
        gamma_witness=witness,
        box_b=box_b,
        box_gamma=box_gamma,
    )
    if not set(table.elements) <= set(box_gamma) <= set(box_b):
        raise InternalFault(f"apery set, gamma box and b box of {gens} are not nested")
    return frame


def _box_values(gens: tuple[int, ...], bounds: Sequence[int]) -> tuple[int, ...]:
    values = set()
    for exps in iter_product(*(range(b + 1) for b in bounds)):
        values.add(sum(l * g for l, g in zip(exps, gens[1:])))
    return tuple(sorted(values))
