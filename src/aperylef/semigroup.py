"""Numerical semigroup arithmetic.

Membership and orders are dynamic-programming tables indexed by value; the
table is built up to frobenius + 2*multiplicity and extended on demand for
box elements that land beyond it.  The order of an element is

    ord(s) = 1 + max(ord(s - g) : g generator, s - g in S),  ord(0) = 0,

the largest total degree of a representation of s as a sum of generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from itertools import product as iter_product
from typing import Optional, Sequence

from .errors import EmptyInput, GcdNotOne, NotInSemigroup


@dataclass(frozen=True)
class Representation:
    """One way to write a value as a nonnegative generator combination."""

    exponents: tuple[int, ...]
    value: int
    total_degree: int

    @classmethod
    def make(cls, exponents: Sequence[int], generators: Sequence[int]) -> "Representation":
        exponents = tuple(int(x) for x in exponents)
        value = sum(l * g for l, g in zip(exponents, generators))
        return cls(exponents, value, sum(exponents))


class NumericalSemigroup:
    """A numerical semigroup given by its minimal generators.

    Use :func:`create_semigroup`; the constructor assumes an already reduced,
    sorted, gcd-1 generator tuple.  Values are immutable once computed, but
    the DP tables grow lazily on large order queries, so share an instance
    across threads only after warming the queries you need.
    """

    def __init__(self, generators: tuple[int, ...]):
        self.generators = tuple(generators)
        self.multiplicity = self.generators[0]
        self._member = [False]
        self._order = [0]
        g1 = self.multiplicity
        gmax = self.generators[-1]
        self._grow(g1 * gmax + 2 * g1 + 1)
        non_members = [s for s in range(len(self._member)) if not self._member[s]]
        self.frobenius = max(non_members) if non_members else -1
        self._apery_table: Optional[AperyTable] = None
        self._frame: Optional[FrameData] = None

    def _grow(self, bound: int) -> None:
        """Extend membership/order tables so indices 0..bound are valid."""
        start = len(self._member)
        if bound < start:
            return
        self._member.extend([False] * (bound - start + 1))
        self._order.extend([-1] * (bound - start + 1))
        self._member[0] = True
        self._order[0] = 0
        for s in range(max(1, start), bound + 1):
            best = -1
            for g in self.generators:
                if g > s:
                    break
                if self._member[s - g]:
                    best = max(best, self._order[s - g])
            if best >= 0:
                self._member[s] = True
                self._order[s] = best + 1

    def contains(self, s: int) -> bool:
        if s < 0:
            return False
        if s >= len(self._member):
            return s > self.frobenius
        return self._member[s]

    def order(self, s: int) -> int:
        """Largest total degree over all representations of s."""
        if s < 0 or not self.contains(s):
            raise NotInSemigroup(f"{s} is not in the semigroup")
        if s >= len(self._member):
            self._grow(s)
        return self._order[s]

    def representations(self, s: int) -> list[Representation]:
        """Every representation of s, sorted lexicographically descending."""
        if s < 0 or not self.contains(s):
            raise NotInSemigroup(f"{s} is not in the semigroup")
        gens = self.generators
        n = len(gens)
        out: list[Representation] = []

        def recurse(idx: int, remaining: int, acc: tuple[int, ...]):
            if idx == n - 1:
                q, r = divmod(remaining, gens[idx])
                if r == 0:
                    out.append(Representation.make(acc + (q,), gens))
                return
            g = gens[idx]
            for lam in range(remaining // g, -1, -1):
                recurse(idx + 1, remaining - lam * g, acc + (lam,))

        recurse(0, s, ())
        return out

    def maximal_representations(self, s: int) -> list[Representation]:
        """Representations achieving ord(s), lex-descending (lex-max first)."""
        target = self.order(s)
        return [r for r in self.representations(s) if r.total_degree == target]

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


def create_semigroup(gens: Sequence[int]) -> NumericalSemigroup:
    """Validate, deduplicate, and reduce a generator list to the minimal set."""
    gens = list(gens)
    if not gens:
        raise EmptyInput("at least one generator is required")
    if any((not isinstance(g, int)) or isinstance(g, bool) or g <= 0 for g in gens):
        raise ValueError("generators must be positive integers")
    uniq = sorted(set(gens))
    if reduce(math.gcd, uniq) != 1:
        raise GcdNotOne(f"gcd of {tuple(uniq)} is not 1")
    if uniq[0] == 1:
        return NumericalSemigroup((1,))
    # Membership table for the full set; redundant generators do not change S.
    g1, gmax = uniq[0], uniq[-1]
    bound = g1 * gmax + 1
    member = [False] * (bound + 1)
    member[0] = True
    for s in range(1, bound + 1):
        member[s] = any(g <= s and member[s - g] for g in uniq)
    # g is a minimal generator iff it is not a sum of two nonzero elements;
    # both summands are < g, so the full-set table decides this correctly.
    minimal = tuple(
        g for g in uniq
        if not any(member[s] and member[g - s] for s in range(g1, g - g1 + 1))
    )
    return NumericalSemigroup(minimal)


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
    sorted increasingly; orders[i] = ord(elements[i]); max_reps[i] lists every
    maximal representation of elements[i] (all have first exponent 0).
    """

    semigroup: NumericalSemigroup
    elements: tuple[int, ...]
    orders: tuple[int, ...]
    max_reps: tuple[tuple[Representation, ...], ...]
    socle_degree: int
    frobenius: int
    _m_pure: Optional[MPureVerdict] = field(default=None, repr=False)

    def order_of(self) -> dict[int, int]:
        return dict(zip(self.elements, self.orders))

    def elements_of_order(self, d: int) -> list[int]:
        return [e for e, o in zip(self.elements, self.orders) if o == d]

    def m_pure_verdict(self) -> MPureVerdict:
        if self._m_pure is None:
            self._m_pure = _m_pure_check(self)
        return self._m_pure


def _build_apery_table(S: NumericalSemigroup) -> AperyTable:
    g1 = S.multiplicity
    top = S.frobenius + g1 if S.frobenius >= 0 else 0
    elements = [s for s in range(top + 1) if S.contains(s) and not S.contains(s - g1)]
    assert len(elements) == g1, "apery set must have one element per residue class"
    orders = tuple(S.order(e) for e in elements)
    reps = tuple(tuple(S.maximal_representations(e)) for e in elements)
    for row in reps:
        assert all(r.exponents[0] == 0 for r in row)
    return AperyTable(
        semigroup=S,
        elements=tuple(elements),
        orders=orders,
        max_reps=reps,
        socle_degree=orders[-1],
        frobenius=elements[-1] - g1,
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


def is_m_pure_symmetric(S: NumericalSemigroup) -> MPureVerdict:
    """Additive and order symmetry of the apery set (element i pairs with m-1-i)."""
    return S.apery_table().m_pure_verdict()


@dataclass
class FrameData:
    """Per-generator exponent bounds and the two boxes they span.

    beta[i] is the largest h with h*g_{i+2} in the apery set and of order h;
    gamma[i] additionally requires a unique maximal representation.  rho[i]
    is 1 exactly when gamma[i] < beta[i], and then gamma_witness[i] is a
    maximal representation of (gamma[i]+1)*g_{i+2} avoiding that generator.
    box_b / box_gamma are the element sets swept by exponents up to beta /
    gamma; the apery set always sits inside box_gamma inside box_b.
    """

    table: AperyTable
    beta: tuple[int, ...]
    gamma: tuple[int, ...]
    rho: tuple[int, ...]
    gamma_witness: dict[int, Representation]
    box_b: tuple[int, ...]
    box_gamma: tuple[int, ...]

    @property
    def semigroup(self) -> NumericalSemigroup:
        return self.table.semigroup

    def box_gamma_points(self) -> int:
        return math.prod(g + 1 for g in self.gamma)

    def box_b_points(self) -> int:
        return math.prod(b + 1 for b in self.beta)

    def is_ci(self) -> bool:
        """Complete intersection: the gamma box adds no new elements."""
        return set(self.box_gamma) == set(self.table.elements)

    def is_monomial_ci(self) -> bool:
        return set(self.box_b) == set(self.table.elements)


def compute_beta_gamma(S: NumericalSemigroup) -> FrameData:
    table = S.apery_table()
    gens = S.generators
    apery_orders = table.order_of()
    omega_max = table.elements[-1]
    beta: list[int] = []
    gamma: list[int] = []
    rho: list[int] = []
    witness: dict[int, Representation] = {}
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
                if r.exponents != pure
            ]
            assert others, "gamma < beta requires a second maximal representation"
            # Any non-pure maximal representation avoids the generator itself.
            assert all(r.exponents[idx] == 0 for r in others)
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
    apery = set(table.elements)
    assert apery <= set(frame.box_gamma) <= set(frame.box_b)
    return frame


def _box_values(gens: tuple[int, ...], bounds: Sequence[int]) -> tuple[int, ...]:
    values = set()
    for exps in iter_product(*(range(b + 1) for b in bounds)):
        values.add(sum(l * g for l, g in zip(exps, gens[1:])))
    return tuple(sorted(values))


@dataclass(frozen=True)
class BoxReport:
    box_b: tuple[int, ...]
    box_gamma: tuple[int, ...]
    apery_in_gamma: bool
    gamma_in_b: bool
    gamma_minus_apery: tuple[int, ...]
    b_minus_apery: tuple[int, ...]


def box_elements(frame: FrameData) -> tuple[tuple[int, ...], tuple[int, ...], BoxReport]:
    """The two box element sets plus a containment report."""
    apery = set(frame.table.elements)
    gamma_set = set(frame.box_gamma)
    b_set = set(frame.box_b)
    report = BoxReport(
        box_b=frame.box_b,
        box_gamma=frame.box_gamma,
        apery_in_gamma=apery <= gamma_set,
        gamma_in_b=gamma_set <= b_set,
        gamma_minus_apery=tuple(sorted(gamma_set - apery)),
        b_minus_apery=tuple(sorted(b_set - apery)),
    )
    return frame.box_b, frame.box_gamma, report
