"""The Dijkstra Apery kernel and the minimality scan, kept as a test oracle.

This is how `aperylef.semigroup.create_semigroup` built a semigroup before it
folded the round-robin step over the generators: Dijkstra over the residues
mod g_1, with edges r -> r + g of weight g (Nijenhuis 1979), gives the Apery
list of the whole generator set, and a scan keeps a generator exactly when it
is not a sum of two nonzero elements.  `minimal_tuples` is the sweep's old
filter: every tuple `itertools.combinations` lists, kept when it is its own
minimal generating set.  `representations` lists every representation of
an element, which the package never needs: it walks only the maximal ones.
`box_values` is the frame's old box walk, over every exponent tuple of the
box.  Tests compare the kernel and the walks against them.
"""

import heapq
import math
from functools import reduce
from itertools import combinations, product

from aperylef import EmptyInput, GcdNotOne, InvalidGenerator, NotInSemigroup


def apery_residues(gens):
    """Least element of <gens> in each residue class mod gens[0] (Dijkstra)."""
    g1 = gens[0]
    apery = [0] + [math.inf] * (g1 - 1)
    heap = [(0, 0)]
    while heap:
        w, r = heapq.heappop(heap)
        if w == apery[r]:
            for v in (w + g for g in gens[1:]):
                if v < apery[v % g1]:
                    apery[v % g1] = v
                    heapq.heappush(heap, (v, v % g1))
    return apery


def create(gens):
    """(minimal generators, Apery list), with create_semigroup's input checks."""
    gens = list(gens)
    if not gens:
        raise EmptyInput("at least one generator is required")
    if any((not isinstance(g, int)) or isinstance(g, bool) or g <= 0 for g in gens):
        raise InvalidGenerator("generators must be positive integers")
    uniq = sorted(set(gens))
    if reduce(math.gcd, uniq) != 1:
        raise GcdNotOne(f"gcd of {tuple(uniq)} is not 1")
    apery = apery_residues(uniq)
    g1 = uniq[0]
    minimal = tuple(
        g for g in uniq
        if not any(
            s >= apery[s % g1] and g - s >= apery[(g - s) % g1]
            for s in range(g1, g - g1 + 1)
        )
    )
    return minimal, apery


def minimal_tuples(m, count, top):
    """The tuples (m, g_2, ..., g_count), g_count <= top, that minimally
    generate a numerical semigroup, in the order combinations lists them."""
    for rest in combinations(range(m + 1, top + 1), count - 1):
        gens = (m,) + rest
        try:
            minimal, _ = create(gens)
        except (GcdNotOne, EmptyInput):
            continue
        if minimal == gens:
            yield gens


def representations(S, s):
    """Every representation of s in S, sorted lexicographically descending."""
    if not S.contains(s):
        raise NotInSemigroup(f"{s} is not in the semigroup")
    gens = S.generators
    out = []

    def recurse(idx, remaining, acc):
        g = gens[idx]
        if idx == len(gens) - 1:
            if remaining % g == 0:
                out.append(acc + (remaining // g,))
            return
        for lam in range(remaining // g, -1, -1):
            recurse(idx + 1, remaining - lam * g, acc + (lam,))

    recurse(0, s, ())
    return out


def box_values(gens, bounds):
    """The sorted distinct values l.g over every exponent tuple l of the box
    0 <= l_i <= bounds[i], on the generators after the first."""
    tuples = product(*(range(b + 1) for b in bounds))
    return tuple(sorted({sum(l * g for l, g in zip(exps, gens[1:])) for exps in tuples}))


def frame_by_full_scan(S):
    """(beta, gamma, rho, gamma_witness) of S by the frame's old scan: every
    h from 1 to max(Ap) // g for each generator g after the first, keeping
    the largest h with h*g an Apery element of order h, and the largest of
    those with a unique maximal representation."""
    table = S.apery_table()
    orders = dict(zip(table.elements, table.orders))
    beta, gamma, witness = [], [], {}
    for idx, g in enumerate(S.generators[1:], start=1):
        b = gm = 0
        for h in range(1, table.elements[-1] // g + 1):
            if orders.get(h * g) == h:
                b = max(b, h)
                if len(S.maximal_representations(h * g)) == 1:
                    gm = max(gm, h)
        beta.append(b)
        gamma.append(gm)
        if gm < b:
            pure = tuple(gm + 1 if j == idx else 0 for j in range(len(S.generators)))
            witness[idx] = next(r for r in S.maximal_representations((gm + 1) * g) if r != pure)
    rho = tuple(int(b != gm) for b, gm in zip(beta, gamma))
    return tuple(beta), tuple(gamma), rho, witness


def is_symmetric_by_pairing(S):
    """The Apery pairing test: max(Ap) - w is an Apery element for every
    Apery element w."""
    ap, m = S._apery, S.multiplicity
    top = max(ap)
    return all(ap[(top - w) % m] == top - w for w in ap)
