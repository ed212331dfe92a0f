"""Weak and Strong Lefschetz decision procedures.

Two independent exact routes decide the properties.  The rank route forms
multiplication maps by a generic linear form, whose coefficient of each
variable is named by that variable; an apery or box algebra supplies the
maps through the action of its variables, an algebra presented by a dual
polynomial supplies them through the perfect pairing.  The Hessian route
takes a dual view and reads the same verdicts off the ranks of Hessian
matrices of its dual polynomial.  On a dual view both routes read one
builder, the view's pairing of two of its bases: the map by the p-th power
from degree d is the pairing of degrees D-d-p and d, and the (mixed) Hessian
of degrees (i, j) is the pairing of degrees i and j.  So every matrix entry,
on either kind of algebra, is a polynomial in ``obj.variables``, and a
witness point, a value per variable, assigns them directly.

Both routes rank evaluate-first, in one loop over the witness points: full
rank at a point is full generic rank, since no specialization raises the
rank.  Every map is a linalg.Matrix and is ranked through two operations:
rank_at, the rank over Q at a point, and generic_rank, the certified generic
rank or None above the symbolic cap.  Only a matrix deficient at the first
point asks for its generic rank, which tells a deficient point from a
deficient map and certifies the latter; a matrix above the cap is instead
ranked again at the later points.  Each algebra, of either kind, builds a
map once and shares it with its reports, so a map's generic rank is
certified once; a colon quotient is an algebra of its own and builds its
own.  Every algebra gives its one-step maps, all that WLP ranks, as the
cells of its table (algebra.OneStepMap): rank_at reads a draw into them
modulo the point prime, and builds the symbolic entries only for a rank
below full, where rank_at and generic_rank go on as for any map.  A
monomial algebra (an Apery algebra of codimension at most 2, or a colon
quotient of one) gives the integer path-count matrices M(1) as its power
maps (algebra module docstring): the symbolic map is
diag(t^r(w')) M(1) diag(t^-r(w)), so at every witness draw, none of whose
coordinates is zero, its rank is rank M(1), also its generic rank.

Verdicts: "holds" always carries a rational witness verified exactly, for
the power maps of a monomial algebra by that identity and for a Gorenstein
WLP rank report on the middle map (wlp_by_ranks).  "fails" always carries
a symbolic generic-rank deficiency; "inconclusive" appears when a map above
the symbolic cap is deficient at every witness point (its rank is then
probabilistic) or when a quotient step's hypotheses cannot be checked.

Reports serialize field by field: each to_dict builds a new JSON-ready dict
in field order, with tuples as lists and nested reports as their own dicts,
and shares no dict or list with the report.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable, Optional, Sequence, Union

from .algebra import (
    GradedAlgebra,
    IdealDescription,
    _same_graded_presentation,
    build_algebra,
    build_gamma_algebra,
    codim3_defining_ideal,
)
from .errors import (
    DegreeTooSmall,
    InternalFault,
    InvalidSeed,
    InvalidStep,
    NotApplicable,
    NotCI,
    NotGorensteinAtStep,
)
from .inverse_system import DualAlgebraView
from .linalg import Matrix
from .semigroup import FrameData, NumericalSemigroup

AlgebraLike = Union[GradedAlgebra, DualAlgebraView]

WITNESS_RANGE = 10_000
WITNESS_ATTEMPTS = 25

# The generator of the witness draws, reseeded in place rather than built
# anew, and the first draw of the last seed and range: ((seed, range), values).
_rng = random.Random()
_first_draw: tuple = (None, [])


def root_seed() -> int:
    """Root random seed, taken from the APERY_SEED environment variable (0 if unset)."""
    value = os.environ.get("APERY_SEED", "0")
    try:
        return int(value)
    except ValueError:
        raise InvalidSeed(f"APERY_SEED={value!r} is not an integer") from None


def derive_seed(root: int, key: str) -> int:
    """Deterministic per-task seed from the root seed and a task key."""
    digest = hashlib.sha256(f"{root}:{key}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class LefschetzReport:
    property: str  # "WLP" or "SLP"
    verdict: str  # "holds" | "fails" | "inconclusive"
    method: str  # "ranks" | "hessian" | "criterion"
    witness: Optional[dict]
    evidence: list
    gorenstein: bool
    socle_degree: int
    k: int
    probabilistic: bool = False
    notes: str = ""

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"

    def to_dict(self) -> dict:
        return {
            "property": self.property,
            "verdict": self.verdict,
            "method": self.method,
            "witness": None if self.witness is None else dict(self.witness),
            "evidence": [dict(entry) for entry in self.evidence],
            "gorenstein": self.gorenstein,
            "socle_degree": self.socle_degree,
            "k": self.k,
            "probabilistic": self.probabilistic,
            "notes": self.notes,
        }


def _hilbert(obj: AlgebraLike) -> tuple[int, ...]:
    """The Hilbert vector: a method of GradedAlgebra, a field of DualAlgebraView."""
    h = obj.hilbert
    return h() if callable(h) else h


def _decide(
    property_name: str,
    method: str,
    obj: AlgebraLike,
    checks: Sequence[tuple[dict, int, Callable[[], Matrix]]],
    seed: Optional[int],
    notes: str,
    point_filter=None,
) -> LefschetzReport:
    """The verdict core both routes share: generic ranks, verdict, witness.

    Each check is an evidence head, the rank its matrix must reach (maximal
    rank, min(rows, cols)) and a function that returns the matrix, which
    its algebra builds once and keeps.  "holds" needs every rank maximal and
    carries a witness point at which every matrix has full rank; "fails"
    needs a certified (non-probabilistic) deficiency; anything else is
    "inconclusive".  The matrix entries are polynomials in ``obj.variables``,
    and a draw assigns each variable a value.

    One loop over the witness draws ranks, certifies and finds the witness.
    Every map is ranked at the first draw by its rank_at: full rank at one
    point is full generic rank.  A map deficient there is certified by its
    generic_rank, which ends the loop on a deficiency, unless that is None
    (above the symbolic cap): then it is ranked again at each later draw
    until one gives it full rank, and if none does it reports its best point
    rank as probabilistic.  The witness is the first draw that the point
    filter passes with every map at full rank; a draw the filter rejects
    still counts as an attempt.  The draws are those of a fresh
    random.Random(seed), each assigning the variables in order.
    """
    draws = _witness_draws(obj.variables, 0 if seed is None else seed)
    certified: dict[int, int] = {}  # check index -> generic rank
    best = [0] * len(checks)  # best point rank of a map not yet certified
    witness = None if checks else {}
    for attempt in range(WITNESS_ATTEMPTS if checks else 0):
        point = next(draws)
        usable = point_filter is None or point_filter(point)
        full = True  # every map ranked at this draw has full rank
        for i, (_, required, matrix) in enumerate(checks):
            if attempt and i in certified and not (usable and full):
                continue  # a certified map matters here only for the witness
            rank = matrix().rank_at(point)
            if rank == required:
                certified[i] = rank
                continue
            full = False
            if i in certified:
                continue
            generic = matrix().generic_rank()
            if generic is None:
                best[i] = max(best[i], rank)
            else:
                certified[i] = generic
        if usable and full:
            witness = point
            break
        if any(rank < checks[i][1] for i, rank in certified.items()):
            break  # a certified deficiency
    evidence = [_evidence(method, head, required, certified.get(i, best[i]), i not in certified)
                for i, (head, required, _) in enumerate(checks)]
    if all(e["maximal"] for e in evidence):
        if witness is None:
            raise InternalFault("failed to find a witness despite generic maximal ranks")
        verdict = "holds"
    elif any(not (e["maximal"] or e["probabilistic"]) for e in evidence):
        verdict = "fails"
    else:
        verdict = "inconclusive"
    D = max(obj.top_degree, 0)
    return LefschetzReport(
        property=property_name,
        verdict=verdict,
        method=method,
        witness=witness,
        evidence=evidence,
        gorenstein=obj.is_gorenstein(),
        socle_degree=D,
        k=D // 2,
        probabilistic=any(e["probabilistic"] for e in evidence),
        notes=notes,
    )


def _witness_draws(variables: Sequence[str], seed: int):
    """The witness points of one report: those of a fresh random.Random(seed),
    each assigning the variables in order.  The reports of a record share its
    seed, so their first points are prefixes of one draw, kept for the last
    seed and WITNESS_RANGE and drawn anew only for more variables than it
    holds.  A second point reseeds the generator and replays the first."""
    global _first_draw
    key = (seed, WITNESS_RANGE)
    if _first_draw[0] != key or len(_first_draw[1]) < len(variables):
        _rng.seed(seed)
        _first_draw = (key, [_rng.randint(1, WITNESS_RANGE) for _ in variables])
    yield dict(zip(variables, _first_draw[1]))
    _rng.seed(seed)
    for _ in variables:
        _rng.randint(1, WITNESS_RANGE)
    while True:
        yield {v: _rng.randint(1, WITNESS_RANGE) for v in variables}


def _evidence(method: str, head: dict, required: int, rank: int, probabilistic: bool) -> dict:
    """The evidence entry of one check: its head, then its ranks and flags."""
    entry = dict(head, required_rank=required, generic_rank=rank, maximal=rank == required)
    if method == "hessian":
        entry["singular"] = rank != required
    entry["probabilistic"] = probabilistic
    return entry


NO_MAPS = "no multiplication maps in degree range"


def _rank_checks(obj: AlgebraLike, maps: list[tuple[int, int]]) -> list[tuple[dict, int, Callable[[], Matrix]]]:
    """One check per (degree, power) multiplication map, built when it is ranked.

    The map from degree d has h[d] columns and h[d+p] rows, read off the
    Hilbert vector; the pairing matrix of a dual view has h[D-d-p] rows, the
    same by Gorenstein symmetry.
    """
    h = _hilbert(obj)
    return [({"from_degree": d, "power": power, "source_dim": h[d], "target_dim": h[d + power]},
             min(h[d], h[d + power]), partial(obj.map_matrix, d, power))
            for d, power in maps]


def wlp_by_ranks(obj: AlgebraLike, seed: Optional[int] = None) -> LefschetzReport:
    """Weak Lefschetz via generic ranks of every one-step multiplication map.

    On a Gorenstein algebra the middle map, from degree (D-1)//2, decides:
    at a point where it has full rank every map has full rank.  Surjectivity
    goes up, since A_{j+1} = A_1 A_j: l A_j = A_{j+1} gives l A_{j+1} =
    A_{j+2}.  And the map A_j -> A_{j+1} is the transpose of A_{D-j-1} ->
    A_{D-j} under the perfect pairing into A_D, so injectivity goes down.
    So the middle map is decided alone first.  Where it holds, every map is
    recorded, off the Hilbert vector, as certified maximal at its witness,
    and no other map is built or ranked.  Where it does not, every map is
    decided with the same seed; the middle map and its generic rank are
    kept, so that costs one more rank at a point.  Either way the report is
    that of deciding every map.
    """
    D = obj.top_degree
    notes = NO_MAPS if D <= 0 else ""
    if D >= 1 and obj.is_gorenstein():
        middle = (D - 1) // 2
        notes = f"gorenstein middle-map shortcut: A_{middle} -> A_{middle + 1} decisive; all maps recorded"
        report = _decide("WLP", "ranks", obj, _rank_checks(obj, [(middle, 1)]), seed, notes)
        if report.holds:
            h = _hilbert(obj)  # the evidence of every check of _rank_checks at full rank
            report.evidence = [{"from_degree": d, "power": 1, "source_dim": h[d], "target_dim": h[d + 1],
                                "required_rank": r, "generic_rank": r, "maximal": True, "probabilistic": False}
                               for d in range(D) for r in (min(h[d], h[d + 1]),)]
            return report
    return _decide("WLP", "ranks", obj, _rank_checks(obj, [(d, 1) for d in range(D)]), seed, notes)


def slp_by_ranks(obj: AlgebraLike, seed: Optional[int] = None) -> LefschetzReport:
    """Strong Lefschetz via generic ranks of power maps.

    Gorenstein algebras use the narrow-sense equivalence: the power D-2i map
    from degree i must be bijective for each i.  Otherwise every (i, d) pair
    is checked for maximal rank.
    """
    D = obj.top_degree
    if D <= 0:
        maps, notes = [], NO_MAPS
    elif obj.is_gorenstein():
        maps = [(i, D - 2 * i) for i in range((D - 1) // 2 + 1)]
        notes = "narrow-sense check: power D-2i maps bijective"
    else:
        maps = [(i, p) for i in range(D) for p in range(1, D - i + 1)]
        notes = "full sweep of power maps (algebra not gorenstein)"
    return _decide("SLP", "ranks", obj, _rank_checks(obj, maps), seed, notes)


def wlp_by_hessian(view: DualAlgebraView, seed: Optional[int] = None) -> LefschetzReport:
    """Weak Lefschetz from the decisive Hessian of the view's dual polynomial F.

    Odd socle degree: the middle Hessian must be nonsingular.  Even socle
    degree: the mixed Hessian pairing degrees k-1 and k must have maximal
    rank.  The witness point a additionally has F(a) nonzero.
    """
    D = view.top_degree
    k = D // 2
    checks = []
    notes = "trivial algebra"
    if D > 0:
        notes = "decisive Hessian per socle-degree parity"
        i = k if D % 2 else k - 1
        kind = f"hessian degree {k}" if D % 2 else f"mixed hessian degrees ({k - 1}, {k})"
        rows, cols = view.hilbert[i], view.hilbert[k]
        checks.append(({"check": kind, "rows": rows, "cols": cols}, min(rows, cols),
                       partial(view.pairing, i, k)))
    return _decide("WLP", "hessian", view, checks, seed, notes, point_filter=view.F.evaluate)


def slp_by_hessian(view: DualAlgebraView, seed: Optional[int] = None) -> LefschetzReport:
    """Strong Lefschetz: every Hessian up to the middle degree is nonsingular,
    at a witness point a with F(a) nonzero."""
    h = view.hilbert
    checks = [({"check": f"hessian degree {d}", "size": h[d]}, h[d], partial(view.pairing, d, d))
              for d in range(1, view.top_degree // 2 + 1)]
    return _decide("SLP", "hessian", view, checks, seed, "hessians of degrees 1..k",
                   point_filter=view.F.evaluate)


def ci_degree_criterion(degrees: Sequence[int]) -> bool:
    """Degree test for complete intersections: top degree dominates the rest.

    With degrees sorted ascending, true when d_n >= d_1 + ... + d_{n-1} - n;
    true implies the Weak Lefschetz property (sufficient, never necessary).
    """
    degs = sorted(int(d) for d in degrees)
    if any(d < 2 for d in degs):
        raise DegreeTooSmall("all complete-intersection degrees must be >= 2")
    n = len(degs)
    return degs[-1] >= sum(degs[:-1]) - n


def gamma_criterion(frame: FrameData, D: int) -> bool:
    """Complete intersection case: some gamma exponent at least (D-2)/2."""
    if not frame.is_ci():
        raise NotCI("gamma criterion applies to complete intersections only")
    return any(2 * g >= D - 2 for g in frame.gamma)


@dataclass
class ChainStep:
    variable: str
    power: int
    socle_before: int
    parity: str
    hilbert_before: tuple[int, ...]
    hilbert_after: tuple[int, ...]
    codim_before: int
    codim_after: int
    codim_equal: bool
    parity_hypothesis: bool
    middle_dims: Optional[tuple[int, int]]
    conclusion: str
    direct_report: Optional[LefschetzReport] = None

    def to_dict(self) -> dict:
        return {
            "variable": self.variable,
            "power": self.power,
            "socle_before": self.socle_before,
            "parity": self.parity,
            "hilbert_before": list(self.hilbert_before),
            "hilbert_after": list(self.hilbert_after),
            "codim_before": self.codim_before,
            "codim_after": self.codim_after,
            "codim_equal": self.codim_equal,
            "parity_hypothesis": self.parity_hypothesis,
            "middle_dims": None if self.middle_dims is None else list(self.middle_dims),
            "conclusion": self.conclusion,
            "direct_report": None if self.direct_report is None else self.direct_report.to_dict(),
        }


@dataclass
class QuotientChainReport:
    kind: str
    base_report: Optional[LefschetzReport]
    steps: list
    final_hilbert: tuple[int, ...]
    wlp_established: bool
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "base_report": None if self.base_report is None else self.base_report.to_dict(),
            "steps": [step.to_dict() for step in self.steps],
            "final_hilbert": list(self.final_hilbert),
            "wlp_established": self.wlp_established,
            "extras": _copy(self.extras),
        }


def _copy(value):
    """A copy of a value built of dicts, lists and scalars, tuples as lists."""
    if isinstance(value, dict):
        return {k: _copy(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_copy(v) for v in value]
    return value


TRANSFERRED = "WLP transferred"
INCONCLUSIVE_STEP = "inconclusive - fall back to direct check"


def _parity_hypothesis(h: Sequence[int], D: int) -> tuple[Optional[tuple[int, int]], bool]:
    """(middle dimensions, parity hypothesis) of a transfer step from an
    algebra with Hilbert vector h and socle degree D: an even D >= 2 needs
    its two middle dimensions h[D/2 - 1] and h[D/2] to match; any other D
    passes, with no middle dimensions."""
    k = D // 2
    if D % 2 == 1 or k < 1:
        return None, True
    return (h[k - 1], h[k]), h[k - 1] == h[k]


def transfer_wlp(
    G: AlgebraLike,
    steps: Sequence[tuple[str, int]],
    base_report: Optional[LefschetzReport] = None,
    seed: Optional[int] = None,
) -> QuotientChainReport:
    """Push the Weak Lefschetz property down a chain of colon quotients.

    Each step removes the annihilator of one degree-1 variable (powers are
    expanded into single steps).  A step concludes "WLP transferred" only
    when the current algebra has established WLP, codimension is preserved,
    and the socle degree is odd or the two middle components match.  Any
    other step falls back to a direct rank check of the quotient.  A step
    variable that is not a variable of G raises InvalidStep.
    """
    expanded: list[str] = []
    for variable, power in steps:
        if variable not in G.variables:
            raise InvalidStep(f"step {variable!r}: not a variable of the algebra ({', '.join(G.variables)})")
        expanded.extend([variable] * int(power))
    if base_report is None:
        base_report = wlp_by_ranks(G, seed=seed)
    current: Optional[AlgebraLike] = G
    have_wlp = base_report.holds
    records: list[ChainStep] = []
    for variable in expanded:
        if current is None:
            records.append(ChainStep(variable, 1, -1, "zero", (), (), 0, 0, True, True, None,
                                     "quotient chain already reached the zero ring"))
            continue
        if not current.is_gorenstein():
            raise NotGorensteinAtStep("quotient-chain step requires a gorenstein algebra")
        h = _hilbert(current)
        D = current.top_degree
        codim_before = current.codim
        quotient = current.colon_step(variable)
        qh = _hilbert(quotient) if quotient is not None else ()
        codim_after = quotient.codim if quotient is not None else 0
        codim_equal = codim_before == codim_after
        middle, parity_ok = _parity_hypothesis(h, D)
        direct = None
        if have_wlp and codim_equal and parity_ok:
            conclusion = TRANSFERRED
        else:
            conclusion = INCONCLUSIVE_STEP
            if quotient is not None:
                direct = wlp_by_ranks(quotient, seed=seed)
                have_wlp = direct.holds
            else:
                have_wlp = True  # zero ring, vacuous
        records.append(
            ChainStep(
                variable=variable,
                power=1,
                socle_before=D,
                parity="odd" if D % 2 else "even",
                hilbert_before=h,
                hilbert_after=qh,
                codim_before=codim_before,
                codim_after=codim_after,
                codim_equal=codim_equal,
                parity_hypothesis=parity_ok,
                middle_dims=middle,
                conclusion=conclusion,
                direct_report=direct,
            )
        )
        current = quotient
    final_h = _hilbert(current) if current is not None else ()
    return QuotientChainReport(
        kind="transfer",
        base_report=base_report,
        steps=records,
        final_hilbert=final_h,
        wlp_established=have_wlp,
    )


def ci_hilbert(degrees: Sequence[int]) -> tuple[int, ...]:
    """Hilbert vector of an Artinian complete intersection with given degrees."""
    coeffs = [1]
    for d in degrees:
        block = [1] * d
        out = [0] * (len(coeffs) + d - 1)
        for i, a in enumerate(coeffs):
            for j, b in enumerate(block):
                out[i + j] += a * b
        coeffs = out
    return tuple(coeffs)


def ci_quotient_plan(gamma: Sequence[int], D: int) -> dict:
    """Arithmetic plan realizing a complete intersection as a colon quotient.

    When some gamma exponent reaches (D-2)/2 the algebra itself passes the
    degree criterion and the chain is empty.  Otherwise a taller box algebra
    with first-variable degree N = D - gamma_1 is the start of a chain of
    N - gamma_1 - 1 single colon steps; its socle degree E = D - gamma_1 +
    N - 1 always satisfies E/2 < N, so the tall box passes the degree
    criterion.  The per-step hypotheses are checked on the complete
    intersection Hilbert vectors.
    """
    gamma = tuple(int(g) for g in gamma)
    if sum(gamma) != D:
        raise NotCI("a complete intersection requires D equal to the gamma sum")
    if any(2 * g >= D - 2 for g in gamma):
        return {"C": 0, "chain_length": 0, "criterion": "gamma", "steps": []}
    g2 = gamma[0]
    rest = tuple(g + 1 for g in gamma[1:])
    N = D - g2
    E = D - g2 + N - 1
    chain_length = N - g2 - 1
    b_degrees = (N,) + rest
    if not Fraction(E, 2) < N:
        raise InternalFault(f"the tall box fails the degree criterion: E/2 = {Fraction(E, 2)} >= N = {N}")
    steps = []
    for j in range(chain_length):
        degs = (N - j,) + rest
        h = ci_hilbert(degs)
        Dj = sum(degs) - len(degs)
        middle, parity_ok = _parity_hypothesis(h, Dj)
        steps.append(
            {
                "step": j,
                "degrees": list(degs),
                "socle_degree": Dj,
                "parity": "odd" if Dj % 2 else "even",
                "middle_dims": list(middle) if middle else None,
                "codim_equal": True,
                "parity_hypothesis": parity_ok,
                "conclusion": TRANSFERRED if parity_ok else INCONCLUSIVE_STEP,
            }
        )
    return {
        "C": chain_length,
        "chain_length": chain_length,
        "criterion": "ci_degree",
        "N": N,
        "E": E,
        "b_degrees": list(b_degrees),
        "b_degree_criterion": ci_degree_criterion(b_degrees),
        "colon_generator_degree": g2 + 1,
        "steps": steps,
    }


def quotient_condition_ci(
    S: NumericalSemigroup,
    seed: Optional[int] = None,
    base_report: Optional[LefschetzReport] = None,
) -> QuotientChainReport:
    """Express a complete intersection apery algebra as a colon quotient.

    Either the gamma criterion already gives the algebra the WLP (empty
    chain), or a taller monomial-degree box realizes it as a quotient by the
    principal monomial colon ideal of the first variable.  ``base_report``
    is the apery algebra's WLP rank report when the caller already has it;
    otherwise it is computed with ``seed``.
    """
    frame = S.frame()
    if not frame.is_ci():
        raise NotCI(f"{S!r} does not give a complete intersection")
    A = build_algebra(frame.table)
    D = A.top_degree
    if base_report is None:
        base_report = wlp_by_ranks(A, seed=seed)
    if not frame.gamma:  # the field itself
        extras = {"C": 0, "criterion": "trivial"}
    else:
        extras = ci_quotient_plan(frame.gamma, D)
        extras["gamma"] = list(frame.gamma)
        if extras["C"] == 0:
            extras["gamma_criterion"] = gamma_criterion(frame, D)
            extras["colon_generator"] = None
        else:
            extras["colon_generator"] = f"{A.variables[0]}^{frame.gamma[0] + 1}"
            expected = ci_hilbert(tuple(g + 1 for g in frame.gamma))
            extras["hilbert_matches_ci_product"] = expected == A.hilbert()
    return QuotientChainReport(
        kind="ci_quotient",
        base_report=base_report,
        steps=[],
        final_hilbert=A.hilbert(),
        wlp_established=base_report.holds,
        extras=extras,
    )


def quotient_condition_codim3(
    S: NumericalSemigroup,
    seed: Optional[int] = None,
    ideal: Optional[IdealDescription] = None,
) -> QuotientChainReport:
    """Realize a codimension-3 non-CI apery algebra as a box-algebra quotient.

    Builds the gamma box algebra, computes the drop C between its socle and
    the apery socle, verifies that the colon quotient by the C-th power of
    the middle variable, reached by C colon steps by it, is the apery
    algebra (its labels map onto the apery set degree by degree, one to
    one, and that map commutes with each variable), and transfers WLP down
    the same C-step chain, whose quotients G keeps.  ``ideal`` is S's codim3_defining_ideal when the
    caller already has it; otherwise it is built here, which checks that the
    construction applies.
    """
    if ideal is None:
        ideal = codim3_defining_ideal(S)
    frame = S.frame()
    A = build_algebra(frame.table)
    G = build_gamma_algebra(frame)
    C = ideal.data["C"]
    quotient = G
    for _ in range(C):
        if quotient is None:
            break
        quotient = quotient.colon_step("z")
    identified = quotient is not None and _same_graded_presentation(quotient, A, S)
    degrees = sorted(g + 1 for g in frame.gamma)
    criterion = ci_degree_criterion(degrees)
    chain = transfer_wlp(G, [("z", 1)] * C, seed=seed)
    chain.kind = "codim3_quotient"
    texts = ideal.generator_texts()
    chain.extras = {
        "C": C,
        **{k: ideal.data[k] for k in ("mu2", "mu4", "h2", "h3", "h4", "omega_d", "omega_e")},
        "gamma": list(frame.gamma),
        "g_degrees": degrees,
        "g_degree_criterion": criterion,
        "identification_verified": identified,
        "ideal_generators": texts,
        # the colon generators are monomials, whose relation text is str
        "colon_generators": texts[3:],
    }
    chain.wlp_established = chain.wlp_established and identified
    return chain


@dataclass
class ConjectureReport:
    quotients: list
    counterexamples: list
    all_wlp: bool

    def to_dict(self) -> dict:
        return {
            "quotients": [_quotient_dict(q) for q in self.quotients],
            "counterexamples": [_quotient_dict(q) for q in self.counterexamples],
            "all_wlp": self.all_wlp,
        }


def _quotient_dict(record: dict) -> dict:
    """A conjecture quotient record with its report as a dict."""
    report = record["report"]
    return dict(record, quotient_hilbert=list(record["quotient_hilbert"]),
                report=None if report is None else report.to_dict())


def conjecture_check(S: NumericalSemigroup, seed: Optional[int] = None) -> ConjectureReport:
    """Check WLP of every single-variable colon quotient of the apery algebra.

    Applies to complete intersections and to codimension 3; any quotient with
    a non-holds verdict is surfaced as a counterexample candidate with its
    full evidence.
    """
    frame = S.frame()
    codim = len(S.generators) - 1
    if not (frame.is_ci() or codim == 3):
        raise NotApplicable(
            "conjecture check covers complete intersections and codimension 3"
        )
    A = build_algebra(frame.table)
    results = []
    flagged = []
    for variable in A.variables:
        quotient = A.colon_step(variable)
        if quotient is None:
            record = {
                "variable": variable,
                "quotient_hilbert": [],
                "report": None,
                "verdict": "holds",
                "note": "zero quotient",
            }
            results.append(record)
            continue
        report = wlp_by_ranks(quotient, seed=seed)
        record = {
            "variable": variable,
            "quotient_hilbert": list(quotient.hilbert()),
            "quotient_gorenstein": quotient.is_gorenstein(),
            "verdict": report.verdict,
            "report": report,
        }
        results.append(record)
        if report.verdict != "holds":
            flagged.append(record)
    return ConjectureReport(
        quotients=results,
        counterexamples=flagged,
        all_wlp=not flagged,
    )
