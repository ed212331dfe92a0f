"""Output checks run outside the timed region.

A record passes when every check below finds nothing:

- analyze and sweep records pass ``cli.validate_record``;
- the verdict discipline holds: "holds" carries a witness, "fails" carries a
  non-probabilistic rank deficiency;
- the ranks and Hessian routes agree wherever both reach a verdict;
- Perazzo-type dual forms have a vanishing first Hessian and fail SLP on
  both routes;
- the witness-stripped digest matches the stored reference, where one
  exists for the workload and seed;
- every top-level "holds" witness is re-verified exactly through the public
  API (the witness audit).
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

# Keys whose values may change without the analysis changing: witnesses are
# random points, timings are wall clock, and seed is the derived per-record
# seed, which follows the benchmark's --seed.
STRIPPED_KEYS = ("witness", "timings", "seed")
DECIDED = ("holds", "fails")


def strip(value):
    if isinstance(value, dict):
        return {k: strip(v) for k, v in value.items() if k not in STRIPPED_KEYS}
    if isinstance(value, list):
        return [strip(v) for v in value]
    return value


def stripped_digest(record: dict) -> str:
    text = json.dumps(strip(record), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _reports(record: dict):
    """(property, route, report) for each top-level verdict in a record."""
    for prop in ("wlp", "slp"):
        for route, report in (record.get(prop) or {}).items():
            yield prop, route, report


def _discipline(record: dict) -> list[str]:
    problems = []
    for prop, route, rep in _reports(record):
        where = f"{prop}.{route}"
        verdict = rep.get("verdict")
        evidence = rep.get("evidence") or []
        if verdict == "holds" and evidence and not rep.get("witness"):
            problems.append(f"{where}: holds without a witness")
        if verdict == "fails" and not any(
            not e["maximal"] and not e["probabilistic"] for e in evidence
        ):
            problems.append(f"{where}: fails without a certified deficiency")
    for prop in ("wlp", "slp"):
        routes = record.get(prop) or {}
        if "ranks" in routes and "hessian" in routes:
            a, b = routes["ranks"]["verdict"], routes["hessian"]["verdict"]
            if a in DECIDED and b in DECIDED and a != b:
                problems.append(f"{prop}: ranks says {a}, hessian says {b}")
    return problems


def _rank(ap, matrix) -> int:
    rank, probabilistic = ap.rank_info(matrix)
    if probabilistic:
        raise ValueError("a specialized matrix took the probabilistic path")
    return rank


def _audit_table_ranks(ap, algebra, report, where) -> list[str]:
    """Witness of a ranks verdict on a semigroup algebra."""
    w = report["witness"]
    form = ap.LinearForm.rational([w[v] for v in algebra.variables])
    h = algebra.hilbert()
    problems = []
    for e in report["evidence"]:
        d, p = e["from_degree"], e["power"]
        required = min(h[d], h[d + p])
        got = _rank(ap, ap.multiplication_matrix(algebra, form, d, p))
        if got != required or e["required_rank"] != required:
            problems.append(f"{where}: map {d}+{p} has rank {got} at the witness, needs {required}")
    return problems


def _audit_view_ranks(ap, view, report, where) -> list[str]:
    """Witness of a ranks verdict on an algebra presented by a dual form."""
    w = report["witness"]
    point = dict(zip(view.symbols(), (w[v] for v in view.variables)))
    h = view.hilbert
    problems = []
    for e in report["evidence"]:
        d, p = e["from_degree"], e["power"]
        required = min(h[d], h[d + p])
        got = _rank(ap, view.pairing_matrix(d, p).specialize(point))
        if got != required or e["required_rank"] != required:
            problems.append(f"{where}: map {d}+{p} has rank {got} at the witness, needs {required}")
    return problems


def _audit_hessian(ap, F, view, prop, report, where) -> list[str]:
    """Witness of a Hessian verdict: F(a) != 0 and every Hessian keeps rank."""
    w = {v: Fraction(report["witness"][v]) for v in F.vars}
    problems = []
    if not F.evaluate(w):
        problems.append(f"{where}: F vanishes at the witness")
    D = view.socle_degree
    k = D // 2
    bases = view.bases
    if prop == "wlp" and D % 2 == 0:
        checks = [(ap.mixed_hessian(F, k - 1, k, bases[k - 1], bases[k], view=view),
                   min(len(bases[k - 1]), len(bases[k])))]
    elif prop == "wlp":
        checks = [(ap.hessian(F, k, bases[k]), len(bases[k]))]
    else:
        checks = [(ap.hessian(F, d, bases[d]), len(bases[d])) for d in range(1, k + 1)]
    for matrix, required in checks:
        got = _rank(ap, matrix.specialize(w))
        if got != required:
            problems.append(f"{where}: {matrix.nrows}x{matrix.ncols} Hessian has rank {got} at the witness, needs {required}")
    return problems


def audit_witnesses(ap, record: dict, kind: str) -> list[str]:
    """Re-verify every top-level "holds" witness of one record exactly."""
    todo = [
        (prop, route, rep) for prop, route, rep in _reports(record)
        if rep.get("verdict") == "holds" and rep.get("evidence")
    ]
    if not todo:
        return []
    problems = []
    algebra = view = F = None
    if kind == "dual":
        F = ap.parse_polynomial(record["dual_polynomial"])
    elif record.get("dual_generator"):
        F = ap.parse_polynomial(record["dual_generator"])
    if F is not None:
        view = ap.dual_algebra_view(F)
    if kind == "analyze":
        S = ap.create_semigroup(record["generators"])
        algebra = ap.build_algebra(S.apery_table())
        if list(algebra.hilbert()) != record["hilbert"]:
            problems.append("hilbert vector differs from the rebuilt algebra")
    for prop, route, rep in todo:
        where = f"{prop}.{route} witness"
        try:
            if route == "ranks" and kind == "analyze":
                problems += _audit_table_ranks(ap, algebra, rep, where)
            elif route == "ranks":
                problems += _audit_view_ranks(ap, view, rep, where)
            else:
                problems += _audit_hessian(ap, F, view, prop, rep, where)
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"{where}: cannot be checked ({type(exc).__name__}: {exc})")
    return problems


def check_record(ap, cli, record: dict, kind: str, extra: str | None) -> list[str]:
    """Every check except the reference digest; returns the problems found.

    ``extra`` is "perazzo" for Perazzo-type dual forms, whose SLP must fail.
    """
    problems = []
    if kind == "analyze":
        try:
            cli.validate_record(record)
        except ValueError as exc:
            problems.append(f"validate_record: {exc}")
    problems += _discipline(record)
    if extra == "perazzo":
        if record.get("hess1_zero") is not True:
            problems.append("Perazzo form with a nonzero first Hessian")
        for route, rep in (record.get("slp") or {}).items():
            if rep["verdict"] != "fails":
                problems.append(f"Perazzo form: slp.{route} is {rep['verdict']}, expected fails")
    problems += audit_witnesses(ap, record, kind)
    return problems
