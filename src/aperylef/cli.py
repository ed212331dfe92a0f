"""Command-line front end: analysis records, batch sweeps, JSONL persistence.

Records are self-contained JSON documents (schema_version 1) that can be
regenerated byte-identically from the generator tuple and the root seed
(APERY_SEED).  Timings are opt-in so default output stays deterministic.
Exit codes: 0 success, 2 input error, 3 inapplicable analysis, 4 internal
limit exceeded, 5 internal fault (a broken invariant of the library, or a
ValueError that no input check turned into an input error), 141 (128 +
SIGPIPE) when the reader of standard output closes it early, as ``head``
does; that exit prints nothing.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from typing import Optional, Sequence

from .algebra import (
    build_algebra,
    ci_tilde_ideal,
    codim3_defining_ideal,
)
from .errors import (
    AperyError,
    ConflictingInput,
    EmptyInput,
    GcdNotOne,
    InternalFault,
    InvalidDualGenerator,
    InvalidGenerator,
    InvalidOutputPath,
    InvalidSeed,
    InvalidStep,
    NotApplicable,
    NotCI,
    NotGorenstein,
    PolyParseError,
    SizeLimit,
)
from .inverse_system import differential_form, dual_algebra_view, dual_socle_generator
from .lefschetz import (
    conjecture_check,
    derive_seed,
    quotient_condition_ci,
    quotient_condition_codim3,
    root_seed,
    slp_by_hessian,
    slp_by_ranks,
    transfer_wlp,
    wlp_by_hessian,
    wlp_by_ranks,
)
from .polynomial import SparsePoly, parse_polynomial
from .semigroup import AperyTable, NumericalSemigroup, create_semigroup, minimal_tuples

SCHEMA_VERSION = 1

# A sweep's records are trees of fresh dicts and lists (the to_dict rule of
# the report classes), so the encoder need not look for cycles.
_RECORD_ENCODER = json.JSONEncoder(check_circular=False)


def _parse_gens(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise EmptyInput(f"cannot parse generator list {text!r}") from exc


def _seed(seed_root: Optional[int], subject: NumericalSemigroup | SparsePoly) -> int:
    """Per-record seed from the root seed (APERY_SEED unless given).

    The key is the canonical input: the minimal generator tuple of a
    semigroup or the printed form of a polynomial, so every spelling of the
    same input gives the same record.
    """
    if isinstance(subject, NumericalSemigroup):
        key = ",".join(map(str, subject.generators))
    else:
        key = str(subject)
    return derive_seed(root_seed() if seed_root is None else seed_root, key)


def _parse_steps(text: Optional[str]) -> list[tuple[str, int]]:
    """--steps items "var" or "var:power"; each power an integer >= 1."""
    steps = []
    for item in (text or "").split(","):
        item = item.strip()
        if not item:
            continue
        var, sep, power = item.partition(":")
        try:
            n = int(power) if sep else 1
        except ValueError:
            n = 0
        if n < 1:
            raise InvalidStep(f"step {item!r}: the power must be an integer >= 1")
        steps.append((var.strip(), n))
    return steps


def _max_representations(table: AperyTable) -> list[list[list[int]]]:
    """The maximal representations of each Apery element, as JSON lists."""
    return [[list(r) for r in reps] for reps in table.max_reps]


def classify(frame) -> str:
    if frame.is_monomial_ci():
        return "monomial-CI"
    if frame.is_ci():
        return "CI"
    table = frame.table
    codim = len(table.semigroup.generators) - 1
    if codim == 3 and table.m_pure_verdict():
        return "codim3-structured"
    return "other"


def analyze_record(
    gens: Sequence[int],
    method: str = "both",
    seed_root: Optional[int] = None,
    with_timings: bool = False,
) -> dict:
    """Full pipeline record for the semigroup generated by gens."""
    t0 = time.perf_counter()
    return _record(create_semigroup(list(gens)), method, seed_root, t0 if with_timings else None)


def _record(S: NumericalSemigroup, method: str, seed_root: Optional[int], t0: Optional[float] = None,
            shapes: Optional[dict] = None) -> dict:
    """Full pipeline record for S, with its wall time since t0 when t0 is given.

    It reads whatever S has already built (a sweep's filter builds the Apery
    table), so a record of a semigroup the caller holds costs no second one.
    ``shapes`` is a sweep's memo of power-map entries (build_algebra).
    """
    seed = _seed(seed_root, S)
    table = S.apery_table()
    max_reps = _max_representations(table)  # before any rank, and before the frame reads them
    frame = S.frame()
    A = build_algebra(table, shapes)
    ginfo = A.gorenstein_info()
    m_pure = table.m_pure_verdict()
    classification = classify(frame)

    dual_text = None
    view = None
    F = None
    if m_pure:
        F = dual_socle_generator(table)  # in divided powers, as the record prints it
        if method != "ranks" and F.degree() >= 1:
            view = dual_algebra_view(differential_form(F))  # only the Hessian route reads it
            if view.hilbert != A.hilbert():
                raise InternalFault(f"the dual view has Hilbert vector {view.hilbert}, not the algebra's {A.hilbert()}")
        dual_text = str(F)

    if method == "hessian" and not m_pure:
        raise NotGorenstein(
            "hessian-only analysis requires an order-symmetric apery set"
        )

    wlp: dict = {}
    slp: dict = {}
    wlp_ranks = None
    if method in ("ranks", "both"):
        wlp_ranks = wlp_by_ranks(A, seed=seed)
        wlp["ranks"] = wlp_ranks.to_dict()
        slp["ranks"] = slp_by_ranks(A, seed=seed).to_dict()
    if method in ("hessian", "both"):
        if view is not None:
            wlp["hessian"] = wlp_by_hessian(view, seed=seed).to_dict()
            slp["hessian"] = slp_by_hessian(view, seed=seed).to_dict()
        elif m_pure:
            wlp["hessian"] = {"verdict": "holds", "notes": "trivial algebra"}
            slp["hessian"] = {"verdict": "holds", "notes": "trivial algebra"}
        else:
            note = "skipped: algebra is not gorenstein"
            wlp["hessian"] = {"verdict": "skipped", "notes": note}
            slp["hessian"] = {"verdict": "skipped", "notes": note}

    ideal_info = None
    full = None  # the codimension-3 defining ideal, built once for the record
    if frame.gamma:
        tilde = ci_tilde_ideal(frame)
        ideal_info = {
            "tilde_generators": tilde.generator_texts(),
            "degrees": tilde.degrees,
            "rho": list(frame.rho),
            "is_ci": tilde.data["is_ci"],
            "is_monomial_ci": tilde.data["is_monomial_ci"],
            "box_gamma_points": tilde.data["box_gamma_points"],
            "box_gamma_elements": tilde.data["box_gamma_elements"],
        }
        if classification == "codim3-structured":
            full = codim3_defining_ideal(S, tilde)
            ideal_info["full_generators"] = full.generator_texts()
            ideal_info["structure"] = {
                k: full.data[k]
                for k in ("mu2", "mu4", "C", "h2", "h3", "h4", "omega_d", "omega_e")
            }

    chain = None
    conjecture = None
    if frame.is_ci():
        chain = quotient_condition_ci(S, seed=seed, base_report=wlp_ranks).to_dict()
    elif classification == "codim3-structured":
        chain = quotient_condition_codim3(S, seed=seed, ideal=full).to_dict()
    if frame.is_ci() or len(S.generators) - 1 == 3:
        conjecture = conjecture_check(S, seed=seed).to_dict()

    return {
        "schema_version": SCHEMA_VERSION,
        "generators": list(S.generators),
        "seed": seed,
        "multiplicity": S.multiplicity,
        "frobenius": S.frobenius,
        "socle_degree": table.socle_degree,
        "apery": {
            "elements": list(table.elements),
            "orders": list(table.orders),
            "max_representations": max_reps,
        },
        "m_pure_symmetric": bool(m_pure),
        "m_pure_witness": None
        if m_pure.witness is None
        else {
            "index": m_pure.witness.index,
            "condition": m_pure.witness.condition,
            "left": m_pure.witness.left,
            "right": m_pure.witness.right,
            "expected": m_pure.witness.expected,
        },
        "hilbert": list(A.hilbert()),
        "gorenstein": ginfo,
        "frame": {
            "beta": list(frame.beta),
            "gamma": list(frame.gamma),
            "rho": list(frame.rho),
            "witnesses": {str(i): list(r) for i, r in frame.gamma_witness.items()},
            "box_gamma_minus_apery": list(frame.gamma_minus_apery()),
            "box_b_minus_apery": list(frame.b_minus_apery()),
        },
        "classification": classification,
        "dual_generator": dual_text,
        "ideal": ideal_info,
        "wlp": wlp or None,
        "slp": slp or None,
        "quotient_chain": chain,
        "conjecture": conjecture,
        "timings": None if t0 is None else {"analyze_seconds": round(time.perf_counter() - t0, 6)},
    }


def from_dual_record(poly_text: str, seed_root: Optional[int] = None) -> dict:
    """Hessian-based analysis of an algebra presented by a dual polynomial."""
    F = parse_polynomial(poly_text)
    view = dual_algebra_view(F, require_positive_degree=True)
    seed = _seed(seed_root, F)
    wlp_h = wlp_by_hessian(view, seed=seed)
    slp_h = slp_by_hessian(view, seed=seed)
    wlp_r = wlp_by_ranks(view, seed=seed)
    slp_r = slp_by_ranks(view, seed=seed)
    hess1_zero = None
    if view.socle_degree >= 2:
        # the SLP Hessian evidence starts with degree 1; not maximal means
        # the determinant vanishes identically
        hess1_zero = not slp_h.evidence[0]["maximal"]
    return {
        "schema_version": SCHEMA_VERSION,
        "dual_polynomial": str(F),
        "variables": list(F.vars),
        "seed": seed,
        "socle_degree": view.socle_degree,
        "hilbert": list(view.hilbert),
        "gorenstein": True,
        "hess1_zero": hess1_zero,
        "wlp": {"hessian": wlp_h.to_dict(), "ranks": wlp_r.to_dict()},
        "slp": {"hessian": slp_h.to_dict(), "ranks": slp_r.to_dict()},
    }


_ANALYZE_FIELDS = {
    "schema_version": int,
    "generators": list,
    "seed": int,
    "multiplicity": int,
    "frobenius": int,
    "socle_degree": int,
    "apery": dict,
    "m_pure_symmetric": bool,
    "hilbert": list,
    "gorenstein": dict,
    "frame": dict,
    "classification": str,
    "wlp": (dict, type(None)),
    "slp": (dict, type(None)),
}


def validate_record(record: dict) -> None:
    """Structural schema check for analyze/sweep records; raises ValueError."""
    if record.get("schema_version") != SCHEMA_VERSION:
        raise ValueError("unknown schema_version")
    for key, kind in _ANALYZE_FIELDS.items():
        if key not in record:
            raise ValueError(f"missing field {key!r}")
        if not isinstance(record[key], kind):
            raise ValueError(f"field {key!r} has the wrong type")
    if record["classification"] not in ("monomial-CI", "CI", "codim3-structured", "other"):
        raise ValueError("unknown classification")
    if any(not isinstance(g, int) for g in record["generators"]):
        raise ValueError("generators must be integers")
    if any(not isinstance(h, int) for h in record["hilbert"]):
        raise ValueError("hilbert entries must be integers")


def _emit(record: dict, fmt: str, out) -> None:
    if fmt == "json":
        out.write(json.dumps(record) + "\n")
    else:
        out.write(_human(record) + "\n")


def _human(record: dict, indent: int = 0) -> str:
    lines = []
    pad = "  " * indent
    for key, value in record.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_human(value, indent + 1))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{pad}{key}:")
            for item in value:
                lines.append(_human(item, indent + 1))
                lines.append(f"{pad}  -")
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(line for line in lines if line)


def _matrix_text(matrix) -> str:
    if matrix.nrows > 10 or matrix.ncols > 10:
        return f"[{matrix.nrows}x{matrix.ncols} matrix not rendered; larger than 10x10]"
    return matrix.to_text()


def _open_out(path: str, mode: str):
    """Open the --out path, as UTF-8 text unless the mode is binary; one that
    cannot be opened is an input error."""
    try:
        return open(path, mode, encoding=None if "b" in mode else "utf-8")
    except OSError as exc:
        raise InvalidOutputPath(f"cannot open {path}: {exc.strerror}") from None


def _read_resume_keys(path: str) -> set[str]:
    """The generator keys of the records in a sweep's output file.

    A line is a record when it is a JSON object whose ``generators`` is a
    list of ints; any other line that is not blank is warned about and
    ignored.  Each line is decoded on its own, so a line that is not UTF-8 is
    one corrupt line, not a file that cannot be read.
    """
    keys: set[str] = set()
    if not os.path.exists(path):
        return keys
    with _open_out(path, "rb") as fh:
        lines = fh.read().splitlines()
    for i, raw in enumerate(lines):
        try:
            line = raw.decode("utf-8").strip()
            if not line:
                continue
            gens = json.loads(line)["generators"]
        except (ValueError, KeyError, TypeError, RecursionError):
            # ValueError covers undecodable bytes, bad JSON and overlong ints
            gens = None
        if isinstance(gens, list) and all(type(g) is int for g in gens):
            keys.add(",".join(map(str, gens)))
        else:
            print(
                f"warning: ignoring corrupt line {i + 1} in {path}",
                file=sys.stderr,
            )
    return keys


def _ends_mid_line(path: str) -> bool:
    """True when the file at path is not empty and its last byte is not a
    newline, as a sweep killed while writing a record leaves it."""
    try:
        with open(path, "rb") as fh:
            if not fh.seek(0, os.SEEK_END):
                return False
            fh.seek(-1, os.SEEK_END)
            return fh.read(1) != b"\n"
    except OSError:  # nothing to read back, as from a pipe
        return False


def sweep(args) -> int:
    if args.method == "hessian" and not args.require_m_pure:
        # the Hessian route needs the dual generator of an m-pure semigroup,
        # and a sweep that met a candidate without one would stop there
        raise ConflictingInput("--method hessian needs --require-m-pure in a sweep")
    lo, hi = args.mult
    clo, chi = args.count
    written = skipped = resumed = 0
    keys = _read_resume_keys(args.out) if (args.resume and args.out) else set()
    shapes: dict = {}  # power-map entries by table shape, for this call's records only
    out = _open_out(args.out, "a") if args.out else sys.stdout
    flagged = []
    try:
        if args.out and _ends_mid_line(args.out):
            out.write("\n")  # the first record appended starts its own line
        for m in range(lo, hi + 1):
            for count in range(clo, chi + 1):
                if count < 2:
                    continue
                for S in minimal_tuples(m, count, args.max_gen):
                    gens = S.generators
                    key = ",".join(map(str, gens))
                    if key in keys:
                        resumed += 1
                        continue
                    # an m-pure semigroup is symmetric, and symmetry needs no orders
                    if args.require_m_pure and not (
                        S.is_symmetric() and S.apery_table().m_pure_verdict()
                    ):
                        skipped += 1
                        continue
                    if args.require_ci_or_codim3:
                        frame = S.frame()
                        if not (frame.is_ci() or len(gens) - 1 == 3):
                            skipped += 1
                            continue
                    record = _record(S, args.method, args.seed, shapes=shapes)
                    out.write(_RECORD_ENCODER.encode(record) + "\n")
                    out.flush()
                    keys.add(key)
                    written += 1
                    conj = record.get("conjecture")
                    if conj and not conj.get("all_wlp", True):
                        flagged.append(key)
    finally:
        if args.out:
            out.close()
    print(f"sweep: wrote {written}, filtered {skipped}, resumed past {resumed}", file=sys.stderr)
    if flagged:
        print("sweep: conjecture counterexample candidates: " + "; ".join(flagged), file=sys.stderr)
    return 0


def _range_pair(text: str) -> tuple[int, int]:
    parts = text.split(":")
    try:
        values = [int(p) for p in parts]
    except ValueError:
        values = []
    if len(values) == 1:
        return (values[0], values[0])
    if len(values) == 2:
        if values[0] > values[1]:
            raise argparse.ArgumentTypeError(f"{text!r}: LO is above HI")
        return (values[0], values[1])
    raise argparse.ArgumentTypeError(f"{text!r}: ranges look like LO:HI or N")


def _count_range(text: str) -> tuple[int, int]:
    """A --count range; the sweep skips counts below 2, so HI must reach 2."""
    lo, hi = _range_pair(text)
    if hi < 2:
        raise argparse.ArgumentTypeError(f"{text!r}: HI is below 2, the fewest generators a sweep takes")
    return lo, hi


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one-line input errors
    (exit 2, as argparse's own); --help still prints the usage."""

    def error(self, message):
        self.exit(2, f"input error: {message}\n")

    def _parse_optional(self, arg_string):
        # a word with one leading "-" that is no option here is a value, as
        # the -1,3 in --gens -1,3 is, so it reaches the program's own input
        # check; argparse would take a word with no space in it for an
        # unknown option and lose the value
        single_dash = arg_string[:1] == "-" and arg_string[1:2] not in ("", "-")
        if single_dash and arg_string not in self._option_string_actions:
            return None
        return super()._parse_optional(arg_string)

    def parse_known_args(self, args=None, namespace=None):
        # the word after --poly is the polynomial, whatever it spells, even
        # an option string of the parser: "-h" there is the form -h
        args = list(sys.argv[1:] if args is None else args)
        if "--poly" in self._option_string_actions:
            i = 0
            while i < len(args) - 1:
                if args[i] == "--poly":
                    args[i:i + 2] = [f"--poly={args[i + 1]}"]
                i += 1
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="aperylef",
        description="Lefschetz analysis of graded algebras from numerical semigroups",
    )
    parser.add_argument("--seed", type=int, default=None, help="override APERY_SEED")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, gens=True):
        if gens:
            p.add_argument("--gens", required=True, help="comma-separated generators")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--out", default=None, help="write output to this path")

    p = sub.add_parser("analyze", help="full pipeline for one semigroup")
    add_common(p)
    p.add_argument("--method", choices=("ranks", "hessian", "both"), default="both")
    p.add_argument("--timings", action="store_true", help="include wall-clock timings")

    p = sub.add_parser("from-dual", help="analyze the algebra presented by a polynomial")
    p.add_argument("--poly", required=True)
    add_common(p, gens=False)

    p = sub.add_parser("apery", help="apery set, orders, maximal representations")
    add_common(p)

    p = sub.add_parser("dual", help="dual socle generator polynomial")
    add_common(p)

    p = sub.add_parser("hessian", help="hessian matrix of the dual generator")
    add_common(p)
    p.add_argument("--d", type=int, required=True, help="hessian degree")

    p = sub.add_parser("classify", help="frame data and classification")
    add_common(p)

    p = sub.add_parser("quotient-chain", help="quotient-condition construction")
    p.add_argument("--gens", default=None)
    p.add_argument("--poly", default=None)
    p.add_argument("--steps", default=None, help="comma list of var or var:power")
    add_common(p, gens=False)

    p = sub.add_parser("conjecture", help="WLP of all single-variable colon quotients")
    add_common(p)

    p = sub.add_parser("sweep", help="batch analysis over generator tuples")
    p.add_argument("--mult", type=_range_pair, required=True, help="multiplicity LO:HI")
    p.add_argument("--count", type=_count_range, default=(3, 4), help="generator count LO:HI")
    p.add_argument("--max-gen", type=int, required=True, help="largest allowed generator")
    p.add_argument("--method", choices=("ranks", "hessian", "both"), default="ranks")
    p.add_argument("--require-m-pure", action="store_true")
    p.add_argument("--require-ci-or-codim3", action="store_true")
    p.add_argument("--out", default=None, help="JSONL output path (append)")
    p.add_argument("--resume", action="store_true")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of main, built once per process; parse_args keeps no state
    in it."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    out = sys.stdout
    close_out = False
    try:
        if getattr(args, "out", None) and args.command != "sweep":
            out = _open_out(args.out, "w")
            close_out = True
        if args.command == "analyze":
            record = analyze_record(_parse_gens(args.gens), args.method, args.seed, args.timings)
            _emit(record, args.format, out)
        elif args.command == "from-dual":
            record = from_dual_record(args.poly, seed_root=args.seed)
            _emit(record, args.format, out)
        elif args.command == "apery":
            S = create_semigroup(_parse_gens(args.gens))
            table = S.apery_table()
            record = {
                "schema_version": SCHEMA_VERSION,
                "generators": list(S.generators),
                "frobenius": S.frobenius,
                "socle_degree": table.socle_degree,
                "elements": list(table.elements),
                "orders": list(table.orders),
                "max_representations": _max_representations(table),
                "m_pure_symmetric": bool(table.m_pure_verdict()),
            }
            _emit(record, args.format, out)
        elif args.command == "dual":
            S = create_semigroup(_parse_gens(args.gens))
            F = dual_socle_generator(S.apery_table())
            record = {"schema_version": SCHEMA_VERSION, "generators": list(S.generators), "dual_generator": str(F)}
            _emit(record, args.format, out)
        elif args.command == "hessian":
            S = create_semigroup(_parse_gens(args.gens))
            F = dual_socle_generator(S.apery_table())
            view = dual_algebra_view(F)
            if not 0 <= args.d <= view.socle_degree:
                raise NotApplicable(f"degree {args.d} outside 0..{view.socle_degree}")
            matrix = view.pairing(args.d, args.d)
            basis = [str(SparsePoly.monomial(view.variables, e)) for e in matrix.row_labels]
            if args.format == "json":
                record = {
                    "schema_version": SCHEMA_VERSION,
                    "generators": list(S.generators),
                    "degree": args.d,
                    "basis": basis,
                    "entries": [[str(e) for e in row] for row in matrix.entries],
                }
                _emit(record, "json", out)
            else:
                out.write(f"basis: {basis}\n")
                out.write(_matrix_text(matrix) + "\n")
        elif args.command == "classify":
            S = create_semigroup(_parse_gens(args.gens))
            frame = S.frame()
            tilde = ci_tilde_ideal(frame) if frame.gamma else None
            record = {
                "schema_version": SCHEMA_VERSION,
                "generators": list(S.generators),
                "classification": classify(frame),
                "beta": list(frame.beta),
                "gamma": list(frame.gamma),
                "rho": list(frame.rho),
                "box_gamma_minus_apery": list(frame.gamma_minus_apery()),
                "tilde_generators": tilde.generator_texts() if tilde else [],
            }
            if record["classification"] == "codim3-structured":
                record["full_generators"] = codim3_defining_ideal(S, tilde).generator_texts()
            _emit(record, args.format, out)
        elif args.command == "quotient-chain":
            if args.gens is not None:
                if args.steps is not None:
                    raise ConflictingInput("--steps applies only with --poly; --gens builds the paper's chain")
                if args.poly is not None:
                    raise ConflictingInput("--poly applies only without --gens; --gens builds the paper's chain")
                S = create_semigroup(_parse_gens(args.gens))
                build = quotient_condition_ci if S.frame().is_ci() else quotient_condition_codim3
                report = build(S, seed=_seed(args.seed, S))
                _emit(report.to_dict(), args.format, out)
            elif args.poly:
                F = parse_polynomial(args.poly)
                steps = _parse_steps(args.steps)
                if not steps:
                    raise EmptyInput("--steps is required with --poly")
                view = dual_algebra_view(F, require_positive_degree=True)
                report = transfer_wlp(view, steps, seed=_seed(args.seed, F))
                _emit(report.to_dict(), args.format, out)
            else:
                raise EmptyInput("quotient-chain needs --gens or --poly")
        elif args.command == "conjecture":
            S = create_semigroup(_parse_gens(args.gens))
            report = conjecture_check(S, seed=_seed(args.seed, S))
            _emit(report.to_dict(), args.format, out)
        elif args.command == "sweep":
            return sweep(args)
        return 0
    except (ConflictingInput, EmptyInput, GcdNotOne, InvalidDualGenerator, InvalidGenerator, InvalidOutputPath,
            InvalidSeed, InvalidStep, PolyParseError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (NotApplicable, NotCI, NotGorenstein) as exc:
        print(f"inapplicable: {exc}", file=sys.stderr)
        return 3
    except SizeLimit as exc:
        print(f"limit exceeded: {exc}", file=sys.stderr)
        return 4
    except (AperyError, ValueError) as exc:
        # an AperyError that no clause above maps (InternalFault, or one no
        # command should reach) and a ValueError that no input check turned
        # into an AperyError are bugs
        print(f"internal error: {exc}", file=sys.stderr)
        return 5
    finally:
        if close_out:
            out.close()


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; with stdout on
        # devnull that flush cannot fail and print "Exception ignored"
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    entry()
