"""Workload inputs and the closed-loop passes that time them.

Every workload is one caller issuing one record at a time: a record starts
only after the previous one has returned, and no threads are used.  Inputs
depend only on the seed.  A pass runs the workload's whole input set once
and returns each record's text and latency.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

# The sweep --mult 2:16 --count 3:4 --max-gen 28 --require-m-pure, run as
# one cli.main call per multiplicity: the records and their order are those
# of the single call, and the gaps between calls take the calibration.
SWEEP_MULTIPLICITIES = range(2, 17)
SWEEP_ARGS = ["--count", "3:4", "--max-gen", "28", "--require-m-pure"]
SWEEP_WARMUP_ARGS = [
    "sweep", "--mult", "4:6", "--count", "3:3", "--max-gen", "14",
    "--require-m-pure",
]

# The three named large instances, one workload each, so that each has its
# own latency figures: a change that speeds the Gorenstein "holds" path and
# slows the non-Gorenstein "fails" path shows on its own workload.
INSTANCES = {
    "analyze_mci": (120, 216, 291, 328),
    "analyze_codim3": (102, 177, 192, 202),
    "analyze_nongor": (60, 66, 71, 77, 83),
}
ANALYZE_WARMUP = (16, 18, 21, 27)

SPARSE_VARIABLES = {3: "xyz", 4: "wxyz"}
SPARSE_DEGREES = (3, 4, 5)
SPARSE_TERMS = (2, 3, 4, 5)
# Four-variable quintics with four or five terms are left out: they take
# 0.15-4.6 s each, so a handful of them would decide the pass time and make
# it depend on the seed.
SPARSE_SHAPES = [
    (nvars, degree, nterms)
    for nvars in SPARSE_VARIABLES
    for degree in SPARSE_DEGREES
    for nterms in SPARSE_TERMS
    if not (nvars == 4 and degree == 5 and nterms > 3)
]
SPARSE_PER_SHAPE = 10
PERAZZO_DEGREES = (2, 3)
PERAZZO_PER_SHAPE = 28
DUAL_WARMUP = ("x^2*y + y^2*z + x*z^2", "a^2*x0 + a*b*x1 + b^2*x2")


def _monomial_text(names, exps) -> str:
    return "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(names, exps) if e)


def _term(coeff: int, mono: str) -> str:
    return f"{coeff}*{mono}" if coeff != 1 else mono


def sparse_form(rng: random.Random, nvars: int, degree: int, nterms: int) -> str:
    """Homogeneous form with nterms distinct monomials using every variable."""
    names = SPARSE_VARIABLES[nvars]
    while True:
        monos = set()
        while len(monos) < nterms:
            exps = [0] * nvars
            for _ in range(degree):
                exps[rng.randrange(nvars)] += 1
            monos.add(tuple(exps))
        if all(any(m[i] for m in monos) for i in range(nvars)):
            break
    return " + ".join(
        _term(rng.randint(1, 9), _monomial_text(names, m))
        for m in sorted(monos, reverse=True)
    )


def perazzo_form(rng: random.Random, e: int, pure: bool) -> str:
    """sum_i c_i a^(e-i) b^i x_i, optionally plus one pure (a, b) term.

    The partials in the x_i are e+1 >= 3 binary forms in (a, b), so they are
    algebraically dependent and the Hessian vanishes identically
    (Gordan-Noether): SLP fails on both routes.
    """
    terms = [
        _term(rng.randint(1, 9), _monomial_text(("a", "b", f"x{i}"), (e - i, i, 1)))
        for i in range(e + 1)
    ]
    if pure:
        j = rng.randint(0, e + 1)
        terms.append(_term(rng.randint(1, 9), _monomial_text("ab", (e + 1 - j, j))))
    return " + ".join(terms)


def dual_mix_inputs(seed: int) -> list[dict]:
    """Stratified mix: fixed counts per shape, random monomials and coefficients.

    Two thirds are sparse forms (SPARSE_PER_SHAPE of each shape in
    SPARSE_SHAPES); one third are Perazzo-type forms (e in {2, 3}, with and
    without a pure term).  Fixing the counts per shape keeps the cost of a
    pass close to independent of the seed, and 332 distinct forms fill a
    run with one pass, so no input repeats inside the timed region.
    """
    rng = random.Random(f"dual_mix:{seed}")
    out = []
    for nvars, degree, nterms in SPARSE_SHAPES:
        for _ in range(SPARSE_PER_SHAPE):
            out.append({"kind": "sparse", "poly": sparse_form(rng, nvars, degree, nterms)})
    for e in PERAZZO_DEGREES:
        for pure in (False, True):
            for _ in range(PERAZZO_PER_SHAPE):
                out.append({"kind": "perazzo", "poly": perazzo_form(rng, e, pure)})
    rng.shuffle(out)
    return out


@dataclass
class PassResult:
    """One pass: its record count, latencies and duration, and its records.

    A record is (key, JSON text or None, error or None).  A sweep pass
    leaves its records in its JSONL file until the checks read them, so the
    peak memory of the process does not depend on how many passes ran.
    """

    count: int = 0
    latencies: list = field(default_factory=list)
    elapsed: float = 0.0
    held: list = field(default_factory=list)
    path: Path | None = None
    exit_error: str | None = None

    def records(self) -> list:
        if self.path is None:
            return self.held
        out = []
        with open(self.path, "r", encoding="utf-8") as fh:
            for n, line in enumerate(fh, start=1):
                text = line.rstrip("\n")
                try:
                    out.append((",".join(map(str, json.loads(text)["generators"])), text, None))
                except (json.JSONDecodeError, KeyError, TypeError):
                    out.append((f"line {n}", None, "not a JSON record with generators"))
        if self.exit_error is not None:
            out.append(("sweep exit", None, self.exit_error))
        return out

    def discard(self) -> None:
        if self.path is not None:
            self.path.unlink(missing_ok=True)


class _StampedLines:
    """Stdout stand-in: writes to a file and records, for every write, the
    time since the previous write or since ``prev`` was last set."""

    def __init__(self, fh):
        self.fh = fh
        self.prev = time.perf_counter()
        self.latencies = []

    def write(self, text: str) -> int:
        n = self.fh.write(text)
        now = time.perf_counter()
        self.latencies.append(now - self.prev)
        self.prev = now
        return n

    def flush(self) -> None:
        self.fh.flush()


class Workload:
    name = ""
    kind = "analyze"  # which record checks apply: "analyze" or "dual"

    def inputs(self, seed: int) -> list:
        raise NotImplementedError

    def warm_up(self, cli, seed: int) -> None:
        raise NotImplementedError

    def run_pass(self, cli, inputs: list, seed: int, scratch: Path, between) -> PassResult:
        """Run every input once; call between() between records, untimed."""
        raise NotImplementedError


class SweepFamily(Workload):
    name = "sweep_family"

    def __init__(self):
        self._passes = itertools.count()

    def inputs(self, seed):
        return [
            ["--seed", str(seed), "sweep", "--mult", f"{m}:{m}"] + SWEEP_ARGS
            for m in SWEEP_MULTIPLICITIES
        ]

    def warm_up(self, cli, seed):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main(["--seed", str(seed)] + SWEEP_WARMUP_ARGS)

    def run_pass(self, cli, inputs, seed, scratch, between):
        """The sweep through cli.main into one JSONL file; a record's latency
        is the time since the previous record was written in its call."""
        result = PassResult(path=scratch / f"sweep-{next(self._passes)}.jsonl")
        errors = []
        with open(result.path, "w", encoding="utf-8") as fh:
            out = _StampedLines(fh)
            for argv in inputs:
                between()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    t0 = out.prev = time.perf_counter()
                    try:
                        code = cli.main(argv)
                    except Exception as exc:  # the pass must still report what it wrote
                        code = f"{type(exc).__name__}: {exc}"
                    result.elapsed += time.perf_counter() - t0
                if code != 0:
                    errors.append(f"cli.main {' '.join(argv)} returned {code}")
        result.exit_error = "; ".join(errors) or None
        result.latencies = out.latencies
        result.count = len(out.latencies)
        return result


class _RecordLoop(Workload):
    """Calls one library entry point per input and times each call."""

    def call(self, cli, item, seed) -> dict:
        raise NotImplementedError

    def key(self, item) -> str:
        raise NotImplementedError

    def run_pass(self, cli, inputs, seed, scratch, between):
        result = PassResult()
        for item in inputs:
            error = text = None
            t0 = time.perf_counter()
            try:
                record = self.call(cli, item, seed)
            except Exception as exc:  # a failed record is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            if error is None:
                text = json.dumps(record)
            result.held.append((self.key(item), text, error))
            result.latencies.append(dt)
            result.elapsed += dt
            between()
        result.count = len(result.held)
        return result


class AnalyzeInstance(_RecordLoop):
    def __init__(self, name: str, gens: tuple):
        self.name = name
        self.gens = gens

    def inputs(self, seed):
        return [list(self.gens)]

    def warm_up(self, cli, seed):
        cli.analyze_record(ANALYZE_WARMUP, method="both", seed_root=seed)

    def call(self, cli, item, seed):
        return cli.analyze_record(item, method="both", seed_root=seed)

    def key(self, item):
        return ",".join(map(str, item))


class DualMix(_RecordLoop):
    name = "dual_mix"
    kind = "dual"

    def inputs(self, seed):
        return dual_mix_inputs(seed)

    def warm_up(self, cli, seed):
        for poly in DUAL_WARMUP:
            cli.from_dual_record(poly, seed_root=seed)

    def call(self, cli, item, seed):
        return cli.from_dual_record(item["poly"], seed_root=seed)

    def key(self, item):
        return item["poly"]


WORKLOADS = {
    w.name: w
    for w in [SweepFamily()]
    + [AnalyzeInstance(name, gens) for name, gens in INSTANCES.items()]
    + [DualMix()]
}
