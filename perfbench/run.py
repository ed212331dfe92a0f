"""aperylef benchmark: one workload, one process, one closed-loop caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; aperylef is imported from its src/.  The
run sets up (import, input generation, warm-up) SETUP_REPEATS times, then
runs whole passes over the workload's inputs until --seconds have elapsed,
then checks every record outside the timed region.  Times and rates are
scaled to the reference machine speed measured by calibrate.py.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones from a traced run whose passes alternate with untraced
ones.  Inputs, results and spans go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
REFERENCE = BENCH / "reference.json"
SETUP_REPEATS = 5

sys.path.insert(0, str(BENCH))
from calibrate import Calibration  # noqa: E402
from checks import check_record, stripped_digest  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def import_program():
    """Fresh import of aperylef and aperylef.cli from this checkout's src/."""
    src = ROOT / "src"
    if not (src / "aperylef" / "__init__.py").is_file():
        raise ImportError(f"no aperylef package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "aperylef" or n.startswith("aperylef.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    ap = importlib.import_module("aperylef")
    cli = importlib.import_module("aperylef.cli")
    if Path(ap.__file__).resolve().parent != (src / "aperylef").resolve():
        raise ImportError(f"aperylef was imported from {ap.__file__}, not {src}")
    return ap, cli


def percentile(values, q: int) -> float:
    """q-th percentile (1..99) by linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def check_passes(ap, cli, workload, inputs, seed, passes) -> tuple[int, int, list]:
    """(attempted, failed, problems) over every record of every pass.

    Each distinct record text is checked once; a record fails when it
    raised, when a check finds a problem, or when its stripped digest
    differs from the reference or from the same record in another pass.
    """
    reference = json.loads(REFERENCE.read_text()).get(workload.name, {})
    expected = reference.get(str(seed), reference.get("*"))
    extras = {workload.key(item): item.get("kind") for item in inputs if isinstance(item, dict)}
    verdicts: dict[str, list] = {}  # record text -> problems found
    first_digest: dict[str, str] = {}
    attempted = failed = 0
    problems = []
    for result in passes:
        records = result.records()
        attempted += len(records)
        seen = set()
        for key, text, error in records:
            seen.add(key)
            if error is not None:
                found = [error]
            else:
                if text not in verdicts:
                    record = json.loads(text)
                    found = check_record(ap, cli, record, workload.kind, extras.get(key))
                    digest = stripped_digest(record)
                    if expected is not None and expected.get(key) != digest:
                        found.append(f"stripped digest {digest} differs from reference {expected.get(key)}")
                    if first_digest.setdefault(key, digest) != digest:
                        found.append("stripped digest differs between passes")
                    verdicts[text] = found
                found = verdicts[text]
            if found:
                failed += 1
                problems.append((key, found))
        if expected is not None:
            missing = [k for k in expected if k not in seen]
            attempted += len(missing)
            failed += len(missing)
            problems += [(k, ["record missing from the pass"]) for k in missing]
    return attempted, failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    seed = args.seed

    calibration = Calibration()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        calibration.sample()
        t0 = time.perf_counter()
        ap, cli = import_program()
        inputs = workload.inputs(seed)
        workload.warm_up(cli, seed)
        setup_times.append(time.perf_counter() - t0)

    out_dir = RESULTS / f"{workload.name}-seed{seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "inputs.json").write_text(json.dumps(inputs, indent=1) + "\n")

    tracer = Tracer() if args.trace else None
    passes, traced = [], []
    started = time.perf_counter()
    while True:
        trace_this = tracer is not None and len(passes) % 2 == 1
        if trace_this:
            tracer.install()
        try:
            result = workload.run_pass(cli, inputs, seed, out_dir, calibration.between)
        finally:
            if trace_this:
                tracer.uninstall()
        passes.append(result)
        traced.append(trace_this)
        if time.perf_counter() - started >= args.seconds and (tracer is None or trace_this):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    calibration.sample()
    slowdown = calibration.slowdown()

    plain = [p for p, t in zip(passes, traced) if not t]
    attempted, failed, problems = check_passes(ap, cli, workload, inputs, seed, passes)

    def rate(group):
        return sum(p.count for p in group) / sum(p.elapsed for p in group)

    # A pass that wrote nothing still has its own duration as a latency.
    latencies = [x for p in plain for x in p.latencies] or [p.elapsed for p in plain]
    raw = {}
    if tracer is None:
        raw = {
            "setup_s": (statistics.median(setup_times), "s"),
            "records_per_s": (rate(plain), "1/s"),
            "record_p50_ms": (percentile(latencies, 50) * 1000, "ms"),
            "record_p90_ms": (percentile(latencies, 90) * 1000, "ms"),
        }
        # Times at the reference machine speed; see calibrate.py.
        metrics = {
            name: (value * slowdown if unit == "1/s" else value / slowdown, unit)
            for name, (value, unit) in raw.items()
        }
        metrics["ok_ratio"] = ((attempted - failed) / attempted if attempted else 0.0, "ratio")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    else:
        tp = [p for p, t in zip(passes, traced) if t]
        layer = tracer.layer_metrics(len(tp), sum(p.elapsed for p in tp))
        layer["trace.overhead_ratio"] = rate(tp) / rate(plain)
        for name in tracer.missing:
            print(f"note: {name} not found, its layer figures are zero")
        metrics = {name: (layer[name], unit) for name, unit in PER_LAYER.items()}
        tracer.write_spans(out_dir / "spans.jsonl")
        # Traced and untraced passes must give the same stripped records.
        digests = {
            tuple(stripped_digest(json.loads(text)) if text else "-" for _, text, _ in p.records())
            for p in passes
        }
        if len(digests) != 1:
            problems.append(("trace", ["traced and untraced passes give different records"]))
            failed = max(failed, 1)

    for p in passes:
        p.discard()

    summary = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (out_dir / "result.json").write_text(json.dumps({
        "workload": workload.name,
        "seed": seed,
        "seconds": args.seconds,
        "passes": len(passes),
        "traced_passes": sum(traced),
        "latencies_ms": [round(x * 1000, 3) for x in latencies],
        "setup_times_s": setup_times,
        "calibration_s": calibration.samples,
        "slowdown": slowdown,
        "raw_metrics": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
        "problems": problems[:50],
        **summary,
    }, indent=1) + "\n")
    for key, found in problems[:10]:
        print(f"FAILED {key}: {'; '.join(found)}")
    print(f"{workload.name}: seed {seed}, {len(passes)} passes "
          f"({sum(traced)} traced), {len(latencies)} latency samples, "
          f"{attempted} records attempted, {failed} failed, "
          f"machine slowdown {slowdown:.3f} over {len(calibration.samples)} samples")
    for name, (value, unit) in metrics.items():
        wall = f"  (wall clock {raw[name][0]:.6f})" if name in raw else ""
        print(f"  {name:44s} {value:14.6f} {unit}{wall}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        sys.exit(2)
