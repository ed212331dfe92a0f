"""Alternating parent/change pairs of perfbench runs, summarized per metric.

    python3 scripts/bench_pairs.py --base REV --out BENCH.json \
        [--first-seed 1000] [--tmpdir DIR]

The change side is the checkout this script lives in, as it is on disk; the
base side is REV exported with ``git archive`` into a temporary directory
(under --tmpdir when given), so no worktree is registered in the repository.
Before every run the ``__pycache__`` directories of both trees are removed,
so neither side imports bytecode the other side does not have.

Every workload of BENCHMARK.json gets PAIRS pairs.  Pair i runs
``perfbench/run.py --seed (first-seed + i) --seconds S --trace 0`` on both
trees, base first on even i and change first on odd i, where S is the
benchmark's own ``run_seconds``.  The output holds, per workload and
end-to-end metric of BENCHMARK.json, every run's value, the median and
quartiles of each side, the relative change of the medians, whether that
change goes the worse way by more than the metric's bound (the benchmark's
gate; null when the base median is 0), the pairs the change wins and loses
(ties count for neither), and whether the medians differ by more than the
base side's interquartile range, either way.  ``claim_rule_met`` is the rule
a claimed gain is judged by: the change wins at least nine of every ten
pairs, and its median beats the base median, in the metric's better
direction, by more than the base side's interquartile range.  Each workload
also holds, per side, every run's ``correct`` flag and its ``failed`` and
``attempted`` record counts: for the ``analyze_*`` and ``dual_mix`` workloads
``attempted`` is the number of records perfbench held until the run ended,
against which a ``peak_rss_mb`` move can be read.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = BENCH["run_seconds"]
PAIRS = 10


def export(rev: str, dest: Path) -> str:
    """Write the files of rev under dest; return its full commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                            check=True, capture_output=True, text=True).stdout.strip()
    archive = dest.parent / "base.tar"
    subprocess.run(["git", "archive", "--output", str(archive), commit], cwd=ROOT, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest)
    archive.unlink()
    return commit


def clear_bytecode(tree: Path) -> None:
    for cache in tree.rglob("__pycache__"):
        shutil.rmtree(cache, ignore_errors=True)


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One untraced perfbench run; the summary object it prints last."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(metric: dict, base: list[float], head: list[float]) -> dict:
    higher = metric["better"] == "higher"
    b1, bm, b3 = quartiles(base)
    h1, hm, h3 = quartiles(head)
    wins = sum((h > b) if higher else (h < b) for b, h in zip(base, head))
    losses = sum((h < b) if higher else (h > b) for b, h in zip(base, head))
    relative = hm / bm - 1 if bm else None
    gain = hm - bm if higher else bm - hm
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        "base": base,
        "change": head,
        "base_median": bm,
        "base_q1": b1,
        "base_q3": b3,
        "change_median": hm,
        "change_q1": h1,
        "change_q3": h3,
        "relative_change": relative,
        "worse_than_bound": None if relative is None else (-relative if higher else relative) > metric["bound"],
        "wins": wins,
        "losses": losses,
        "ties": len(base) - wins - losses,
        "median_gap_exceeds_base_iqr": abs(hm - bm) > b3 - b1,
        "claim_rule_met": 10 * wins >= 9 * len(base) and gain > b3 - b1,
    }


def workload_summary(seeds: list[int], runs: dict[str, list[dict]]) -> dict:
    """One workload's entry: its seeds, each side's correct flags and record
    counts per run, and the summary of every end-to-end metric."""
    return {
        "seeds": seeds,
        **{count: {side: [r[count] for r in runs[side]] for side in runs}
           for count in ("correct", "failed", "attempted")},
        "metrics": {
            m["name"]: summarize(
                m,
                [r["metrics"][m["name"]]["value"] for r in runs["base"]],
                [r["metrics"][m["name"]]["value"] for r in runs["change"]],
            )
            for m in BENCH["end_to_end"]
        },
    }


def host() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {"cpus": os.cpu_count(), "cpu_model": model or platform.processor(),
            "python": platform.python_version()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="commit to compare the checkout against")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--first-seed", type=int, default=1000)
    parser.add_argument("--tmpdir", type=Path)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(dir=args.tmpdir) as tmp:
        base_tree = Path(tmp) / "base"
        base_tree.mkdir()
        commit = export(args.base, base_tree)
        trees = {"base": base_tree, "change": ROOT}
        out = {
            "base": commit,
            "change": "working tree of " + subprocess.run(
                ["git", "describe", "--always", "--dirty"], cwd=ROOT,
                capture_output=True, text=True).stdout.strip(),
            "seconds": SECONDS,
            "pairs": PAIRS,
            "host": host(),
            "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "workloads": {},
        }
        for workload in (w["name"] for w in BENCH["workloads"]):
            runs = {"base": [], "change": []}
            seeds = [args.first_seed + i for i in range(PAIRS)]
            for i, seed in enumerate(seeds):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                for side in order:
                    clear_bytecode(base_tree)
                    clear_bytecode(ROOT)
                    runs[side].append(run_once(trees[side], workload, seed))
                    print(f"{workload} seed {seed} {side}: "
                          f"{runs[side][-1]['metrics']['records_per_s']['value']:.3f} records/s",
                          file=sys.stderr, flush=True)
            out["workloads"][workload] = workload_summary(seeds, runs)
            args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
