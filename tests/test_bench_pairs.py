import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

MEMORY = {"unit": "MB", "better": "lower", "bound": 0.1}
THROUGHPUT = {"unit": "1/s", "better": "higher", "bound": 0.25}


def test_worse_than_bound_reads_the_gate_the_worse_way():
    base = [10.0, 10.0, 10.0]
    assert bench_pairs.summarize(MEMORY, base, [11.2, 11.1, 11.3])["worse_than_bound"] is True
    assert bench_pairs.summarize(MEMORY, base, [10.5, 10.6, 10.4])["worse_than_bound"] is False
    assert bench_pairs.summarize(MEMORY, base, [5.0, 5.0, 5.0])["worse_than_bound"] is False
    assert bench_pairs.summarize(THROUGHPUT, base, [7.0, 7.0, 7.0])["worse_than_bound"] is True
    assert bench_pairs.summarize(THROUGHPUT, base, [20.0, 20.0, 20.0])["worse_than_bound"] is False
    assert bench_pairs.summarize(THROUGHPUT, [0.0] * 3, [1.0] * 3)["worse_than_bound"] is None


def test_the_claim_rule_reads_the_better_direction():
    base = [9.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 11.0]
    faster = [12.0] * 10
    assert bench_pairs.summarize(THROUGHPUT, base, faster)["claim_rule_met"] is True
    # a change that got worse by as much clears the IQR gap, but not the rule
    slower = bench_pairs.summarize(THROUGHPUT, base, [8.0] * 10)
    assert slower["median_gap_exceeds_base_iqr"] is True and slower["claim_rule_met"] is False
    assert bench_pairs.summarize(MEMORY, base, [8.0] * 10)["claim_rule_met"] is True
    assert bench_pairs.summarize(MEMORY, base, faster)["claim_rule_met"] is False


def test_the_claim_rule_needs_nine_wins_in_ten_and_a_gap_beyond_the_base_iqr():
    base = [10.0] * 10
    # eight wins and two ties: ties count for neither side
    assert bench_pairs.summarize(THROUGHPUT, base, [12.0] * 8 + [10.0] * 2)["claim_rule_met"] is False
    assert bench_pairs.summarize(THROUGHPUT, base, [12.0] * 9 + [10.0])["claim_rule_met"] is True
    # every pair won, but the median gap is inside the base interquartile range
    spread = [8.0, 9.0, 9.5, 10.0, 10.0, 10.0, 10.0, 10.5, 11.0, 12.0]
    summary = bench_pairs.summarize(THROUGHPUT, spread, [x + 0.5 for x in spread])
    assert summary["wins"] == 10 and summary["claim_rule_met"] is False


def test_a_workload_keeps_each_runs_record_counts_per_side():
    names = [m["name"] for m in bench_pairs.BENCH["end_to_end"]]

    def run(attempted, rate):
        metrics = {name: {"value": rate} for name in names}
        return {"correct": True, "failed": 0, "attempted": attempted, "metrics": metrics}

    runs = {"base": [run(40, 10.0), run(42, 11.0)], "change": [run(61, 15.0), run(64, 16.0)]}
    summary = bench_pairs.workload_summary([1000, 1001], runs)
    assert summary["seeds"] == [1000, 1001]
    assert summary["attempted"] == {"base": [40, 42], "change": [61, 64]}
    assert summary["correct"] == {"base": [True, True], "change": [True, True]}
    assert summary["failed"] == {"base": [0, 0], "change": [0, 0]}
    assert set(summary["metrics"]) == set(names)
    assert summary["metrics"]["records_per_s"]["change"] == [15.0, 16.0]
