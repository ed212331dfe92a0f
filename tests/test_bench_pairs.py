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
