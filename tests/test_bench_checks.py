"""The benchmark's output checks accept the records the library writes.

perfbench/checks.py re-verifies every record a benchmark run writes through
the public API (schema, verdict discipline, route agreement, the Perazzo
shape, and an exact audit of every witness).  Running it here makes an API
change that breaks those checks fail a unit test, not a benchmark run.  The
witness audit ranks every map of a report at its witness, so it re-verifies
the maps that a holding Gorenstein WLP report certifies from its middle map
alone.
"""

import importlib.util
from pathlib import Path

import pytest

import aperylef
from aperylef import cli

spec = importlib.util.spec_from_file_location(
    "bench_checks", Path(__file__).resolve().parent.parent / "perfbench" / "checks.py")
checks = importlib.util.module_from_spec(spec)
spec.loader.exec_module(checks)


@pytest.mark.parametrize("gens", [(16, 18, 21, 27), (8, 10, 11, 12), (60, 66, 71, 77, 83), (102, 177, 192, 202)])
def test_analyze_records_pass_the_benchmark_checks(gens):
    record = cli.analyze_record(list(gens), method="both", seed_root=0)
    assert checks.check_record(aperylef, cli, record, "analyze", None) == []


@pytest.mark.parametrize("poly, extra, verdict", [
    ("x^3 + y^3 + z^3 + x*y*z", None, "holds"),
    ("x^5 + y^5 + x^2*y^2*z + z^5", None, "holds"),
    ("2*a^3*x0 + a^2*b*x1 + 3*a*b^2*x2 + b^3*x3 + 5*a*b^3", "perazzo", "fails"),
])
def test_dual_records_pass_the_benchmark_checks(poly, extra, verdict):
    record = cli.from_dual_record(poly, seed_root=0)
    assert [rep["verdict"] for prop in ("wlp", "slp") for rep in record[prop].values()] == [verdict] * 4
    assert checks.check_record(aperylef, cli, record, "dual", extra) == []
