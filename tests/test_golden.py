"""Golden records: the sha256 of each command's output at seed 0 is pinned.

Records are byte-identical for a fixed seed; these cases cover both routes,
CI and codimension-3 sweeps with their chains and conjecture harness, a
certified SLP failure, two Gorenstein semigroup algebras with certified
failures (WLP and SLP on h = (1, 5, 5, 1), SLP alone on the other), a
sweep of codimension 5 whose eight certified WLP failures all have
h = (1, 5, 5, 1), a wider m-pure sweep of codimensions 4 and 5 on the ranks
route (290 records out of 18,629 minimal tuples), the degenerate notes,
dual forms, a transfer chain, the Hessian of a dual generator in both
formats, an Apery table with its maximal representations, a codimension-3
classification, and an Apery table and a frame whose maximal
representations lie at orders above 300.  A change that alters a record on
purpose updates its digest here and says why in CHANGES.md.

The records of the golden sweep also meet theorem oracles: known results
the verdicts must agree with, whatever the digests say.
"""

import contextlib
import functools
import hashlib
import io
import json

import pytest

from aperylef.cli import main

GOLDEN = {
    "sweep": (
        ["sweep", "--mult", "2:10", "--count", "3:4", "--max-gen", "20",
         "--require-m-pure", "--method", "both"],
        "aa432032a90a024a85224d3f1cda641bf4f568e2fa4ead620040ee790ada4733",
    ),
    "sweep-codim5-failures": (
        ["sweep", "--mult", "12:12", "--count", "6:6", "--max-gen", "24",
         "--require-m-pure", "--method", "both"],
        "fa134b0aaba25c5bf735e322ed4c6561ee1520237b1505486373d2241fc32af4",
    ),
    "sweep-codim4-5-m-pure": (
        ["sweep", "--mult", "12:14", "--count", "5:6", "--max-gen", "32",
         "--require-m-pure"],
        "3d32b813211495229994d11004d4a93f743a61c775a38060bc5915a0c59e5dca",
    ),
    "analyze-nongorenstein": (
        ["analyze", "--gens", "60,66,71,77,83", "--method", "both"],
        "21540eab002eeed2cd863e9303f1f14c0a67614c41e34bc6ad3d84049c05d747",
    ),
    "analyze-gorenstein-fails": (
        ["analyze", "--gens", "12,13,15,16,18,21", "--method", "both"],
        "3259b5f41bc45175a207199d7f02ed5502c41761355e71c0ba374afdc1ef0c29",
    ),
    "analyze-gorenstein-slp-fails": (
        ["analyze", "--gens", "18,20,21,28,29,30", "--method", "both"],
        "46a5d0f00afaa21c7aa622eb96b0793b92df81a44e23df1bd4afd49c15fc294b",
    ),
    "analyze-field": (
        ["analyze", "--gens", "1", "--method", "both"],
        "79f757b1f773ee65d6b7767d1953a55acd32a107671f5cf790a7780bdcedaa1a",
    ),
    "analyze-2-3": (
        ["analyze", "--gens", "2,3", "--method", "both"],
        "54fcb1582d5ef3189adf9fb8eae2e9b2e12f07cf6fc79c4a85930fa9caadd640",
    ),
    "from-dual-perazzo": (
        ["from-dual", "--poly", "2*a^3*x0 + a^2*b*x1 + 3*a*b^2*x2 + b^3*x3 + 5*a*b^3"],
        "e56e776b5bc6f226b744bbc2c51d8240fafa347f5b3d8fb028f34cc815bbe2fc",
    ),
    "from-dual-linear": (
        ["from-dual", "--poly", "x + 2*y"],
        "406463937b9dec8cef3eb7a38508fa960f8ebc8fefda702bc9cced6735aece97",
    ),
    "from-dual-cube": (
        ["from-dual", "--poly", "x^3"],
        "21cc25b4a07835fb795f6781f2710593506704323ea47ba56e102e5b37305679",
    ),
    "quotient-chain-poly": (
        ["quotient-chain", "--poly", "a^2*x*z + a*b*y*z + 1/2*b^2*z^2", "--steps", "z"],
        "b0473607a3a74a09e819a66feff655fe3b516a8223ad3f01a4c7bfc341f398c0",
    ),
    "hessian-json": (
        ["hessian", "--gens", "16,18,21,27", "--d", "2", "--format", "json"],
        "793094ac347e1fd740b33fdc90eb5551c632e5d1f8de7aa141c5e6a530c4bb92",
    ),
    "hessian-text": (
        ["hessian", "--gens", "16,18,21,27", "--d", "2", "--format", "text"],
        "17197525b7a15118f44cbcd7f66ec942742cc661f0fb8e1718a78a7691ed8d07",
    ),
    "apery-16-18-21-27": (
        ["apery", "--gens", "16,18,21,27"],
        "e992f55b6e558701b110b641ad0f36dfb8a57f2eeab99cdcf646fa85d31dd825",
    ),
    "classify-codim3": (
        ["classify", "--gens", "102,177,192,202"],
        "9b4439a9bfcedb83b2a893a4085aa207fb5cfa59e7c540780921f4c21945dda4",
    ),
    "classify-1200-1201-1202": (
        ["classify", "--gens", "1200,1201,1202"],
        "a9337e8e862ef90f444d9bb7e18d50001ac9094c8932a74fd8ff05d08c368f12",
    ),
    "apery-1000-1001-1002-1003": (
        ["apery", "--gens", "1000,1001,1002,1003"],
        "81b6e28ff182d3ceaecc6598224c87b9e060b78edc01726fbc1fb03f59805e60",
    ),
}


@functools.lru_cache(maxsize=None)
def output(name: str) -> str:
    """The output of a golden case at seed 0, run once per session."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["--seed", "0"] + GOLDEN[name][0])
    assert code == 0
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_record_digest(name):
    assert hashlib.sha256(output(name).encode()).hexdigest() == GOLDEN[name][1]


# -- theorem oracles over the golden sweep's records --------------------------------


def sweep_records(keep, name="sweep"):
    records = [json.loads(line) for line in output(name).splitlines()]
    chosen = [r for r in records if keep(r)]
    assert chosen, "the oracle covers no record of the golden sweep"
    return chosen


def verdicts(report_pair):
    """The verdicts of the routes that ran: ranks, and hessian unless skipped."""
    return [r["verdict"] for r in report_pair.values() if r["verdict"] != "skipped"]


def test_three_generators_have_slp():
    """Three generators give codimension 2, where every Artinian algebra has
    the SLP in characteristic zero (Harima-Migliore-Nagel-Watanabe 2003)."""
    for r in sweep_records(lambda r: len(r["generators"]) == 3):
        assert verdicts(r["slp"]) == ["holds", "holds"], r["generators"]


def test_monomial_complete_intersections_have_slp():
    """A monomial complete intersection has the SLP (Stanley 1980)."""
    for r in sweep_records(lambda r: r["classification"] == "monomial-CI"):
        assert set(verdicts(r["slp"])) == {"holds"}, r["generators"]


def test_codimension_3_complete_intersections_have_wlp():
    """Complete intersections of codimension 3 have the WLP
    (Harima-Migliore-Nagel-Watanabe 2003)."""
    def codim3_ci(r):
        return len(r["generators"]) == 4 and r["classification"] in ("CI", "monomial-CI")

    for r in sweep_records(codim3_ci):
        assert set(verdicts(r["wlp"])) == {"holds"}, r["generators"]


def test_established_quotient_chain_implies_ranks_wlp():
    """A chain establishes the WLP only from a base that has it, and the
    algebra it ends at is identified with the record's apery algebra, so the
    ranks route must find the WLP there too."""
    def established(r):
        return (r["quotient_chain"] or {}).get("wlp_established")

    for r in sweep_records(established):
        assert r["wlp"]["ranks"]["verdict"] == "holds", r["generators"]


def degree_1_hessian(r):
    """The degree-1 Hessian entry of a record's SLP Hessian evidence."""
    entry = r["slp"]["hessian"]["evidence"][0]
    assert entry["check"] == "hessian degree 1", r["generators"]
    return entry


def test_gordan_noether_degree_1_hessian_is_maximal():
    """In at most 4 variables a form with vanishing Hessian is a cone
    (Gordan-Noether 1876).  The dual generator of an algebra of codimension
    at most 4 is a form in h1 = codim variables that is no cone, so its
    degree-1 Hessian is nonsingular."""
    def applies(r):
        return len(r["generators"]) - 1 <= 4 and r["socle_degree"] >= 2

    for r in sweep_records(applies):
        assert degree_1_hessian(r)["maximal"], r["generators"]


def test_maeno_watanabe_socle_degree_3():
    """At socle degree 3 the WLP holds iff the degree-1 Hessian of the dual
    generator is nonsingular (Maeno-Watanabe 2009).  The codimension-5 sweep
    and the golden 12,13,15,16,18,21 record give the failing direction."""
    failing = json.loads(output("analyze-gorenstein-fails"))
    assert failing["socle_degree"] == 3 and not degree_1_hessian(failing)["maximal"]
    family = sweep_records(lambda r: r["socle_degree"] == 3, "sweep-codim5-failures")
    assert sum(r["wlp"]["ranks"]["verdict"] == "fails" for r in family) == 8
    for r in sweep_records(lambda r: r["socle_degree"] == 3) + family + [failing]:
        wlp = r["wlp"]["ranks"]["verdict"] == "holds"
        assert wlp == degree_1_hessian(r)["maximal"], r["generators"]
