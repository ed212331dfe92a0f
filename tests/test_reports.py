"""Reports serialize field by field: each to_dict equals the generic JSON walk
of tests/report_oracle.py and shares nothing with the report."""

import dataclasses
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from aperylef import (
    ConjectureReport,
    build_algebra,
    conjecture_check,
    create_semigroup,
    dual_algebra_view,
    dual_socle_generator,
    parse_polynomial,
    quotient_condition_ci,
    quotient_condition_codim3,
    slp_by_hessian,
    slp_by_ranks,
    transfer_wlp,
    wlp_by_hessian,
    wlp_by_ranks,
)
from aperylef.cli import classify
from aperylef.semigroup import minimal_tuples
from dual_forms import dual_form_text
from report_oracle import jsonable


def _small_pool() -> dict:
    """The m-pure CI and codimension-3 structured semigroups with
    multiplicity 4..12, 3 or 4 generators and every generator <= 22, by
    classification."""
    pool: dict = {}
    for m in range(4, 13):
        for count in (3, 4):
            for S in minimal_tuples(m, count, 22):
                if S.is_symmetric() and S.apery_table().m_pure_verdict():
                    kind = classify(S.frame())
                    if kind != "other":
                        pool.setdefault(kind, []).append(S.generators)
    return pool


POOL = _small_pool()


def scribble(value) -> None:
    """Change every dict and list inside value in place."""
    if isinstance(value, dict):
        for v in value.values():
            scribble(v)
        value["scribbled"] = True
    elif isinstance(value, list):
        for v in value:
            scribble(v)
        value.append("scribbled")


def assert_serializes_like_the_walk(report) -> None:
    expected = jsonable(report)
    got = report.to_dict()
    # == tells a list from a tuple; the JSON text tells a bool from an int
    assert got == expected
    assert json.dumps(got) == json.dumps(expected)
    scribble(got)
    assert jsonable(report) == expected


def distrusting(report):
    """The report with verdict inconclusive: a chain from it checks its
    first step directly, so that step carries a direct report."""
    return dataclasses.replace(report, verdict="inconclusive")


def with_counterexamples(report: ConjectureReport, data) -> ConjectureReport:
    """The report with a drawn nonempty set of its quotients flagged."""
    flagged = data.draw(st.lists(st.sampled_from(report.quotients), min_size=1, max_size=3))
    return ConjectureReport(quotients=report.quotients, counterexamples=flagged, all_wlp=False)


@given(st.data())
@settings(max_examples=30, deadline=None, derandomize=True)
def test_semigroup_reports_serialize_like_the_generic_walk(data):
    kind = data.draw(st.sampled_from(sorted(POOL)))
    S = create_semigroup(list(data.draw(st.sampled_from(POOL[kind]))))
    seed = data.draw(st.integers(0, 3))
    A = build_algebra(S.apery_table())
    F = dual_socle_generator(S.apery_table())
    view = dual_algebra_view(F)
    wlp = wlp_by_ranks(A, seed=seed)
    reports = [wlp, slp_by_ranks(A, seed=seed), wlp_by_hessian(view, seed=seed),
               slp_by_hessian(view, seed=seed)]
    if kind == "codim3-structured":
        reports.append(quotient_condition_codim3(S, seed=seed))
    else:
        reports.append(quotient_condition_ci(S, seed=seed, base_report=wlp))
    steps = [(v, data.draw(st.integers(1, 2))) for v in data.draw(st.lists(st.sampled_from(A.variables), max_size=2))]
    chain = transfer_wlp(A, steps, base_report=distrusting(wlp), seed=seed)
    assert not chain.steps or chain.steps[0].direct_report is not None
    reports.append(chain)
    conjecture = conjecture_check(S, seed=seed)
    reports += [conjecture, with_counterexamples(conjecture, data)]
    for report in reports:
        assert_serializes_like_the_walk(report)


@given(st.data())
@settings(max_examples=30, deadline=None, derandomize=True)
def test_dual_form_reports_serialize_like_the_generic_walk(data):
    F = parse_polynomial(dual_form_text(data))
    view = dual_algebra_view(F)
    seed = data.draw(st.integers(0, 3))
    wlp = wlp_by_ranks(view, seed=seed)
    reports = [wlp, slp_by_ranks(view, seed=seed), wlp_by_hessian(view, seed=seed),
               slp_by_hessian(view, seed=seed)]
    steps = [(v, 1) for v in data.draw(st.lists(st.sampled_from(view.variables), min_size=1, max_size=2))]
    if data.draw(st.booleans()):
        wlp = distrusting(wlp)
    reports.append(transfer_wlp(view, steps, base_report=wlp, seed=seed))
    for report in reports:
        assert_serializes_like_the_walk(report)
