"""Tests of the suite runner itself: reports, determinism, dispatch.

The statements the suites verify get their deep coverage in
test_acceptance.py; here the machinery is the subject: reports must carry
exactly the documented fields, runs must be reproducible from the seed,
parallel dispatch must agree with serial, and bad ranges must be rejected
before any case runs.
"""

import json

import pytest

from heisenmod import CaseOutcome, Report, TooLarge, run_suite, suite_names


def test_suite_names_lists_all_eleven():
    assert suite_names() == [
        "cor23",
        "cor24",
        "cor25",
        "cor26",
        "ex27",
        "note52",
        "prop21",
        "sec3-min-dim",
        "sec4-restriction",
        "thm22",
        "thm51",
    ]


def test_every_suite_runs_green_on_a_small_slice():
    slices = {
        "prop21": dict(p=[2, 3], n=[1]),
        "thm22": dict(p=[2], n=[1]),
        "cor23": dict(p=[2], m=[2]),
        "cor24": dict(p=[2], n=[1]),
        "cor25": dict(p=[3]),
        "cor26": dict(p=[2, 3]),
        "ex27": dict(p=[2, 3]),
        "sec3-min-dim": dict(p=[2], n=[1]),
        "sec4-restriction": dict(p=[2], m=[2]),
        "thm51": dict(p=[2], m=[2]),
        "note52": dict(p=[2]),
    }
    assert set(slices) == set(suite_names())
    for name, kwargs in slices.items():
        report = run_suite(name, **kwargs)
        assert report.ok, report.render()
        assert report.cases_run > 0
        assert report.suite == name
        assert report.anchor  # every suite states what it certifies


def test_report_json_has_exactly_the_documented_fields():
    report = run_suite("ex27", p=[2])
    doc = report.to_json()
    assert set(doc) == {
        "suite", "anchor", "cases_run", "cases_passed", "failures", "wall_time"
    }
    assert json.dumps(doc)  # JSON-serializable throughout
    assert doc["cases_run"] == doc["cases_passed"] == 1
    assert doc["failures"] == []


def test_report_render_shows_failures_with_inputs():
    bad = CaseOutcome(case="p=3,check", inputs={"p": 3}, ok=False, message="broke")
    good = CaseOutcome(case="p=2,check", inputs={"p": 2}, ok=True, message="held")
    report = Report(
        suite="demo",
        anchor="demo anchor",
        cases_run=2,
        cases_passed=1,
        failures=[bad],
        wall_time=0.5,
        outcomes=[good, bad],
    )
    assert not report.ok
    text = report.render()
    assert "suite demo" in text
    assert "anchor: demo anchor" in text
    assert "1/2 cases passed" in text
    assert "p=2,check: held" in text
    assert "FAIL p=3,check: broke" in text and "{'p': 3}" in text
    doc = report.to_json()
    assert doc["failures"] == [
        {"case": "p=3,check", "inputs": {"p": 3}, "message": "broke"}
    ]


def test_runs_are_reproducible_from_the_seed():
    a = run_suite("cor24", p=[3], n=[1], seed=7)
    b = run_suite("cor24", p=[3], n=[1], seed=7)
    assert [(o.case, o.inputs, o.ok) for o in a.outcomes] == [
        (o.case, o.inputs, o.ok) for o in b.outcomes
    ]
    c = run_suite("cor24", p=[3], n=[1], seed=8)
    assert [o.inputs for o in a.outcomes] != [o.inputs for o in c.outcomes]


def test_parallel_dispatch_agrees_with_serial():
    serial = run_suite("ex27", p=[2, 3, 5])
    parallel = run_suite("ex27", p=[2, 3, 5], jobs=3)
    assert [(o.case, o.ok, o.message) for o in serial.outcomes] == [
        (o.case, o.ok, o.message) for o in parallel.outcomes
    ]


@pytest.mark.parametrize("cpus, workers", [(64, [18]), (4, [4]), (None, [])])
def test_pool_size_is_capped_by_cases_and_cpus(monkeypatch, cpus, workers):
    import concurrent.futures
    import os

    sizes = []

    class SerialPool:
        """Records max_workers and maps in this process: starts none."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    report = run_suite("prop21", p=[3], n=[1], jobs=100_000)
    assert report.cases_run == 18 and report.ok
    # one CPU (or an unknown count) runs the cases here, with no pool
    assert sizes == workers


def test_range_validation():
    with pytest.raises(ValueError):
        run_suite("nope")
    for jobs in (0, -3):
        with pytest.raises(ValueError, match="jobs"):
            run_suite("ex27", p=[2], jobs=jobs)
    with pytest.raises(ValueError):
        run_suite("thm22", p=[4])
    with pytest.raises(ValueError):
        run_suite("thm22", n=[0])
    with pytest.raises(ValueError):
        run_suite("cor23", m=[-1])
    with pytest.raises(ValueError):
        # every (p, m) combination is past desk scale
        run_suite("cor23", p=[5], m=[5])


@pytest.mark.parametrize("jobs", [1, 2])
def test_refused_case_raises_instead_of_failing(jobs):
    # GF(67) at d = 2 is past the search bound: nothing was refuted
    with pytest.raises(TooLarge, match="4556 similarity classes"):
        run_suite("sec3-min-dim", p=[67], n=[1], jobs=jobs)


def test_sweeps_cap_the_case_count():
    # (5, 1) has 100 parameter tuples, above the exhaustive budget of 64,
    # so the builder falls back to a seeded sample of 10
    report = run_suite("prop21", p=[5], n=[1])
    assert report.cases_run == 10
    assert report.ok
    # (3, 1) has 18 tuples and stays exhaustive
    report = run_suite("prop21", p=[3], n=[1])
    assert report.cases_run == 18
    assert report.ok


def test_combos_past_desk_scale_are_dropped_quietly_when_others_remain():
    # (5, 3) alone is rejected, but alongside (5, 1) it is just skipped
    report = run_suite("prop21", p=[5], n=[1, 3])
    assert report.ok
    assert {o.inputs["n"] for o in report.outcomes} == {1}
