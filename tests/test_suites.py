"""Tests of the suite runner itself: reports, determinism, dispatch.

The statements the suites verify get their deep coverage in
test_acceptance.py; here the machinery is the subject: reports must carry
exactly the documented fields, runs must be reproducible from the seed,
parallel dispatch must agree with serial, and bad ranges must be rejected
before any case runs.
"""

import hashlib
import json
import re
from pathlib import Path

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
    refusals = [
        # every combination is past the suite's size limit
        ("cor23", dict(p=[5], m=[5]), "requested ranges are above desk scale"),
        ("cor24", dict(p=[3], n=[2]), "requested ranges are above desk scale"),
        ("sec4-restriction", dict(p=[5], m=[5]),
         "requested ranges are above desk scale"),
        ("prop21", dict(p=[5], n=[3]), "requested ranges are above desk scale"),
        ("thm22", dict(p=[7], n=[3]),
         "p=7, n=3 gives 705894 parameter tuples, above desk scale"),
    ]
    for name, kwargs, text in refusals:
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            run_suite(name, **kwargs)


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


# SHA-256 of the JSON list of (case, inputs) over run_suite(name, seed=s)
# at the default ranges, for s = 0 and s = 7: any change to a case key, an
# input, the order of the seeded draws or the default ranges shows here
BUILT_CASE_DIGESTS = {
    "cor23": (
        "422a74c4fbabd6a13531403977147d1c63d9ca772197841dc9faddf4730e70a6",
        "14d78ef7d9ac10a487e414b71abe9f96855cdcc3c4ce57b6e4309c6408c6717d",
    ),
    "cor24": (
        "00f9d6bf4288d2a12384a55b96752278b9395f49f63c0a016fd5e6888395d497",
        "ccb39b086ca594fff5caaaa65b1b572c885116e12cf15a6fab4d385a2319062e",
    ),
    "cor25": (
        "dfe23a50d8fbd26595009d2717d95cc6a365390e72979863bf270d3e6581d697",
        "f219dea29ae446c75dd89a77043f3e6461d9c57ff05999f32e74b018c084a5f2",
    ),
    "cor26": (
        "ce21d11195318fa687e4b8c69ee7a89c66a87f1a238eed7374f399954880f310",
        "7a6f7270d1bd13e3f110758c1b94130942a4b1ff54293b277179458cfadbe7bb",
    ),
    "ex27": (
        "7327ebcf4f7607319e40ce5a4061c7970e3093df148f83f11571a7bd95d3c8a2",
        "7327ebcf4f7607319e40ce5a4061c7970e3093df148f83f11571a7bd95d3c8a2",
    ),
    "note52": (
        "ed8627ab0476bfa8b47b4a4774b52c1988e079db03502e7a4210a2c9f0865254",
        "f9cab8caf4f677360204481337c35be4d790fc190984ed976d4ecfafb6a1871a",
    ),
    "prop21": (
        "4733db77ad87ab2a7560047811f56960ab1d0a80f58419790c84c4f12d7e8dcb",
        "8a569771a3eeb985b013e8c099cc1bbe1e54bc09444a1bddaf3a95a10e892eee",
    ),
    "sec3-min-dim": (
        "ce73657656adc5175a6e7a4d30d1f709b1c195e51351ee88733d916ee9d52560",
        "ce73657656adc5175a6e7a4d30d1f709b1c195e51351ee88733d916ee9d52560",
    ),
    "sec4-restriction": (
        "422a74c4fbabd6a13531403977147d1c63d9ca772197841dc9faddf4730e70a6",
        "14d78ef7d9ac10a487e414b71abe9f96855cdcc3c4ce57b6e4309c6408c6717d",
    ),
    "thm22": (
        "43f547d7f95dcc20cc91c2bc420c4bd82e30506f29ad2537fac5aef30b58f212",
        "cb0c0048ac12b1f52fdbf669500a3c2b7c55a3ed2b193a3f42a65cc6bdafaef9",
    ),
    "thm51": (
        "db0a45da6dd38fc1090259c84f8e88315ef1bb7b3c73f6162af01fbe06f47b1a",
        "be961ebf4da0d4d24e4729f5fa1306cf8d1bc11b0bc529f38457714a956e7dbc",
    ),
}


@pytest.mark.parametrize("name", sorted(BUILT_CASE_DIGESTS))
def test_built_cases_are_pinned(name):
    for seed, want in zip((0, 7), BUILT_CASE_DIGESTS[name]):
        outcomes = run_suite(name, seed=seed).outcomes
        doc = json.dumps([[o.case, o.inputs] for o in outcomes])
        assert hashlib.sha256(doc.encode()).hexdigest() == want, (name, seed)


def test_readme_suite_table_lists_exactly_the_suites():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8")
    table = text.split("| name | checks |", 1)[1].split("\n\n", 1)[0]
    names = re.findall(r"^\| `([^`]+)` \|", table, flags=re.MULTILINE)
    assert sorted(names) == suite_names()
