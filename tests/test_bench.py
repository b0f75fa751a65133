"""Tests for the bench workload's report, leaderboard, gate and sharding.

Marked ``bench``: these run the bench workload end to end (the pipeline
CI's bench-smoke job gates on) at small shapes, so they assert structure and
gate logic, never a wall-clock floor.  CI's ``repro bench --quick --check
benchmarks/baseline.json`` step gates the committed floors at their real
shapes.  Run them alone with ``pytest -m bench``.
"""

from __future__ import annotations

import json

import pytest

from repro.workloads import BenchRecord, check_baseline, run_workload
from repro.workloads.bench import BENCH_SCHEMA, bench_scenarios

pytestmark = pytest.mark.bench

#: Every scenario at a small shape: the engine legs, the instance block and
#: the generator shrink too.
_QUICK = dict(
    trials=4, samples=32, seed=0, engine_trials=2, engine_samples=8,
    scale_n=300, instance_count=2, instance_n=16, instance_trials=1,
)


@pytest.fixture(scope="module")
def quick_report(tmp_path_factory):
    """One quick bench run shared by the checks below."""
    out = tmp_path_factory.mktemp("bench") / "bench.json"
    report = run_workload("bench", save=str(out), **_QUICK)
    return report, out


def test_bench_report_schema(quick_report):
    report, out = quick_report
    assert report.metadata["schema"] == BENCH_SCHEMA
    scenarios = {record.scenario for record in report.records}
    assert scenarios == {s for (s,) in bench_scenarios(None)}
    for record in report.records:
        assert isinstance(record, BenchRecord)
        assert record.speedup > 0
        assert record.wall_seconds > 0 and record.baseline_seconds > 0
        assert record.detail["results_match"] is True
    # The saved artifact is the schema'd JSON CI uploads.
    with open(out, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["experiment"] == "bench"
    assert payload["config"]["metadata"]["schema"] == BENCH_SCHEMA
    assert all(r["__type__"] == "BenchRecord" for r in payload["results"])


def test_engine_scenarios_time_both_lif_gw_readouts(quick_report):
    report, _ = quick_report
    readouts = {
        record.scenario: record.detail["readout"]
        for record in report.records if record.scenario.startswith("engine:")
    }
    assert readouts == {
        "engine:lif_gw": "membrane",
        "engine:lif_gw:spike": "spike",
        "engine:lif_tr": "plasticity",
    }


def test_bench_leaderboard_is_speedup_ranked(quick_report):
    report, _ = quick_report
    scores = [row["score"] for row in report.leaderboard]
    assert scores == sorted(scores, reverse=True)
    assert {row["solver"] for row in report.leaderboard} == {
        record.scenario for record in report.records
    }


def test_baseline_gate_catches_regression_and_omission(quick_report):
    report, _ = quick_report
    strict = {"min_speedup": {"engine:lif_gw": 1e9}}
    assert any("below the baseline floor" in f
               for f in check_baseline(report, strict))
    missing = {"min_speedup": {"engine:does_not_exist": 0.1}}
    assert any("missing from bench report" in f
               for f in check_baseline(report, missing))


def test_sharded_bench_merges_identical_scenarios():
    """The bench workload itself shards: same scenario set, valid timings."""
    report = run_workload("bench", shards=3, **_QUICK)
    assert [r.scenario for r in report.records] == [
        s for (s,) in bench_scenarios(None)
    ]
    assert report.metadata["distrib"]["n_shards"] == 3
    assert all(r.speedup > 0 for r in report.records)
