"""Benchmark: an end-to-end solver arena run with engine routing.

The arena's promise is that batchable circuits ride the trial-parallel
engine for free.  This benchmark times one 3-solver comparison end to end
and prints its leaderboard, so the engine's contribution to comparison wall
time is visible next to the timing numbers.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import sample_budget
from repro.experiments.reporting import format_arena_leaderboard
from repro.graphs.generators import erdos_renyi
from repro.workloads import arena_result_from_report, run_workload

SOLVERS = ("lif_tr", "random", "trevisan")


@pytest.fixture(scope="module")
def arena_graphs():
    return [
        erdos_renyi(80, 0.25, seed=21, name="arena_er80"),
        erdos_renyi(120, 0.15, seed=22, name="arena_er120"),
    ]


@pytest.mark.slow
def test_bench_arena_routing(benchmark, arena_graphs):
    """Time a full arena run; the batchable circuit takes the engine."""
    report = benchmark.pedantic(
        run_workload,
        args=("arena",),
        kwargs={"solvers": SOLVERS, "suite": arena_graphs, "trials": 8,
                "samples": sample_budget(128, 1024), "seed": 17},
        iterations=1, rounds=1,
    )
    result = arena_result_from_report(report)

    entries = {e.solver: e for e in result.entries_for_graph("arena_er80")}
    assert entries["lif_tr"].used_engine
    assert not entries["random"].used_engine
    print("\n" + format_arena_leaderboard(result))
