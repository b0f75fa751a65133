"""Benchmark E1 — regenerate Figure 3 (Erdős–Rényi convergence sweep).

The paper's full grid is n in {50, 100, 200, 350, 500} x p in {0.1, 0.25,
0.5, 0.75}, 10 graphs per cell, 2^20 samples.  The default benchmark runs a
representative subset of cells at a reduced budget so it finishes in minutes;
``REPRO_FULL_BENCH=1`` enables the full grid parameters.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import FULL, sample_budget
from repro.experiments.config import Figure3Config
from repro.experiments.figure3 import (
    figure3_cell_from_graph_results,
    run_figure3_graph,
)
from repro.experiments.reporting import format_figure3_report

# Representative corner cells of the paper's grid (smallest/densest tradeoffs).
REDUCED_CELLS = [(50, 0.1), (50, 0.5), (100, 0.25)]
FULL_CELLS = [(n, p) for n in (50, 100, 200, 350, 500) for p in (0.1, 0.25, 0.5, 0.75)]

CELLS = FULL_CELLS if FULL else REDUCED_CELLS


def _config(fast_gw_config, fast_tr_config) -> Figure3Config:
    return Figure3Config(
        sizes=tuple(sorted({n for n, _ in CELLS})),
        probabilities=tuple(sorted({p for _, p in CELLS})),
        n_graphs_per_cell=10 if FULL else 3,
        n_samples=sample_budget(256, 4096),
        n_solver_samples=sample_budget(64, 256),
        seed=0,
        lif_gw=fast_gw_config,
        lif_tr=fast_tr_config,
    )


def _run_cell(n_vertices: int, probability: float, config: Figure3Config):
    """One (n, p) panel: the cell's graph units, aggregated in graph order."""
    results = [
        run_figure3_graph(n_vertices, probability, j, config=config)
        for j in range(config.n_graphs_per_cell)
    ]
    return figure3_cell_from_graph_results(
        n_vertices, probability, results, config=config
    )


@pytest.mark.parametrize("n_vertices,probability", CELLS)
def test_bench_figure3_cell(
    benchmark, n_vertices, probability, fast_gw_config, fast_tr_config
):
    """Time one (n, p) panel of Figure 3 and print its convergence table."""
    config = _config(fast_gw_config, fast_tr_config)

    cell = benchmark.pedantic(
        _run_cell,
        args=(n_vertices, probability, config),
        iterations=1,
        rounds=1,
    )

    report = format_figure3_report([cell])
    print("\n" + report)

    # Shape assertions mirroring the paper's qualitative claims:
    final = {m: cell.curves[m][-1] for m in cell.curves}
    # LIF-GW overlaps the solver curve.
    assert final["lif_gw"] >= 0.9
    # Random never beats the solver.
    assert final["random"] <= 1.02
    # LIF-TR improves over its own early samples.
    assert cell.curves["lif_tr"][-1] >= cell.curves["lif_tr"][0] - 1e-9
