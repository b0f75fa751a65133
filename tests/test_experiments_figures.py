"""Tests for the Figure 3 / Figure 4 / Table I experiment harness.

These use drastically reduced sample budgets so the whole module runs in a
few tens of seconds; the benchmarks exercise larger budgets.
"""

import numpy as np
import pytest

from repro.circuits.config import LIFGWConfig, LIFTrevisanConfig
from repro.experiments.config import Figure3Config, Figure4Config, Table1Config
from repro.experiments.figure3 import (
    METHODS,
    figure3_cell_from_graph_results,
    run_figure3_graph,
)
from repro.experiments.figure4 import run_figure4_panel
from repro.experiments.table1 import run_table1_row
from repro.graphs.generators import erdos_renyi
from repro.workloads import run_workload


FAST_GW = LIFGWConfig(burn_in_steps=20, sample_interval=3, sdp_max_iterations=300)
FAST_TR = LIFTrevisanConfig(burn_in_steps=20, sample_interval=3)


def _figure3_cell(n, p, config):
    """One (n, p) panel from its per-graph unit bodies, in graph order."""
    results = [
        run_figure3_graph(n, p, j, config=config)
        for j in range(config.n_graphs_per_cell)
    ]
    return figure3_cell_from_graph_results(n, p, results, config=config)


@pytest.fixture(scope="module")
def figure3_cell():
    config = Figure3Config(
        sizes=(20,),
        probabilities=(0.3,),
        n_graphs_per_cell=2,
        n_samples=64,
        n_solver_samples=32,
        seed=1,
        lif_gw=FAST_GW,
        lif_tr=FAST_TR,
    )
    return _figure3_cell(20, 0.3, config)


class TestFigure3:
    def test_cell_structure(self, figure3_cell):
        cell = figure3_cell
        assert set(cell.curves.keys()) == set(METHODS)
        for method in METHODS:
            assert cell.curves[method].shape == cell.sample_counts.shape
            assert cell.sems[method].shape == cell.sample_counts.shape
        assert cell.solver_best_weights.shape == (2,)

    def test_curves_monotone_nondecreasing(self, figure3_cell):
        for method in METHODS:
            values = figure3_cell.curves[method]
            assert np.all(np.diff(values) >= -1e-9)

    def test_solver_curve_reaches_one(self, figure3_cell):
        # by construction the solver's final relative value is 1.0
        assert figure3_cell.curves["solver"][-1] == pytest.approx(1.0)

    def test_lif_gw_tracks_solver(self, figure3_cell):
        assert figure3_cell.curves["lif_gw"][-1] >= 0.85

    def test_random_is_worst_or_tied(self, figure3_cell):
        final = {m: figure3_cell.curves[m][-1] for m in METHODS}
        assert final["random"] <= final["lif_gw"] + 0.05
        assert final["random"] <= final["solver"] + 0.05

    def test_values_relative_and_positive(self, figure3_cell):
        for method in METHODS:
            assert np.all(figure3_cell.curves[method] > 0)
            assert np.all(figure3_cell.curves[method] < 1.5)

    def test_full_grid_runner(self):
        report = run_workload(
            "figure3", sizes=(12, 16), probabilities=(0.4,), trials=1,
            samples=32, seed=2,
        )
        cells = report.records
        assert len(cells) == 2
        assert {c.n_vertices for c in cells} == {12, 16}

    def test_reproducible(self):
        config = Figure3Config(
            sizes=(14,), probabilities=(0.3,), n_graphs_per_cell=1,
            n_samples=32, n_solver_samples=16, seed=3, lif_gw=FAST_GW, lif_tr=FAST_TR,
        )
        a = _figure3_cell(14, 0.3, config)
        b = _figure3_cell(14, 0.3, config)
        for method in METHODS:
            np.testing.assert_allclose(a.curves[method], b.curves[method])


class TestFigure4:
    @pytest.fixture(scope="class")
    def panel(self):
        config = Figure4Config(
            n_samples=64, n_solver_samples=32, seed=4, lif_gw=FAST_GW, lif_tr=FAST_TR
        )
        graph = erdos_renyi(24, 0.3, seed=5, name="toy_panel")
        return run_figure4_panel(graph, config=config)

    def test_panel_structure(self, panel):
        assert set(panel.curves.keys()) == set(METHODS)
        assert panel.graph_name == "toy_panel"
        assert panel.solver_best_weight > 0

    def test_best_weights_ordering(self, panel):
        assert panel.best_weights["solver"] >= panel.best_weights["random"] * 0.95

    def test_panel_by_registry_name(self):
        config = Figure4Config(
            n_samples=32, n_solver_samples=16, seed=6, lif_gw=FAST_GW, lif_tr=FAST_TR
        )
        panel = run_figure4_panel("soc-dolphins", config=config)
        assert panel.graph_name == "soc-dolphins"
        assert panel.n_vertices == 62

    def test_run_figure4_subset(self):
        panels = run_workload(
            "figure4", graphs=("road-chesapeake", "eco-stmarks"), samples=32, seed=7
        ).records
        assert [p.graph_name for p in panels] == ["road-chesapeake", "eco-stmarks"]


class TestTable1:
    @pytest.fixture(scope="class")
    def row(self):
        config = Table1Config(
            n_samples=64, n_solver_samples=32, n_random_samples=64, seed=8,
            lif_gw=FAST_GW, lif_tr=FAST_TR,
        )
        return run_table1_row("soc-dolphins", config=config)

    def test_row_fields(self, row):
        assert row.graph_name == "soc-dolphins"
        assert set(row.measured.keys()) == {"lif_gw", "lif_tr", "solver", "random"}
        assert row.paper["solver"] == 122  # published Table I value
        assert row.is_surrogate

    def test_measured_values_bounded(self, row):
        for value in row.measured.values():
            assert 0 <= value

    def test_solver_beats_or_ties_random(self, row):
        assert row.measured["solver"] >= row.measured["random"] * 0.9

    def test_row_from_graph_object(self):
        config = Table1Config(
            n_samples=32, n_solver_samples=16, n_random_samples=32, seed=9,
            lif_gw=FAST_GW, lif_tr=FAST_TR,
        )
        graph = erdos_renyi(20, 0.3, seed=10, name="custom")
        row = run_table1_row(graph, config=config)
        assert row.graph_name == "custom"
        assert row.paper == {}
        assert not row.is_surrogate

    def test_run_table1_subset(self):
        rows = run_workload(
            "table1", graphs=("road-chesapeake",), samples=32, seed=11
        ).records
        assert len(rows) == 1
        assert rows[0].graph_name == "road-chesapeake"
