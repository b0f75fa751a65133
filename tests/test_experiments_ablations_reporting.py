"""Tests for the ablation studies and report formatting."""

import numpy as np
import pytest

from repro.experiments.ablations import (
    DEVICE_MODELS,
    run_device_imperfection_ablation,
    run_learning_rate_ablation,
    run_rank_ablation,
)
from repro.experiments.config import AblationConfig
from repro.experiments.reporting import (
    curves_to_rows,
    format_figure3_report,
    format_figure4_report,
    format_table,
    format_table1_report,
)
from repro.experiments.table1 import Table1Row
from repro.utils.validation import ValidationError

FAST_ABLATION = AblationConfig(n_vertices=20, edge_probability=0.3, n_graphs=2, n_samples=48, seed=0)


class TestDeviceImperfectionAblation:
    def test_runs_for_subset_of_models(self):
        models = {k: DEVICE_MODELS[k] for k in ("fair", "biased_0.6")}
        points = run_device_imperfection_ablation(
            config=FAST_ABLATION, circuit="lif_gw", device_models=models
        )
        assert [p.setting for p in points] == ["fair", "biased_0.6"]
        for p in points:
            assert p.per_graph.shape == (2,)
            assert 0 < p.mean_relative_cut < 1.5

    def test_lif_tr_variant(self):
        models = {"fair": DEVICE_MODELS["fair"]}
        points = run_device_imperfection_ablation(
            config=FAST_ABLATION, circuit="lif_tr", device_models=models
        )
        assert points[0].metadata["circuit"] == "lif_tr"

    def test_invalid_circuit(self):
        with pytest.raises(ValueError):
            run_device_imperfection_ablation(config=FAST_ABLATION, circuit="lif_xyz")

    def test_default_model_registry_complete(self):
        assert "fair" in DEVICE_MODELS
        assert any(k.startswith("biased") for k in DEVICE_MODELS)
        assert any(k.startswith("correlated") for k in DEVICE_MODELS)


class TestRankAblation:
    def test_rank_sweep(self):
        points = run_rank_ablation(config=FAST_ABLATION, ranks=(2, 4))
        assert [p.metadata["rank"] for p in points] == [2, 4]
        for p in points:
            assert p.mean_relative_cut > 0.5


class TestLearningRateAblation:
    def test_learning_rate_sweep(self):
        points = run_learning_rate_ablation(config=FAST_ABLATION, learning_rates=(0.005, 0.05))
        assert len(points) == 2
        for p in points:
            assert p.mean_relative_cut > 0.3
            assert "learning_rate" in p.metadata


class TestFormatTable:
    def test_basic(self):
        text = format_table(["a", "b"], [[1, 2.5], ["x", 3.25]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0] and "b" in lines[0]
        assert "2.500" in lines[2]

    def test_row_length_mismatch(self):
        with pytest.raises(ValidationError):
            format_table(["a", "b"], [[1]])

    def test_empty_rows(self):
        text = format_table(["col"], [])
        assert "col" in text

    def test_curves_to_rows(self):
        rows = curves_to_rows(np.array([1, 10]), {"m1": np.array([0.5, 0.9])})
        assert rows == [[1, 0.5], [10, 0.9]]


class TestReportFormatting:
    def test_table1_report(self):
        row = Table1Row(
            graph_name="toy", n_vertices=5, n_edges=6,
            measured={"lif_gw": 5.0, "lif_tr": 4.0, "solver": 5.0, "random": 3.0},
            paper={"lif_gw": 5, "lif_tr": 5, "solver": 5, "random": 4, "reference": 5},
            is_surrogate=True,
        )
        report = format_table1_report([row])
        assert "toy" in report
        assert "yes" in report

    def test_figure_reports_contain_titles(self):
        from repro.circuits.config import LIFGWConfig, LIFTrevisanConfig
        from repro.experiments.config import Figure3Config, Figure4Config
        from repro.experiments.figure3 import (
            figure3_cell_from_graph_results,
            run_figure3_graph,
        )
        from repro.experiments.figure4 import run_figure4_panel
        from repro.graphs.generators import erdos_renyi

        fast_gw = LIFGWConfig(burn_in_steps=10, sample_interval=2, sdp_max_iterations=200)
        fast_tr = LIFTrevisanConfig(burn_in_steps=10, sample_interval=2)
        config3 = Figure3Config(
            sizes=(12,), probabilities=(0.4,), n_graphs_per_cell=1,
            n_samples=16, n_solver_samples=8, seed=0, lif_gw=fast_gw, lif_tr=fast_tr,
        )
        cell = figure3_cell_from_graph_results(
            12, 0.4, [run_figure3_graph(12, 0.4, 0, config=config3)], config=config3
        )
        report3 = format_figure3_report([cell])
        assert "G(n=12" in report3

        panel = run_figure4_panel(
            erdos_renyi(12, 0.4, seed=1, name="tiny"),
            config=Figure4Config(
                n_samples=16, n_solver_samples=8, seed=1, lif_gw=fast_gw, lif_tr=fast_tr
            ),
        )
        report4 = format_figure4_report([panel])
        assert "tiny" in report4
