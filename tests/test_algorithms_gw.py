"""Tests for the software Goemans-Williamson pipeline."""

import numpy as np
import pytest

from repro.algorithms.goemans_williamson import GW_APPROXIMATION_RATIO, goemans_williamson
from repro.analysis.convergence import running_best
from repro.cuts.exact import exact_maxcut_value
from repro.graphs.generators import complete_bipartite, complete_graph, cycle_graph, erdos_renyi
from repro.sdp.burer_monteiro import solve_maxcut_sdp
from repro.utils.validation import ValidationError


class TestGoemansWilliamson:
    def test_result_fields(self, small_er_graph):
        result = goemans_williamson(small_er_graph, n_samples=32, seed=0)
        assert result.sample_weights.shape == (32,)
        assert result.best_weight == pytest.approx(result.sample_weights.max())
        assert result.sdp.objective > 0

    def test_running_best_monotone(self, small_er_graph):
        result = goemans_williamson(small_er_graph, n_samples=64, seed=1)
        running = running_best(result.sample_weights)
        assert np.all(np.diff(running) >= 0)

    def test_best_cut_below_optimum(self, small_er_graph):
        result = goemans_williamson(small_er_graph, n_samples=128, seed=2)
        assert result.best_weight <= exact_maxcut_value(small_er_graph) + 1e-9

    def test_achieves_gw_guarantee_on_small_graphs(self):
        """best cut >= 0.878 * OPT holds comfortably with a few hundred samples."""
        for seed in (3, 4, 5):
            graph = erdos_renyi(18, 0.4, seed=seed)
            if graph.n_edges == 0:
                continue
            opt = exact_maxcut_value(graph)
            result = goemans_williamson(graph, n_samples=200, seed=seed)
            assert result.best_weight >= GW_APPROXIMATION_RATIO * opt - 1e-9

    def test_bipartite_exact(self, small_bipartite):
        result = goemans_williamson(small_bipartite, n_samples=64, seed=6)
        assert result.best_weight == small_bipartite.total_weight

    def test_odd_cycle(self, five_cycle):
        result = goemans_williamson(five_cycle, n_samples=100, seed=7)
        assert result.best_weight == 4.0

    def test_complete_graph(self):
        graph = complete_graph(8)
        result = goemans_williamson(graph, n_samples=200, seed=8)
        assert result.best_weight == 16.0  # floor(8/2)*ceil(8/2)

    def test_precomputed_sdp_used(self, small_er_graph):
        sdp = solve_maxcut_sdp(small_er_graph, rank=6, seed=9)
        result = goemans_williamson(small_er_graph, n_samples=16, seed=10, rank=6, sdp_result=sdp)
        assert result.sdp is sdp

    def test_requires_samples(self, triangle):
        with pytest.raises(ValidationError):
            goemans_williamson(triangle, n_samples=0)

    def test_rejects_empty_graph(self):
        from repro.graphs.graph import Graph

        with pytest.raises(ValidationError):
            goemans_williamson(Graph(0))

    def test_reproducible(self, small_er_graph):
        a = goemans_williamson(small_er_graph, n_samples=16, seed=11).sample_weights
        b = goemans_williamson(small_er_graph, n_samples=16, seed=11).sample_weights
        np.testing.assert_array_equal(a, b)

    def test_sdp_objective_upper_bounds_cuts(self, small_er_graph):
        result = goemans_williamson(small_er_graph, n_samples=64, seed=12)
        assert result.best_weight <= result.sdp.objective + 1e-6
