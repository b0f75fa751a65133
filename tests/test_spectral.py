"""Tests for repro.spectral: eigensolver dispatch and the Trevisan algorithm."""

import numpy as np
import pytest

from repro.cuts.exact import exact_maxcut_value
from repro.graphs.generators import complete_bipartite, cycle_graph, erdos_renyi
from repro.spectral.trevisan import (
    minimum_eigenvector,
    trevisan_simple_spectral,
    trevisan_sweep_cut,
)
from repro.utils.validation import ValidationError


class TestMinimumEigenvector:
    @pytest.mark.parametrize("method", ["dense", "arpack"])
    def test_methods_agree(self, method):
        g = erdos_renyi(30, 0.3, seed=13)
        dense_val, _ = minimum_eigenvector(g, method="dense")
        val, vec = minimum_eigenvector(g, method=method, seed=14)
        assert val == pytest.approx(dense_val, abs=1e-6)
        # residual check against the normalized adjacency
        N = g.normalized_adjacency()
        assert np.linalg.norm(N @ vec - val * vec) < 1e-5

    def test_invalid_method_raises(self, triangle):
        with pytest.raises(ValidationError):
            minimum_eigenvector(triangle, method="magic")
        with pytest.raises(ValidationError):
            minimum_eigenvector(triangle, method="lanczos")

    def test_empty_graph(self):
        from repro.graphs.graph import Graph

        value, vector = minimum_eigenvector(Graph(0))
        assert value == 0.0 and vector.size == 0


class TestTrevisanAlgorithm:
    def test_bipartite_graph_exact(self, small_bipartite):
        result = trevisan_simple_spectral(small_bipartite)
        assert result.cut.weight == small_bipartite.total_weight
        # minimum eigenvalue of the normalized adjacency of a bipartite graph is -1
        assert result.eigenvalue == pytest.approx(-1.0, abs=1e-8)

    def test_even_cycle_exact(self, square_cycle):
        assert trevisan_simple_spectral(square_cycle).cut.weight == 4.0

    def test_beats_half_total_weight(self):
        g = erdos_renyi(40, 0.3, seed=15)
        cut = trevisan_simple_spectral(g).cut
        assert cut.weight >= 0.5 * g.total_weight * 0.9

    def test_below_optimum_on_small_graph(self, small_er_graph):
        cut = trevisan_simple_spectral(small_er_graph).cut
        assert cut.weight <= exact_maxcut_value(small_er_graph) + 1e-9

    def test_sweep_cut_at_least_simple(self):
        for seed in (1, 2, 3):
            g = erdos_renyi(30, 0.3, seed=seed)
            simple = trevisan_simple_spectral(g).cut.weight
            sweep = trevisan_sweep_cut(g).cut.weight
            assert sweep >= simple - 1e-9

    def test_empty_graph(self):
        from repro.graphs.graph import Graph

        result = trevisan_simple_spectral(Graph(0))
        assert result.cut.weight == 0.0
