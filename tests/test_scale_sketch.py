"""Tests for randomized sketching and the sparse sweep (repro.scale.sketch)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cuts.cut import cut_weight
from repro.graphs.generators import erdos_renyi
from repro.scale.generators import scale_barabasi_albert
from repro.scale.sketch import sketched_minimum_eigenpair, sweep_cut_from_scores
from repro.spectral.trevisan import minimum_eigenvector, trevisan_sweep_cut
from repro.utils.validation import ValidationError


class TestSketchedMinimumEigenpair:
    def test_exact_regime_matches_dense(self):
        graph = scale_barabasi_albert(80, 3, seed=1)
        value_d, vector_d = minimum_eigenvector(graph, method="dense")
        value_s, vector_s = sketched_minimum_eigenpair(
            graph, rank=80, oversample=0, n_power_iterations=8, seed=2
        )
        cosine = abs(float(vector_d @ vector_s))
        assert value_s == pytest.approx(value_d, abs=1e-8)
        assert cosine > 0.999

    def test_sketch_regime_ritz_value_close(self):
        graph = erdos_renyi(300, 0.05, seed=4)
        value_d, _ = minimum_eigenvector(graph, method="dense")
        value_s, vector_s = sketched_minimum_eigenpair(
            graph, rank=16, n_power_iterations=20, seed=0
        )
        # Rayleigh-Ritz upper-bounds the true minimum eigenvalue.
        assert value_s >= value_d - 1e-10
        assert value_s == pytest.approx(value_d, abs=0.02)
        assert np.linalg.norm(vector_s) == pytest.approx(1.0, abs=1e-9)

    def test_zero_edge_and_empty_graph_conventions(self):
        from repro.graphs.graph import Graph

        value, vector = sketched_minimum_eigenpair(Graph(5))
        assert value == 0.0
        assert vector.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]
        value, vector = sketched_minimum_eigenpair(Graph(0))
        assert value == 0.0 and vector.shape == (0,)

    def test_deterministic_in_seed(self):
        graph = scale_barabasi_albert(200, 3, seed=7)
        a = sketched_minimum_eigenpair(graph, seed=5)
        b = sketched_minimum_eigenpair(graph, seed=5)
        assert a[0] == b[0]
        assert np.array_equal(a[1], b[1])


class TestSweepCutFromScores:
    def test_matches_dense_batched_sweep(self):
        graph = erdos_renyi(60, 0.2, seed=3)
        _, vector = minimum_eigenvector(graph, method="dense")
        dense_result = trevisan_sweep_cut(graph, method="dense")
        sparse_cut = sweep_cut_from_scores(graph, vector)
        assert sparse_cut.weight == pytest.approx(dense_result.cut.weight)

    def test_weight_consistent_with_assignment(self):
        graph = scale_barabasi_albert(150, 2, seed=0)
        scores = np.random.default_rng(0).standard_normal(graph.n_vertices)
        cut = sweep_cut_from_scores(graph, scores)
        assert cut.weight == pytest.approx(cut_weight(graph, cut.assignment))

    def test_rejects_wrong_length_scores(self):
        graph = erdos_renyi(10, 0.3, seed=0)
        with pytest.raises(ValidationError):
            sweep_cut_from_scores(graph, np.zeros(9))


class TestSketchedTrevisanQuality:
    def test_quality_within_pinned_tolerance_of_exact(self):
        # The acceptance bound: on <= 2k-vertex graphs the sketched sweep
        # cut stays within 10% of the exact spectral sweep cut, and neither
        # path builds the dense adjacency.
        for n, m, seed in ((1500, 3, 0), (1500, 3, 1), (1024, 4, 0)):
            graph = scale_barabasi_albert(n, m, seed=seed)
            exact = trevisan_sweep_cut(graph, method="arpack")
            sketched = trevisan_sweep_cut(graph, method="sketch", seed=seed)
            assert sketched.cut.weight >= 0.9 * exact.cut.weight
            assert graph._adjacency is None
