"""Tests for repro.spectral: Lanczos, eigensolver dispatch and the Trevisan algorithm."""

import numpy as np
import pytest

from repro.cuts.exact import exact_maxcut_value
from repro.graphs.generators import complete_bipartite, cycle_graph, erdos_renyi
from repro.spectral.lanczos import lanczos_extreme_eigenpair, lanczos_tridiagonalize
from repro.spectral.trevisan import (
    minimum_eigenvector,
    trevisan_simple_spectral,
    trevisan_sweep_cut,
)
from repro.utils.validation import ValidationError


def _random_symmetric(n, rng):
    A = rng.standard_normal((n, n))
    return 0.5 * (A + A.T)


class TestLanczos:
    def test_tridiagonal_similarity(self, rng):
        M = _random_symmetric(15, rng)
        result = lanczos_tridiagonalize(M, n_steps=15, seed=8)
        # full Krylov space: eigenvalues of T match eigenvalues of M
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(result.tridiagonal)),
            np.sort(np.linalg.eigvalsh(M)),
            atol=1e-6,
        )

    def test_basis_orthonormal(self, rng):
        M = _random_symmetric(20, rng)
        result = lanczos_tridiagonalize(M, n_steps=12, seed=9)
        Q = result.basis
        np.testing.assert_allclose(Q.T @ Q, np.eye(Q.shape[1]), atol=1e-8)

    def test_extreme_eigenpair_smallest(self, rng):
        M = _random_symmetric(25, rng)
        value, vector = lanczos_extreme_eigenpair(M, which="smallest", n_steps=25, seed=10)
        assert value == pytest.approx(np.linalg.eigvalsh(M)[0], abs=1e-6)
        residual = np.linalg.norm(M @ vector - value * vector)
        assert residual < 1e-5

    def test_extreme_eigenpair_largest(self, rng):
        M = _random_symmetric(18, rng)
        value, _ = lanczos_extreme_eigenpair(M, which="largest", n_steps=18, seed=11)
        assert value == pytest.approx(np.linalg.eigvalsh(M)[-1], abs=1e-6)

    def test_invalid_which_raises(self):
        with pytest.raises(ValidationError):
            lanczos_extreme_eigenpair(np.eye(3), which="middle")

    def test_early_breakdown_on_identity(self):
        result = lanczos_tridiagonalize(np.eye(6), n_steps=6, seed=12)
        # Krylov space of the identity is 1-dimensional
        assert result.alphas.shape[0] == 1

    def test_empty_matrix(self):
        result = lanczos_tridiagonalize(np.zeros((0, 0)))
        assert result.alphas.size == 0


class TestMinimumEigenvector:
    @pytest.mark.parametrize("method", ["dense", "lanczos", "arpack"])
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
