"""Tests for the LIF-Trevisan circuit."""

import numpy as np
import pytest

from repro.analysis.convergence import running_best
from repro.circuits.config import LIFTrevisanConfig
from repro.circuits.lif_trevisan import LIFTrevisanCircuit
from repro.cuts.cut import cut_weight
from repro.cuts.exact import exact_maxcut_value
from repro.cuts.random_cut import random_cuts_batch
from repro.devices.bernoulli import FairCoinPool
from repro.graphs.generators import complete_bipartite, erdos_renyi
from repro.graphs.graph import Graph
from repro.spectral.trevisan import trevisan_simple_spectral
from repro.utils.validation import ValidationError


class TestConstruction:
    def test_weights_are_trevisan_matrix(self, small_er_graph):
        circuit = LIFTrevisanCircuit(small_er_graph)
        np.testing.assert_allclose(circuit.weights, small_er_graph.trevisan_matrix())

    def test_weight_scale(self, small_er_graph):
        config = LIFTrevisanConfig(weight_scale=2.5)
        circuit = LIFTrevisanCircuit(small_er_graph, config=config)
        np.testing.assert_allclose(circuit.weights, 2.5 * small_er_graph.trevisan_matrix())

    def test_one_device_per_vertex(self, small_er_graph):
        circuit = LIFTrevisanCircuit(small_er_graph)
        assert circuit.build_device_pool(0).n_devices == small_er_graph.n_vertices

    def test_rejects_empty_graph(self):
        with pytest.raises(ValidationError):
            LIFTrevisanCircuit(Graph(0))

    def test_bad_device_pool_rejected(self, small_er_graph):
        factory = lambda n, rng: FairCoinPool(max(1, n - 1), seed=rng)  # noqa: E731
        circuit = LIFTrevisanCircuit(small_er_graph, device_pool_factory=factory)
        with pytest.raises(ValidationError):
            circuit.build_device_pool(0)


class TestSampling:
    def test_result_shapes(self, small_er_graph):
        circuit = LIFTrevisanCircuit(small_er_graph)
        result = circuit.sample_cuts(32, seed=1)
        assert result.n_samples == 32
        assert result.trajectories[0].shape == (32,)

    def test_best_weight_consistent(self, small_er_graph):
        circuit = LIFTrevisanCircuit(small_er_graph)
        result = circuit.sample_cuts(16, seed=2)
        assert result.best_weight == pytest.approx(
            cut_weight(small_er_graph, result.best_cut.assignment)
        )

    def test_requires_positive_samples(self, small_er_graph):
        with pytest.raises(ValidationError):
            LIFTrevisanCircuit(small_er_graph).sample_cuts(0)

    def test_reproducible(self, small_er_graph):
        circuit = LIFTrevisanCircuit(small_er_graph)
        a = circuit.sample_cuts(16, seed=3).trajectories[0]
        b = circuit.sample_cuts(16, seed=3).trajectories[0]
        np.testing.assert_array_equal(a, b)

    def test_metadata_contains_plasticity_state(self, small_er_graph):
        result = LIFTrevisanCircuit(small_er_graph).sample_cuts(8, seed=4)
        weights = result.learner_weights[0]
        assert weights.shape == (small_er_graph.n_vertices,)
        assert result.metadata["n_plasticity_updates"] > 0

    def test_steps_accounting(self, small_er_graph):
        config = LIFTrevisanConfig(burn_in_steps=50, sample_interval=5)
        result = LIFTrevisanCircuit(small_er_graph, config=config).sample_cuts(10, seed=5)
        assert result.n_steps == 50 + 10 * 5


class TestSolutionQuality:
    def test_improves_over_samples(self):
        """The running best should improve as plasticity converges (Figure 3 shape)."""
        graph = erdos_renyi(40, 0.25, seed=10)
        result = LIFTrevisanCircuit(graph).sample_cuts(400, seed=11)
        running = running_best(result.trajectories[0])
        early = running[: 20].max()
        late = running[-1]
        assert late >= early

    def test_beats_mean_random_cut(self):
        graph = erdos_renyi(40, 0.25, seed=12)
        result = LIFTrevisanCircuit(graph).sample_cuts(500, seed=13)
        _, random_weights = random_cuts_batch(graph, 500, seed=14)
        assert result.best_weight > random_weights.mean()

    def test_approaches_software_trevisan(self):
        """With enough samples the circuit approaches the software spectral cut."""
        graph = erdos_renyi(30, 0.3, seed=15)
        software = trevisan_simple_spectral(graph).cut.weight
        result = LIFTrevisanCircuit(graph).sample_cuts(800, seed=16)
        assert result.best_weight >= 0.85 * software

    def test_bipartite_graph_good_cut(self):
        graph = complete_bipartite(7, 7)
        result = LIFTrevisanCircuit(graph).sample_cuts(600, seed=17)
        assert result.best_weight >= 0.8 * graph.total_weight

    def test_small_graph_near_optimum(self):
        graph = erdos_renyi(14, 0.5, seed=18)
        opt = exact_maxcut_value(graph)
        result = LIFTrevisanCircuit(graph).sample_cuts(800, seed=19)
        assert result.best_weight >= 0.8 * opt

    def test_plasticity_vector_tracks_minimum_eigenvector(self):
        """The learned weight vector should align with the Trevisan eigenvector."""
        graph = erdos_renyi(25, 0.35, seed=20)
        result = LIFTrevisanCircuit(graph).sample_cuts(1000, seed=21)
        learned = result.learner_weights[0]
        learned = learned / np.linalg.norm(learned)
        eigenvector = trevisan_simple_spectral(graph).eigenvector
        eigenvector = eigenvector / np.linalg.norm(eigenvector)
        alignment = abs(float(learned @ eigenvector))
        assert alignment > 0.6
