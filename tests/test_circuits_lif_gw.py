"""Tests for the LIF-Goemans-Williamson circuit."""

import numpy as np
import pytest

from repro.circuits.config import LIFGWConfig
from repro.circuits.lif_gw import LIFGWCircuit
from repro.cuts.cut import cut_weight
from repro.cuts.exact import exact_maxcut_value
from repro.cuts.random_cut import random_cuts_batch
from repro.devices.bernoulli import BiasedCoinPool, FairCoinPool
from repro.graphs.generators import complete_bipartite, erdos_renyi
from repro.graphs.graph import Graph
from repro.sdp.burer_monteiro import solve_maxcut_sdp
from repro.utils.validation import ValidationError


class TestConstruction:
    def test_solves_sdp_if_not_given(self, small_er_graph):
        circuit = LIFGWCircuit(small_er_graph, seed=0)
        assert circuit.sdp_result.vectors.shape == (small_er_graph.n_vertices, 4)

    def test_accepts_precomputed_sdp(self, small_er_graph):
        sdp = solve_maxcut_sdp(small_er_graph, rank=4, seed=1)
        circuit = LIFGWCircuit(small_er_graph, sdp_result=sdp)
        assert circuit.sdp_result is sdp

    def test_rejects_mismatched_sdp(self, small_er_graph, triangle):
        sdp = solve_maxcut_sdp(triangle, rank=4, seed=1)
        with pytest.raises(ValidationError):
            LIFGWCircuit(small_er_graph, sdp_result=sdp)

    def test_rejects_empty_graph(self):
        with pytest.raises(ValidationError):
            LIFGWCircuit(Graph(0))

    def test_weights_scaled(self, small_er_graph):
        config = LIFGWConfig(weight_scale=3.0)
        circuit = LIFGWCircuit(small_er_graph, config=config, seed=2)
        np.testing.assert_allclose(circuit.weights, 3.0 * circuit.sdp_result.vectors)

    def test_device_pool_has_rank_devices(self, small_er_graph):
        circuit = LIFGWCircuit(small_er_graph, seed=3)
        pool = circuit.build_device_pool(0)
        assert pool.n_devices == 4

    def test_bad_device_pool_factory_rejected(self, small_er_graph):
        factory = lambda n, rng: FairCoinPool(n + 1, seed=rng)  # noqa: E731
        circuit = LIFGWCircuit(small_er_graph, device_pool_factory=factory, seed=4)
        with pytest.raises(ValidationError):
            circuit.build_device_pool(0)


class TestSampling:
    def test_result_shapes(self, small_er_graph):
        circuit = LIFGWCircuit(small_er_graph, seed=5)
        result = circuit.sample_cuts(64, seed=6)
        assert result.n_samples == 64
        assert result.trajectories[0].shape == (64,)
        assert result.best_cut.n_vertices == small_er_graph.n_vertices

    def test_best_cut_weight_consistent(self, small_er_graph):
        circuit = LIFGWCircuit(small_er_graph, seed=7)
        result = circuit.sample_cuts(32, seed=8)
        assert result.best_weight == pytest.approx(
            cut_weight(small_er_graph, result.best_cut.assignment)
        )
        assert result.best_weight == pytest.approx(result.trajectories[0].max())

    def test_requires_positive_samples(self, small_er_graph):
        circuit = LIFGWCircuit(small_er_graph, seed=9)
        with pytest.raises(ValidationError):
            circuit.sample_cuts(0)

    def test_reproducible(self, small_er_graph):
        circuit = LIFGWCircuit(small_er_graph, seed=10)
        a = circuit.sample_cuts(16, seed=11).trajectories[0]
        b = circuit.sample_cuts(16, seed=11).trajectories[0]
        np.testing.assert_array_equal(a, b)

    def test_metadata(self, small_er_graph):
        circuit = LIFGWCircuit(small_er_graph, seed=12)
        result = circuit.sample_cuts(8, seed=13)
        assert result.metadata["rank"] == 4
        assert result.metadata["n_devices"] == 4
        assert "sdp_objective" in result.metadata

    def test_spike_readout_runs(self, small_er_graph):
        config = LIFGWConfig(readout="spike")
        circuit = LIFGWCircuit(small_er_graph, config=config, seed=14)
        result = circuit.sample_cuts(32, seed=15)
        assert result.n_samples == 32
        assert result.metadata["readout"] == "spike"

    def test_solve_returns_best_cut(self, small_er_graph):
        circuit = LIFGWCircuit(small_er_graph, seed=16)
        cut = circuit.sample_cuts(32, seed=17).best_cut
        assert cut.weight <= exact_maxcut_value(small_er_graph) + 1e-9


class TestSolutionQuality:
    def test_matches_software_solver_quality(self):
        """LIF-GW should track the software GW solver (paper Figure 3 headline)."""
        graph = erdos_renyi(24, 0.4, seed=20)
        opt = exact_maxcut_value(graph)
        circuit = LIFGWCircuit(graph, seed=21)
        result = circuit.sample_cuts(600, seed=22)
        assert result.best_weight >= 0.9 * opt

    def test_beats_mean_random_cut(self, medium_er_graph):
        circuit = LIFGWCircuit(medium_er_graph, seed=23)
        result = circuit.sample_cuts(300, seed=24)
        _, random_weights = random_cuts_batch(medium_er_graph, 300, seed=25)
        assert result.best_weight > random_weights.mean()

    def test_bipartite_graph_near_optimal(self):
        graph = complete_bipartite(6, 6)
        circuit = LIFGWCircuit(graph, seed=26)
        result = circuit.sample_cuts(200, seed=27)
        assert result.best_weight >= 0.9 * graph.total_weight

    def test_weight_scale_invariance(self, small_er_graph):
        """The paper: only weight ratios matter, not magnitudes."""
        sdp = solve_maxcut_sdp(small_er_graph, rank=4, seed=28)
        a = LIFGWCircuit(small_er_graph, config=LIFGWConfig(weight_scale=1.0), sdp_result=sdp)
        b = LIFGWCircuit(small_er_graph, config=LIFGWConfig(weight_scale=50.0), sdp_result=sdp)
        ra = a.sample_cuts(400, seed=29)
        rb = b.sample_cuts(400, seed=29)
        # identical seeds and scaled weights give identical membrane-sign cuts
        np.testing.assert_array_equal(ra.trajectories[0], rb.trajectories[0])

    def test_biased_devices_still_work_reasonably(self, medium_er_graph):
        """Mild device bias should not destroy the circuit (Discussion robustness claim)."""
        factory = lambda n, rng: BiasedCoinPool(0.6, n_devices=n, seed=rng)  # noqa: E731
        fair = LIFGWCircuit(medium_er_graph, seed=30).sample_cuts(300, seed=31).best_weight
        biased = LIFGWCircuit(
            medium_er_graph, device_pool_factory=factory, seed=30
        ).sample_cuts(300, seed=31).best_weight
        assert biased >= 0.85 * fair
