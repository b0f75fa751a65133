"""End-to-end integration tests crossing module boundaries.

These validate the paper's qualitative claims on small instances where exact
maximum cuts are available:

* LIF-GW tracks the software Goemans-Williamson solver,
* LIF-TR improves with samples and lands between random and the solver,
* the membrane-covariance motif really does reproduce the SDP Gram matrix,
* the whole pipeline is deterministic given seeds.
"""

import numpy as np
import pytest

from repro.algorithms.goemans_williamson import goemans_williamson
from repro.algorithms.random_baseline import random_baseline
from repro.analysis.convergence import running_best
from repro.circuits.config import LIFGWConfig, LIFTrevisanConfig
from repro.circuits.lif_gw import LIFGWCircuit
from repro.circuits.lif_trevisan import LIFTrevisanCircuit
from repro.cuts.exact import exact_maxcut_value
from repro.devices.bernoulli import FairCoinPool
from repro.graphs.generators import erdos_renyi, planted_partition
from repro.graphs.repository import load_empirical_graph
from repro.neurons.covariance import empirical_covariance, theoretical_membrane_covariance
from repro.neurons.lif import LIFParameters
from repro.sdp.burer_monteiro import solve_maxcut_sdp
from repro.spectral.trevisan import trevisan_simple_spectral


class TestCircuitVsClassicalOrdering:
    """The headline ordering of the paper's figures on a small fixed graph."""

    @pytest.fixture(scope="class")
    def results(self):
        graph = erdos_renyi(22, 0.4, seed=101)
        opt = exact_maxcut_value(graph)
        solver = goemans_williamson(graph, n_samples=300, seed=1)
        lif_gw = LIFGWCircuit(graph, seed=2).sample_cuts(600, seed=3)
        lif_tr = LIFTrevisanCircuit(graph).sample_cuts(800, seed=4)
        random_best, random_weights = random_baseline(graph, 600, seed=5)
        return {
            "graph": graph,
            "opt": opt,
            "solver": solver,
            "lif_gw": lif_gw,
            "lif_tr": lif_tr,
            "random_best": random_best,
            "random_weights": random_weights,
        }

    def test_everything_below_optimum(self, results):
        for key in ("lif_gw", "lif_tr"):
            assert results[key].best_weight <= results["opt"] + 1e-9
        assert results["solver"].best_weight <= results["opt"] + 1e-9

    def test_lif_gw_matches_solver(self, results):
        assert results["lif_gw"].best_weight >= 0.95 * results["solver"].best_weight

    def test_lif_tr_beats_mean_random(self, results):
        assert results["lif_tr"].best_weight > results["random_weights"].mean()

    def test_solver_close_to_optimum(self, results):
        assert results["solver"].best_weight >= 0.878 * results["opt"]

    def test_circuits_beat_random_expectation_half(self, results):
        half = results["graph"].total_weight / 2.0
        assert results["lif_gw"].best_weight > half
        assert results["lif_tr"].best_weight > half


class TestCovarianceMotif:
    """Paper §III.C: the LIF population turns device randomness into membranes
    whose covariance is proportional to the Gram matrix of the weights."""

    def test_membrane_covariance_proportional_to_gram(self, subthreshold_membranes):
        graph = erdos_renyi(10, 0.5, seed=7)
        sdp = solve_maxcut_sdp(graph, rank=4, seed=8)
        W = sdp.vectors
        states = FairCoinPool(4, seed=9).sample(60000)
        membranes = subthreshold_membranes(W, states, burn_in=2000)
        empirical = empirical_covariance(membranes)
        theoretical = theoretical_membrane_covariance(W)
        # The correlations are those of (R/C) W Sigma W^T ...
        d_emp = np.sqrt(np.diag(empirical))
        d_theory = np.sqrt(np.diag(theoretical))
        corr_emp = empirical / np.outer(d_emp, d_emp)
        corr_theory = theoretical / np.outer(d_theory, d_theory)
        assert np.max(np.abs(corr_emp - corr_theory)) < 0.15
        # ... and the scale is the forward-Euler AR(1) gain: V <- leak V + gain I
        # has stationary variance gain^2 / (1 - leak^2) per unit input variance.
        params = LIFParameters()
        leak, gain = params.leak_factor, params.dt / params.capacitance
        expected = gain**2 / (1.0 - leak**2) / (params.resistance / params.capacitance)
        assert np.trace(empirical) / np.trace(theoretical) == pytest.approx(expected, rel=0.15)

    def test_gw_rounding_from_membranes_matches_direct_rounding(self):
        """Cuts sampled by the circuit have statistics close to software rounding."""
        graph = erdos_renyi(20, 0.4, seed=10)
        sdp = solve_maxcut_sdp(graph, rank=4, seed=11)
        circuit = LIFGWCircuit(graph, sdp_result=sdp, seed=12)
        sampled = circuit.sample_cuts(800, seed=13)
        software = goemans_williamson(graph, n_samples=800, seed=14, rank=4, sdp_result=sdp)
        circuit_mean = sampled.trajectories[0].mean()
        software_mean = software.sample_weights.mean()
        assert abs(circuit_mean - software_mean) < 0.1 * software_mean


class TestTrevisanCircuitConvergence:
    def test_learning_improves_relative_cut(self):
        """The LIF-TR running best should rise appreciably from its first samples
        toward the software spectral value (the Figure 3 orange curve shape)."""
        graph = erdos_renyi(50, 0.2, seed=15)
        result = LIFTrevisanCircuit(graph).sample_cuts(600, seed=16)
        running = running_best(result.trajectories[0])
        software = trevisan_simple_spectral(graph).cut.weight
        assert running[-1] >= running[4]
        assert running[-1] >= 0.85 * software

    def test_planted_partition_recovered_approximately(self):
        """On a graph with a strong planted bisection the circuit should find
        most of the planted cut."""
        graph = planted_partition(30, 0.05, 0.9, seed=17)
        planted_cut = sum(
            1 for (u, v) in graph.edges if (u < 15) != (v < 15)
        )
        # LIF-TR converges slowly (the paper's central observation); 2000
        # samples are enough for this 30-vertex near-bipartite instance.
        result = LIFTrevisanCircuit(graph).sample_cuts(2000, seed=18)
        assert result.best_weight >= 0.9 * planted_cut


class TestEmpiricalGraphPipeline:
    def test_hamming6_2_runs_through_both_circuits(self):
        graph = load_empirical_graph("hamming6-2")
        fast_gw = LIFGWConfig(burn_in_steps=30, sample_interval=3, sdp_max_iterations=500)
        fast_tr = LIFTrevisanConfig(burn_in_steps=30, sample_interval=3)
        gw = LIFGWCircuit(graph, config=fast_gw, seed=19).sample_cuts(100, seed=20)
        tr = LIFTrevisanCircuit(graph, config=fast_tr).sample_cuts(100, seed=21)
        random_best, _ = random_baseline(graph, 100, seed=22)
        # hamming6-2 total weight 1824, published best cut 992
        assert gw.best_weight <= 992
        assert gw.best_weight > 0.9 * random_best.weight
        assert tr.best_weight > 0


class TestDeterminism:
    def test_full_pipeline_reproducible(self):
        graph = erdos_renyi(18, 0.4, seed=23)
        a = LIFGWCircuit(graph, seed=24).sample_cuts(64, seed=25)
        b = LIFGWCircuit(graph, seed=24).sample_cuts(64, seed=25)
        np.testing.assert_array_equal(a.trajectories[0], b.trajectories[0])
        np.testing.assert_array_equal(a.best_cut.assignment, b.best_cut.assignment)

    def test_different_seeds_give_different_samples(self):
        graph = erdos_renyi(18, 0.4, seed=26)
        circuit = LIFGWCircuit(graph, seed=27)
        a = circuit.sample_cuts(64, seed=28).trajectories[0]
        b = circuit.sample_cuts(64, seed=29).trajectories[0]
        assert not np.array_equal(a, b)
