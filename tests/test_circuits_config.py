"""Tests for the circuit configuration dataclasses and a circuit's one-trial result."""

import numpy as np
import pytest

from repro.analysis.convergence import running_best
from repro.circuits.config import LIFGWConfig, LIFTrevisanConfig
from repro.circuits.lif_gw import LIFGWCircuit
from repro.cuts.cut import Cut
from repro.engine import SolveRequest, solve
from repro.neurons.lif import LIFParameters
from repro.utils.validation import ValidationError

#: A fast LIF-GW configuration (short burn-in and sample interval).
FAST_GW = LIFGWConfig(burn_in_steps=25, sample_interval=4)


def _circuit(graph):
    return LIFGWCircuit(graph, config=FAST_GW, seed=11)


class TestLIFGWConfig:
    def test_defaults(self):
        config = LIFGWConfig()
        assert config.rank == 4  # the paper's fixed rank
        assert config.readout in ("membrane", "spike")

    def test_invalid_rank(self):
        with pytest.raises(ValidationError):
            LIFGWConfig(rank=0)

    def test_invalid_weight_scale(self):
        with pytest.raises(ValidationError):
            LIFGWConfig(weight_scale=0.0)

    def test_invalid_sample_interval(self):
        with pytest.raises(ValidationError):
            LIFGWConfig(sample_interval=0)

    def test_invalid_burn_in(self):
        with pytest.raises(ValidationError):
            LIFGWConfig(burn_in_steps=-1)

    def test_invalid_readout(self):
        with pytest.raises(ValidationError):
            LIFGWConfig(readout="voltage")

    def test_invalid_sdp_tolerance(self):
        with pytest.raises(ValidationError):
            LIFGWConfig(sdp_tolerance=0.0)

    def test_custom_lif_params(self):
        config = LIFGWConfig(lif=LIFParameters(resistance=5.0))
        assert config.lif.resistance == 5.0

    def test_frozen(self):
        config = LIFGWConfig()
        with pytest.raises(AttributeError):
            config.rank = 8  # type: ignore[misc]


class TestLIFTrevisanConfig:
    def test_defaults(self):
        config = LIFTrevisanConfig()
        assert config.learning_rate > 0

    def test_invalid_learning_rate(self):
        with pytest.raises(ValidationError):
            LIFTrevisanConfig(learning_rate=0.0)

    def test_invalid_decay(self):
        with pytest.raises(ValidationError):
            LIFTrevisanConfig(learning_rate_decay=-0.5)

    def test_invalid_sample_interval(self):
        with pytest.raises(ValidationError):
            LIFTrevisanConfig(sample_interval=0)

    def test_invalid_weight_scale(self):
        with pytest.raises(ValidationError):
            LIFTrevisanConfig(weight_scale=-1.0)


class TestSampleTrajectory:
    """The read-out trajectory of ``sample_cuts``: ``trajectories[0]``."""

    def test_running_best(self, small_er_graph):
        result = _circuit(small_er_graph).sample_cuts(12, seed=3)
        trajectory = result.trajectories[0]
        assert trajectory.shape == (result.n_samples,) == (12,)
        best = running_best(trajectory)
        assert np.all(np.diff(best) >= 0)
        assert best[-1] == result.best_weight

    def test_best_at(self, small_er_graph):
        trajectory = _circuit(small_er_graph).sample_cuts(12, seed=3).trajectories[0]
        counts = np.array([1, 2, 5, 12])
        np.testing.assert_array_equal(
            running_best(trajectory)[counts - 1], [trajectory[:k].max() for k in counts]
        )

    def test_empty(self, small_er_graph):
        result = solve(SolveRequest(circuit=_circuit(small_er_graph), n_trials=0, n_samples=8))
        assert result.trajectories.shape == (0, 0)
        assert result.best_weight == 0.0
        assert running_best(np.zeros(0)).shape == (0,)


class TestCircuitResult:
    def test_best_weight_property(self, triangle):
        result = _circuit(triangle).sample_cuts(6, seed=0)
        assert result.best_weight == 2.0  # K3's maximum cut
        assert result.best_weight == result.best_cut.weight
        assert result.best_weight == result.trial_best_weights[0]
        assert result.best_weight == result.trajectories[0].max()
        cut = Cut.from_assignment(triangle, result.best_cut.assignment)
        assert cut.weight == result.best_weight
