"""Tests for LIF dynamics: the parameters and the engine's batched integrator.

:class:`~repro.engine.simulator.BatchLIFSimulator` is the one implementation
of the LIF membrane dynamics; these tests pin its single-population
behaviour (threshold, reset, burn-in, shapes and stationary statistics).
"""

import numpy as np
import pytest

from repro.circuits.lif_trevisan import LIFTrevisanCircuit
from repro.devices.bernoulli import FairCoinPool
from repro.engine.backends import DenseBackend
from repro.engine.plan import BatchPlan
from repro.engine.simulator import BatchLIFSimulator
from repro.graphs.generators import erdos_renyi
from repro.neurons.covariance import theoretical_membrane_covariance
from repro.neurons.lif import LIFParameters
from repro.utils.validation import ValidationError


def _simulator(weights, params=None):
    weights = np.asarray(weights, dtype=np.float64)
    return BatchLIFSimulator(DenseBackend(weights), params or LIFParameters(), weights.shape[0])


def _currents(simulator, states):
    """Currents for one trial's ``(steps, devices)`` states."""
    return simulator.drive_currents(np.asarray(states)[None])


def _spike_raster(weights, states, burn_in=0, params=None):
    """``(steps - burn_in, neurons)`` spike raster of one trial."""
    simulator = _simulator(weights, params)
    currents = _currents(simulator, states)
    n_rounds = currents.shape[1] - burn_in
    masks = [m[0] for _, m in simulator.iter_spike_readouts(currents, burn_in, 1, n_rounds)]
    return np.array(masks).reshape(n_rounds, np.shape(weights)[0])


class TestLIFParameters:
    def test_defaults_valid(self):
        params = LIFParameters()
        assert params.time_constant == pytest.approx(10.0)
        assert 0.0 < params.leak_factor < 1.0

    def test_invalid_capacitance(self):
        with pytest.raises(ValidationError):
            LIFParameters(capacitance=0.0)

    def test_invalid_resistance(self):
        with pytest.raises(ValidationError):
            LIFParameters(resistance=-1.0)

    def test_dt_stability_check(self):
        with pytest.raises(ValidationError):
            LIFParameters(resistance=1.0, capacitance=1.0, dt=3.0)

    def test_nan_threshold_rejected(self):
        with pytest.raises(ValidationError):
            LIFParameters(threshold=float("nan"))


class TestConstruction:
    def test_basic(self, rng):
        simulator = _simulator(rng.standard_normal((5, 3)))
        currents = _currents(simulator, FairCoinPool(3, seed=0).sample(7))
        assert currents.shape == (1, 7, 5)

    def test_weights_copy(self):
        """A circuit hands out fresh weight arrays; mutating one changes nothing."""
        circuit = LIFTrevisanCircuit(erdos_renyi(6, 0.5, seed=1))
        weights = circuit.weights
        weights[0, 0] = 99.0
        assert circuit.weights[0, 0] != 99.0
        assert circuit.engine_plan().weights[0, 0] != 99.0

    def test_rejects_1d_weights(self):
        with pytest.raises(ValidationError):
            DenseBackend(np.ones(4))

    def test_rejects_nan_weights(self):
        with pytest.raises(ValidationError):
            DenseBackend(np.array([[1.0, np.nan]]))

    def test_initial_state_zero(self, rng, subthreshold_membranes):
        """Membranes start at rest: zero drive keeps them at exactly zero."""
        params = LIFParameters(input_offset=0.0)
        rows = subthreshold_membranes(
            rng.standard_normal((3, 2)), np.zeros((5, 2), dtype=np.int8), params=params
        )
        np.testing.assert_array_equal(rows, 0.0)


class TestDynamics:
    def test_step_shape(self, rng):
        simulator = _simulator(rng.standard_normal((6, 4)))
        currents = _currents(simulator, np.array([[1, 0, 1, 0]], dtype=np.int8))
        ((_, fired),) = simulator.iter_spike_readouts(currents, 0, 1, 1)
        assert fired.shape == (1, 6)
        assert fired.dtype == bool

    def test_step_wrong_shape_raises(self, rng):
        simulator = _simulator(rng.standard_normal((6, 4)))
        with pytest.raises(ValidationError):
            _currents(simulator, np.array([[1, 0]], dtype=np.int8))

    def test_run_spike_shape(self, rng):
        raster = _spike_raster(rng.standard_normal((6, 4)), FairCoinPool(4, seed=1).sample(100))
        assert raster.shape == (100, 6)

    def test_run_with_burn_in(self, rng):
        raster = _spike_raster(
            rng.standard_normal((6, 4)), FairCoinPool(4, seed=2).sample(100), burn_in=30
        )
        assert raster.shape == (70, 6)

    def test_run_record_potentials(self, rng):
        simulator = _simulator(rng.standard_normal((6, 4)))
        filtered = simulator.filter_device_states(
            FairCoinPool(4, seed=3).sample(50)[None], 0, 1
        )
        assert filtered.shape == (1, 50, 4)
        rows = [p for _, p in simulator.iter_membrane_readouts(filtered, 50, 1)]
        assert len(rows) == 50
        assert rows[0].shape == (1, 1, 6)

    def test_membrane_readouts_come_in_chunks_up_to_the_round_limit(self, rng):
        simulator = _simulator(rng.standard_normal((6, 4)))
        filtered = simulator.filter_device_states(
            FairCoinPool(4, seed=3).sample(3 * 50)[None].repeat(2, axis=0), 0, 3
        )
        chunks = list(simulator.iter_membrane_readouts(filtered, 41, 16))
        assert [first for first, _ in chunks] == [0, 16, 32]
        assert [p.shape for _, p in chunks] == [(2, 16, 6), (2, 16, 6), (2, 9, 6)]

    def test_run_wrong_width_raises(self, rng):
        simulator = _simulator(rng.standard_normal((6, 4)))
        with pytest.raises(ValidationError):
            _currents(simulator, np.zeros((10, 3), dtype=np.int8))
        with pytest.raises(ValidationError):
            simulator.drive_currents(np.zeros((10, 4), dtype=np.int8))

    def test_negative_burn_in_raises(self, rng):
        with pytest.raises(ValidationError):
            BatchPlan(
                weights=rng.standard_normal((6, 4)), lif=LIFParameters(), burn_in=-1,
                interval=1, readout="membrane", n_devices=4, pool_builder=None,
            )

    def test_reset(self, rng, subthreshold_membranes):
        """Every integration starts from rest: a second run repeats the first."""
        weights = rng.standard_normal((6, 4))
        states = FairCoinPool(4, seed=4).sample(50)
        first = subthreshold_membranes(weights, states)
        second = subthreshold_membranes(weights, states)
        assert np.array_equal(first, second)
        assert np.any(first != 0.0)

    def test_reset_potential_after_spike(self):
        """A crossing resets the membrane, so a constant drive fires every other step.

        With drive 0.6 per step and threshold 1 (no leak to speak of), the
        membrane climbs 0.6, 1.2 -> fires and resets to 0, 0.6, 1.2 -> fires,
        ...; without the reset it would fire on every step from the second.
        """
        params = LIFParameters(
            threshold=1.0, reset_potential=0.0, dt=0.5, input_offset=0.0,
            resistance=1e9,
        )
        raster = _spike_raster(np.array([[1.2]]), np.ones((6, 1), dtype=np.int8), params=params)
        assert raster[:, 0].tolist() == [False, True, False, True, False, True]

    def test_no_input_no_spikes(self):
        params = LIFParameters(input_offset=0.0)
        raster = _spike_raster(np.ones((3, 2)), np.zeros((20, 2), dtype=np.int8), params=params)
        assert not raster.any()

    def test_subthreshold_no_reset(self, rng, subthreshold_membranes):
        params = LIFParameters(threshold=0.05)
        trajectory = subthreshold_membranes(
            rng.standard_normal((4, 3)), FairCoinPool(3, seed=5).sample(200), params=params
        )
        assert trajectory.shape == (200, 4)
        # spiking is disabled, so potentials go past the threshold freely
        assert np.abs(trajectory).max() > params.threshold
        assert np.isfinite(trajectory).all()

    def test_subthreshold_burn_in(self, rng, subthreshold_membranes):
        weights = rng.standard_normal((4, 3))
        states = FairCoinPool(3, seed=6).sample(100)
        trajectory = subthreshold_membranes(weights, states, burn_in=40)
        assert trajectory.shape == (60, 4)
        # burn-in steps are integrated, not dropped: the tail is unchanged
        assert np.array_equal(trajectory, subthreshold_membranes(weights, states)[40:])


class TestStationaryStatistics:
    def test_centred_input_zero_mean(self, subthreshold_membranes):
        """With input_offset=0.5 and fair coins the membrane mean is near zero.

        The membrane is a strongly autocorrelated AR(1) process (correlation
        time tau/dt = 100 steps), so the empirical mean is compared against the
        per-neuron stationary standard deviation rather than an absolute bound,
        and contrasted with the clearly non-zero mean of the uncentred case.
        """
        rng = np.random.default_rng(0)
        weights = rng.standard_normal((10, 6))
        trajectory = subthreshold_membranes(
            weights, FairCoinPool(6, seed=7).sample(8000), burn_in=500
        )
        std = trajectory.std(axis=0)
        assert np.all(np.abs(trajectory.mean(axis=0)) < 0.75 * std)

        drifted = subthreshold_membranes(
            weights, FairCoinPool(6, seed=7).sample(4000), burn_in=500,
            params=LIFParameters(input_offset=0.0),
        )
        # the uncentred means are dominated by the DC drive R * <I>
        assert np.abs(drifted.mean(axis=0)).max() > np.abs(trajectory.mean(axis=0)).max()

    def test_membrane_variance_scales_with_weights(self, subthreshold_membranes):
        rng = np.random.default_rng(1)
        base = rng.standard_normal((5, 4))
        states = FairCoinPool(4, seed=8).sample(4000)
        var1 = subthreshold_membranes(base, states, burn_in=200).var(axis=0)
        var2 = subthreshold_membranes(2.0 * base, states, burn_in=200).var(axis=0)
        ratio = var2 / np.clip(var1, 1e-12, None)
        # doubling weights quadruples the variance
        assert np.all(ratio > 2.5) and np.all(ratio < 6.0)

    def test_theoretical_covariance_shape(self, rng):
        cov = theoretical_membrane_covariance(rng.standard_normal((7, 3)))
        assert cov.shape == (7, 7)
        np.testing.assert_allclose(cov, cov.T)

    def test_theoretical_covariance_custom_device_cov(self, rng):
        with pytest.raises(ValidationError):
            theoretical_membrane_covariance(
                rng.standard_normal((4, 2)), device_covariance=np.eye(3)
            )

    def test_empirical_correlation_matches_gram_structure(self, subthreshold_membranes):
        """Correlation of subthreshold membranes ~ correlation implied by W W^T."""
        rng = np.random.default_rng(3)
        n, r = 6, 4
        weights = rng.standard_normal((n, r))
        trajectory = subthreshold_membranes(
            weights, FairCoinPool(r, seed=9).sample(20000), burn_in=1000
        )
        empirical = np.corrcoef(trajectory, rowvar=False)
        gram = weights @ weights.T
        d = np.sqrt(np.diag(gram))
        theoretical = gram / np.outer(d, d)
        # The membrane potential is an AR(1)-filtered version of the same input mix,
        # so cross-neuron correlations match the Gram-matrix correlations.
        assert np.max(np.abs(empirical - theoretical)) < 0.12


class TestDeviceSpaceMembrane:
    """The filtered device stream times ``W^T`` is the subthreshold membrane.

    The reference is the neuron-space Euler recurrence, stepped per neuron
    and per step; the device-space read-out sums the same terms in another
    order, so it agrees to round-off and reads the same signs.
    """

    @pytest.mark.parametrize(
        "rank, burn_in, interval, n_rounds",
        [(4, 25, 4, 9), (1, 25, 4, 9), (4, 0, 4, 9), (4, 25, 1, 30), (3, 7, 5, 1),
         (2, 0, 1, 1), (4, 100, 10, 70)],
    )
    def test_readouts_match_neuron_space_reference(
        self, rank, burn_in, interval, n_rounds, subthreshold_membranes,
        assert_membranes_match,
    ):
        rng = np.random.default_rng(rank * 1000 + burn_in * 10 + interval)
        weights = 2.5 * rng.standard_normal((12, rank))
        params = LIFParameters(capacitance=0.7, resistance=9.0, dt=0.2, input_offset=0.4)
        states = np.random.default_rng(n_rounds).integers(
            0, 2, size=(3, burn_in + n_rounds * interval, rank), dtype=np.int8
        )
        simulator = _simulator(weights, params)
        filtered = simulator.filter_device_states(states, burn_in, interval)
        ((first, rows),) = simulator.iter_membrane_readouts(filtered, n_rounds, n_rounds)
        assert first == 0 and rows.shape == (3, n_rounds, 12)
        for trial in range(3):
            reference = subthreshold_membranes(
                weights, states[trial], burn_in=burn_in, params=params
            )[interval - 1::interval]
            assert_membranes_match(rows[trial], reference)

    def test_readouts_do_not_depend_on_block_mates_or_round_limit(self, rng):
        """A trial's rows are bitwise the same alone, in a block and cut short."""
        simulator = _simulator(rng.standard_normal((30, 4)))
        states = np.random.default_rng(11).integers(
            0, 2, size=(5, 25 + 4 * 40, 4), dtype=np.int8
        )
        block = simulator.filter_device_states(states, 25, 4)
        alone = simulator.filter_device_states(states[2:3], 25, 4)
        assert np.array_equal(block[2], alone[0])
        ((_, rows),) = simulator.iter_membrane_readouts(block, 40, 40)
        ((_, short),) = simulator.iter_membrane_readouts(alone, 7, 40)
        assert np.array_equal(rows[2, :7], short[0])
