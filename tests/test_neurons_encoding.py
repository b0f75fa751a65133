"""Tests for spike/membrane-to-cut encoding."""

import numpy as np
import pytest

from repro.engine.xp import get_array_backend
from repro.neurons.encoding import (
    membrane_sign_assignments,
    membrane_sign_assignments_xp,
    spikes_to_assignments,
    spikes_to_assignments_xp,
)
from repro.utils.validation import ValidationError


class TestSpikesToAssignments:
    def test_mapping(self):
        spikes = np.array([[True, False], [False, True]])
        out = spikes_to_assignments(spikes)
        np.testing.assert_array_equal(out, [[1, -1], [-1, 1]])

    def test_dtype(self):
        out = spikes_to_assignments(np.zeros((3, 4), dtype=bool))
        assert out.dtype == np.int8

    def test_accepts_int_raster(self):
        out = spikes_to_assignments(np.array([[1, 0], [0, 0]]))
        np.testing.assert_array_equal(out, [[1, -1], [-1, -1]])

    def test_rejects_1d(self):
        with pytest.raises(ValidationError):
            spikes_to_assignments(np.zeros(4, dtype=bool))


class TestMembraneSignAssignments:
    def test_threshold_zero(self):
        potentials = np.array([[0.5, -0.1], [0.0, 2.0]])
        out = membrane_sign_assignments(potentials)
        np.testing.assert_array_equal(out, [[1, -1], [-1, 1]])

    def test_custom_threshold(self):
        potentials = np.array([[0.5, 1.5]])
        out = membrane_sign_assignments(potentials, threshold=1.0)
        np.testing.assert_array_equal(out, [[-1, 1]])

    def test_rejects_nonfinite_threshold(self):
        with pytest.raises(ValidationError):
            membrane_sign_assignments(np.zeros((1, 2)), threshold=float("inf"))

    def test_rejects_1d(self):
        with pytest.raises(ValidationError):
            membrane_sign_assignments(np.zeros(3))


class TestArrayNamespaceVariants:
    """The engine's namespace variants give the host functions' int8 values."""

    def test_spike_variant_matches_host(self, rng):
        spikes = rng.random((7, 9)) < 0.5
        out = spikes_to_assignments_xp(get_array_backend("numpy"), spikes)
        assert out.dtype == np.int8
        np.testing.assert_array_equal(out, spikes_to_assignments(spikes))

    def test_membrane_variant_matches_host_on_a_chunk_of_rounds(self, rng):
        potentials = rng.standard_normal((3, 5, 8))
        potentials[0, 0, :3] = [0.0, -0.0, 0.25]
        out = membrane_sign_assignments_xp(get_array_backend("numpy"), potentials, 0.1)
        assert out.dtype == np.int8 and out.shape == (3, 5, 8)
        for trial in range(3):
            np.testing.assert_array_equal(
                out[trial], membrane_sign_assignments(potentials[trial], 0.1)
            )
