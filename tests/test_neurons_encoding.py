"""Tests for spike/membrane-to-cut encoding."""

import numpy as np
import pytest

from repro.neurons.encoding import membrane_sign_assignments, spikes_to_assignments
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

    def test_matches_where_on_a_random_mask(self, rng):
        spikes = rng.random((7, 9)) < 0.5
        out = spikes_to_assignments(spikes)
        assert out.dtype == np.int8
        np.testing.assert_array_equal(out, np.where(spikes, 1, -1))


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

    def test_matches_where_on_signed_zeros_and_a_threshold(self, rng):
        potentials = rng.standard_normal((5, 8))
        potentials[0, :3] = [0.0, -0.0, 0.1]
        for threshold in (0.0, 0.1):
            out = membrane_sign_assignments(potentials, threshold)
            assert out.dtype == np.int8
            np.testing.assert_array_equal(out, np.where(potentials > threshold, 1, -1))
