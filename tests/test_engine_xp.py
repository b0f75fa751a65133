"""Tests for backend-spec checking and the weight backends it selects.

The engine computes in NumPy: a backend spec is one of ``"auto"``,
``"dense"`` or ``"sparse"`` and only chooses how the weight matrix is
stored.  Every choice drives the circuit with plain ``numpy.ndarray``
currents.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import DenseBackend, SparseBackend, WeightBackend, check_backend
from repro.graphs.generators import erdos_renyi
from repro.utils.validation import ValidationError


def _drive(backend: WeightBackend, n: int) -> np.ndarray:
    states = np.random.default_rng(0).integers(0, 2, size=(5, n)).astype(np.int8)
    return backend.drive(states, 0.5)


class TestParseBackendSpec:
    def test_bare_weight_name(self):
        assert check_backend("dense") == "dense"
        assert check_backend("sparse") == "sparse"

    def test_unknown_names_raise(self):
        for bad in ("bogus", "bogus:dense", "numpy:bogus", "torch:sparse:x"):
            with pytest.raises(ValidationError):
                check_backend(bad)


class TestResolveBackend:
    def test_auto_resolves_to_numpy(self):
        graph = erdos_renyi(16, 0.5, seed=0)
        backend = WeightBackend.for_graph(graph, np.eye(16), backend="auto")
        currents = _drive(backend, 16)
        assert type(currents) is np.ndarray
        assert currents.dtype == np.float64

    def test_weight_only_spec_keeps_numpy_array(self):
        graph = erdos_renyi(16, 0.5, seed=0)
        weights = np.eye(16)
        backend = WeightBackend.for_graph(
            graph, weights, backend="sparse", sparse_weights=lambda: weights
        )
        assert isinstance(backend, SparseBackend)
        currents = _drive(backend, 16)
        assert type(currents) is np.ndarray
        assert currents.shape == (5, 16)


class TestForGraph:
    def test_auto_routes_sparse_only_for_large_low_density(self):
        small = erdos_renyi(16, 0.5, seed=0)
        dense_backend = WeightBackend.for_graph(
            small, np.eye(16), backend="auto", sparse_weights=lambda: np.eye(16)
        )
        assert isinstance(dense_backend, DenseBackend)
