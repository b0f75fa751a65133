"""Shared fixtures for the test suite.

Fixtures provide small, fast graphs with known structure (and, where
feasible, known maximum cuts) so the approximation algorithms and circuits
can be validated against ground truth.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs.generators import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    path_graph,
)
from repro.graphs.graph import Graph


@pytest.fixture
def rng():
    """A deterministic generator for test-local randomness."""
    return np.random.default_rng(12345)


@pytest.fixture
def triangle():
    """K3: maximum cut is 2."""
    return complete_graph(3, name="triangle")


@pytest.fixture
def square_cycle():
    """C4 (bipartite): maximum cut is 4."""
    return cycle_graph(4, name="c4")


@pytest.fixture
def five_cycle():
    """C5 (odd cycle): maximum cut is 4."""
    return cycle_graph(5, name="c5")


@pytest.fixture
def small_bipartite():
    """K_{3,4}: maximum cut is 12 (all edges)."""
    return complete_bipartite(3, 4, name="k34")


@pytest.fixture
def small_er_graph():
    """A fixed 16-vertex Erdős–Rényi graph, small enough for exact MAXCUT."""
    return erdos_renyi(16, 0.4, seed=777, name="er16")


@pytest.fixture
def medium_er_graph():
    """A fixed 40-vertex Erdős–Rényi graph for circuit-level tests."""
    return erdos_renyi(40, 0.25, seed=2024, name="er40")


@pytest.fixture
def weighted_graph():
    """A small weighted graph with non-uniform weights."""
    edges = [(0, 1, 2.0), (1, 2, 0.5), (2, 3, 3.0), (0, 3, 1.0), (0, 2, 1.5)]
    return Graph(4, edges, name="weighted4")


@pytest.fixture
def path_of_three():
    """P3: 3 vertices, 2 edges, maximum cut 2."""
    return path_graph(3, name="p3")


@pytest.fixture
def empty_graph():
    """Graph with vertices but no edges."""
    return Graph(5, [], name="empty5")


@pytest.fixture
def subthreshold_membranes():
    """Integrate device states into a subthreshold membrane trajectory.

    Returns ``run(weights, states, burn_in=0, params=None)`` giving the
    ``(n_steps - burn_in, n_neurons)`` membrane rows after burn-in, computed
    by the engine's :class:`~repro.engine.simulator.BatchLIFSimulator`
    (spiking disabled, one read-out per step).
    """
    from repro.engine.backends import DenseBackend
    from repro.engine.simulator import BatchLIFSimulator
    from repro.neurons.lif import LIFParameters

    def run(weights, states, burn_in=0, params=None):
        weights = np.asarray(weights, dtype=np.float64)
        simulator = BatchLIFSimulator(
            DenseBackend(weights), params or LIFParameters(), weights.shape[0]
        )
        currents = simulator.drive_currents(np.asarray(states)[None])
        n_rounds = currents.shape[1] - burn_in
        # Every round in one chunk: the one yield holds all the rows.
        chunks = simulator.iter_subthreshold_rounds(
            currents, burn_in, 1, n_rounds, max(1, n_rounds)
        )
        return next((rows[:, 0] for _, rows in chunks), np.zeros((0, weights.shape[0])))

    return run


#: Device-space membrane read-outs agree with the neuron-space Euler
#: recurrence to this relative tolerance (against the largest |V| of a trial).
MEMBRANE_RTOL = 1e-12


@pytest.fixture
def assert_membranes_match():
    """Check read-out rows against a neuron-space reference trajectory.

    Returns ``check(rows, reference)``: the largest difference is at most
    :data:`MEMBRANE_RTOL` of the reference's largest magnitude, and the signs
    agree wherever the reference is above that round-off.
    """

    def check(rows, reference):
        rows, reference = np.asarray(rows), np.asarray(reference)
        assert rows.shape == reference.shape
        bound = MEMBRANE_RTOL * np.abs(reference).max(initial=0.0)
        assert np.abs(rows - reference).max(initial=0.0) <= bound
        clear = np.abs(reference) > bound
        assert np.array_equal(rows[clear] > 0, reference[clear] > 0)

    return check
