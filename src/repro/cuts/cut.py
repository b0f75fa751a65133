"""Cut representation and vectorised cut-weight evaluation.

The MAXCUT objective used throughout the paper is

    cut(v) = 1/2 * sum_ij A_ij (1 - v_i v_j),   v in {-1, +1}^n,

which counts (the weight of) edges whose endpoints receive opposite signs.
Because the circuits generate hundreds of thousands of candidate cuts, the
batch evaluator works directly on the edge list:  evaluating ``k`` cuts costs
``O(k * m)`` with a single vectorised comparison, no dense ``n x n`` products.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.graphs.graph import Graph
from repro.obs.trace import accumulate, tracing_enabled
from repro.utils.validation import ValidationError, check_spin_vector

__all__ = [
    "Cut",
    "BatchCutEvaluator",
    "cut_weight",
    "cut_weights_batch",
    "spins_from_bits",
    "bits_from_spins",
]


def spins_from_bits(bits: np.ndarray) -> np.ndarray:
    """Map 0/1 arrays to -1/+1 arrays (0 -> -1, 1 -> +1)."""
    bits = np.asarray(bits)
    return (2 * bits.astype(np.int8) - 1).astype(np.int8)


def bits_from_spins(spins: np.ndarray) -> np.ndarray:
    """Map -1/+1 arrays to 0/1 arrays (-1 -> 0, +1 -> 1)."""
    spins = np.asarray(spins)
    return ((spins + 1) // 2).astype(np.int8)


def cut_weight(graph: Graph, assignment: np.ndarray) -> float:
    """Weight of the cut induced by a ±1 *assignment*.

    Parameters
    ----------
    graph:
        The graph whose edges are counted.
    assignment:
        Length-``n`` vector of ±1 vertex labels.

    Returns
    -------
    float
        Total weight of edges whose endpoints have opposite labels.
    """
    assignment = check_spin_vector(assignment, graph.n_vertices)
    if graph.n_edges == 0:
        return 0.0
    edges = graph.edges
    crossing = assignment[edges[:, 0]] != assignment[edges[:, 1]]
    return float(graph.edge_weights[crossing].sum())


def cut_weights_batch(graph: Graph, assignments: np.ndarray) -> np.ndarray:
    """Weights of many cuts at once.

    Parameters
    ----------
    graph:
        The graph whose edges are counted.
    assignments:
        ``(k, n)`` array of ±1 labels, one cut per row.  A 1-D input is
        treated as a single cut.

    Returns
    -------
    numpy.ndarray
        Length-``k`` array of cut weights.
    """
    assignments = np.asarray(assignments)
    if assignments.ndim == 1:
        assignments = assignments[None, :]
    if assignments.ndim != 2 or assignments.shape[1] != graph.n_vertices:
        raise ValidationError(
            f"assignments must have shape (k, {graph.n_vertices}), "
            f"got {assignments.shape}"
        )
    if assignments.size and not np.all(np.isin(assignments, (-1, 1))):
        raise ValidationError("assignments must contain only -1/+1 entries")
    if graph.n_edges == 0:
        return np.zeros(assignments.shape[0], dtype=np.float64)
    edges = graph.edges
    # (m, k) edge-major crossing mask: two gathers of contiguous vertex rows
    # and one compare.
    vertex_major = np.ascontiguousarray(assignments.T)
    crossing = vertex_major[edges[:, 0]] != vertex_major[edges[:, 1]]
    # One dot per contiguous cut row: a cut's weight does not depend on how
    # many cuts the call evaluates, which a (k, m) @ (m,) product does not
    # promise.
    return np.vecdot(np.ascontiguousarray(crossing.T, dtype=np.float64), graph.edge_weights)


class BatchCutEvaluator:
    """Repeated batch cut evaluation with the per-call overhead hoisted out.

    The streaming engine evaluates blocks of cuts (trials x read-out rounds)
    many times per solve.  This helper captures the edge arrays once and
    skips input validation (callers guarantee ±1 rows of the right width),
    while computing the same per-row ``vecdot(crossing, edge_weights)``, so
    its results are bitwise equal to :func:`cut_weights_batch` — and, since
    every row is reduced on its own, a cut's weight is the same whichever
    rows share its call (batch size and chunking never change a bit).

    Evaluation runs in an array namespace
    (:class:`repro.engine.xp.ArrayBackend`, default numpy): edge arrays are
    transferred once at construction and the result stays in the namespace —
    on numpy every call lowers to the exact host expressions above.  The
    crossing mask is cast ``bool -> float64`` before the row dots
    (accelerators cannot multiply booleans).
    """

    __slots__ = ("_array", "_heads", "_tails", "_weights", "_n_edges", "_unit_weights")

    def __init__(self, graph: Graph, array_backend=None) -> None:
        if array_backend is None:
            # Function-level import: repro.engine imports this module, so the
            # default-backend lookup must not re-enter the engine package
            # mid-initialisation.
            from repro.engine.xp import get_array_backend

            array_backend = get_array_backend("numpy")
        self._array = array_backend
        edges = graph.edges
        host_weights = graph.edge_weights
        self._n_edges = int(host_weights.size)
        # int64 gather indices: numpy is indifferent, torch requires long.
        self._heads = array_backend.asarray(np.ascontiguousarray(edges[:, 0]), dtype="int64")
        self._tails = array_backend.asarray(np.ascontiguousarray(edges[:, 1]), dtype="int64")
        self._weights = array_backend.asarray(host_weights)
        # For unit weights the row dot is an exact integer sum, so counting
        # crossing edges gives the bitwise-identical result without the
        # bool->float cast.
        self._unit_weights = bool(self._n_edges) and bool(
            np.all(host_weights == 1.0)
        )

    def weights(self, assignments):
        """Cut weights of a ``(k, n)`` block of ±1 assignments (unvalidated).

        *assignments* may be host numpy or already in the evaluator's array
        namespace; the result is a length-``k`` float64 vector in the
        namespace (host ndarray under the default numpy backend).

        Runs once per read-out round, so it carries no span of its own;
        under active tracing it folds its elapsed time into the enclosing
        span's attrs (``cut_eval_seconds`` / ``cut_evaluations``) instead.
        """
        if not tracing_enabled():
            return self._weights_of(assignments)
        start = time.perf_counter()
        try:
            return self._weights_of(assignments)
        finally:
            accumulate("cut_eval_seconds", time.perf_counter() - start)
            accumulate("cut_evaluations", 1)

    def _weights_of(self, assignments):
        xp = self._array
        assignments = xp.asarray(assignments)
        if self._n_edges == 0:
            return xp.zeros((assignments.shape[0],), dtype="float64")
        # Edge-major (m, k) crossing mask: the gathers copy contiguous vertex
        # rows and the count runs down whole rows of the mask, about twice
        # as fast as gathering columns of the (k, n) block.
        vertex_major = xp.copy(assignments.T)
        crossing = vertex_major[self._heads] != vertex_major[self._tails]
        if self._unit_weights:
            return xp.astype(xp.count_nonzero(crossing, axis=0), "float64")
        return xp.vecdot(xp.astype(crossing.T, "float64"), self._weights)


@dataclass(frozen=True)
class Cut:
    """An evaluated cut: a ±1 assignment together with its weight.

    Instances are immutable and ordered by weight, so ``max(cuts)`` returns
    the best cut found.
    """

    assignment: np.ndarray
    weight: float
    graph_name: str = "graph"

    @classmethod
    def from_assignment(cls, graph: Graph, assignment: np.ndarray) -> "Cut":
        """Evaluate *assignment* against *graph* and wrap it in a ``Cut``."""
        assignment = check_spin_vector(assignment, graph.n_vertices)
        return cls(
            assignment=assignment.copy(),
            weight=cut_weight(graph, assignment),
            graph_name=graph.name,
        )

    @property
    def n_vertices(self) -> int:
        return int(self.assignment.shape[0])

    @property
    def side_sizes(self) -> tuple[int, int]:
        """Sizes of the two vertex classes ``(|V_{-1}|, |V_{+1}|)``."""
        positive = int(np.count_nonzero(self.assignment == 1))
        return self.n_vertices - positive, positive

    def complement(self) -> "Cut":
        """The same cut with both sides swapped (identical weight)."""
        return Cut(
            assignment=(-self.assignment).astype(np.int8),
            weight=self.weight,
            graph_name=self.graph_name,
        )

    def partition(self) -> tuple[np.ndarray, np.ndarray]:
        """Vertex index arrays for the -1 side and the +1 side."""
        negative = np.flatnonzero(self.assignment == -1)
        positive = np.flatnonzero(self.assignment == 1)
        return negative, positive

    def __lt__(self, other: "Cut") -> bool:
        return self.weight < other.weight

    def __le__(self, other: "Cut") -> bool:
        return self.weight <= other.weight

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cut):
            return NotImplemented
        return self.weight == other.weight and np.array_equal(
            self.assignment, other.assignment
        )

    def __hash__(self) -> int:
        return hash((self.weight, self.assignment.tobytes()))

    def __repr__(self) -> str:  # pragma: no cover - repr formatting
        return (
            f"Cut(graph={self.graph_name!r}, weight={self.weight:g}, "
            f"sides={self.side_sizes})"
        )


def running_best_cuts(weights: np.ndarray) -> np.ndarray:
    """Running maximum of a sequence of cut weights (the paper's Figures 3-4 y-axis).

    ``running_best_cuts(w)[t]`` is the best cut weight observed in the first
    ``t + 1`` samples.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 1:
        raise ValidationError(f"weights must be 1-D, got shape {weights.shape}")
    return np.maximum.accumulate(weights)
