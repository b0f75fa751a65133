"""Cut representation and the one cut-weight kernel.

The MAXCUT objective used throughout the paper is

    cut(v) = 1/2 * sum_{edges ij} w_ij (1 - v_i v_j),   v in {-1, +1}^n.

Every cut weight in the program — engine read-outs, hyperplane rounding,
the random baseline, the exact solver, the Trevisan sweep — is computed by
:class:`BatchCutEvaluator` as a quadratic form on the graph's adjacency
``A``: for ``(k, n)`` ±1 rows ``S``,

    q(S) = rowdot(S, S A),   cut(S) = (q(1) - q(S)) / 4.

One contract, two routes.  A dense graph (not
:func:`~repro.graphs.properties.is_large_and_sparse`) whose integer weights
keep ``2 sum|w| <= 2**24`` takes one float32 GEMM on its cached dense
adjacency, where every partial sum is an exact integer; every other graph
takes sparse products on its cached CSR adjacency in float64.  Where both
routes apply they give the same bits.  :func:`cut_weights_batch` and
:func:`cut_weight` validate their input and call the same kernel.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.graphs.graph import Graph
from repro.graphs.properties import is_large_and_sparse
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
    return float(BatchCutEvaluator(graph).weights(assignment[None, :])[0])


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
    return BatchCutEvaluator(graph).weights(assignments)


#: Rows per sparse product on the CSR route of :class:`BatchCutEvaluator`.
_ROW_BLOCK = 128


class BatchCutEvaluator:
    """The cut-weight kernel: a quadratic form ``q(S) = rowdot(S, S A)``.

    A cut of ±1 rows ``S`` weighs ``(q(1) - q(S)) / 4``.  Callers guarantee
    ±1 rows of the right width (no validation here).  The route is fixed
    per graph at construction:

    * **dense float32** when the graph is not
      :func:`~repro.graphs.properties.is_large_and_sparse` and
      :meth:`~repro.graphs.graph.Graph.exact_float32_adjacency` exists
      (integer weights, ``2 sum|w| <= 2**24``): ``S`` cast to float32, one
      ``sgemm`` ``S A`` and one ``np.vecdot`` per row, cast to float64;
      ``q(1)`` is the exact ``2 sum(w)``.  Every partial sum is an integer
      of magnitude at most ``2**24``, so the result is exact whatever the
      row count, summation order, BLAS kernel or BLAS thread count.
    * **CSR float64** otherwise (real weights, large sparse graphs):
      ``S`` cast to float64, the SciPy CSR product ``A S^T`` over blocks of
      128 rows and one ``np.vecdot`` per C-contiguous row; ``q(1)`` comes
      from the same kernel once.  Every product ``A_ij s_j`` is exact and
      each output entry sums in CSR order whatever the number of rows.

    Numerics.  On both routes a cut's weight never depends on which rows
    share its call, an all-one-side cut is exactly ``0.0`` and
    ``cut(s) == cut(-s)`` bitwise.  On integer (or dyadic) weights the
    result is the exact crossing weight, so the two routes agree bit for
    bit; on real weights (CSR only) it differs from a plain edge sum by
    round-off.  :class:`~repro.graphs.graph.Graph` keeps ``4 sum|w|``
    finite, so no partial sum can overflow.
    """

    __slots__ = ("_adjacency", "_uncut", "route")

    def __init__(self, graph: Graph) -> None:
        dense = None if is_large_and_sparse(graph) else graph.exact_float32_adjacency()
        #: ``"dense"`` (float32 GEMM) or ``"csr"`` (float64 sparse products).
        self.route = "csr" if dense is None else "dense"
        if dense is not None:
            self._adjacency = dense
            self._uncut = 2.0 * graph.total_weight
        else:
            self._adjacency = graph.to_csr()
            self._uncut = self._quadratic_form(np.ones((1, graph.n_vertices)))[0]

    def weights(self, assignments: np.ndarray) -> np.ndarray:
        """Cut weights of a ``(k, n)`` block of ±1 assignments (unvalidated).

        Returns a length-``k`` float64 vector.  Runs once per engine chunk,
        so it carries no span of its own; under active tracing it folds its
        elapsed time into the enclosing span's attrs (``cut_eval_seconds`` /
        ``cut_evaluations``) instead.
        """
        if not tracing_enabled():
            return self._weights_of(assignments)
        start = time.perf_counter()
        try:
            return self._weights_of(assignments)
        finally:
            accumulate("cut_eval_seconds", time.perf_counter() - start)
            accumulate("cut_evaluations", 1)

    def _weights_of(self, assignments: np.ndarray) -> np.ndarray:
        dtype = np.float32 if self.route == "dense" else np.float64
        spins = np.ascontiguousarray(assignments, dtype=dtype)
        return (self._uncut - self._quadratic_form(spins)) / 4.0

    def _quadratic_form(self, spins: np.ndarray) -> np.ndarray:
        if self.route == "dense":
            return np.vecdot(spins, spins @ self._adjacency).astype(np.float64)
        q = np.empty(spins.shape[0])
        # Row blocks keep the product's operands in cache: one 1024-row
        # product takes about twice as long as eight 128-row ones.
        for lo in range(0, spins.shape[0], _ROW_BLOCK):
            block = spins[lo:lo + _ROW_BLOCK]
            products = np.ascontiguousarray((self._adjacency @ block.T).T)
            q[lo:lo + _ROW_BLOCK] = np.vecdot(block, products)
        return q


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
