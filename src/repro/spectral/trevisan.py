"""Software Trevisan 'Simple Spectral' MAXCUT algorithm (paper §II.B).

The algorithm computes the eigenvector of the minimum eigenvalue of
``I + D^{-1/2} A D^{-1/2}`` (equivalently, the minimum eigenvector of the
normalized adjacency) and thresholds it at zero:

    v_i = -1  if u_i <= 0,   v_i = +1  if u_i > 0.

Also provided is the *sweep cut* refinement used by the full Trevisan
algorithm: instead of thresholding at zero, every threshold defined by the
sorted eigenvector entries is tried and the best resulting cut kept.  The
sweep cut never does worse than the simple threshold and is used as an
extension/ablation in the experiments.

Large graphs: the eigensolver is memory-aware.  ``method="auto"`` stays on
the dense path only below :data:`DENSE_AUTO_MAX_VERTICES` vertices, runs
ARPACK on the sparse CSR up to :data:`SKETCH_AUTO_MIN_VERTICES`, and above
that switches to the randomized sketch of
:func:`repro.scale.sketch.sketched_minimum_eigenpair`.  Explicitly asking
for ``method="dense"`` beyond :data:`DENSE_METHOD_MAX_VERTICES` raises a
:class:`~repro.utils.validation.ValidationError` instead of silently
allocating an ``(n, n)`` matrix.  The sweep is the ``O(m + n log n)``
scatter-add sweep of :func:`repro.scale.sketch.sweep_cut_from_scores` at
every size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from repro.cuts.cut import Cut
from repro.graphs.graph import Graph
from repro.scale.sketch import sweep_cut_from_scores
from repro.utils.rng import RandomState
from repro.utils.validation import ValidationError

__all__ = [
    "minimum_eigenvector",
    "trevisan_simple_spectral",
    "trevisan_sweep_cut",
    "TrevisanResult",
    "DENSE_AUTO_MAX_VERTICES",
    "DENSE_METHOD_MAX_VERTICES",
    "SKETCH_AUTO_MIN_VERTICES",
]

#: ``method="auto"`` uses the dense eigensolver below this many vertices.
DENSE_AUTO_MAX_VERTICES = 300

#: Explicit ``method="dense"`` refuses graphs larger than this — a dense
#: ``(n, n)`` float64 matrix at this size is already ~128 MiB.
DENSE_METHOD_MAX_VERTICES = 4096

#: ``method="auto"`` switches from ARPACK to the randomized sketch above
#: this many vertices (ARPACK's repeated re-orthogonalisation passes start
#: to dominate; the sketch needs a fixed, small number of sparse mat-mats).
SKETCH_AUTO_MIN_VERTICES = 32768


def minimum_eigenvector(
    graph: Graph, method: str = "auto", seed: RandomState = None
) -> tuple[float, np.ndarray]:
    """Minimum eigenpair of the normalized adjacency ``D^{-1/2} A D^{-1/2}``.

    Parameters
    ----------
    method:
        ``"dense"`` (numpy.linalg.eigh; refuses graphs above
        :data:`DENSE_METHOD_MAX_VERTICES` vertices), ``"arpack"`` (scipy
        eigsh), ``"sketch"`` (randomized subspace sketch,
        :func:`repro.scale.sketch.sketched_minimum_eigenpair`), or
        ``"auto"`` — dense below :data:`DENSE_AUTO_MAX_VERTICES`, ARPACK up
        to :data:`SKETCH_AUTO_MIN_VERTICES`, the sketch above that.  The
        auto policy is memory-aware: no path ever densifies a graph larger
        than :data:`DENSE_METHOD_MAX_VERTICES`.
    """
    n = graph.n_vertices
    if n == 0:
        return 0.0, np.zeros(0)
    if method == "auto":
        if n < DENSE_AUTO_MAX_VERTICES:
            method = "dense"
        elif n <= SKETCH_AUTO_MIN_VERTICES:
            method = "arpack"
        else:
            method = "sketch"
    if method == "dense":
        if n > DENSE_METHOD_MAX_VERTICES:
            raise ValidationError(
                f"method='dense' would allocate a ({n}, {n}) matrix; graphs "
                f"above {DENSE_METHOD_MAX_VERTICES} vertices must use "
                f"'arpack', 'sketch', or 'auto'"
            )
        N = graph.normalized_adjacency()
        eigenvalues, eigenvectors = np.linalg.eigh(N)
        return float(eigenvalues[0]), eigenvectors[:, 0]
    if method == "arpack":
        if graph.n_edges == 0:
            # The normalized adjacency is the zero matrix: eigenvalue 0 with
            # the first coordinate vector, matching the dense convention —
            # without densifying (the old fallback allocated (n, n) zeros).
            vector = np.zeros(n, dtype=np.float64)
            vector[0] = 1.0
            return 0.0, vector
        if n <= 3:
            dense = graph.normalized_adjacency()
            eigenvalues, eigenvectors = np.linalg.eigh(dense)
            return float(eigenvalues[0]), eigenvectors[:, 0]
        N = graph.to_csr(normalized=True).asfptype()
        eigenvalues, eigenvectors = spla.eigsh(N, k=1, which="SA")
        return float(eigenvalues[0]), eigenvectors[:, 0]
    if method == "sketch":
        from repro.scale.sketch import sketched_minimum_eigenpair

        return sketched_minimum_eigenpair(graph, seed=seed)
    raise ValidationError(
        f"method must be 'auto', 'dense', 'arpack', or 'sketch'; "
        f"got {method!r}"
    )


@dataclass(frozen=True)
class TrevisanResult:
    """Output of the software Trevisan spectral algorithm."""

    cut: Cut
    eigenvalue: float
    eigenvector: np.ndarray
    method: str


def trevisan_simple_spectral(
    graph: Graph, method: str = "auto", seed: RandomState = None
) -> TrevisanResult:
    """Run the simple-spectral Trevisan algorithm: min eigenvector, sign threshold."""
    eigenvalue, eigenvector = minimum_eigenvector(graph, method=method, seed=seed)
    if graph.n_vertices == 0:
        cut = Cut(assignment=np.zeros(0, dtype=np.int8), weight=0.0, graph_name=graph.name)
        return TrevisanResult(cut=cut, eigenvalue=eigenvalue, eigenvector=eigenvector, method=method)
    assignment = np.where(eigenvector > 0.0, 1, -1).astype(np.int8)
    cut = Cut.from_assignment(graph, assignment)
    return TrevisanResult(cut=cut, eigenvalue=eigenvalue, eigenvector=eigenvector, method=method)


def trevisan_sweep_cut(
    graph: Graph, method: str = "auto", seed: RandomState = None
) -> TrevisanResult:
    """Sweep-cut refinement: try every threshold along the sorted eigenvector.

    For eigenvector ``u`` sorted ascending, threshold ``t`` places vertices
    with ``u_i <= t`` on one side; the plain sign threshold is tried too.
    All candidates come from the ``O(m + n log n)`` scatter-add sweep of
    :func:`repro.scale.sketch.sweep_cut_from_scores`, so the pipeline makes
    no ``(n, n)`` allocation at any size.
    """
    eigenvalue, eigenvector = minimum_eigenvector(graph, method=method, seed=seed)
    cut = sweep_cut_from_scores(graph, eigenvector)
    return TrevisanResult(cut=cut, eigenvalue=eigenvalue, eigenvector=eigenvector, method=method)
