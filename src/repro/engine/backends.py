"""Weight-application backends for the batched solver engine.

The inner loop of every circuit is "apply the device-to-neuron weight matrix
to a block of centred device states".  For the LIF-GW circuit the weight
matrix is a skinny ``(n, rank)`` dense array; for LIF-Trevisan it is the
``(n, n)`` Trevisan matrix, which for the large low-density instances in
:mod:`repro.graphs.repository` is mostly zeros.  The engine therefore routes
the product through one of two backends:

* ``dense`` — NumPy matmul, the bitwise-pinned reference
  (``tests/test_engine_goldens.py``).
* ``sparse`` — :mod:`scipy.sparse` CSR product, built from the graph's cached
  CSR adjacency (:meth:`repro.graphs.graph.Graph.to_csr`) when the circuit
  provides a sparse weight builder.  Results agree with ``dense`` to
  floating-point round-off (summation order differs).

Selection
---------
The backend choice is one of :data:`BACKENDS`, checked by
:func:`check_backend` wherever it enters (``SolveRequest.backend``,
``ExecutionPolicy.backend``, the ``--backend`` flags, serve's ``"backend"``
key).  :meth:`WeightBackend.for_graph` builds the backend for a graph: an
explicit ``"dense"`` or ``"sparse"`` is **always honoured**; only ``"auto"``
consults the density heuristic — ``sparse`` when the weights are square
and the graph is large and sparse
(:func:`repro.graphs.properties.is_large_and_sparse`: at least
``SPARSE_MIN_VERTICES`` vertices, edge density below
``SPARSE_DENSITY_THRESHOLD``), ``dense`` otherwise.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.graphs.properties import (
    SPARSE_DENSITY_THRESHOLD,
    SPARSE_MIN_VERTICES,
    is_large_and_sparse,
)
from repro.utils.validation import ValidationError

__all__ = [
    "BACKENDS",
    "WeightBackend",
    "DenseBackend",
    "SparseBackend",
    "check_backend",
    "SPARSE_DENSITY_THRESHOLD",
    "SPARSE_MIN_VERTICES",
]

#: The backend choices: ``"auto"`` routes by graph density, ``"dense"`` and
#: ``"sparse"`` force one weight backend.
BACKENDS = ("auto", "dense", "sparse")


def check_backend(backend) -> str:
    """Return *backend* if it is one of :data:`BACKENDS`, else raise."""
    if not (isinstance(backend, str) and backend in BACKENDS):
        raise ValidationError(
            f"unknown backend spec {backend!r}; expected one of {list(BACKENDS)}"
        )
    return backend


class WeightBackend:
    """Interface: turn centred device-state blocks into synaptic currents."""

    name: str = "backend"

    def drive(
        self,
        device_block: np.ndarray,
        input_offset: float,
        out=None,
    ) -> np.ndarray:
        """Currents ``(s - offset) W^T`` for a ``(steps, devices)`` block.

        ``out``, when given, receives the product in place (a C-contiguous
        ``(steps, neurons)`` buffer), avoiding an intermediate allocation.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    @staticmethod
    def for_graph(
        graph,
        weights: np.ndarray,
        backend: str = "auto",
        sparse_weights=None,
    ) -> "WeightBackend":
        """Construct the weight backend *backend* names for *graph*.

        Parameters
        ----------
        graph:
            The graph being solved; supplies the density signal for
            ``"auto"`` (may be ``None``, which routes dense).
        weights:
            Dense device-to-neuron weight matrix.
        backend:
            One of :data:`BACKENDS`; ``"dense"`` and ``"sparse"`` always win
            over the density heuristic.
        sparse_weights:
            Optional sparse weight matrix (or zero-argument builder) supplied
            by the circuit; required for ``"auto"`` to ever pick ``sparse``.
        """
        name = check_backend(backend)
        weights = np.asarray(weights)
        if name == "auto":
            n_rows, n_cols = weights.shape
            use_sparse = (
                sparse_weights is not None
                and n_rows == n_cols
                and graph is not None
                and is_large_and_sparse(graph)
            )
            name = "sparse" if use_sparse else "dense"
        if name == "sparse":
            return SparseBackend(weights, sparse_weights=sparse_weights)
        return DenseBackend(weights)


class DenseBackend(WeightBackend):
    """NumPy matmul backend — the bitwise-pinned drive."""

    name = "dense"

    def __init__(self, weights: np.ndarray) -> None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 2:
            raise ValidationError(f"weights must be 2-D, got shape {weights.shape}")
        if not np.all(np.isfinite(weights)):
            raise ValidationError("weights must be finite")
        # The transpose *view* of the float64 weights: the operand of every
        # drive product, one per trial over all its steps, with which the
        # pinned goldens were computed.
        self._weights_t = weights.T

    def drive(self, device_block, input_offset: float, out=None):
        # One 2-D product per call: `(s - offset) @ W^T` on a transpose view.
        # The engine calls it once per trial, so a trial's currents do not
        # depend on which trials share its block.
        if device_block.shape[-1] != self._weights_t.shape[0]:
            raise ValidationError(
                f"device block has {device_block.shape[-1]} devices, the weights "
                f"expect {self._weights_t.shape[0]}"
            )
        centred = device_block.astype(np.float64) - input_offset
        return np.matmul(centred, self._weights_t, out=out)


class SparseBackend(WeightBackend):
    """scipy.sparse CSR backend for large, low-density weight matrices."""

    name = "sparse"

    def __init__(self, weights: np.ndarray, sparse_weights=None) -> None:
        if sparse_weights is not None:
            matrix = sparse_weights() if callable(sparse_weights) else sparse_weights
            self._csr = sp.csr_matrix(matrix)
        else:
            self._csr = sp.csr_matrix(np.asarray(weights, dtype=np.float64))
        if self._csr.ndim != 2:
            raise ValidationError("sparse weights must be 2-D")

    def drive(self, device_block, input_offset: float, out=None):
        centred = device_block.astype(np.float64) - input_offset
        # (W @ centred^T)^T == centred @ W^T, computed sparse-side.
        result = self._csr.dot(centred.T).T
        if out is None:
            return np.ascontiguousarray(result)
        np.copyto(out, result)
        return out
