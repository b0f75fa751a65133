"""Weight-application backends for the batched solver engine.

The inner loop of every circuit is "apply the device-to-neuron weight matrix
to a block of centred device states".  For the LIF-GW circuit the weight
matrix is a skinny ``(n, rank)`` dense array; for LIF-Trevisan it is the
``(n, n)`` Trevisan matrix, which for the large low-density instances in
:mod:`repro.graphs.repository` is mostly zeros.  The engine therefore routes
the product through a small registry of backends:

* ``dense`` — namespace matmul through an :class:`~repro.engine.xp.ArrayBackend`
  (NumPy by default, torch/cupy opt-in).  On the NumPy array path this is
  the bitwise-pinned reference (``tests/test_engine_goldens.py``).
* ``sparse`` — :mod:`scipy.sparse` CSR product, built from the graph's cached
  CSR adjacency (:meth:`repro.graphs.graph.Graph.to_csr`) when the circuit
  provides a sparse weight builder.  Results agree with ``dense`` to
  floating-point round-off (summation order differs).  Host-only: scipy has
  no tensor namespace, so ``sparse`` pairs only with the ``numpy`` array
  backend.

Selection API
-------------
:meth:`WeightBackend.for_graph` is the one constructor-selector: it resolves
a backend spec/policy through :func:`repro.engine.xp.resolve_backend` and
builds the weight backend for a graph.  An explicit weight name in the spec
(``"sparse"``, ``"torch:dense"``, an ``ExecutionPolicy`` whose ``backend``
says so) is **always honoured**; only ``"auto"`` consults the density
heuristic — ``sparse`` when the weights are square, the graph is large
(>= ``SPARSE_MIN_VERTICES``) and its edge density is below
``SPARSE_DENSITY_THRESHOLD``, ``dense`` otherwise.  New backends (GPU,
blocked, ...) can be registered with :func:`register_backend`.
"""

from __future__ import annotations

import inspect
from typing import Callable, Dict, Optional

import numpy as np
import scipy.sparse as sp

from repro.engine.xp import (
    AUTO,
    ArrayBackend,
    get_array_backend,
    resolve_backend,
)
from repro.utils.validation import ValidationError

__all__ = [
    "WeightBackend",
    "DenseBackend",
    "SparseBackend",
    "register_backend",
    "list_backends",
    "SPARSE_DENSITY_THRESHOLD",
    "SPARSE_MIN_VERTICES",
]

#: Graphs at least this dense always use the dense backend under ``"auto"``.
SPARSE_DENSITY_THRESHOLD: float = 0.05

#: Graphs smaller than this always use the dense backend under ``"auto"``.
SPARSE_MIN_VERTICES: int = 128


def _policy_to_spec(policy):
    """Extract the backend spec from a policy-like object.

    Accepts the spec forms :func:`repro.engine.xp.resolve_backend` takes
    directly (``None`` / str / ``BackendSpec`` / ``ResolvedBackend`` /
    ``ArrayBackend``) plus any object carrying a ``backend`` attribute —
    notably :class:`repro.workloads.spec.ExecutionPolicy` — so an explicit
    ``--backend`` override travels with the policy instead of being lost.
    """
    if isinstance(policy, (str, bytes)) or policy is None:
        return policy
    backend = getattr(policy, "backend", None)
    if isinstance(backend, str):
        return backend
    return policy


class WeightBackend:
    """Interface: turn centred device-state blocks into synaptic currents."""

    name: str = "backend"

    #: The array backend whose namespace :meth:`drive` computes in.  Set by
    #: the concrete constructors (or by :meth:`for_graph` for third-party
    #: backends that predate the seam); ``None`` means "host numpy".
    array: Optional[ArrayBackend] = None

    def drive(
        self,
        device_block,
        input_offset: float,
        out=None,
    ):
        """Currents ``(s - offset) W^T`` for a ``(steps, devices)`` block.

        Blocks and results are arrays of the backend's array namespace
        (:attr:`array`).  ``out``, when given, receives the product in place
        (a C-contiguous ``(steps, neurons)`` buffer), avoiding an
        intermediate allocation.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    @classmethod
    def for_graph(
        cls,
        graph,
        weights: np.ndarray,
        policy="auto",
        sparse_weights=None,
    ) -> "WeightBackend":
        """Resolve *policy* and construct the weight backend for *graph*.

        Parameters
        ----------
        graph:
            The graph being solved; supplies the density signal for the
            ``"auto"`` weight route (may be ``None``, which routes dense).
        weights:
            Dense device-to-neuron weight matrix.
        policy:
            A backend spec (``"auto"``, ``"sparse"``, ``"torch:dense"``, a
            :class:`~repro.engine.xp.BackendSpec`/``ResolvedBackend``), or a
            policy object with a ``backend`` attribute
            (:class:`~repro.workloads.spec.ExecutionPolicy`).  Explicit
            weight names always win over the density heuristic.
        sparse_weights:
            Optional sparse weight matrix (or zero-argument builder) supplied
            by the circuit; required for ``"auto"`` to ever pick ``sparse``.

        The constructed backend carries the resolved
        :class:`~repro.engine.xp.ArrayBackend` on its ``array`` attribute, so
        callers get both seams from one call.
        """
        resolved = resolve_backend(_policy_to_spec(policy))
        weights = np.asarray(weights)
        name = resolved.weight
        if name == AUTO:
            n_rows, n_cols = weights.shape
            use_sparse = (
                resolved.array.name == "numpy"
                and sparse_weights is not None
                and n_rows == n_cols
                and graph is not None
                and graph.n_vertices >= SPARSE_MIN_VERTICES
                and graph.density() < SPARSE_DENSITY_THRESHOLD
            )
            name = "sparse" if use_sparse else "dense"
        factory = _get_factory(name)
        backend = _construct(factory, weights, sparse_weights, resolved.array)
        if backend.array is None:
            backend.array = resolved.array
        return backend


class DenseBackend(WeightBackend):
    """Namespace matmul backend — the bitwise-pinned drive on the NumPy
    array path."""

    name = "dense"

    def __init__(
        self,
        weights: np.ndarray,
        sparse_weights=None,
        array_backend: Optional[ArrayBackend] = None,
    ) -> None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 2:
            raise ValidationError(f"weights must be 2-D, got shape {weights.shape}")
        if not np.all(np.isfinite(weights)):
            raise ValidationError("weights must be finite")
        self.array = array_backend or get_array_backend("numpy")
        # On numpy this is the transpose *view* of the float64 weights, the
        # operand the pinned goldens were computed with; accelerator
        # backends get a device copy.
        self._weights_t = self.array.asarray(weights.T)

    def drive(self, device_block, input_offset: float, out=None):
        # One 2-D product per call: `(s - offset) @ W^T` on a transpose view.
        # The engine calls it once per trial, so a trial's currents do not
        # depend on which trials share its block.
        if device_block.shape[-1] != self._weights_t.shape[0]:
            raise ValidationError(
                f"device block has {device_block.shape[-1]} devices, the weights "
                f"expect {self._weights_t.shape[0]}"
            )
        xp = self.array
        centred = xp.astype(device_block, "float64") - input_offset
        return xp.matmul(centred, self._weights_t, out=out)


class SparseBackend(WeightBackend):
    """scipy.sparse CSR backend for large, low-density weight matrices.

    Host-only: the CSR product runs in scipy, so this backend pairs only
    with the ``numpy`` array backend (``"torch:sparse"`` is rejected).
    """

    name = "sparse"

    def __init__(
        self,
        weights: np.ndarray,
        sparse_weights=None,
        array_backend: Optional[ArrayBackend] = None,
    ) -> None:
        if array_backend is not None and array_backend.name != "numpy":
            raise ValidationError(
                f"the sparse weight backend is host-only (scipy CSR) and "
                f"cannot pair with array backend {array_backend.name!r}; "
                f"use '<array>:dense' or the numpy array backend"
            )
        self.array = array_backend or get_array_backend("numpy")
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


#: Registered backend factories: name -> (weights, sparse_weights) -> backend.
_REGISTRY: Dict[str, Callable[..., WeightBackend]] = {}


def register_backend(name: str, factory: Callable[..., WeightBackend]) -> None:
    """Register a backend factory ``(weights, sparse_weights=None) -> WeightBackend``.

    Factories that additionally accept an ``array_backend`` keyword are
    handed the resolved :class:`~repro.engine.xp.ArrayBackend`; older
    two-argument factories keep working (their backends run host-side).
    """
    if not name or name == AUTO:
        raise ValidationError(f"invalid backend name {name!r}")
    _REGISTRY[name] = factory


def _get_factory(name: str) -> Callable[..., WeightBackend]:
    """Registry lookup without the deprecation warning (internal use)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValidationError(
            f"unknown backend {name!r}; registered: {list_backends()}"
        ) from None


def _construct(
    factory: Callable[..., WeightBackend],
    weights: np.ndarray,
    sparse_weights,
    array_backend: ArrayBackend,
) -> WeightBackend:
    """Call a factory, passing ``array_backend`` only if it accepts it."""
    try:
        params = inspect.signature(factory).parameters
    except (TypeError, ValueError):  # pragma: no cover - builtins/extensions
        params = {}
    takes_array = "array_backend" in params or any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()
    )
    if takes_array:
        return factory(
            weights, sparse_weights=sparse_weights, array_backend=array_backend
        )
    return factory(weights, sparse_weights=sparse_weights)


def list_backends() -> list[str]:
    """Names of all registered weight backends."""
    return sorted(_REGISTRY)


def probe_weight_backends() -> list[dict]:
    """JSON-safe availability report for registered weight backends.

    Weight backends are pure-python factories over numpy/scipy, so they are
    always available; the report mirrors
    :func:`repro.engine.xp.probe_array_backends` for the ``repro backends``
    listing.
    """
    reports = []
    for name in list_backends():
        reason = "numpy/scipy weight backend"
        if name == "sparse":
            reason = "scipy CSR weight backend (numpy array path only)"
        elif name == "dense":
            reason = "namespace matmul (any array backend)"
        reports.append(
            {"name": name, "available": True, "reason": reason, "device": "cpu"}
        )
    return reports


register_backend("dense", DenseBackend)
register_backend("sparse", SparseBackend)
