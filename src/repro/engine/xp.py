"""The array-API seam: one engine code path for CPU and GPU tensors.

The batched engine's hot loop — device-state transfer, the weight matmul,
the lock-step membrane updates, the sign read-out — is pure ndarray math.
This module abstracts *which* ndarray library executes it behind an
:class:`ArrayBackend`: a thin, registered adapter exposing the handful of
namespace operations the engine uses (``matmul``, ``multiply``, ``add``,
``astype``, allocation, host transfer) with NumPy semantics.  Three adapters
ship:

``numpy`` (default)
    The identity adapter.  Every operation *is* the module-level NumPy call
    the engine historically made, so the engine's NumPy path keeps its
    pinned bits.
``torch`` / ``cupy``
    Optional GPU-capable adapters, registered unconditionally but gated by
    an availability probe (importable? device visible?).  Resolving one
    that is unavailable fails loudly with the probe's reason.

RNG bridge
----------
Random sampling stays on **host NumPy**, whatever the array backend: the
per-trial ``SeedSequence`` chain (``spawn_key=(i,)`` children, the identity
every subsystem shares) drives the circuits' own device pools on the CPU,
and only the sampled state block is transferred with
:meth:`ArrayBackend.asarray`.  Seeds therefore stay bit-identical across
backends — a torch run consumes exactly the random numbers a numpy run
does, and differences are confined to floating-point summation order.
The int8 read-out assignments travel back through
:meth:`ArrayBackend.to_numpy` for the same reason: cut evaluation
(:class:`repro.cuts.cut.BatchCutEvaluator`), the
:class:`~repro.engine.tracker.BestCutTracker` and all control flow stay on
the host, the dynamics' kernels stay on the device.

Backend specs
-------------
:func:`resolve_backend` is the single entry point for backend selection.
It accepts a compact spec naming either or both seams::

    resolve_backend("auto")          # numpy array path, auto weight routing
    resolve_backend("dense")         # numpy + dense weights, forced
    resolve_backend("torch")         # torch array path, auto weights
    resolve_backend("torch:dense")   # torch + dense, forced
    resolve_backend("numpy:sparse")  # numpy + scipy CSR weights, forced

i.e. ``"<array>"``, ``"<weight>"``, or ``"<array>:<weight>"``; ``None`` and
``"auto"`` mean "numpy, auto weight routing".  The same spec strings are
accepted end-to-end: ``SolveRequest.backend``, ``ExecutionPolicy.backend``,
``repro run/solve/compare/engine --backend``, and the serve payload's
``"backend"`` key.  Weight-backend *construction* for a resolved spec lives
in :meth:`repro.engine.backends.WeightBackend.for_graph`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from repro.utils.validation import ValidationError

__all__ = [
    "ArrayBackend",
    "NumpyArrayBackend",
    "TorchArrayBackend",
    "CupyArrayBackend",
    "BackendSpec",
    "ResolvedBackend",
    "register_array_backend",
    "get_array_backend",
    "list_array_backends",
    "probe_array_backends",
    "parse_backend_spec",
    "resolve_backend",
]


class ArrayBackend:
    """Adapter protocol: the namespace operations the engine hot loop uses.

    Subclasses bind ``name`` and implement the namespace hooks.  All array
    arguments and results are the backend's native arrays except where a
    method is explicitly a host bridge (:meth:`asarray` in,
    :meth:`to_numpy` out).  Dtypes are named by NumPy-style strings
    (``"float64"``, ``"int8"``, ``"bool"``) and mapped to the backend's
    dtype objects by :meth:`dtype` — the engine's dtype policy is float64
    state everywhere (GPU backends run fp64 so parity with the CPU path
    stays within summation-order round-off; narrower policies can subclass).
    """

    name: str = "array"

    # -- availability ------------------------------------------------------
    def available(self) -> Tuple[bool, str]:
        """``(ok, reason)`` — may the backend be resolved on this host?"""
        raise NotImplementedError

    def device_label(self) -> str:
        """Human-readable execution device (``"cpu"``, ``"cuda:0"``, ...)."""
        return "cpu"

    # -- host bridge -------------------------------------------------------
    def asarray(self, array: Any, dtype: Optional[str] = None) -> Any:
        """Transfer a host array in (no copy when already native + on-device)."""
        raise NotImplementedError

    def to_numpy(self, array: Any) -> np.ndarray:
        """Transfer a backend array back to host NumPy (identity on numpy)."""
        raise NotImplementedError

    # -- dtype / allocation ------------------------------------------------
    def dtype(self, name: str) -> Any:
        """The backend dtype object for a NumPy-style dtype name."""
        raise NotImplementedError

    def empty(self, shape: Tuple[int, ...], dtype: str = "float64") -> Any:
        raise NotImplementedError

    def zeros(self, shape: Tuple[int, ...], dtype: str = "float64") -> Any:
        raise NotImplementedError

    def astype(self, array: Any, dtype: str) -> Any:
        raise NotImplementedError

    # -- kernels -----------------------------------------------------------
    def matmul(self, a: Any, b: Any, out: Optional[Any] = None) -> Any:
        raise NotImplementedError

    def multiply(self, a: Any, b: Any, out: Optional[Any] = None) -> Any:
        raise NotImplementedError

    def add(self, a: Any, b: Any, out: Optional[Any] = None) -> Any:
        raise NotImplementedError

    # -- introspection -----------------------------------------------------
    def probe(self) -> Dict[str, Any]:
        """JSON-safe availability report (``repro backends``)."""
        ok, reason = self.available()
        return {
            "name": self.name,
            "available": bool(ok),
            "reason": reason,
            "device": self.device_label() if ok else None,
        }

    def __repr__(self) -> str:  # pragma: no cover - repr formatting
        return f"{type(self).__name__}(name={self.name!r})"


class NumpyArrayBackend(ArrayBackend):
    """The default host backend: every hook is the plain NumPy call.

    This adapter is deliberately transparent — ``asarray``/``to_numpy`` are
    ``np.asarray`` (no copies for ndarray input), and each kernel delegates
    to the module-level function the engine used before the seam existed —
    so routing the engine through it is a refactor, not a numeric change:
    outputs are bit-identical to the pre-seam engine.
    """

    name = "numpy"

    def available(self) -> Tuple[bool, str]:
        return True, "numpy is always available"

    def asarray(self, array: Any, dtype: Optional[str] = None) -> Any:
        if dtype is None:
            return np.asarray(array)
        return np.asarray(array, dtype=self.dtype(dtype))

    def to_numpy(self, array: Any) -> np.ndarray:
        return np.asarray(array)

    def dtype(self, name: str) -> Any:
        return np.dtype(name)

    def empty(self, shape: Tuple[int, ...], dtype: str = "float64") -> Any:
        return np.empty(shape, dtype=self.dtype(dtype))

    def zeros(self, shape: Tuple[int, ...], dtype: str = "float64") -> Any:
        return np.zeros(shape, dtype=self.dtype(dtype))

    def astype(self, array: Any, dtype: str) -> Any:
        return array.astype(self.dtype(dtype))

    def matmul(self, a: Any, b: Any, out: Optional[Any] = None) -> Any:
        if out is None:
            return np.matmul(a, b)
        return np.matmul(a, b, out=out)

    def multiply(self, a: Any, b: Any, out: Optional[Any] = None) -> Any:
        if out is None:
            return np.multiply(a, b)
        return np.multiply(a, b, out=out)

    def add(self, a: Any, b: Any, out: Optional[Any] = None) -> Any:
        if out is None:
            return np.add(a, b)
        return np.add(a, b, out=out)


class TorchArrayBackend(ArrayBackend):
    """PyTorch adapter (CPU or CUDA), float64 state for near-parity.

    The device policy is "best visible": CUDA when available, else CPU —
    fixed at first use so one resolved backend never migrates mid-run.
    Torch's ``out=`` kernels line up with the NumPy expressions the engine
    writes.
    """

    name = "torch"

    def __init__(self, device: Optional[str] = None) -> None:
        self._requested_device = device
        self._device = None

    def _torch(self):
        import torch

        return torch

    def available(self) -> Tuple[bool, str]:
        try:
            self._torch()
        except ImportError:
            return False, "torch is not importable (pip install torch)"
        return True, f"torch on {self.device_label()}"

    def device_label(self) -> str:
        if self._device is None:
            if self._requested_device is not None:
                self._device = self._requested_device
            else:
                try:
                    torch = self._torch()
                    self._device = "cuda" if torch.cuda.is_available() else "cpu"
                except ImportError:
                    return "unavailable"
        return self._device

    def asarray(self, array: Any, dtype: Optional[str] = None) -> Any:
        torch = self._torch()
        kwargs = {"device": self.device_label()}
        if dtype is not None:
            kwargs["dtype"] = self.dtype(dtype)
        return torch.asarray(np.ascontiguousarray(array), **kwargs)

    def to_numpy(self, array: Any) -> np.ndarray:
        if isinstance(array, np.ndarray):
            # Host-bridge read-outs (plasticity) hand back arrays that never
            # left the host; pass them through untouched.
            return array
        return array.detach().cpu().numpy()

    def dtype(self, name: str) -> Any:
        torch = self._torch()
        return {
            "float64": torch.float64,
            "float32": torch.float32,
            "int64": torch.int64,
            "int8": torch.int8,
            "bool": torch.bool,
        }[name]

    def empty(self, shape: Tuple[int, ...], dtype: str = "float64") -> Any:
        torch = self._torch()
        return torch.empty(shape, dtype=self.dtype(dtype), device=self.device_label())

    def zeros(self, shape: Tuple[int, ...], dtype: str = "float64") -> Any:
        torch = self._torch()
        return torch.zeros(shape, dtype=self.dtype(dtype), device=self.device_label())

    def astype(self, array: Any, dtype: str) -> Any:
        return array.to(self.dtype(dtype))

    def matmul(self, a: Any, b: Any, out: Optional[Any] = None) -> Any:
        torch = self._torch()
        if out is None:
            return torch.matmul(a, b)
        torch.matmul(a, b, out=out)
        return out

    def multiply(self, a: Any, b: Any, out: Optional[Any] = None) -> Any:
        torch = self._torch()
        if out is None:
            return torch.multiply(a, b)
        torch.multiply(a, b, out=out)
        return out

    def add(self, a: Any, b: Any, out: Optional[Any] = None) -> Any:
        torch = self._torch()
        if out is None:
            return torch.add(a, b)
        torch.add(a, b, out=out)
        return out


class CupyArrayBackend(ArrayBackend):
    """CuPy adapter: NumPy-compatible namespace, so hooks mostly delegate."""

    name = "cupy"

    def _cupy(self):
        import cupy

        return cupy

    def available(self) -> Tuple[bool, str]:
        try:
            cupy = self._cupy()
        except ImportError:
            return False, "cupy is not importable (pip install cupy-cuda12x)"
        try:
            count = cupy.cuda.runtime.getDeviceCount()
        except Exception as exc:  # noqa: BLE001 - any runtime error means no GPU
            return False, f"cupy importable but no CUDA runtime ({exc})"
        if count < 1:
            return False, "cupy importable but no CUDA device is visible"
        return True, f"cupy on {self.device_label()}"

    def device_label(self) -> str:
        try:
            cupy = self._cupy()
            return f"cuda:{cupy.cuda.runtime.getDevice()}"
        except Exception:  # noqa: BLE001 - label only
            return "unavailable"

    def asarray(self, array: Any, dtype: Optional[str] = None) -> Any:
        cupy = self._cupy()
        if dtype is None:
            return cupy.asarray(array)
        return cupy.asarray(array, dtype=self.dtype(dtype))

    def to_numpy(self, array: Any) -> np.ndarray:
        return self._cupy().asnumpy(array)

    def dtype(self, name: str) -> Any:
        return np.dtype(name)

    def empty(self, shape: Tuple[int, ...], dtype: str = "float64") -> Any:
        return self._cupy().empty(shape, dtype=self.dtype(dtype))

    def zeros(self, shape: Tuple[int, ...], dtype: str = "float64") -> Any:
        return self._cupy().zeros(shape, dtype=self.dtype(dtype))

    def astype(self, array: Any, dtype: str) -> Any:
        return array.astype(self.dtype(dtype))

    def matmul(self, a: Any, b: Any, out: Optional[Any] = None) -> Any:
        cupy = self._cupy()
        if out is None:
            return cupy.matmul(a, b)
        return cupy.matmul(a, b, out=out)

    def multiply(self, a: Any, b: Any, out: Optional[Any] = None) -> Any:
        cupy = self._cupy()
        if out is None:
            return cupy.multiply(a, b)
        return cupy.multiply(a, b, out=out)

    def add(self, a: Any, b: Any, out: Optional[Any] = None) -> Any:
        cupy = self._cupy()
        if out is None:
            return cupy.add(a, b)
        return cupy.add(a, b, out=out)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_ARRAY_REGISTRY: Dict[str, ArrayBackend] = {}

#: Spec segment meaning "pick for me" on either seam.
AUTO = "auto"


def register_array_backend(backend: ArrayBackend, overwrite: bool = False) -> ArrayBackend:
    """Register an :class:`ArrayBackend` instance under its ``name``.

    Registration is unconditional — availability is probed at *resolve*
    time, so listing shows unavailable backends with their reasons instead
    of hiding them.  Returns the backend, so it composes as a decorator on
    factories returning instances.
    """
    name = backend.name
    if not name or name == AUTO or ":" in name:
        raise ValidationError(f"invalid array backend name {name!r}")
    if name in _ARRAY_REGISTRY and not overwrite:
        raise ValidationError(
            f"array backend {name!r} is already registered "
            f"(pass overwrite=True to replace it)"
        )
    _ARRAY_REGISTRY[name] = backend
    return backend


def get_array_backend(name: str) -> ArrayBackend:
    """Look up a registered array backend by name (no availability check)."""
    try:
        return _ARRAY_REGISTRY[name]
    except KeyError:
        raise ValidationError(
            f"unknown array backend {name!r}; registered: {list_array_backends()}"
        ) from None


def list_array_backends() -> list:
    """Names of all registered array backends."""
    return sorted(_ARRAY_REGISTRY)


def probe_array_backends() -> list:
    """Availability report for every registered array backend."""
    return [_ARRAY_REGISTRY[name].probe() for name in list_array_backends()]


register_array_backend(NumpyArrayBackend())
register_array_backend(TorchArrayBackend())
register_array_backend(CupyArrayBackend())


# ---------------------------------------------------------------------------
# Backend specs and resolution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BackendSpec:
    """A parsed backend spec: which array namespace, which weight backend."""

    array: str = AUTO
    weight: str = AUTO

    def __str__(self) -> str:
        return f"{self.array}:{self.weight}"


@dataclass(frozen=True)
class ResolvedBackend:
    """A resolved spec: a live (available) array backend + a weight choice.

    ``weight`` is either a registered weight-backend name or ``"auto"``
    (density-routed per graph by
    :meth:`repro.engine.backends.WeightBackend.for_graph`).
    """

    array: ArrayBackend
    weight: str = AUTO

    @property
    def describe(self) -> str:
        return f"{self.array.name}:{self.weight}"


def _weight_backend_names() -> list:
    # Function-level import: backends.py imports this module for the
    # ArrayBackend types, so the registry lookup must be lazy here.
    from repro.engine.backends import list_backends

    return list_backends()


def parse_backend_spec(
    spec: Union[None, str, BackendSpec],
) -> BackendSpec:
    """Parse a backend spec without probing availability.

    Accepts ``None``/``"auto"`` (numpy seam, auto weight), a bare array
    backend name (``"torch"``), a bare weight backend name (``"sparse"``),
    or the explicit two-seam form ``"<array>:<weight>"``.  Raises
    :class:`ValidationError` on unknown names or malformed specs.
    """
    if spec is None:
        return BackendSpec()
    if isinstance(spec, BackendSpec):
        spec = str(spec)
    if not isinstance(spec, str):
        raise ValidationError(
            f"backend spec must be a string (or None/BackendSpec), "
            f"got {type(spec).__name__}"
        )
    text = spec.strip().lower()
    if not text or text == AUTO:
        return BackendSpec()
    arrays = list_array_backends()
    weights = _weight_backend_names()
    if ":" in text:
        array_part, _, weight_part = text.partition(":")
        array_part = array_part or AUTO
        weight_part = weight_part or AUTO
        if array_part != AUTO and array_part not in arrays:
            raise ValidationError(
                f"unknown array backend {array_part!r} in spec {spec!r}; "
                f"registered: {arrays}"
            )
        if weight_part != AUTO and weight_part not in weights:
            raise ValidationError(
                f"unknown weight backend {weight_part!r} in spec {spec!r}; "
                f"registered: {weights}"
            )
        return BackendSpec(array=array_part, weight=weight_part)
    if text in arrays:
        return BackendSpec(array=text)
    if text in weights:
        return BackendSpec(weight=text)
    raise ValidationError(
        f"unknown backend spec {spec!r}; expected 'auto', an array backend "
        f"{arrays}, a weight backend {weights}, or '<array>:<weight>'"
    )


def resolve_backend(
    spec: Union[None, str, BackendSpec, ArrayBackend, ResolvedBackend] = None,
) -> ResolvedBackend:
    """Resolve a backend spec into a live, availability-checked backend pair.

    The single entry point for backend selection (module docstring).  An
    :class:`ArrayBackend` instance passes through (with an availability
    check); a :class:`ResolvedBackend` is returned as-is.  ``"auto"`` — and
    an ``"auto"`` array segment — resolves to ``numpy``: accelerators are
    opt-in, because only the numpy path carries the bit-identity guarantee.
    """
    if isinstance(spec, ResolvedBackend):
        return spec
    if isinstance(spec, ArrayBackend):
        ok, reason = spec.available()
        if not ok:
            raise ValidationError(
                f"array backend {spec.name!r} is unavailable: {reason}"
            )
        return ResolvedBackend(array=spec, weight=AUTO)
    parsed = parse_backend_spec(spec)
    array_name = "numpy" if parsed.array == AUTO else parsed.array
    array = get_array_backend(array_name)
    ok, reason = array.available()
    if not ok:
        raise ValidationError(
            f"array backend {array_name!r} is unavailable: {reason}"
        )
    return ResolvedBackend(array=array, weight=parsed.weight)
