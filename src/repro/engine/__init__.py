"""Batched solver engine: trial-parallel device + LIF simulation.

Public API
----------
:class:`SolveRequest` / :class:`SolveResult`
    Describe and report a batch of independent circuit trials on one graph.
:class:`BatchedSolverEngine` / :func:`solve`
    Execute a request with trial-parallel simulation — the circuits' only
    dynamics implementation (``sample_cuts`` is a one-trial solve).
:class:`EarlyStopConfig`
    Plateau rule for streaming best-cut early stopping.
:func:`resolve_backend` / :meth:`WeightBackend.for_graph`
    The backend-selection API: one spec string ("auto", "sparse",
    "torch:dense", ...) resolves both the array namespace
    (:class:`ArrayBackend`: numpy/torch/cupy) and the weight backend.
:func:`register_backend` / :func:`list_backends` /
:func:`register_array_backend` / :func:`list_array_backends`
    Extend or inspect the weight- and array-backend registries
    (``dense``/``sparse`` and ``numpy``/``torch``/``cupy`` ship by default).
:func:`solve_instance_block`
    Run many requests at once: requests of equal execution shape share one
    engine run as row segments of one group, bitwise per request (the solve
    service's batches, the workload executor's cell units).
"""

from repro.engine.backends import (
    DenseBackend,
    SparseBackend,
    WeightBackend,
    list_backends,
    probe_weight_backends,
    register_backend,
)
from repro.engine.engine import BatchedSolverEngine, solve
from repro.engine.instances import solve_instance_block
from repro.engine.plan import BatchPlan
from repro.engine.request import EarlyStopConfig, SolveRequest, SolveResult
from repro.engine.sampler import (
    BatchDeviceSampler,
    request_trial_seeds,
    trial_seed_sequences,
)
from repro.engine.simulator import BatchLIFSimulator
from repro.engine.tracker import BestCutTracker
from repro.engine.xp import (
    ArrayBackend,
    BackendSpec,
    CupyArrayBackend,
    NumpyArrayBackend,
    ResolvedBackend,
    TorchArrayBackend,
    get_array_backend,
    list_array_backends,
    parse_backend_spec,
    probe_array_backends,
    register_array_backend,
    resolve_backend,
)

__all__ = [
    "ArrayBackend",
    "BackendSpec",
    "BatchDeviceSampler",
    "BatchLIFSimulator",
    "BatchPlan",
    "BatchedSolverEngine",
    "BestCutTracker",
    "CupyArrayBackend",
    "DenseBackend",
    "EarlyStopConfig",
    "NumpyArrayBackend",
    "ResolvedBackend",
    "SolveRequest",
    "SolveResult",
    "SparseBackend",
    "TorchArrayBackend",
    "WeightBackend",
    "get_array_backend",
    "list_array_backends",
    "list_backends",
    "parse_backend_spec",
    "probe_array_backends",
    "probe_weight_backends",
    "register_array_backend",
    "register_backend",
    "request_trial_seeds",
    "resolve_backend",
    "solve",
    "solve_instance_block",
    "trial_seed_sequences",
]
