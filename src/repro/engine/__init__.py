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
:data:`BACKENDS` / :func:`check_backend` / :meth:`WeightBackend.for_graph`
    The backend choice — ``"auto"`` (density-routed), ``"dense"`` or
    ``"sparse"`` — and the weight backend it builds for a graph.  The
    engine computes in NumPy.
:func:`solve_instance_block`
    Run many requests at once: requests of equal execution shape share one
    engine run as row segments of one group, bitwise per request (the solve
    service's batches, the workload executor's cell units).
"""

from repro.engine.backends import (
    BACKENDS,
    DenseBackend,
    SparseBackend,
    WeightBackend,
    check_backend,
)
from repro.engine.engine import BatchedSolverEngine, solve
from repro.engine.instances import solve_instance_block
from repro.engine.plan import BatchPlan, LearnerSpec
from repro.engine.request import EarlyStopConfig, SolveRequest, SolveResult
from repro.engine.sampler import (
    BatchDeviceSampler,
    request_trial_seeds,
    trial_seed_sequences,
)
from repro.engine.simulator import BatchLIFSimulator
from repro.engine.tracker import BestCutTracker

__all__ = [
    "BACKENDS",
    "BatchDeviceSampler",
    "BatchLIFSimulator",
    "BatchPlan",
    "BatchedSolverEngine",
    "BestCutTracker",
    "DenseBackend",
    "EarlyStopConfig",
    "LearnerSpec",
    "SolveRequest",
    "SolveResult",
    "SparseBackend",
    "WeightBackend",
    "check_backend",
    "request_trial_seeds",
    "solve",
    "solve_instance_block",
    "trial_seed_sequences",
]
