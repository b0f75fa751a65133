"""Request groups: many solve requests in as few engine runs as their shapes allow.

A workload rarely solves *one* request: arena suites race a circuit over a
family of same-size instances, the problem compiler emits batches of
same-shape reductions, and the solve service queues many small requests at
once.  :func:`solve_instance_block` partitions such requests by exact
execution shape and runs each partition through
:meth:`repro.engine.engine.BatchedSolverEngine.solve_group` as one group of
rows — requests on one circuit instance as one segment, different circuits
as further segments of the same run (see :mod:`repro.engine.engine`).
Because every row is computed on its own, each result is bitwise identical
(numpy array path) to its standalone :func:`repro.engine.engine.solve`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.engine.engine import BatchedSolverEngine, resolve_request
from repro.engine.request import SolveRequest, SolveResult

__all__ = ["solve_instance_block"]


def solve_instance_block(requests: Sequence[SolveRequest]) -> List[SolveResult]:
    """Solve *requests*, sharing engine runs wherever their shapes allow.

    Requests are partitioned by exact execution shape (neurons, devices,
    burn-in, interval, read-out, LIF parameters, learner spec, samples,
    weight backend, record flags); each partition runs as one group of rows.  A
    request with an early-stop rule, a deadline or no trials runs alone: a
    stop decided over shared rows would couple it to its batch-mates.
    Results come back in input order.  A group of more than one request
    marks its results with ``metadata["instance_block"] = {size, index,
    fused_trials, segments, segment_trials}``.
    """
    resolved = [resolve_request(request) for request in requests]
    groups: Dict[tuple, List[int]] = {}
    for index, item in enumerate(resolved):
        request = item.request
        alone = (
            request.n_trials == 0 or request.early_stop is not None
            or request.deadline_seconds is not None
        )
        groups.setdefault(("alone", index) if alone else item.shape(), []).append(index)
    engine = BatchedSolverEngine()
    results: List[Optional[SolveResult]] = [None] * len(resolved)
    for indices in groups.values():
        group = engine.solve_group([resolved[index] for index in indices])
        for index, result in zip(indices, group):
            results[index] = result
    return results
