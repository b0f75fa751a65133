"""Graph-axis batching: many same-shape instances in one kernel invocation.

The trial-parallel engine already fuses a request's trials into one
``(trials, steps, neurons)`` current tensor and one lock-step integration.
But a workload rarely solves *one* graph: arena suites race a circuit over a
family of same-size instances, the problem compiler emits batches of
same-shape reductions, and the solve service queues many small requests at
once.  Each instance paid the per-step Python dispatch of its own
integration loop.

:class:`InstanceBlock` stacks same-shape instances × trials along the trial
axis: every instance's weight product is driven into its row slice of one
shared current tensor (``BatchLIFSimulator.drive_currents(..., out=rows)``),
and a *single* integration loop advances all instances' membranes together.
Because every engine operation is trial-row-independent — elementwise
integration, per-trial drives, per-row read-outs — each instance's rows are
bitwise identical to what its standalone :func:`repro.engine.engine.solve`
would produce (the same composition property the serve coalescer exploits
along the trials axis; this module extends it along the graph axis).

Fusion requirements (checked by :meth:`InstanceBlock.build`): identical
execution shape (``n_neurons``, ``n_devices``, ``burn_in``, ``interval``,
read-out mode, LIF parameters, ``n_samples``), the same resolved array
backend and weight-backend name, a ``membrane`` or ``spike`` read-out, and
no ``early_stop``/``deadline_seconds`` (a stop driven by the fused
distribution would couple instances to their block-mates).
:func:`solve_instance_block` is the lenient front door: it fuses when it can
and transparently falls back to per-request
:func:`~repro.engine.engine.solve` calls when it cannot, so callers (the
workload executor, the serve batch loop, the bench harness) need no
pre-checks.

Plasticity read-outs are not fused yet.  The engine already steps a trial
block through one ``(trials, n)`` learner, but that learner is shaped and
configured per graph: one circuit's ``plasticity_builder`` fixes its rule
parameters (learning rate, decay, input normalisation), and a fused block
would need one learner spanning every instance's rows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cuts.cut import BatchCutEvaluator, Cut
from repro.engine.backends import WeightBackend
from repro.engine.coalesce import request_trial_seeds
from repro.engine.engine import BatchedSolverEngine, chunk_rounds, fold_chunk
from repro.engine.request import SolveRequest, SolveResult
from repro.engine.sampler import BatchDeviceSampler
from repro.engine.simulator import BatchLIFSimulator
from repro.neurons.encoding import (
    membrane_sign_assignments_xp,
    spikes_to_assignments_xp,
)
from repro.obs.trace import span
from repro.utils.logging import get_logger
from repro.utils.validation import ValidationError

__all__ = ["InstanceBlock", "solve_instance_block", "fusion_compatible"]

_logger = get_logger("engine.instances")

#: Read-out modes the fused integration supports.
_FUSABLE_READOUTS = ("membrane", "spike")


@dataclass
class _PreparedInstance:
    """One request, resolved down to the artefacts the fused run needs."""

    request: SolveRequest
    circuit: object
    plan: object
    backend: WeightBackend
    lo: int = 0
    hi: int = 0


def _prepare(requests: Sequence[SolveRequest]) -> List[_PreparedInstance]:
    engine = BatchedSolverEngine()
    prepared = []
    for request in requests:
        circuit = engine._resolve_circuit(request)
        plan = circuit.engine_plan()
        backend = WeightBackend.for_graph(
            circuit.graph, plan.weights, policy=request.backend,
            sparse_weights=plan.sparse_weights,
        )
        prepared.append(_PreparedInstance(request, circuit, plan, backend))
    return prepared


def _compatibility_error(prepared: List[_PreparedInstance]) -> Optional[str]:
    """Reason the prepared instances cannot fuse, or None when they can."""
    if len(prepared) < 1:
        return "no requests"
    first = prepared[0]
    shape0 = _shape(first)
    for index, inst in enumerate(prepared):
        request, plan = inst.request, inst.plan
        if request.n_trials < 1:
            return f"request {index}: n_trials must be >= 1"
        if request.early_stop is not None:
            return (
                f"request {index}: early_stop is set — a stop over the fused "
                f"block would couple instances to their block-mates"
            )
        if request.deadline_seconds is not None:
            return (
                f"request {index}: deadline_seconds is set — a deadline "
                f"truncating the fused block would couple instances"
            )
        if plan.readout not in _FUSABLE_READOUTS:
            return (
                f"request {index}: readout {plan.readout!r} is not fusable "
                f"(supported: {_FUSABLE_READOUTS})"
            )
        if inst.backend.array.name != first.backend.array.name:
            return (
                f"request {index}: array backend {inst.backend.array.name!r} "
                f"!= {first.backend.array.name!r}"
            )
        shape = _shape(inst)
        if shape != shape0:
            return f"request {index}: execution shape {shape} != {shape0}"
        if plan.lif != first.plan.lif:
            return f"request {index}: LIF parameters differ"
    return None


def _shape(inst: _PreparedInstance) -> Tuple:
    plan = inst.plan
    return (
        plan.n_neurons,
        plan.n_devices,
        plan.burn_in,
        plan.interval,
        plan.readout,
        inst.request.n_samples,
        inst.backend.name,
    )


def fusion_compatible(requests: Sequence[SolveRequest]) -> Tuple[bool, str]:
    """``(ok, reason)`` — may *requests* run as one :class:`InstanceBlock`?

    Builds circuits (cached instances pass through unbuilt), so prefer
    passing requests that already carry circuit instances.
    """
    try:
        reason = _compatibility_error(_prepare(requests))
    except ValidationError as exc:
        return False, str(exc)
    return (reason is None), (reason or "compatible")


class InstanceBlock:
    """A validated stack of same-shape solve requests, run as one kernel batch.

    Build with :meth:`build` (raises :class:`ValidationError` when the
    requests cannot fuse), execute with :meth:`solve`, which returns one
    :class:`~repro.engine.request.SolveResult` per input request — each
    bitwise identical (numpy array path) to its standalone engine solve.
    """

    def __init__(self, prepared: List[_PreparedInstance]) -> None:
        self._prepared = prepared
        lo = 0
        for inst in prepared:
            inst.lo = lo
            lo += inst.request.n_trials
            inst.hi = lo
        self._total_trials = lo

    @classmethod
    def build(cls, requests: Sequence[SolveRequest]) -> "InstanceBlock":
        prepared = _prepare(requests)
        reason = _compatibility_error(prepared)
        if reason is not None:
            raise ValidationError(f"cannot fuse instance block: {reason}")
        block = cls(prepared)
        # Memory guard: the fused current tensor must respect the tightest
        # constituent block cap (the engine's per-request blocking does not
        # apply inside a fused run).
        plan0 = prepared[0].plan
        n_steps = plan0.burn_in + prepared[0].request.n_samples * plan0.interval
        fused_bytes = block._total_trials * n_steps * plan0.n_neurons * 8
        cap = min(inst.request.max_block_bytes for inst in prepared)
        if fused_bytes > cap:
            raise ValidationError(
                f"cannot fuse instance block: fused current tensor needs "
                f"{fused_bytes} bytes, over the {cap}-byte block cap"
            )
        return block

    @property
    def n_instances(self) -> int:
        return len(self._prepared)

    @property
    def n_trials(self) -> int:
        return self._total_trials

    # ------------------------------------------------------------------
    def solve(self) -> List[SolveResult]:
        """Run the fused batch and split results back per request."""
        with span(
            "engine.fuse.block",
            n_instances=self.n_instances, fused_trials=self._total_trials,
        ):
            return self._solve()

    def _solve(self) -> List[SolveResult]:
        start = time.perf_counter()
        prepared = self._prepared
        first = prepared[0]
        plan0, request0 = first.plan, first.request
        xp = first.backend.array
        n_neurons = plan0.n_neurons
        n_samples = request0.n_samples
        n_steps = plan0.burn_in + n_samples * plan0.interval
        split = plan0.burn_in if plan0.readout == "spike" else 0

        # Phase 1 — drive: every instance's weight product lands in its row
        # slice of one block-wide current tensor.  Sampling stays on host
        # NumPy per trial (the RNG bridge), so each trial consumes exactly
        # the random numbers of its standalone run.
        currents = xp.empty((self._total_trials, n_steps, n_neurons), dtype="float64")
        with span("engine.fuse.drive", n_instances=self.n_instances):
            for inst in prepared:
                seeds = request_trial_seeds(inst.request)
                sampler = BatchDeviceSampler(
                    inst.circuit.build_device_pool, seeds,
                    n_devices=inst.plan.n_devices,
                )
                states = sampler.sample_block(range(inst.request.n_trials), n_steps)
                simulator = BatchLIFSimulator(inst.backend, inst.plan.lif, n_neurons)
                simulator.drive_currents(
                    xp.asarray(states), split_at=split, out=currents[inst.lo:inst.hi]
                )

        # Phase 2 — one lock-step integration over every instance's rows.
        integrator = BatchLIFSimulator(first.backend, plan0.lif, n_neurons)
        if plan0.readout == "membrane":
            rounds = integrator.iter_membrane_readouts(
                currents, plan0.burn_in, plan0.interval, n_samples
            )
        else:
            rounds = integrator.iter_spike_readouts(
                currents, plan0.burn_in, plan0.interval, n_samples
            )

        evaluators = [
            BatchCutEvaluator(inst.circuit.graph, array_backend=xp)
            for inst in prepared
        ]
        # Read-outs wait in `pending` until a chunk of rounds is evaluated,
        # one evaluator call per instance (fused blocks never stop early).
        chunk = chunk_rounds(
            self._total_trials,
            max(inst.circuit.graph.n_edges for inst in prepared), n_samples,
        )
        pending = xp.empty((chunk, self._total_trials, n_neurons), dtype="int8")
        n_pending = 0
        trajectories = np.zeros((self._total_trials, n_samples))
        best_weights = np.full(self._total_trials, -np.inf)
        best_assignments = np.zeros(
            (self._total_trials, n_neurons), dtype=np.int8
        )
        potential_rows = [
            np.zeros((inst.request.n_trials, n_samples, n_neurons))
            if inst.request.record_potentials and plan0.readout != "spike"
            else None
            for inst in prepared
        ]
        assignment_rows = [
            np.zeros((inst.request.n_trials, n_samples, n_neurons), dtype=np.int8)
            if inst.request.record_assignments
            else None
            for inst in prepared
        ]

        with span(
            "engine.fuse.integrate",
            n_instances=self.n_instances, rounds=n_samples,
        ):
            for r, payload in rounds:
                if plan0.readout == "membrane":
                    pending[n_pending] = membrane_sign_assignments_xp(xp, payload)
                else:
                    pending[n_pending] = spikes_to_assignments_xp(xp, payload)
                n_pending += 1
                for i, inst in enumerate(prepared):
                    if potential_rows[i] is not None:
                        potential_rows[i][:, r] = xp.to_numpy(payload[inst.lo:inst.hi])
                if n_pending < chunk and r + 1 < n_samples:
                    continue
                first = r + 1 - n_pending
                host = xp.to_numpy(pending[:n_pending])
                for i, inst in enumerate(prepared):
                    lo, hi = inst.lo, inst.hi
                    rows = pending[:n_pending, lo:hi].reshape(n_pending * (hi - lo), n_neurons)
                    weights = xp.to_numpy(evaluators[i].weights(rows))
                    fold_chunk(
                        weights.reshape(n_pending, hi - lo), host[:, lo:hi], first,
                        np.arange(lo, hi), trajectories[lo:hi], assignment_rows[i],
                        best_weights, best_assignments,
                    )
                n_pending = 0

        elapsed = time.perf_counter() - start
        _logger.debug(
            "instance block: %d instances x %d trials fused, %d rounds in %.3fs",
            self.n_instances, self._total_trials, n_samples, elapsed,
        )
        results = []
        for i, inst in enumerate(prepared):
            lo, hi = inst.lo, inst.hi
            weights = best_weights[lo:hi]
            best_trial = int(np.argmax(weights))
            graph = inst.circuit.graph
            best_cut = Cut(
                assignment=best_assignments[lo:hi][best_trial].copy(),
                weight=float(weights[best_trial]),
                graph_name=graph.name,
            )
            results.append(SolveResult(
                graph_name=graph.name,
                circuit_name=inst.circuit.name,
                backend_name=inst.backend.name,
                n_trials=inst.request.n_trials,
                n_samples=n_samples,
                n_rounds=n_samples,
                n_steps=n_steps,
                best_cut=best_cut,
                trial_best_weights=weights,
                trial_best_assignments=best_assignments[lo:hi],
                trajectories=trajectories[lo:hi],
                early_stopped=False,
                elapsed_seconds=elapsed,
                potentials=potential_rows[i],
                assignments=assignment_rows[i],
                metadata={
                    "n_blocks": 1,
                    "n_devices": inst.plan.n_devices,
                    "readout": inst.plan.readout,
                    "array_backend": xp.name,
                    "array_device": xp.device_label(),
                    "early_stop_round": None,
                    "deadline_exceeded": False,
                    **inst.plan.metadata,
                    "instance_block": {
                        "size": self.n_instances,
                        "index": i,
                        "fused_trials": int(self._total_trials),
                    },
                },
            ))
        return results


def solve_instance_block(
    requests: Sequence[SolveRequest],
) -> List[SolveResult]:
    """Solve *requests*, fusing them into one kernel batch when possible.

    The lenient front door: a single request, or any block that fails the
    fusion requirements, falls back to per-request
    :func:`repro.engine.engine.solve` calls (logging the reason at debug
    level).  Results are always positionally aligned with *requests*; fused
    results carry an ``instance_block`` metadata entry.
    """
    requests = list(requests)
    if not requests:
        return []
    engine = BatchedSolverEngine()
    if len(requests) == 1:
        return [engine.solve(requests[0])]
    try:
        block = InstanceBlock.build(requests)
    except ValidationError as exc:
        _logger.debug("instance block fallback: %s", exc)
        return [engine.solve(request) for request in requests]
    return block.solve()
