"""The batched solver engine: trial-parallel device + LIF simulation.

:class:`BatchedSolverEngine` owns the circuits' stochastic dynamics end to
end — it is their only implementation; ``NeuromorphicCircuit.sample_cuts``
is a one-trial solve.  It runs a *group* of requests as one batch of rows,
one row per (request, trial):

1. resolves each request's circuit (building it — SDP solve included — when
   given a name); consecutive requests sharing a circuit instance form one
   *segment*, with one drive backend and one cut evaluator,
2. gives every row its request's per-trial ``SeedSequence``
   (:func:`repro.engine.sampler.request_trial_seeds`),
3. draws every row's device states through its circuit's own pool factory
   (:class:`repro.engine.sampler.BatchDeviceSampler`),
4. integrates all rows' membranes in lock-step
   (:class:`repro.engine.simulator.BatchLIFSimulator`), each segment's weight
   product routed through a pluggable dense/sparse backend: the membrane
   read-out filters the rank-wide device stream and applies the weights only
   at the read-out steps; the spike and plasticity read-outs drive neuron
   currents and step every neuron, and a plasticity block trains one
   learner over all its rows, whatever their segment, a chunk of read-out
   rounds per call,
5. signs the read-outs in chunks of rounds, evaluates each chunk with its
   segment's cut kernel (:class:`repro.cuts.cut.BatchCutEvaluator`: one
   exact float32 GEMM on dense integer-weight graphs, CSR products
   otherwise) and streams the weights, one round at a time, through a
   :class:`repro.engine.tracker.BestCutTracker`, optionally terminating
   early once the best-cut distribution plateaus, and
6. splits the rows back into one :class:`SolveResult` per request, each
   re-deriving its best cut over its own rows.

:meth:`BatchedSolverEngine.solve` runs a one-request group;
:func:`repro.engine.instances.solve_instance_block` partitions many requests
into groups of equal execution shape (the solve service's batches, the
workload executor's cell units) for :meth:`BatchedSolverEngine.solve_group`.

Numerical contract: every row is computed on its own — per-row device
filters and per-trial weight products, elementwise integration, per-row
plasticity and per-row cut quadratic forms — so results are bitwise
invariant to the trial-block size (``max_block_bytes``), to group
composition and to the cut-evaluation and plasticity chunking, and ``sample_cuts`` equals
trial 0 of a solve with the same seed.

Rows are processed in memory-bounded blocks: a membrane block holds each
row's device stream and read-out rows, a spike or plasticity block its
``steps x neurons`` currents, so no run forces a ``rows x steps x neurons``
tensor into RAM at once.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.circuits.base import NeuromorphicCircuit
from repro.cuts.cut import BatchCutEvaluator, Cut
from repro.engine.backends import WeightBackend
from repro.engine.plan import BatchPlan
from repro.engine.request import SolveRequest, SolveResult
from repro.engine.sampler import BatchDeviceSampler, request_trial_seeds
from repro.engine.simulator import BatchLIFSimulator
from repro.engine.tracker import BestCutTracker
from repro.neurons.encoding import _signs
from repro.obs.trace import accumulate, span
from repro.utils.logging import get_logger
from repro.utils.validation import ValidationError

__all__ = ["BatchedSolverEngine", "ResolvedRequest", "resolve_request", "solve"]

_logger = get_logger("engine")

#: Cut evaluation covers up to this many (read-out row, edge) pairs per call.
CUT_CHUNK_ELEMENTS = 1 << 21

#: A plasticity block trains on up to this many membrane values (steps x
#: trials x neurons) per learner call, and at least one round.
PLASTICITY_CHUNK_VALUES = 1 << 15


@dataclass(frozen=True)
class ResolvedRequest:
    """A request with its circuit built, its engine plan and weight backend.

    ``build_seconds`` is the time resolution took: a group's wall clock
    (its deadline and ``elapsed_seconds``) includes building its circuits.
    """

    request: SolveRequest
    circuit: NeuromorphicCircuit
    plan: BatchPlan
    backend: WeightBackend
    build_seconds: float

    def shape(self) -> tuple:
        """Everything requests must share to run as one group of rows."""
        plan, request = self.plan, self.request
        return (
            plan.n_neurons, plan.n_devices, plan.burn_in, plan.interval,
            plan.readout, plan.lif, plan.learner, request.n_samples,
            self.backend.name, request.record_potentials,
            request.record_assignments,
        )


class _Segment:
    """Consecutive requests of a group that share one circuit instance.

    Owns group rows ``lo:hi`` — its requests' trials, in order — and the
    per-circuit machinery: device sampler, drive, cut evaluator.
    """

    def __init__(self, items: List[ResolvedRequest], lo: int) -> None:
        head = items[0]
        self.items = items
        self.plan = head.plan
        seeds = [seed for item in items for seed in request_trial_seeds(item.request)]
        self.lo, self.hi = lo, lo + len(seeds)
        self.sampler = BatchDeviceSampler(
            head.circuit.build_device_pool, seeds, n_devices=head.plan.n_devices
        )
        self.simulator = BatchLIFSimulator(head.backend, head.plan.lif, head.plan.n_neurons)
        self.evaluator = BatchCutEvaluator(head.circuit.graph)
        self.n_edges = head.circuit.graph.n_edges


@dataclass
class _Rows:
    """Per-row outputs of a group run, filled block by block."""

    best_weights: np.ndarray
    best_assignments: np.ndarray
    learner_weights: Optional[np.ndarray]
    guard_firings: Optional[np.ndarray]
    trajectories: List[np.ndarray] = field(default_factory=list)
    potentials: List[np.ndarray] = field(default_factory=list)
    assignments: List[np.ndarray] = field(default_factory=list)


def resolve_request(request: SolveRequest) -> ResolvedRequest:
    """Build *request*'s circuit, engine plan and weight backend."""
    started = time.perf_counter()
    with span("engine.circuit_build"):
        circuit = BatchedSolverEngine._resolve_circuit(request)
    plan = circuit.engine_plan()
    # An explicit "dense"/"sparse" always wins over the density heuristic.
    backend = WeightBackend.for_graph(
        circuit.graph, plan.weights, backend=request.backend,
        sparse_weights=plan.sparse_weights,
    )
    return ResolvedRequest(
        request, circuit, plan, backend, time.perf_counter() - started
    )


def _solve_span(requests: Sequence[SolveRequest]):
    # Tracing wraps the run without touching it: spans consume no RNG and
    # alter no control flow, so results are bit-identical with tracing on,
    # off, or toggled mid-process.
    return span(
        "engine.solve", n_instances=len(requests),
        n_trials=sum(request.n_trials for request in requests),
        n_samples=requests[0].n_samples,
    )


class BatchedSolverEngine:
    """Trial-parallel executor for circuits exposing an ``engine_plan``."""

    def solve(self, request: SolveRequest) -> SolveResult:
        """Run *request* (a one-request group) and return its result."""
        with _solve_span([request]) as solve_span:
            return self._solve_group([resolve_request(request)], solve_span)[0]

    def solve_group(self, group: Sequence[ResolvedRequest]) -> List[SolveResult]:
        """Run *group* as one batch of rows; one result per request, in order.

        The requests must share an execution shape
        (:meth:`ResolvedRequest.shape`), and a request with an early-stop
        rule, a deadline or no trials must run alone.
        """
        with _solve_span([item.request for item in group]) as solve_span:
            return self._solve_group(list(group), solve_span)

    def _solve_group(self, group: List[ResolvedRequest], solve_span) -> List[SolveResult]:
        start = time.perf_counter() - sum(item.build_seconds for item in group)
        head = group[0]
        request, plan = head.request, head.plan
        if request.n_trials == 0:  # zero-trial requests always run alone
            return [self._empty_result(head)]
        n_neurons = plan.n_neurons
        n_steps = plan.burn_in + request.n_samples * plan.interval

        segments: List[_Segment] = []
        for _, run in itertools.groupby(group, key=lambda item: id(item.circuit)):
            segments.append(_Segment(list(run), segments[-1].hi if segments else 0))
        n_rows = segments[-1].hi

        # Only a one-request group carries a stop rule or a deadline
        # (solve_instance_block runs such requests alone), so the head's
        # graph bounds every cut the tracker may stop on.
        deadline = (
            None if request.deadline_seconds is None
            else start + request.deadline_seconds
        )
        tracker = BestCutTracker(
            request.early_stop, ceiling=self._cut_ceiling(head.circuit.graph),
            deadline=deadline,
        )
        rows = _Rows(
            best_weights=np.full(n_rows, -np.inf),
            best_assignments=np.zeros((n_rows, n_neurons), dtype=np.int8),
            learner_weights=(
                np.zeros((n_rows, n_neurons)) if plan.readout == "plasticity" else None
            ),
            guard_firings=(
                np.zeros(n_rows, dtype=np.int64) if plan.readout == "plasticity" else None
            ),
        )
        max_block_bytes = min(item.request.max_block_bytes for item in group)
        if plan.readout == "membrane":
            # Device rows (the filtered stream) plus read-out rows.
            row_values = n_steps * plan.n_devices + request.n_samples * n_neurons
        else:
            row_values = n_steps * n_neurons  # the neuron current buffer
        block_size = self._block_size(max_block_bytes, n_rows, 8 * row_values)
        blocks = [
            (lo, min(lo + block_size, n_rows)) for lo in range(0, n_rows, block_size)
        ]
        rounds_limit = request.n_samples
        for block_index, (lo, hi) in enumerate(blocks):
            with span("engine.block", block=block_index, n_trials=hi - lo):
                completed = self._run_block(
                    request, plan, segments, tracker, lo, hi, n_steps,
                    rounds_limit, rows, allow_stop=(block_index == 0),
                )
            # The first block fixes the round count; later blocks replay it so
            # every row's trajectory has the same length.  A wall-clock
            # deadline may truncate a later block further still — the final
            # round count is the minimum, enforced when stacking below.
            rounds_limit = completed

        n_rounds = rounds_limit
        # Blocks are truncated to the final (minimum) round count: a deadline
        # firing in a later block shortens rounds_limit after earlier blocks
        # already recorded more rounds.  Their extra rounds still contributed
        # to the per-trial bests — the "partial but valid" contract — only
        # the rectangular trajectory tensor drops them.
        trajectories = np.vstack([t[:, :n_rounds] for t in rows.trajectories])
        potentials = (
            np.vstack([p[:, :n_rounds] for p in rows.potentials])
            if rows.potentials else None
        )
        assignments = (
            np.vstack([a[:, :n_rounds] for a in rows.assignments])
            if rows.assignments else None
        )
        elapsed = time.perf_counter() - start
        # "Early stopped" means the run was actually truncated.  The tracker
        # can also trip on the very last round, or during a later block's
        # replayed rounds (where stopping is disallowed); neither shortens
        # the run, so neither counts.
        early_stopped = n_rounds < request.n_samples
        run_metadata = {
            "readout": plan.readout,
            "early_stop_round": tracker.stop_round if early_stopped else None,
            "deadline_exceeded": tracker.deadline_exceeded,
            **(
                {"n_plasticity_updates": n_rounds * plan.interval}
                if rows.learner_weights is not None else {}
            ),
        }
        results = []
        for segment in segments:
            lo = segment.lo
            for item in segment.items:
                hi = lo + item.request.n_trials
                metadata = {
                    "n_blocks": len(blocks), "n_devices": item.plan.n_devices,
                    **run_metadata, **item.plan.metadata,
                }
                if rows.guard_firings is not None:
                    metadata["plasticity_guard_firings"] = int(
                        rows.guard_firings[lo:hi].sum()
                    )
                if len(group) > 1:
                    metadata["instance_block"] = {
                        "size": len(group),
                        "index": len(results),
                        "fused_trials": int(n_rows),
                        "segments": len(segments),
                        "segment_trials": int(segment.hi - segment.lo),
                    }
                results.append(self._result(
                    item, rows, lo, hi, n_rounds, trajectories, potentials,
                    assignments, early_stopped, elapsed, metadata,
                ))
                lo = hi
        _logger.debug(
            "engine: %d request(s) in %d segment(s), %d rows x %d/%d rounds via "
            "%s in %.3fs", len(group), len(segments), n_rows, n_rounds,
            request.n_samples, head.backend.name, elapsed,
        )
        solve_span.set(backend=head.backend.name, n_rounds=n_rounds)
        if len(group) == 1:
            solve_span.set(graph=results[0].graph_name, circuit=results[0].circuit_name)
        return results

    @staticmethod
    def _result(
        item: ResolvedRequest, rows: _Rows, lo: int, hi: int, n_rounds: int,
        trajectories: np.ndarray, potentials: Optional[np.ndarray],
        assignments: Optional[np.ndarray], early_stopped: bool,
        elapsed: float, metadata: dict,
    ) -> SolveResult:
        """One request's result: its rows ``lo:hi`` of the group's outputs."""
        weights = rows.best_weights[lo:hi]
        best_trial = int(np.argmax(weights))
        graph = item.circuit.graph
        plan = item.plan
        return SolveResult(
            graph_name=graph.name,
            circuit_name=item.circuit.name,
            backend_name=item.backend.name,
            n_trials=hi - lo,
            n_samples=item.request.n_samples,
            n_rounds=n_rounds,
            n_steps=plan.burn_in + n_rounds * plan.interval,
            best_cut=Cut(
                assignment=rows.best_assignments[lo + best_trial].copy(),
                weight=float(weights[best_trial]),
                graph_name=graph.name,
            ),
            trial_best_weights=weights,
            trial_best_assignments=rows.best_assignments[lo:hi],
            trajectories=trajectories[lo:hi],
            early_stopped=early_stopped,
            elapsed_seconds=elapsed,
            potentials=None if potentials is None else potentials[lo:hi],
            assignments=None if assignments is None else assignments[lo:hi],
            learner_weights=(
                None if rows.learner_weights is None else rows.learner_weights[lo:hi]
            ),
            metadata=metadata,
        )

    # ------------------------------------------------------------------
    def _run_block(
        self,
        request: SolveRequest,
        plan: BatchPlan,
        segments: List[_Segment],
        tracker: BestCutTracker,
        lo: int,
        hi: int,
        n_steps: int,
        rounds_limit: int,
        rows: _Rows,
        allow_stop: bool,
    ) -> int:
        """Simulate group rows ``lo:hi``; returns the number of rounds completed.

        The block may span segments: each *piece* ``(segment, a, b)`` is the
        part of the block in one segment, at group rows ``a:b``.
        """
        n_trials = hi - lo
        n_neurons = plan.n_neurons
        pieces = [
            (segment, max(lo, segment.lo), min(hi, segment.hi))
            for segment in segments if segment.lo < hi and lo < segment.hi
        ]
        simulator = pieces[0][0].simulator
        membrane = plan.readout == "membrane"
        # Device sampling always covers the full requested step count so each
        # trial consumes the same random numbers whatever the block layout.
        states = [
            segment.sampler.sample_block(range(a - segment.lo, b - segment.lo), n_steps)
            for segment, a, b in pieces
        ]
        if membrane:
            # The filter depends only on the LIF parameters every segment
            # shares, so the whole block is filtered in one call.
            drive = simulator.filter_device_states(
                np.concatenate(states), plan.burn_in, plan.interval
            )
        else:
            # Blocks that replay an earlier block's truncated round count
            # only pay the weight product for the steps they integrate.
            needed_steps = plan.burn_in + rounds_limit * plan.interval
            drive = np.empty((n_trials, needed_steps, n_neurons))
            for (segment, a, b), block in zip(pieces, states):
                segment.simulator.drive_currents(
                    block[:, :needed_steps], out=drive[a - lo:b - lo],
                )
        del states

        # Read-outs are evaluated a chunk of rounds per call per piece; the
        # tracker still sees them one round at a time.  A run that may stop
        # early (a plateau rule or a deadline) evaluates every round before
        # reading the next, so it never integrates or learns past its stop
        # round and its learner rows end exactly there.
        may_stop = request.early_stop is not None or request.deadline_seconds is not None
        chunk = 1 if may_stop else chunk_rounds(
            n_trials, max(segment.n_edges for segment, _, _ in pieces), rounds_limit
        )
        potentials_out = (
            np.zeros((n_trials, rounds_limit, n_neurons))
            if request.record_potentials and plan.readout != "spike"
            else None
        )
        assignments_out = (
            np.zeros((n_trials, rounds_limit, n_neurons), dtype=np.int8)
            if request.record_assignments
            else None
        )
        learner = None
        if membrane:
            chunks = self._membrane_chunks(
                pieces, lo, drive, rounds_limit, chunk, potentials_out
            )
        elif plan.readout == "spike":
            chunks = self._spike_chunks(
                simulator.iter_spike_readouts(
                    drive, plan.burn_in, plan.interval, rounds_limit
                ),
                n_trials, n_neurons, rounds_limit, chunk,
            )
        else:
            # One learner for the whole block, one weight row per trial, each
            # row seeded from its own trial's auxiliary stream.  A one-trial
            # block builds a 1-D learner, whose per-step values are Python
            # floats (its fast path); a row evolves bitwise alike either way.
            aux = [
                segment.sampler.aux_generator(t - segment.lo)
                for segment, a, b in pieces for t in range(a, b)
            ]
            learner = plan.learner.build(n_neurons, aux if n_trials > 1 else aux[0])
            chunk = min(chunk, max(
                1, PLASTICITY_CHUNK_VALUES // (plan.interval * n_trials * n_neurons)
            ))
            chunks = self._plasticity_chunks(
                simulator.iter_subthreshold_rounds(
                    drive, plan.burn_in, plan.interval, rounds_limit, chunk
                ),
                learner, plan.interval, potentials_out,
            )

        trial_index = np.arange(lo, hi)
        trajectories = np.zeros((n_trials, rounds_limit))
        tracker.start_block()
        completed = 0
        with span(
            "engine.integrate", n_trials=n_trials, rounds_limit=rounds_limit,
            readout=plan.readout, chunk_rounds=chunk,
        ) as integrate_span:
            for first, signs in chunks:
                # signs: (trials, rounds, neurons) int8 read-outs of rounds
                # first, first + 1, ...
                n_pending = signs.shape[1]
                weights = np.empty((n_pending, n_trials))
                for segment, a, b in pieces:
                    cuts = signs[a - lo:b - lo].reshape((b - a) * n_pending, n_neurons)
                    weights[:, a - lo:b - lo] = segment.evaluator.weights(cuts).reshape(
                        b - a, n_pending
                    ).T
                stop_at = None
                for j in range(n_pending):
                    if tracker.update(first + j, weights[j]) and (
                        allow_stop or tracker.deadline_exceeded
                    ):
                        # Plateau/ceiling stops are only honoured in the
                        # first block (later blocks replay its round count);
                        # the wall-clock deadline truncates wherever it fires.
                        stop_at = j
                        break
                used = n_pending if stop_at is None else stop_at + 1
                completed = first + used
                fold_chunk(
                    weights[:used], signs[:, :used], first, trial_index, trajectories,
                    assignments_out, rows.best_weights, rows.best_assignments,
                )
                if stop_at is not None:
                    break
            integrate_span.set(rounds_completed=completed)
            if learner is not None:
                integrate_span.set(
                    plasticity_guard_firings=int(learner.guard_firings.sum())
                )

        if learner is not None:
            rows.learner_weights[lo:hi] = learner.weights
            rows.guard_firings[lo:hi] = learner.guard_firings
        rows.trajectories.append(trajectories[:, :completed])
        if potentials_out is not None:
            rows.potentials.append(potentials_out[:, :completed])
        if assignments_out is not None:
            rows.assignments.append(assignments_out[:, :completed])
        return completed

    @staticmethod
    def _membrane_chunks(pieces, lo, filtered, rounds_limit, chunk, potentials_out):
        """Yield ``(first_round, int8 read-outs)`` of the membrane read-out.

        Each piece forms its rows with its own weights
        (:meth:`BatchLIFSimulator.iter_membrane_readouts`) and signs a chunk
        of rounds in one call.
        """
        readouts = [
            segment.simulator.iter_membrane_readouts(
                filtered[a - lo:b - lo], rounds_limit, chunk
            )
            for segment, a, b in pieces
        ]
        for parts in zip(*readouts):
            first, head = parts[0]
            count = head.shape[1]
            signs = np.empty((len(filtered), count, head.shape[2]), dtype=np.int8)
            for (_, a, b), (_, potentials) in zip(pieces, parts):
                signs[a - lo:b - lo] = _signs(potentials > 0.0)
                if potentials_out is not None:
                    potentials_out[a - lo:b - lo, first:first + count] = potentials
            yield first, signs

    @staticmethod
    def _spike_chunks(rounds, n_trials, n_neurons, rounds_limit, chunk):
        """Yield ``(first_round, int8 read-outs)`` of the spike read-out.

        Spike masks arrive one round at a time from the simulator's loop and
        are gathered into chunks.
        """
        pending = np.empty((n_trials, chunk, n_neurons), dtype=np.int8)
        n_pending = 0
        for r, fired in rounds:
            pending[:, n_pending] = _signs(fired)
            n_pending += 1
            if n_pending == chunk or r + 1 == rounds_limit:
                yield r + 1 - n_pending, pending[:, :n_pending]
                n_pending = 0

    @staticmethod
    def _plasticity_chunks(rounds, learner, interval, potentials_out):
        """Yield ``(first_round, int8 read-outs)`` of the plasticity read-out.

        The block's one learner trains every trial on a chunk of rounds'
        membrane rows in one call and returns the sign read-out of each of
        those rounds.
        """
        one_trial = learner.weights.ndim == 1
        for first, rows in rounds:
            # rows: (count * interval, trials, neurons), step-major.
            count = len(rows) // interval
            if potentials_out is not None:
                potentials_out[:, first:first + count] = (
                    rows[interval - 1::interval].swapaxes(0, 1)
                )
            started = time.perf_counter()
            signs = learner.train_readouts(rows[:, 0] if one_trial else rows, interval)
            # No-ops unless tracing is enabled.
            accumulate("plasticity_seconds", time.perf_counter() - started)
            accumulate("plasticity_steps", len(rows))
            yield first, (signs[:, None] if one_trial else signs).swapaxes(0, 1)

    # ------------------------------------------------------------------
    @staticmethod
    def _resolve_circuit(request: SolveRequest) -> NeuromorphicCircuit:
        if isinstance(request.circuit, NeuromorphicCircuit):
            return request.circuit
        name = request.circuit
        if name == "lif_gw":
            from repro.circuits.lif_gw import LIFGWCircuit

            return LIFGWCircuit(request.graph, config=request.config, seed=request.seed)
        if name == "lif_tr":
            from repro.circuits.lif_trevisan import LIFTrevisanCircuit

            return LIFTrevisanCircuit(request.graph, config=request.config)
        raise ValidationError(
            f"unknown circuit {name!r}; expected 'lif_gw' or 'lif_tr' "
            "or a NeuromorphicCircuit instance"
        )

    @staticmethod
    def _cut_ceiling(graph) -> Optional[float]:
        """Total edge weight, valid as a cut upper bound only if no weight is negative."""
        if graph.n_edges == 0:
            return None
        weights = graph.edge_weights
        if np.all(weights >= 0):
            return float(weights.sum())
        return None

    @staticmethod
    def _block_size(max_block_bytes: int, n_rows: int, bytes_per_trial: int) -> int:
        """Rows per block such that the block's per-trial buffers stay under the cap."""
        by_memory = max(1, max_block_bytes // max(1, bytes_per_trial))
        return int(min(n_rows, by_memory))

    @staticmethod
    def _empty_result(item: ResolvedRequest) -> SolveResult:
        graph = item.circuit.graph
        return SolveResult(
            graph_name=graph.name,
            circuit_name=item.circuit.name,
            backend_name=item.backend.name,
            n_trials=0,
            n_samples=item.request.n_samples,
            n_rounds=0,
            n_steps=0,
            best_cut=None,
            trial_best_weights=np.zeros(0),
            trial_best_assignments=np.zeros((0, graph.n_vertices), dtype=np.int8),
            trajectories=np.zeros((0, 0)),
            early_stopped=False,
            elapsed_seconds=0.0,
            metadata={"n_blocks": 0},
        )


def chunk_rounds(n_rows: int, n_edges: int, rounds_limit: int) -> int:
    """Read-out rounds per cut-evaluation call for *n_rows* cuts a round.

    A chunk holds up to :data:`CUT_CHUNK_ELEMENTS` (row, edge) pairs, and
    at least one round.
    """
    by_size = CUT_CHUNK_ELEMENTS // max(1, n_rows * n_edges)
    return int(max(1, min(rounds_limit, by_size)))


def fold_chunk(
    weights: np.ndarray,
    assignments: np.ndarray,
    first: int,
    trial_index: np.ndarray,
    trajectories: np.ndarray,
    assignments_out: Optional[np.ndarray],
    trial_best_weights: np.ndarray,
    trial_best_assignments: np.ndarray,
) -> None:
    """Record a chunk of read-outs starting at round *first*.

    *weights* is ``(rounds, trials)`` and *assignments* the matching
    ``(trials, rounds, neurons)`` block.

    A trial's best is the earliest read-out with its highest weight:
    ``argmax`` picks the first maximum inside the chunk, and only a
    strictly better chunk best replaces an earlier chunk's, which is
    what a round-by-round strict-improvement scan keeps.
    """
    n_rounds, n_trials = weights.shape
    trajectories[:, first:first + n_rounds] = weights.T
    if assignments_out is not None:
        assignments_out[:, first:first + n_rounds] = assignments
    best_round = np.argmax(weights, axis=0)
    columns = np.arange(n_trials)
    chunk_best = weights[best_round, columns]
    improved = chunk_best > trial_best_weights[trial_index]
    if improved.any():
        trial_best_weights[trial_index[improved]] = chunk_best[improved]
        trial_best_assignments[trial_index[improved]] = assignments[
            columns[improved], best_round[improved]
        ]


def solve(request: SolveRequest) -> SolveResult:
    """Module-level convenience wrapper: ``BatchedSolverEngine().solve(request)``."""
    return BatchedSolverEngine().solve(request)
