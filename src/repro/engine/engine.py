"""The batched solver engine: trial-parallel device + LIF simulation.

:class:`BatchedSolverEngine` owns the circuits' stochastic dynamics end to
end — it is their only implementation; ``NeuromorphicCircuit.sample_cuts``
is a one-trial solve.  Given a :class:`repro.engine.request.SolveRequest` it

1. resolves the circuit (building it — SDP solve included — when given a
   name),
2. derives one ``SeedSequence`` per trial from the root seed,
3. draws every trial's device states through the circuit's own pool factory
   (:class:`repro.engine.sampler.BatchDeviceSampler`),
4. integrates all trials' membranes in lock-step
   (:class:`repro.engine.simulator.BatchLIFSimulator`) with the weight
   product routed through a pluggable dense/sparse backend, and
5. evaluates the cut read-outs in chunks of rounds and streams them, one
   round at a time, through a :class:`repro.engine.tracker.BestCutTracker`,
   optionally terminating early once the best-cut distribution plateaus.

Numerical contract: on the numpy array path every trial row is computed on
its own — per-trial drive products, elementwise integration, per-row
plasticity and per-row cut dots — so results are bitwise invariant to the
trial-block size (``max_block_bytes``), to batch composition (coalesced or
fused requests) and to the cut-evaluation chunking, and ``sample_cuts`` equals
trial 0 of a solve with the same seed.  Accelerator backends agree to
floating-point round-off.

Trials are processed in memory-bounded blocks, so graph size x step count
never forces the full ``trials x steps x neurons`` current tensor into RAM.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

import numpy as np

from repro.circuits.base import NeuromorphicCircuit
from repro.cuts.cut import BatchCutEvaluator, Cut
from repro.engine.backends import WeightBackend
from repro.engine.coalesce import request_trial_seeds as _request_trial_seeds
from repro.engine.request import SolveRequest, SolveResult
from repro.engine.sampler import BatchDeviceSampler
from repro.engine.simulator import BatchLIFSimulator
from repro.engine.tracker import BestCutTracker
from repro.neurons.encoding import (
    membrane_sign_assignments_xp,
    spikes_to_assignments_xp,
)
from repro.obs.trace import accumulate, span
from repro.utils.logging import get_logger
from repro.utils.validation import ValidationError

__all__ = ["BatchedSolverEngine", "solve"]

_logger = get_logger("engine")

#: Cut evaluation covers up to this many (read-out row, edge) pairs per call.
CUT_CHUNK_ELEMENTS = 1 << 21


class BatchedSolverEngine:
    """Trial-parallel executor for circuits exposing an ``engine_plan``."""

    def solve(self, request: SolveRequest) -> SolveResult:
        """Run the batch described by *request* and return its result."""
        # Tracing wraps the run without touching it: spans consume no RNG
        # and alter no control flow, so results are bit-identical with
        # tracing on, off, or toggled mid-process.
        with span(
            "engine.solve", n_trials=request.n_trials, n_samples=request.n_samples
        ) as solve_span:
            result = self._solve(request)
            solve_span.set(
                graph=result.graph_name,
                circuit=result.circuit_name,
                backend=result.backend_name,
                n_rounds=result.n_rounds,
            )
            return result

    def _solve(self, request: SolveRequest) -> SolveResult:
        start = time.perf_counter()
        with span("engine.circuit_build"):
            circuit = self._resolve_circuit(request)
        graph = circuit.graph
        plan = circuit.engine_plan()
        n_neurons = plan.n_neurons
        n_steps = plan.burn_in + request.n_samples * plan.interval

        # One resolution point for both seams: the request's backend spec
        # ("auto", "sparse", "torch:dense", ...) picks the array namespace
        # and the weight backend together; an explicit weight name in the
        # spec always wins over the density heuristic.
        backend = WeightBackend.for_graph(
            graph, plan.weights, policy=request.backend,
            sparse_weights=plan.sparse_weights,
        )
        xp = backend.array

        if request.n_trials == 0:
            return self._empty_result(request, circuit, backend.name, graph)

        seeds = _request_trial_seeds(request)
        sampler = BatchDeviceSampler(
            circuit.build_device_pool, seeds, n_devices=plan.n_devices
        )
        simulator = BatchLIFSimulator(backend, plan.lif, n_neurons)
        ceiling = self._cut_ceiling(graph)
        deadline = (
            None if request.deadline_seconds is None
            else start + request.deadline_seconds
        )
        tracker = BestCutTracker(
            request.early_stop, ceiling=ceiling, deadline=deadline
        )

        trial_best_weights = np.full(request.n_trials, -np.inf)
        trial_best_assignments = np.zeros((request.n_trials, n_neurons), dtype=np.int8)
        learner_weights = (
            np.zeros((request.n_trials, n_neurons))
            if plan.readout == "plasticity" else None
        )
        trajectory_blocks: List[np.ndarray] = []
        potential_blocks: List[np.ndarray] = []
        assignment_blocks: List[np.ndarray] = []

        block_size = self._block_size(request, n_steps, n_neurons)
        blocks = [
            list(range(lo, min(lo + block_size, request.n_trials)))
            for lo in range(0, request.n_trials, block_size)
        ]
        rounds_limit = request.n_samples
        for block_index, trials in enumerate(blocks):
            with span(
                "engine.block", block=block_index, n_trials=len(trials)
            ):
                completed = self._run_block(
                    request, plan, graph, sampler, simulator, tracker,
                    trials, n_steps, rounds_limit,
                    trial_best_weights, trial_best_assignments, learner_weights,
                    trajectory_blocks, potential_blocks, assignment_blocks,
                    allow_stop=(block_index == 0),
                )
            # The first block fixes the round count; later blocks replay it so
            # every trial's trajectory has the same length.  A wall-clock
            # deadline may truncate a later block further still — the final
            # round count is the minimum, enforced when stacking below.
            rounds_limit = completed

        n_rounds = rounds_limit
        best_trial = int(np.argmax(trial_best_weights))
        best_cut = Cut(
            assignment=trial_best_assignments[best_trial].copy(),
            weight=float(trial_best_weights[best_trial]),
            graph_name=graph.name,
        )
        elapsed = time.perf_counter() - start
        # "Early stopped" means the run was actually truncated.  The tracker
        # can also trip on the very last round, or during a later block's
        # replayed rounds (where stopping is disallowed); neither shortens
        # the run, so neither counts.
        early_stopped = n_rounds < request.n_samples
        _logger.debug(
            "engine: %s on %s, %d trials x %d/%d rounds via %s in %.3fs (best %.1f)",
            type(circuit).__name__, graph.name, request.n_trials, n_rounds,
            request.n_samples, backend.name, elapsed, best_cut.weight,
        )
        return SolveResult(
            graph_name=graph.name,
            circuit_name=circuit.name,
            backend_name=backend.name,
            n_trials=request.n_trials,
            n_samples=request.n_samples,
            n_rounds=n_rounds,
            n_steps=plan.burn_in + n_rounds * plan.interval,
            best_cut=best_cut,
            trial_best_weights=trial_best_weights,
            trial_best_assignments=trial_best_assignments,
            # Blocks are truncated to the final (minimum) round count: a
            # deadline firing in a later block shortens rounds_limit after
            # earlier blocks already recorded more rounds.  Their extra
            # rounds still contributed to the per-trial bests above — the
            # "partial but valid" contract — only the rectangular trajectory
            # tensor drops them.
            trajectories=np.vstack([t[:, :n_rounds] for t in trajectory_blocks]),
            early_stopped=early_stopped,
            elapsed_seconds=elapsed,
            potentials=(
                np.vstack([p[:, :n_rounds] for p in potential_blocks])
                if potential_blocks else None
            ),
            assignments=(
                np.vstack([a[:, :n_rounds] for a in assignment_blocks])
                if assignment_blocks else None
            ),
            learner_weights=learner_weights,
            metadata={
                "n_blocks": len(blocks),
                "n_devices": plan.n_devices,
                "readout": plan.readout,
                "array_backend": xp.name,
                "array_device": xp.device_label(),
                "early_stop_round": tracker.stop_round if early_stopped else None,
                "deadline_exceeded": tracker.deadline_exceeded,
                **(
                    {"n_plasticity_updates": n_rounds * plan.interval}
                    if learner_weights is not None else {}
                ),
                **plan.metadata,
            },
        )

    # ------------------------------------------------------------------
    def _run_block(
        self,
        request: SolveRequest,
        plan,
        graph,
        sampler: BatchDeviceSampler,
        simulator: BatchLIFSimulator,
        tracker: BestCutTracker,
        trials: Sequence[int],
        n_steps: int,
        rounds_limit: int,
        trial_best_weights: np.ndarray,
        trial_best_assignments: np.ndarray,
        learner_weights: Optional[np.ndarray],
        trajectory_blocks: List[np.ndarray],
        potential_blocks: List[np.ndarray],
        assignment_blocks: List[np.ndarray],
        allow_stop: bool,
    ) -> int:
        """Simulate one trial block; returns the number of rounds completed."""
        trials = list(trials)
        n_trials = len(trials)
        xp = simulator.xp
        evaluator = BatchCutEvaluator(graph, array_backend=xp)
        # Device sampling always covers the full requested step count so each
        # trial consumes the same random numbers whatever the block layout
        # (the RNG bridge: sampling stays on host NumPy whatever the array
        # backend), but blocks that replay an earlier block's truncated round
        # count only pay the weight product for the steps they integrate.
        states = sampler.sample_block(trials, n_steps)
        needed_steps = plan.burn_in + rounds_limit * plan.interval
        if needed_steps < n_steps:
            states = states[:, :needed_steps]
        split = plan.burn_in if plan.readout == "spike" else 0
        # The one host->device transfer per block; identity on numpy.
        currents = simulator.drive_currents(xp.asarray(states), split_at=split)
        del states

        learner = None
        if plan.readout == "plasticity":
            # One learner for the block, one weight row per trial, each row
            # seeded from its own trial's auxiliary stream.  A one-trial
            # block builds a 1-D learner, whose per-row values stay NumPy
            # scalars (its fast path); a row evolves bitwise alike either way.
            aux = [sampler.aux_generator(trial) for trial in trials]
            learner = plan.plasticity_builder(aux if n_trials > 1 else aux[0])
            rounds = simulator.iter_subthreshold_rounds(
                currents, plan.burn_in, plan.interval, rounds_limit
            )
        elif plan.readout == "membrane":
            rounds = simulator.iter_membrane_readouts(
                currents, plan.burn_in, plan.interval, rounds_limit
            )
        else:
            rounds = simulator.iter_spike_readouts(
                currents, plan.burn_in, plan.interval, rounds_limit
            )

        trial_index = np.asarray(trials)
        trajectories = np.zeros((n_trials, rounds_limit))
        potentials_out = (
            np.zeros((n_trials, rounds_limit, plan.n_neurons))
            if request.record_potentials and plan.readout != "spike"
            else None
        )
        assignments_out = (
            np.zeros((n_trials, rounds_limit, plan.n_neurons), dtype=np.int8)
            if request.record_assignments
            else None
        )
        # Read-outs wait in `pending` until a chunk of rounds is evaluated in
        # one call; the tracker still sees them one round at a time.  A run
        # that may stop early (a plateau rule or a deadline) evaluates every
        # round before integrating the next, so it never simulates past its
        # stop round and its learner rows end exactly there.
        may_stop = request.early_stop is not None or request.deadline_seconds is not None
        chunk = 1 if may_stop else chunk_rounds(n_trials, graph.n_edges, rounds_limit)
        pending = xp.empty((chunk, n_trials, plan.n_neurons), dtype="int8")
        n_pending = 0

        tracker.start_block()
        completed = 0
        with span(
            "engine.integrate", n_trials=n_trials, rounds_limit=rounds_limit,
            readout=plan.readout, chunk_rounds=chunk,
        ) as integrate_span:
            for r, payload in rounds:
                # Assignments are computed in the array namespace; only the
                # small products (cut weights, int8 assignments, recorded
                # potentials) cross back to the host, where the tracker and
                # the per-trial bests live.  Every `to_numpy` below is the
                # identity on the numpy backend.
                readout_rows = None
                if plan.readout == "membrane":
                    if potentials_out is not None:
                        readout_rows = xp.to_numpy(payload)
                    assignments = membrane_sign_assignments_xp(xp, payload)
                elif plan.readout == "spike":
                    assignments = spikes_to_assignments_xp(xp, payload)
                else:
                    # The learner is the circuit's own host-side rule, so this
                    # read-out bridges each round's rows back to NumPy and
                    # steps every trial at once, one call per interval step.
                    rows = xp.to_numpy(payload)
                    readout_rows = rows[:, -1]
                    step_start = time.perf_counter()
                    for x in rows[0] if n_trials == 1 else rows.swapaxes(0, 1):
                        learner.step(x)
                    assignments = xp.asarray(learner.sign_assignment())
                    # No-ops unless tracing is enabled.
                    accumulate("plasticity_seconds", time.perf_counter() - step_start)
                    accumulate("plasticity_steps", plan.interval)
                pending[n_pending] = assignments
                n_pending += 1
                if potentials_out is not None:
                    potentials_out[:, r] = readout_rows
                if n_pending < chunk and r + 1 < rounds_limit:
                    continue

                first = r + 1 - n_pending
                block = pending[:n_pending]
                weights = xp.to_numpy(
                    evaluator.weights(block.reshape(n_pending * n_trials, -1))
                ).reshape(n_pending, n_trials)
                host = xp.to_numpy(block)
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
                n_pending = 0
                completed = first + used
                fold_chunk(
                    weights[:used], host[:used], first, trial_index, trajectories,
                    assignments_out, trial_best_weights, trial_best_assignments,
                )
                if stop_at is not None:
                    break
            integrate_span.set(rounds_completed=completed)

        if learner is not None:
            learner_weights[trial_index] = learner.weights
        trajectory_blocks.append(trajectories[:, :completed])
        if potentials_out is not None:
            potential_blocks.append(potentials_out[:, :completed])
        if assignments_out is not None:
            assignment_blocks.append(assignments_out[:, :completed])
        return completed

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
    def _block_size(request: SolveRequest, n_steps: int, n_neurons: int) -> int:
        """Trials per block such that the current buffer stays under the cap."""
        bytes_per_trial = max(1, n_steps * n_neurons * 8)
        by_memory = max(1, request.max_block_bytes // bytes_per_trial)
        return int(min(request.n_trials, by_memory))

    @staticmethod
    def _empty_result(
        request: SolveRequest, circuit, backend_name: str, graph
    ) -> SolveResult:
        n_neurons = graph.n_vertices
        return SolveResult(
            graph_name=graph.name,
            circuit_name=circuit.name,
            backend_name=backend_name,
            n_trials=0,
            n_samples=request.n_samples,
            n_rounds=0,
            n_steps=0,
            best_cut=None,
            trial_best_weights=np.zeros(0),
            trial_best_assignments=np.zeros((0, n_neurons), dtype=np.int8),
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
    """Record a chunk of ``(rounds, trials)`` read-outs starting at round *first*.

    A trial's best is the earliest read-out with its highest weight:
    ``argmax`` picks the first maximum inside the chunk, and only a
    strictly better chunk best replaces an earlier chunk's, which is
    what a round-by-round strict-improvement scan keeps.
    """
    n_rounds, n_trials = weights.shape
    trajectories[:, first:first + n_rounds] = weights.T
    if assignments_out is not None:
        assignments_out[:, first:first + n_rounds] = assignments.swapaxes(0, 1)
    best_round = np.argmax(weights, axis=0)
    columns = np.arange(n_trials)
    chunk_best = weights[best_round, columns]
    improved = chunk_best > trial_best_weights[trial_index]
    if improved.any():
        trial_best_weights[trial_index[improved]] = chunk_best[improved]
        trial_best_assignments[trial_index[improved]] = assignments[
            best_round[improved], columns[improved]
        ]


def solve(request: SolveRequest) -> SolveResult:
    """Module-level convenience wrapper: ``BatchedSolverEngine().solve(request)``."""
    return BatchedSolverEngine().solve(request)
