"""Generic spec execution: capability-routed trials over graphs x solvers.

This is the engine room shared by the solver arena and every ad-hoc
:class:`repro.workloads.WorkloadSpec`: build the graphs, then route each
(graph, solver) cell by the solver's registered capabilities:

* **Batchable circuits** ride the trial-parallel batched engine: every
  batchable unit of the run goes to one
  :func:`repro.engine.solve_instance_block` call, which fuses same-shape
  units into one engine run and runs deadline-capped units alone.
* **Sequential stochastic solvers** run their trials through
  :func:`repro.parallel.pool.parallel_map` with per-trial seeds.
* **Deterministic solvers** run exactly once per graph.

Trial *i* on graph *g* is seeded ``SeedSequence(seed, spawn_key=(g, i))`` on
**every** path (see :func:`repro.utils.rng.paired_seed`), so comparisons are
paired across solvers.  The outcome is expressed in the arena's vocabulary —
:class:`repro.arena.results.ArenaEntry` records wrapped in an
:class:`repro.arena.results.ArenaResult` — because "race these solvers on
these graphs under this budget" *is* the arena, whatever workload asked for
it.

Cell units
----------
Execution is decomposed into *units*: ``(graph_index, solver_key, trial_lo,
trial_hi)`` tuples enumerated by :func:`cell_units`, each executed
independently by :func:`run_cell_units` into a JSON-safe payload, and folded
back into the arena-shaped outcome by :func:`merge_cell_payloads`.  These
three functions are :data:`CELL_ADAPTER`, the
:class:`~repro.workloads.registry.ShardAdapter` of every workload that
registers none.  A monolithic run is "all units, in process, merged
immediately"; the sharded executor (:mod:`repro.distrib`) runs the same units
across checkpointed shards and merges through the same fold.  Because every
unit derives its randomness from the paired ``(g, i)`` seeds, the
decomposition never changes results.
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms.registry import SolverSpec
from repro.analysis.ratios import relative_cut_weight
from repro.arena.results import ArenaEntry, ArenaResult
from repro.engine.instances import solve_instance_block
from repro.engine.request import SolveRequest, SolveResult
from repro.engine.sampler import trial_seed_sequences
from repro.graphs.graph import Graph
from repro.parallel.partition import partition_work
from repro.parallel.pool import ParallelConfig, parallel_map
from repro.serve.cache import ContentAddressedCache, content_key
from repro.utils.rng import paired_seed
from repro.utils.validation import ValidationError
from repro.workloads.registry import ShardAdapter, Workload
from repro.workloads.report import WorkloadOutcome
from repro.workloads.spec import Budget, WorkloadSpec

__all__ = [
    "CELL_ADAPTER",
    "adapter_for",
    "cell_units",
    "run_cell_units",
    "entries_from_payloads",
    "merge_cell_payloads",
    "build_spec_graphs",
]

#: A unit key: (graph_index, solver_key, trial_lo, trial_hi).
CellUnit = Tuple[int, str, int, int]


def _sequential_trial(task: tuple) -> float:
    """One trial of a sequential solver (module-level for pickling).

    The task carries the solver *callable* itself, not its registry key:
    worker processes under non-fork start methods re-import the registry
    without runtime registrations, so a key lookup there would fail for
    custom solvers.  Pickling the function by reference sidesteps that.
    """
    solver_fn, graph, n_samples, seed_seq = task
    cut = solver_fn(graph, n_samples=n_samples, seed=seed_seq)
    return float(cut.weight)


#: Small content-addressed LRU of materialised graph lists
#: (:class:`repro.serve.cache.ContentAddressedCache`), keyed by the hash of
#: (source description, seed) with the originating GraphSuite object stored
#: alongside for an identity check on lookup.  Graph sources are pure
#: functions of the seed, so reuse is safe; it spares an in-process sharded
#: run (plan + one build per shard) from rebuilding / reloading the same
#: suite once per shard, and the solve service's suite-backed requests reuse
#: it too.  Explicit in-memory sources are never cached (their to_dict
#: records names only, which could collide).
_GRAPH_CACHE = ContentAddressedCache(max_entries=8, name="suite-builds")


def _graph_cache_suite(spec: WorkloadSpec):
    """The registered GraphSuite object behind a suite source (else None)."""
    if spec.graphs.kind != "suite":
        return None
    suite = spec.graphs.suite
    if isinstance(suite, str):
        from repro.arena.suite import SUITES

        suite = SUITES.get(suite)
    return suite


def build_spec_graphs(spec: WorkloadSpec) -> List[Graph]:
    """Materialise the spec's graphs and enforce unique names.

    Entries, ratios, and report tables are all keyed by graph name;
    duplicates would silently merge distinct graphs' results.
    """
    cache_key = None
    if spec.graphs.kind != "explicit":
        cache_key = content_key(spec.graphs.to_dict(), spec.seed)
        cached = _GRAPH_CACHE.get(cache_key)
        if cached is not None:
            cached_suite, cached_graphs = cached
            # Identity check (not id()): the entry holds a strong reference
            # to the suite object it was built from, so a suite re-registered
            # under the same key (register_suite(..., overwrite=True)) can
            # never be served the replaced builder's graphs.
            if cached_suite is _graph_cache_suite(spec):
                return list(cached_graphs)
            _GRAPH_CACHE.invalidate(cache_key)
    graphs = spec.graphs.build(spec.seed)
    names = [graph.name for graph in graphs]
    if len(set(names)) != len(names):
        duplicates = sorted({n for n in names if names.count(n) > 1})
        raise ValidationError(
            f"suite graphs must have unique names; duplicated: {duplicates} "
            f"(pass name=... to the generators)"
        )
    if cache_key is not None:
        _GRAPH_CACHE.put(cache_key, (_graph_cache_suite(spec), list(graphs)))
    return graphs


def _check_resolved_seed(spec: WorkloadSpec) -> int:
    if spec.seed is None:
        raise ValidationError(
            "the executor needs a resolved integer seed; run specs through a "
            "Session (which draws fresh entropy for seed=None)"
        )
    return int(spec.seed)


def cell_units(
    spec: WorkloadSpec,
    n_shards: int = 1,
    graphs: Optional[Sequence[Graph]] = None,
) -> List[CellUnit]:
    """Enumerate the spec's execution units for an *n_shards*-way split.

    One unit per (graph, solver) cell by default.  When the spec has fewer
    cells than requested shards, *stochastic* cells are additionally split
    into contiguous trial ranges (via
    :func:`repro.parallel.partition.partition_work`) so work spreads over the
    shards; trial *i* keeps its paired ``(g, i)`` seed, so the split never
    changes results.  The split factor is computed from the stochastic cell
    count alone — deterministic solvers (always exactly one trial) cannot
    absorb extra shards.  Cells are never trial-split when the budget
    carries a wall-clock cap (``max_seconds`` is a per-cell serial
    semantic).
    """
    _check_resolved_seed(spec)
    if n_shards < 1:
        raise ValidationError(f"n_shards must be >= 1, got {n_shards}")
    solver_specs = spec.resolve_solvers()
    if graphs is None:
        graphs = build_spec_graphs(spec)
    budget = spec.budget
    n_cells = len(graphs) * len(solver_specs)
    n_stochastic = len(graphs) * sum(1 for s in solver_specs if not s.deterministic)
    split = 1
    if n_stochastic and n_shards > n_cells and budget.max_seconds is None:
        # Only stochastic cells can split, so they alone must cover the
        # shard deficit left after every cell (deterministic ones included)
        # has taken its single unit.
        split = min(
            budget.n_trials,
            math.ceil((n_shards - (n_cells - n_stochastic)) / n_stochastic),
        )
    units: List[CellUnit] = []
    for g in range(len(graphs)):
        for solver in solver_specs:
            n_trials = 1 if solver.deterministic else budget.n_trials
            blocks = 1 if solver.deterministic else split
            for lo, hi in partition_work(n_trials, blocks):
                if hi > lo:
                    units.append((g, solver.key, lo, hi))
    return units


def _solver_by_key(spec: WorkloadSpec) -> Dict[str, SolverSpec]:
    return {s.key: s for s in spec.resolve_solvers()}


def _engine_unit_payload(result: SolveResult) -> Tuple[List[float], int, dict]:
    """Fold a :class:`SolveResult` into the unit (weights, samples, meta) triple."""
    metadata = {
        "engine_elapsed_seconds": float(result.elapsed_seconds),
        "engine_backend": result.backend_name,
        "n_rounds": int(result.n_rounds),
        "early_stopped": bool(result.early_stopped),
    }
    block = result.metadata.get("instance_block")
    if block:
        metadata["instance_block"] = {
            "size": int(block["size"]),
            "fused_trials": int(block["fused_trials"]),
        }
    if result.metadata.get("deadline_exceeded"):
        metadata["budget_truncated"] = True
    weights = [float(w) for w in np.asarray(result.trial_best_weights, dtype=float)]
    return weights, int(result.n_rounds), metadata


def _engine_payloads(
    spec: WorkloadSpec,
    engine_units: Sequence[Tuple[int, CellUnit, Graph, SolverSpec]],
) -> Dict[int, Tuple[Tuple[List[float], int, dict], float]]:
    """Run every batchable unit in one :func:`solve_instance_block` call.

    Returns ``{unit position: ((weights, samples, meta), wall seconds)}``.
    :func:`solve_instance_block` fuses same-shape requests into one engine
    run and runs deadline requests alone, so each result is exactly its
    standalone solve.  A unit that ran alone is charged its own run's wall
    time; the units of a fused run share that run's wall time in proportion
    to their trial counts.
    """
    seed = _check_resolved_seed(spec)
    budget, backend = spec.budget, spec.policy.backend
    requests = [
        SolveRequest(
            circuit=solver.circuit,
            graph=graph,
            n_trials=hi - lo,
            n_samples=budget.n_samples,
            seed=paired_seed(seed, g),
            trial_offset=lo,
            backend=backend,
            deadline_seconds=budget.max_seconds,
        )
        for _, (g, _, lo, hi), graph, solver in engine_units
    ]
    results = solve_instance_block(requests)
    out = {}
    for (position, _, _, _), result in zip(engine_units, results):
        elapsed = float(result.elapsed_seconds)
        block = result.metadata.get("instance_block")
        if block:
            elapsed *= result.n_trials / block["fused_trials"]
        out[position] = (_engine_unit_payload(result), elapsed)
    return out


def _run_sequential_unit(
    solver: SolverSpec,
    graph: Graph,
    budget: Budget,
    root: np.random.SeedSequence,
    parallel: Optional[ParallelConfig],
    trial_lo: int,
    trial_hi: int,
) -> Tuple[List[float], int, dict]:
    """Run one non-batchable unit: its trial range through the per-trial path."""
    n_trials = trial_hi - trial_lo
    # The engine's own derivation, so the two paths stay paired by
    # construction rather than by parallel re-implementation.
    seeds = trial_seed_sequences(root, n_trials, start=trial_lo)
    tasks = [(solver.fn, graph, budget.n_samples, s) for s in seeds]
    metadata: dict = {}
    if budget.max_seconds is not None and n_trials > 1:
        # A wall-clock cap needs a serial loop with a clock check between
        # trials; parallel_map has no mid-flight cancellation.
        weights: List[float] = []
        started = time.perf_counter()
        for task in tasks:
            weights.append(_sequential_trial(task))
            if time.perf_counter() - started >= budget.max_seconds:
                break
        if len(weights) < n_trials:
            metadata["budget_truncated"] = True
    else:
        weights = parallel_map(_sequential_trial, tasks, config=parallel)
    return [float(w) for w in weights], budget.n_samples, metadata


def run_cell_units(
    spec: WorkloadSpec,
    units: Sequence[CellUnit],
    graphs: Optional[Sequence[Graph]] = None,
) -> List[dict]:
    """Execute *units* of *spec* and return one JSON-safe payload per unit.

    Payload schema (all values JSON-safe)::

        {"graph_index": int, "solver": str, "trial_lo": int, "trial_hi": int,
         "graph_name": str, "n_vertices": int, "n_edges": int,
         "total_weight": float,
         "weights": [float, ...],        # per-trial best cut weights
         "n_samples_run": int,           # read-outs per trial actually run
         "elapsed_seconds": float,
         "used_engine": bool,
         "metadata": {...}}              # engine backend/rounds, truncation
    """
    seed = _check_resolved_seed(spec)
    if graphs is None:
        graphs = build_spec_graphs(spec)
    by_key = _solver_by_key(spec)
    budget = spec.budget
    parallel = spec.policy.parallel_config()

    prepared: List[Tuple[int, CellUnit, Graph, SolverSpec]] = []
    for position, unit in enumerate(units):
        g, key, lo, hi = unit
        if not (0 <= g < len(graphs)):
            raise ValidationError(
                f"unit graph index {g} out of range for {len(graphs)} graph(s)"
            )
        if key not in by_key:
            raise ValidationError(f"unit names unknown solver {key!r}")
        prepared.append((position, unit, graphs[g], by_key[key]))

    engine = _engine_payloads(spec, [p for p in prepared if p[3].batchable])

    payloads: List[dict] = []
    for position, unit, graph, solver in prepared:
        g, key, lo, hi = unit
        if position in engine:
            (weights, samples_run, metadata), elapsed = engine[position]
        else:
            # Root of suite graph g, created fresh per unit so SeedSequence
            # spawn state never leaks between units; trials are its (g, i)
            # children.
            started = time.perf_counter()
            weights, samples_run, metadata = _run_sequential_unit(
                solver, graph, budget, paired_seed(seed, g), parallel, lo, hi
            )
            elapsed = time.perf_counter() - started
        if budget.max_seconds is not None and elapsed > budget.max_seconds:
            metadata.setdefault(
                "budget_overrun_seconds", float(elapsed - budget.max_seconds)
            )
        payloads.append({
            "graph_index": int(g),
            "solver": key,
            "trial_lo": int(lo),
            "trial_hi": int(hi),
            "graph_name": graph.name,
            "n_vertices": int(graph.n_vertices),
            "n_edges": int(graph.n_edges),
            "total_weight": float(graph.total_weight),
            "weights": weights,
            "n_samples_run": int(samples_run),
            "elapsed_seconds": float(elapsed),
            "used_engine": solver.batchable,
            "metadata": metadata,
        })
    return payloads


def entries_from_payloads(
    spec: WorkloadSpec, payloads: Sequence[dict]
) -> List[ArenaEntry]:
    """Fold unit payloads into :class:`ArenaEntry` records (canonical order).

    Payloads belonging to the same (graph, solver) cell — a cell that was
    trial-split across shards — are merged in trial order: per-trial weights
    concatenate, timings sum, and best/mean are recomputed over the full
    trial set, which reproduces the unsplit cell's values exactly.
    Arena-relative cut ratios are computed *after* the fold, over every cell.
    """
    solver_specs = spec.resolve_solvers()
    by_key = {s.key: s for s in solver_specs}
    cells: Dict[Tuple[int, str], List[dict]] = {}
    for payload in payloads:
        cells.setdefault(
            (int(payload["graph_index"]), str(payload["solver"])), []
        ).append(payload)

    entries: List[ArenaEntry] = []
    # Canonical order: graph index, then the spec's solver order.
    solver_order = {s.key: i for i, s in enumerate(solver_specs)}
    for (g, key) in sorted(cells, key=lambda c: (c[0], solver_order.get(c[1], 0))):
        blocks = sorted(cells[(g, key)], key=lambda p: p["trial_lo"])
        solver = by_key.get(key)
        if solver is None:
            raise ValidationError(f"payload names unknown solver {key!r}")
        weights = np.asarray(
            [w for block in blocks for w in block["weights"]], dtype=float
        )
        if weights.size == 0:
            continue
        elapsed = float(sum(block["elapsed_seconds"] for block in blocks))
        samples_run = max(int(block["n_samples_run"]) for block in blocks)
        used_engine = all(bool(block["used_engine"]) for block in blocks)
        if len(blocks) == 1:
            metadata = dict(blocks[0]["metadata"])
        else:
            metadata = _merge_block_metadata(blocks)
        metadata["trial_weights"] = weights.tolist()
        if solver.budget == "ignored":
            samples_run = 0
        trials_run = int(weights.size)
        total_samples = trials_run * samples_run
        first = blocks[0]
        entries.append(ArenaEntry(
            solver=key,
            graph_name=str(first["graph_name"]),
            n_vertices=int(first["n_vertices"]),
            n_edges=int(first["n_edges"]),
            total_weight=float(first["total_weight"]),
            best_weight=float(weights.max()),
            mean_weight=float(weights.mean()),
            cut_ratio=0.0,  # filled below once the per-graph best is known
            n_trials=trials_run,
            n_samples=samples_run,
            elapsed_seconds=elapsed,
            samples_per_second=(total_samples / elapsed) if elapsed > 0 and total_samples
                               else 0.0,
            used_engine=used_engine,
            backend=metadata.get("engine_backend", ""),
            deterministic=solver.deterministic,
            budget_semantics=solver.budget,
            metadata=metadata,
        ))

    # Arena-relative ratios: per graph, the best weight any solver found.
    best_by_graph: Dict[str, float] = {}
    for entry in entries:
        current = best_by_graph.get(entry.graph_name, 0.0)
        best_by_graph[entry.graph_name] = max(current, entry.best_weight)
    return [
        dataclasses.replace(
            entry,
            cut_ratio=relative_cut_weight(entry.best_weight, best_by_graph[entry.graph_name]),
        )
        for entry in entries
    ]


def _merge_block_metadata(blocks: Sequence[dict]) -> dict:
    """Combine trial-block metadata for one cell (timings sum, flags union)."""
    merged: dict = {}
    for block in blocks:
        for key, value in dict(block["metadata"]).items():
            if key in ("engine_elapsed_seconds", "budget_overrun_seconds"):
                merged[key] = merged.get(key, 0.0) + float(value)
            elif key == "n_rounds":
                merged[key] = max(int(merged.get(key, 0)), int(value))
            elif key in ("early_stopped", "budget_truncated"):
                merged[key] = bool(merged.get(key, False)) or bool(value)
            else:
                merged.setdefault(key, value)
    merged["n_unit_blocks"] = len(blocks)
    return merged


def merge_cell_payloads(
    spec: WorkloadSpec, units: Sequence[CellUnit], payloads: Sequence[dict]
) -> WorkloadOutcome:
    """Fold the payloads of every cell unit into the arena-shaped outcome."""
    entries = entries_from_payloads(spec, payloads)
    names_by_index = {int(p["graph_index"]): str(p["graph_name"]) for p in payloads}
    result = ArenaResult(
        suite=spec.graphs.label,
        solvers=tuple(s.key for s in spec.resolve_solvers()),
        graph_names=tuple(names_by_index[g] for g in sorted(names_by_index)),
        n_trials=spec.budget.n_trials,
        n_samples=spec.budget.n_samples,
        seed=spec.seed,
        entries=entries,
        elapsed_seconds=float(sum(p["elapsed_seconds"] for p in payloads)),
    )
    return WorkloadOutcome(
        records=list(result.entries),
        leaderboard=[
            {**row, "score": row["mean_ratio"]} for row in result.aggregate()
        ],
        metadata={
            "suite": result.suite,
            "graph_names": list(result.graph_names),
            "solvers": list(result.solvers),
            "n_trials": result.n_trials,
            "n_samples": result.n_samples,
            "arena_elapsed_seconds": result.elapsed_seconds,
        },
    )


#: The generic (graph x solver x trial-range) cell triple: the adapter of
#: every workload registered without one, and of bare specs.
CELL_ADAPTER = ShardAdapter(
    units=cell_units, run_units=run_cell_units, merge=merge_cell_payloads
)


def adapter_for(workload: Optional[Workload]) -> ShardAdapter:
    """The adapter *workload* runs as (:data:`CELL_ADAPTER` when it has none)."""
    if workload is None or workload.adapter is None:
        return CELL_ADAPTER
    return workload.adapter
