"""The ``bench`` workload: the library's performance trajectory, measured.

A registered workload (``repro run bench`` / ``repro bench``) that times
each optimised path against its reference path — every scenario is a
wall-clock ratio — and emits a schema'd JSON artifact (``bench.json`` by
default) a CI gate can diff against a committed tolerance baseline
(``benchmarks/baseline.json``):

``engine:<circuit>``
    Trial-parallel batched engine vs the same request run one trial per
    block (``max_block_bytes=1``: the engine one trial at a time) at
    ``engine_trials`` (64) trials x ``engine_samples`` (256) read-outs of one
    ER(100, 0.25) graph, identical seeds.  The keys are ``engine:lif_gw``
    (membrane read-out), ``engine:lif_gw:spike`` (the hardware-native spike
    read-out) and ``engine:lif_tr``.  After one warm-up solve, each leg's
    time is the median of 7 alternating (batched, one-trial) pairs, and
    every pair must agree bit for bit.
    ``speedup = batched read-outs/s ÷ one-trial read-outs/s`` — equivalently
    time-per-read-out reference ÷ optimised — so > 1 means batching wins.
``sharded:arena``
    A sharded in-memory arena run (:mod:`repro.distrib`) vs the same spec
    run monolithically.  ``speedup`` here is mono/sharded wall time — it
    measures *sharding overhead* (expected near, and allowed below, 1).
``problems-compile``
    The problem-compiler path (compile a QUBO instance to MAXCUT + solve +
    lift + certificate, :mod:`repro.problems`) vs solving the pre-compiled
    graph directly with the same solver and seeds.  ``speedup`` is
    direct/compiled wall time — it measures *reduction-path overhead*
    (expected near, and allowed below, 1), and its floor catches
    regressions in the compile/lift/certificate hot path.
``engine-instance-batch``
    Graph-axis batching (:func:`repro.engine.solve_instance_block`): K
    same-shape instances × trials run as the row segments of one engine
    group vs solving the K requests through the engine one at a time.
    ``speedup`` is the per-instance / fused wall-time ratio; timed like the
    ``engine:*`` legs (one warm-up solve, medians of 7 alternating pairs),
    and the fused results of every pair must be bit-identical to its
    per-instance solves.
``scale-generate``
    The CSR-native vectorised Barabási–Albert generator
    (:func:`repro.scale.generators.scale_barabasi_albert`) vs the legacy
    per-vertex Python loop (:func:`repro.graphs.generators.barabasi_albert`)
    at the same ``(n, m)``.  ``speedup`` is legacy/vectorised wall time
    (expected well above 1 and growing with ``n``); the agreement check
    verifies the edge counts match within tolerance and that the vectorised
    path never touched a dense adjacency.
``obs-overhead``
    The tracer's own cost (:mod:`repro.obs`): one engine run with tracing
    truly disabled vs the identical run under an active capture.
    ``speedup`` is untraced/traced wall time (floor 0.5: enabled tracing
    may at most double a run); the agreement check pins the tracer's two
    promises — outputs bit-identical with tracing on or off, and a
    disabled fast path cheap enough that the instrumentation points cost
    ≤ 2% of the untraced wall time.

Every scenario additionally records a ``detail["phase_timings"]`` block —
the per-span-name aggregate (:func:`repro.obs.trace.summarize_spans`) of
the spans its two legs emitted — so saved bench artifacts carry where the
time went, not just the ratio.

Each scenario is one shard unit, so the bench workload itself shards and
resumes like everything else.  Results are :class:`BenchRecord` rows — a
registered result type — and the saved file's ``config.schema`` field names
the artifact schema (:data:`BENCH_SCHEMA`).

Gating
------
:func:`check_baseline` compares a bench report against a baseline file of
per-scenario ``min_speedup`` floors; ``repro bench --check`` exits non-zero
on any violation.  The engine floors are the batching claims (spike read-out
≥ 5×, membrane read-out ≥ 2×) at their gated shape; the others are
deliberately loose (CI machines are noisy) and catch order-of-magnitude
regressions, not percent-level drift.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.engine import SolveRequest, solve, solve_instance_block
from repro.experiments.runner import register_result_type
from repro.obs.trace import capture, span, suspended
from repro.utils.validation import ValidationError
from repro.workloads.registry import ShardAdapter, Workload, register_workload
from repro.workloads.report import RunReport, WorkloadOutcome
from repro.workloads.spec import (
    Budget,
    ExecutionPolicy,
    GraphSource,
    WorkloadSpec,
)

__all__ = [
    "BenchRecord",
    "BENCH_SCHEMA",
    "bench_scenarios",
    "run_bench_scenario",
    "run_bench_units",
    "bench_outcome",
    "check_baseline",
]

#: Schema tag written into every saved bench artifact's config header.
BENCH_SCHEMA = "repro-bench/v1"

#: Engine scenario keys: the circuit, then the LIF-GW read-out if not membrane.
_ENGINE_KEYS = ("lif_gw", "lif_gw:spike", "lif_tr")

#: The engine scenarios' graph: ER(n, p), seeded by the bench seed.
_ENGINE_GRAPH = (100, 0.25)

#: Alternating (optimised, reference) pairs per ``engine:*`` and
#: ``engine-instance-batch`` scenario; each leg's time is the median over
#: the pairs.
_ENGINE_TIMING_PAIRS = 7


@register_result_type
@dataclass(frozen=True)
class BenchRecord:
    """One timed bench scenario.

    Attributes
    ----------
    scenario:
        Scenario key, e.g. ``"engine:lif_tr"`` or ``"sharded:arena"``.
    suite:
        Graph suite the scenario ran on.
    wall_seconds:
        Wall time of the optimised path (engine / sharded).
    baseline_seconds:
        Wall time of the reference path (one trial per block / monolithic).
    speedup:
        Reference time ÷ optimised time (computed per read-out for the
        engine scenarios, i.e. batched ÷ one-trial-per-block throughput);
        > 1 always means the optimised path wins.
    detail:
        Scenario extras: graph name, trial/sample budget, throughputs,
        agreement checks.
    """

    scenario: str
    suite: str
    wall_seconds: float
    baseline_seconds: float
    speedup: float
    detail: Dict[str, Any] = field(default_factory=dict)


def bench_scenarios(spec: WorkloadSpec, n_shards: int = 1) -> List[Tuple[str]]:
    """The scenario keys of one bench run: its units, one per scenario."""
    return [(f"engine:{key}",) for key in _ENGINE_KEYS] + [
        ("sharded:arena",), ("problems-compile",), ("engine-instance-batch",),
        ("scale-generate",), ("obs-overhead",),
    ]


def _bench_graph(spec: WorkloadSpec):
    """The largest graph of the bench suite."""
    from repro.workloads.executor import build_spec_graphs

    # The executor's cached builder, so repeated scenarios (and sharded
    # bench runs) don't regenerate the suite once per scenario.
    return max(build_spec_graphs(spec), key=lambda g: g.n_vertices)


def _run_engine_scenario(spec: WorkloadSpec, key: str) -> Dict[str, Any]:
    from repro.circuits.config import LIFGWConfig
    from repro.circuits.lif_gw import LIFGWCircuit
    from repro.circuits.lif_trevisan import LIFTrevisanCircuit
    from repro.graphs.generators import erdos_renyi

    params = dict(spec.params)
    n_trials = int(params["engine_trials"])
    n_samples = int(params["engine_samples"])
    seed = spec.seed
    graph = erdos_renyi(*_ENGINE_GRAPH, seed=seed, name="engine_bench_er")
    circuit, _, readout = key.partition(":")
    # Build the circuit once (the LIF-GW SDP solve is the offline stage), so
    # both timings measure the simulation itself.
    if circuit == "lif_gw":
        config = LIFGWConfig(readout=readout or "membrane")
        instance = LIFGWCircuit(graph, config=config, seed=seed)
    else:
        instance = LIFTrevisanCircuit(graph)
    request = SolveRequest(
        circuit=instance, n_trials=n_trials,
        n_samples=n_samples, seed=seed, backend=spec.policy.backend,
    )
    reference_request = replace(request, max_block_bytes=1)
    # The reference is the same request one trial per block: what batching
    # buys, with per-trial bests that must match bit for bit.  A warm-up
    # solve keeps the first page faults of the current buffers out of both
    # legs, and each leg is the median of alternating pairs.
    solve(request)
    pairs = [
        (solve(request), solve(reference_request))
        for _ in range(_ENGINE_TIMING_PAIRS)
    ]
    agree = all(
        engine.n_rounds == reference.n_rounds
        and np.array_equal(engine.trajectories, reference.trajectories)
        for engine, reference in pairs
    )
    engine_rate, reference_rate = (
        float(np.median([run.samples_per_second for run in leg])) for leg in zip(*pairs)
    )
    engine_seconds, reference_seconds = (
        float(np.median([run.elapsed_seconds for run in leg])) for leg in zip(*pairs)
    )
    # Per-read-out throughput ratio, robust to early-stop truncation.
    speedup = engine_rate / reference_rate if reference_rate > 0 else float("inf")
    return {
        "scenario": f"engine:{key}",
        "suite": spec.graphs.label,
        "wall_seconds": engine_seconds,
        "baseline_seconds": reference_seconds,
        "speedup": float(speedup),
        "detail": {
            "graph": graph.name,
            "n_vertices": int(graph.n_vertices),
            "n_trials": int(n_trials),
            "n_samples": int(n_samples),
            "readout": pairs[0][0].metadata["readout"],
            "backend": pairs[0][0].backend_name,
            "engine_samples_per_second": engine_rate,
            "one_trial_samples_per_second": reference_rate,
            "results_match": bool(agree),
        },
    }


def _arena_subspec(spec: WorkloadSpec) -> WorkloadSpec:
    params = dict(spec.params)
    return WorkloadSpec(
        workload="arena",
        graphs=spec.graphs,
        solvers=tuple(params.get("solvers", ("lif_tr", "random"))),
        budget=Budget(n_trials=spec.budget.n_trials, n_samples=spec.budget.n_samples),
        policy=ExecutionPolicy(backend=spec.policy.backend),
        seed=spec.seed,
        params={},
    )


def _run_sharded_scenario(spec: WorkloadSpec) -> Dict[str, Any]:
    from repro.workloads.executor import build_spec_graphs
    from repro.workloads.session import Session

    sub = _arena_subspec(spec)
    # "arena_shards", not "shards": the latter is the reserved run_workload /
    # CLI keyword selecting the distrib split of the bench run itself.
    n_shards = int(dict(spec.params).get("arena_shards", 2))
    # Pre-warm the graph cache so both timed sections see the same state —
    # otherwise the monolithic run pays the suite build cold while the
    # sharded run hits the cache it populated, inflating the ratio.
    build_spec_graphs(sub)
    started = time.perf_counter()
    mono = Session(sub).run()
    mono_elapsed = time.perf_counter() - started
    started = time.perf_counter()
    sharded = Session(sub).run(shards=n_shards)
    sharded_elapsed = time.perf_counter() - started
    mono_best = {(e.graph_name, e.solver): e.best_weight for e in mono.records}
    sharded_best = {
        (e.graph_name, e.solver): e.best_weight for e in sharded.records
    }
    return {
        "scenario": "sharded:arena",
        "suite": spec.graphs.label,
        "wall_seconds": float(sharded_elapsed),
        "baseline_seconds": float(mono_elapsed),
        "speedup": float(mono_elapsed / sharded_elapsed) if sharded_elapsed > 0
                   else float("inf"),
        "detail": {
            "n_shards": n_shards,
            "solvers": list(sub.solvers),
            "n_trials": int(sub.budget.n_trials),
            "n_samples": int(sub.budget.n_samples),
            "n_cells": len(mono.records),
            "results_match": mono_best == sharded_best,
        },
    }


def _run_problems_scenario(spec: WorkloadSpec) -> Dict[str, Any]:
    from repro.algorithms.registry import get_solver
    from repro.problems import compile_to_maxcut, random_problem, verify_certificate
    from repro.problems.base import CertificateError

    # A mid-sized QUBO sized like the bench suite's largest graph; annealing
    # is the solver on both paths (cheap, weight-sign agnostic, sweep-budgeted),
    # so the measured gap is purely the compile + lift + certificate overhead.
    n = _bench_graph(spec).n_vertices
    n_trials = spec.budget.n_trials
    n_samples = spec.budget.n_samples
    seed = spec.seed
    problem = random_problem("qubo", seed=seed, n_variables=n)
    solver = get_solver("annealing")
    reference_graph, _ = compile_to_maxcut(problem, verify=False)

    started = time.perf_counter()
    direct_weights = [
        float(solver(reference_graph, n_samples=n_samples, seed=seed + t).weight)
        for t in range(n_trials)
    ]
    direct_elapsed = time.perf_counter() - started

    started = time.perf_counter()
    compiled_weights = []
    certified = True
    for t in range(n_trials):
        graph, lifter = compile_to_maxcut(problem, seed=seed)
        cut = solver(graph, n_samples=n_samples, seed=seed + t)
        try:
            # Lifts the solved assignment internally — the per-solve
            # decode + certificate cost this scenario exists to measure.
            verify_certificate(
                problem, graph, lifter, assignment=cut.assignment, seed=seed
            )
        except CertificateError:
            certified = False
        compiled_weights.append(float(cut.weight))
    compiled_elapsed = time.perf_counter() - started

    return {
        "scenario": "problems-compile",
        "suite": spec.graphs.label,
        "wall_seconds": float(compiled_elapsed),
        "baseline_seconds": float(direct_elapsed),
        "speedup": float(direct_elapsed / compiled_elapsed)
                   if compiled_elapsed > 0 else float("inf"),
        "detail": {
            "problem": problem.kind,
            "n_variables": int(problem.n_variables),
            "n_trials": int(n_trials),
            "n_samples": int(n_samples),
            "compiled_vertices": int(reference_graph.n_vertices),
            "compiled_edges": int(reference_graph.n_edges),
            "results_match": bool(
                certified and direct_weights == compiled_weights
            ),
        },
    }


def _run_instance_block_scenario(spec: WorkloadSpec) -> Dict[str, Any]:
    from repro.circuits.lif_gw import LIFGWCircuit
    from repro.graphs.generators import erdos_renyi

    # K same-shape instances (distinct ER graphs, one size) × a few trials
    # each, solved two ways with identical seeds: one engine invocation per
    # instance, vs a single fused lock-step kernel over the stacked graph
    # axis.  Small per-instance trial counts are the shape fusion exists for
    # (the serve coalescer's many-small-requests regime) — that is where the
    # per-round Python overhead the fusion amortises dominates.  The
    # circuits (and their SDP stage) are built outside both timed sections,
    # so the ratio measures the simulation loop itself.
    params = dict(spec.params)
    count = int(params.get("instance_count", 8))
    n = int(params.get("instance_n", 48))
    n_trials = int(params.get("instance_trials", 2))
    n_samples = spec.budget.n_samples
    seed = spec.seed
    graphs = [erdos_renyi(n, 0.5, seed=seed + index) for index in range(count)]
    circuits = [
        LIFGWCircuit(graph, seed=seed + index)
        for index, graph in enumerate(graphs)
    ]
    requests = [
        SolveRequest(
            circuit=circuit, n_trials=n_trials, n_samples=n_samples,
            seed=seed + index, backend=spec.policy.backend,
        )
        for index, circuit in enumerate(circuits)
    ]

    def timed(run):
        started = time.perf_counter()
        results = run()
        return results, time.perf_counter() - started

    def per_instance():
        return [solve(request) for request in requests]

    def fused():
        return solve_instance_block(requests)

    # Like the engine:* legs: one warm-up solve, then each leg's time is the
    # median of alternating (per-instance, fused) pairs, every pair checked
    # bit for bit.
    fused()
    pairs = [(timed(per_instance), timed(fused)) for _ in range(_ENGINE_TIMING_PAIRS)]
    per_instance_elapsed, fused_elapsed = (
        float(np.median([elapsed for _, elapsed in leg])) for leg in zip(*pairs)
    )
    fused_for_real = all(
        result.metadata.get("instance_block")
        for _, (results, _) in pairs for result in results
    )
    results_match = fused_for_real and all(
        np.array_equal(a.trial_best_weights, b.trial_best_weights)
        and np.array_equal(a.trial_best_assignments, b.trial_best_assignments)
        and np.array_equal(a.trajectories, b.trajectories)
        for (singles, _), (block, _) in pairs
        for a, b in zip(singles, block)
    )
    return {
        "scenario": "engine-instance-batch",
        "suite": spec.graphs.label,
        "wall_seconds": float(fused_elapsed),
        "baseline_seconds": float(per_instance_elapsed),
        "speedup": float(per_instance_elapsed / fused_elapsed)
                   if fused_elapsed > 0 else float("inf"),
        "detail": {
            "n_instances": count,
            "n_vertices": n,
            "n_trials_per_instance": int(n_trials),
            "n_samples": int(n_samples),
            "fused_trials": int(count * n_trials),
            "fused": bool(fused_for_real),
            "per_instance_wall_seconds": float(per_instance_elapsed),
            "fused_wall_seconds": float(fused_elapsed),
            "results_match": bool(results_match),
        },
    }


def _run_scale_generate_scenario(spec: WorkloadSpec) -> Dict[str, Any]:
    from repro.graphs.generators import barabasi_albert
    from repro.scale.generators import scale_barabasi_albert

    # Same (n, m, seed) through both constructions.  The legacy generator's
    # sequential sampling and the vectorised pointer-chasing draw different
    # (equally valid) preferential-attachment realisations, so agreement is
    # checked on the edge count (the vectorised simple-graph projection may
    # drop a few duplicate picks) rather than exact edge identity.
    n = int(dict(spec.params).get("scale_n", 3000))
    m = 3
    seed = spec.seed

    started = time.perf_counter()
    legacy = barabasi_albert(n, m, seed=seed)
    legacy_elapsed = time.perf_counter() - started

    started = time.perf_counter()
    vectorised = scale_barabasi_albert(n, m, seed=seed)
    vectorised_elapsed = time.perf_counter() - started

    expected_edges = m + max(0, n - m - 1) * m
    counts_close = (
        abs(vectorised.n_edges - expected_edges) <= 0.05 * expected_edges
        and abs(legacy.n_edges - expected_edges) <= 0.05 * expected_edges
    )
    return {
        "scenario": "scale-generate",
        "suite": spec.graphs.label,
        "wall_seconds": float(vectorised_elapsed),
        "baseline_seconds": float(legacy_elapsed),
        "speedup": float(legacy_elapsed / vectorised_elapsed)
                   if vectorised_elapsed > 0 else float("inf"),
        "detail": {
            "n_vertices": n,
            "m": m,
            "legacy_edges": int(legacy.n_edges),
            "vectorised_edges": int(vectorised.n_edges),
            "expected_edges": int(expected_edges),
            "results_match": bool(
                counts_close and vectorised._adjacency is None
            ),
        },
    }


def _run_obs_overhead_scenario(spec: WorkloadSpec) -> Dict[str, Any]:
    from repro.circuits.lif_trevisan import LIFTrevisanCircuit

    # The tracer's own overhead gate.  Two legs of the same engine run with
    # identical seeds: one under suspended() (tracing truly off — the
    # production default, even though run_bench_scenario's capture is active
    # around us) and one traced.  The gated speedup is untraced/traced wall
    # time; its floor says enabled tracing may at most double a run.
    graph = _bench_graph(spec)
    n_trials = spec.budget.n_trials
    n_samples = spec.budget.n_samples
    instance = LIFTrevisanCircuit(graph)
    request = SolveRequest(
        circuit=instance, n_trials=n_trials,
        n_samples=n_samples, seed=spec.seed, backend=spec.policy.backend,
    )

    with suspended():
        # Warm-up outside both timed legs: caches, lazy imports, allocator.
        solve(request)
        started = time.perf_counter()
        untraced = solve(request)
        untraced_elapsed = time.perf_counter() - started

    with capture() as trace:
        started = time.perf_counter()
        traced = solve(request)
        traced_elapsed = time.perf_counter() - started
    n_spans = len(trace.spans)

    # Direct measurement of the disabled fast path: span() while tracing is
    # off is one module-global load and an `is None` test.  The product
    # n_spans × that cost estimates what this run's instrumentation points
    # would have cost had tracing been off — the "near-zero when disabled"
    # claim, gated at ≤ 2% of the untraced wall time.
    probe = 20000
    with suspended():
        started = time.perf_counter()
        for _ in range(probe):
            with span("obs.noop.probe"):
                pass
        noop_seconds = (time.perf_counter() - started) / probe

    disabled_overhead = (
        n_spans * noop_seconds / untraced_elapsed
        if untraced_elapsed > 0 else 0.0
    )
    bit_identical = bool(
        untraced.n_rounds == traced.n_rounds
        and np.array_equal(untraced.trial_best_weights, traced.trial_best_weights)
        and np.array_equal(untraced.trajectories, traced.trajectories)
    )
    return {
        "scenario": "obs-overhead",
        "suite": spec.graphs.label,
        "wall_seconds": float(traced_elapsed),
        "baseline_seconds": float(untraced_elapsed),
        "speedup": float(untraced_elapsed / traced_elapsed)
                   if traced_elapsed > 0 else float("inf"),
        "detail": {
            "graph": graph.name,
            "n_vertices": int(graph.n_vertices),
            "n_trials": int(n_trials),
            "n_samples": int(n_samples),
            "n_spans": int(n_spans),
            "noop_span_nanoseconds": float(noop_seconds * 1e9),
            "disabled_overhead_fraction": float(disabled_overhead),
            "untraced_wall_seconds": float(untraced_elapsed),
            "traced_wall_seconds": float(traced_elapsed),
            "results_match": bool(bit_identical and disabled_overhead <= 0.02),
        },
    }


def run_bench_scenario(spec: WorkloadSpec, scenario: str) -> Dict[str, Any]:
    """Run one bench scenario and return its JSON-safe measurement payload.

    Every payload carries a ``detail["phase_timings"]`` block — the per-phase
    aggregate of the spans the scenario's legs emitted.  Both legs of every
    scenario run under the same capture, so the gated ratios are unaffected.
    """
    with capture() as trace:
        payload = _dispatch_bench_scenario(spec, scenario)
    payload.setdefault("detail", {})["phase_timings"] = trace.summary()
    return payload


def _dispatch_bench_scenario(spec: WorkloadSpec, scenario: str) -> Dict[str, Any]:
    if scenario.startswith("engine:"):
        return _run_engine_scenario(spec, scenario.split(":", 1)[1])
    if scenario == "sharded:arena":
        return _run_sharded_scenario(spec)
    if scenario == "problems-compile":
        return _run_problems_scenario(spec)
    if scenario == "engine-instance-batch":
        return _run_instance_block_scenario(spec)
    if scenario == "scale-generate":
        return _run_scale_generate_scenario(spec)
    if scenario == "obs-overhead":
        return _run_obs_overhead_scenario(spec)
    raise ValidationError(f"unknown bench scenario {scenario!r}")


def run_bench_units(
    spec: WorkloadSpec, units: Sequence[Tuple[str]]
) -> List[Dict[str, Any]]:
    """Run the given scenario units; one measurement payload per unit."""
    return [run_bench_scenario(spec, str(scenario)) for (scenario,) in units]


def bench_outcome(
    spec: WorkloadSpec,
    units: Sequence[Tuple[str]],
    payloads: Sequence[Dict[str, Any]],
) -> WorkloadOutcome:
    """Fold every scenario's payload into :class:`BenchRecord` rows."""
    records = [
        BenchRecord(
            scenario=str(payload["scenario"]),
            suite=str(payload["suite"]),
            wall_seconds=float(payload["wall_seconds"]),
            baseline_seconds=float(payload["baseline_seconds"]),
            speedup=float(payload["speedup"]),
            detail=dict(payload["detail"]),
        )
        for payload in payloads
    ]
    leaderboard = sorted(
        (
            {
                "solver": record.scenario,
                "score": float(record.speedup),
                "metric": "speedup (reference / optimised)",
            }
            for record in records
        ),
        key=lambda row: -row["score"],
    )
    return WorkloadOutcome(
        records=list(records),
        leaderboard=leaderboard,
        metadata={
            "schema": BENCH_SCHEMA,
            "suite": spec.graphs.label,
            "n_trials": spec.budget.n_trials,
            "n_samples": spec.budget.n_samples,
            "scenarios": [record.scenario for record in records],
        },
    )


def _bench_spec(params: Dict[str, Any]) -> WorkloadSpec:
    return WorkloadSpec(
        workload="bench",
        graphs=GraphSource.coerce(params["suite"]),
        solvers=tuple(params["solvers"]),
        budget=Budget(
            n_trials=int(params["trials"]), n_samples=int(params["samples"])
        ),
        policy=ExecutionPolicy(backend=params["backend"]),
        seed=params["seed"],
        params={**params, "suite": GraphSource.coerce(params["suite"]).label},
    )


def _format_bench(report: RunReport) -> str:
    from repro.experiments.reporting import format_table

    rows = [
        [
            record.scenario,
            f"{record.speedup:.2f}x",
            f"{record.baseline_seconds:.3f}",
            f"{record.wall_seconds:.3f}",
            "yes" if record.detail.get("results_match") else "NO",
        ]
        for record in report.records
    ]
    return format_table(
        ["scenario", "speedup", "reference s", "optimised s", "results match"],
        rows,
    )


def _plot_bench(report: RunReport) -> str:
    from repro.plotting.ascii import ascii_bar_chart

    return ascii_bar_chart(
        [row["solver"] for row in report.leaderboard],
        [max(0.0, float(row["score"])) for row in report.leaderboard],
        title="bench speedups (reference / optimised)",
        value_format="{:.2f}x",
    )


register_workload(Workload(
    name="bench",
    summary="time batched-vs-one-trial engine and sharded-vs-monolithic (perf gate)",
    defaults={
        "suite": "er-small", "trials": 16, "samples": 128,
        "solvers": ("lif_tr", "random"), "backend": "auto", "arena_shards": 2,
        "engine_trials": 64, "engine_samples": 256, "scale_n": 3000,
        "instance_count": 8, "instance_n": 48, "instance_trials": 2,
    },
    build_spec=_bench_spec,
    adapter=ShardAdapter(bench_scenarios, run_bench_units, bench_outcome),
    formatter=_format_bench,
    plotter=_plot_bench,
))


# -- baseline gate ----------------------------------------------------------


def load_baseline(path) -> Dict[str, Any]:
    """Load and validate a bench tolerance baseline file."""
    with open(path, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    if not isinstance(baseline, dict) or "min_speedup" not in baseline:
        raise ValidationError(
            f"baseline file {path!r} must be an object with a 'min_speedup' map"
        )
    return baseline


def check_baseline(report: RunReport, baseline: Dict[str, Any]) -> List[str]:
    """Compare a bench report against a tolerance baseline.

    Returns a list of human-readable violations (empty = gate passes).
    Scenarios in the baseline but absent from the report are violations too —
    a silently dropped benchmark must not pass the gate.  A scenario whose
    optimised/reference results diverged fails regardless of speed.
    """
    failures: List[str] = []
    by_scenario = {record.scenario: record for record in report.records}
    for scenario, floor in dict(baseline.get("min_speedup", {})).items():
        record = by_scenario.get(scenario)
        if record is None:
            failures.append(f"{scenario}: missing from bench report")
            continue
        if record.speedup < float(floor):
            failures.append(
                f"{scenario}: speedup {record.speedup:.2f}x below the "
                f"baseline floor {float(floor):.2f}x"
            )
    for record in report.records:
        if record.detail.get("results_match") is False:
            failures.append(
                f"{record.scenario}: optimised and reference paths disagree"
            )
    return failures
