"""The ``evolving`` workload: solve → delta → re-solve over graph versions.

Static benchmarks miss the regime the scale subsystem targets: a graph that
*changes* between solves.  This workload runs a timeline per suite graph —
an initial (cold) spectral solve, then ``steps`` batches of random edge
deltas (:class:`repro.scale.stream.EdgeStream`), each folded into a new
:class:`repro.scale.stream.GraphVersion` snapshot and re-solved *warm* from
the previous version's best cut
(:func:`repro.scale.stream.warm_resolve`).  Optionally every step also runs
a full cold solve on the same version, so the gated metric — the
``warm/cold`` cut-quality ratio — measures exactly what warm-starting gives
up (usually nothing) for a fraction of the solve time.

Everything follows the library's uniform workload contract: the timeline of
one (graph, trial) pair is one shard unit, deltas and solves derive their
randomness from the spec seed and the unit key (paired ``SeedSequence``
convention, never from which shard runs them), and a monolithic run is
the same units merged in process — ``repro run evolving --shards N``
followed by ``repro merge`` is bit-identical to the monolithic run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

from repro.experiments.runner import (
    register_result_type,
    results_from_jsonable,
    results_to_jsonable,
)
from repro.utils.rng import paired_seed
from repro.utils.validation import ValidationError
from repro.workloads.registry import ShardAdapter, Workload, register_workload
from repro.workloads.report import RunReport, WorkloadOutcome
from repro.workloads.spec import Budget, GraphSource, WorkloadSpec

__all__ = [
    "EvolvingRecord",
    "EVOLVING_SCHEMA",
    "evolving_units",
    "run_evolving_units",
    "evolving_outcome",
]

#: Schema tag written into every saved evolving artifact's metadata.
EVOLVING_SCHEMA = "repro-evolving/v1"

#: Spawn-key tag isolating this workload's randomness from every other
#: consumer of the spec seed (solves use (tag, g, t, 0, step); the delta
#: stream uses (tag, g, t, 1)).
_EVOLVING_TAG = 9302


@register_result_type
@dataclass(frozen=True)
class EvolvingRecord:
    """One solved version of one evolving-graph timeline.

    Attributes
    ----------
    graph_name, trial, step:
        Timeline coordinates; step 0 is the initial graph (cold solve by
        definition, so ``warm_weight == cold_weight`` there).
    n_vertices, n_edges, fingerprint:
        The version's shape and content hash (fingerprints chain the
        timeline: replaying the same deltas reproduces them exactly).
    warm_weight, warm_seconds:
        Cut weight and wall time of the warm-started re-solve.
    cold_weight, cold_seconds:
        Full cold solve of the same version when ``compare_cold`` is on;
        mirrors the warm numbers otherwise.
    quality_ratio:
        ``warm_weight / cold_weight`` (1.0 when not compared).
    compared:
        Whether a genuine cold reference ran for this step.
    """

    graph_name: str
    trial: int
    step: int
    n_vertices: int
    n_edges: int
    fingerprint: str
    method: str
    warm_weight: float
    warm_seconds: float
    cold_weight: float
    cold_seconds: float
    quality_ratio: float
    compared: bool
    detail: Dict[str, Any] = field(default_factory=dict)


def _evolving_params(spec: WorkloadSpec) -> Dict[str, Any]:
    params = dict(spec.params)
    steps = int(params.get("steps", 3))
    deltas = int(params.get("deltas", 8))
    if steps < 0 or deltas < 0:
        raise ValidationError("steps and deltas must be non-negative")
    return {
        "steps": steps,
        "deltas": deltas,
        "method": str(params.get("method", "auto")),
        "warm": bool(params.get("warm", True)),
        "compare_cold": bool(params.get("compare_cold", True)),
    }


def evolving_units(spec: WorkloadSpec, n_shards: int = 1) -> List[Tuple[int, int]]:
    """One unit per (graph_index, trial) timeline, in canonical order."""
    from repro.workloads.executor import build_spec_graphs

    n_graphs = len(build_spec_graphs(spec))
    return [
        (g, t)
        for g in range(n_graphs)
        for t in range(spec.budget.n_trials)
    ]


def _cold_solve(graph, method: str, seed, max_flips: int):
    from repro.scale.stream import warm_resolve

    started = time.perf_counter()
    cut = warm_resolve(graph, method=method, seed=seed, max_flips=max_flips)
    return cut, time.perf_counter() - started


def run_evolving_units(
    spec: WorkloadSpec, units: Sequence[Tuple[int, int]]
) -> List[List[Dict[str, Any]]]:
    """Run (graph, trial) timelines; one list of saved records per unit."""
    return [results_to_jsonable(_run_timeline(spec, unit)) for unit in units]


def _run_timeline(
    spec: WorkloadSpec, unit: Tuple[int, int]
) -> List[EvolvingRecord]:
    """Run one (graph, trial) timeline: one record per graph version."""
    from repro.scale.stream import EdgeStream, GraphVersion, warm_resolve
    from repro.workloads.executor import build_spec_graphs

    g, t = int(unit[0]), int(unit[1])
    params = _evolving_params(spec)
    graph = build_spec_graphs(spec)[g]
    max_flips = int(spec.budget.n_samples)
    stream = EdgeStream.random(
        graph, params["steps"], params["deltas"],
        seed=paired_seed(spec.seed, _EVOLVING_TAG, g, t, 1),
    )

    version = GraphVersion.initial(graph)
    cut, elapsed = _cold_solve(
        version.graph, params["method"],
        paired_seed(spec.seed, _EVOLVING_TAG, g, t, 0, 0), max_flips,
    )
    records = [EvolvingRecord(
        graph_name=graph.name, trial=t, step=0,
        n_vertices=int(version.graph.n_vertices),
        n_edges=int(version.graph.n_edges),
        fingerprint=version.fingerprint(),
        method=params["method"],
        warm_weight=float(cut.weight), warm_seconds=float(elapsed),
        cold_weight=float(cut.weight), cold_seconds=float(elapsed),
        quality_ratio=1.0, compared=False,
        detail={"parent_fingerprint": None},
    )]
    previous = cut
    for step in range(1, params["steps"] + 1):
        version = version.apply(stream.step(step - 1))
        solve_seed = paired_seed(spec.seed, _EVOLVING_TAG, g, t, 0, step)
        if params["warm"]:
            started = time.perf_counter()
            warm_cut = warm_resolve(
                version.graph, previous=previous, max_flips=max_flips
            )
            warm_elapsed = time.perf_counter() - started
        else:
            warm_cut, warm_elapsed = _cold_solve(
                version.graph, params["method"], solve_seed, max_flips
            )
        if params["compare_cold"]:
            cold_cut, cold_elapsed = _cold_solve(
                version.graph, params["method"], solve_seed, max_flips
            )
            ratio = (
                warm_cut.weight / cold_cut.weight
                if cold_cut.weight > 0 else 1.0
            )
        else:
            cold_cut, cold_elapsed = warm_cut, warm_elapsed
            ratio = 1.0
        records.append(EvolvingRecord(
            graph_name=graph.name, trial=t, step=step,
            n_vertices=int(version.graph.n_vertices),
            n_edges=int(version.graph.n_edges),
            fingerprint=version.fingerprint(),
            method=params["method"],
            warm_weight=float(warm_cut.weight),
            warm_seconds=float(warm_elapsed),
            cold_weight=float(cold_cut.weight),
            cold_seconds=float(cold_elapsed),
            quality_ratio=float(ratio),
            compared=bool(params["compare_cold"]),
            detail={"parent_fingerprint": version.parent_fingerprint},
        ))
        previous = warm_cut
    return records


def evolving_outcome(
    spec: WorkloadSpec,
    units: Sequence[Tuple[int, int]],
    payloads: Sequence[List[Dict[str, Any]]],
) -> WorkloadOutcome:
    """Fold the payloads of every timeline unit into the uniform outcome."""
    ordered = sorted(zip(units, payloads), key=lambda item: tuple(item[0]))
    records = results_from_jsonable(
        [record for _, payload in ordered for record in payload]
    )
    by_graph: Dict[str, List[EvolvingRecord]] = {}
    for record in records:
        by_graph.setdefault(record.graph_name, []).append(record)
    leaderboard = []
    for graph_name, rows in by_graph.items():
        compared = [r.quality_ratio for r in rows if r.compared]
        score = sum(compared) / len(compared) if compared else 1.0
        leaderboard.append({
            "solver": graph_name,
            "score": float(score),
            "metric": "warm/cold cut ratio",
            "steps": max(r.step for r in rows),
            "final_weight": float(
                max(rows, key=lambda r: (r.trial, r.step)).warm_weight
            ),
        })
    leaderboard.sort(key=lambda row: -row["score"])
    params = _evolving_params(spec)
    return WorkloadOutcome(
        records=records,
        leaderboard=leaderboard,
        metadata={
            "schema": EVOLVING_SCHEMA,
            "suite": spec.graphs.label,
            "n_trials": spec.budget.n_trials,
            "max_flips": spec.budget.n_samples,
            **params,
        },
    )


def _evolving_spec(params: Dict[str, Any]) -> WorkloadSpec:
    return WorkloadSpec(
        workload="evolving",
        graphs=GraphSource.coerce(params["suite"]),
        # Marker only: the workload's units drive warm_resolve directly, but
        # spec validation (rightly) insists on a non-empty solver tuple.
        solvers=("trevisan",),
        budget=Budget(
            n_trials=int(params["trials"]), n_samples=int(params["samples"])
        ),
        seed=params["seed"],
        params={**params, "suite": GraphSource.coerce(params["suite"]).label},
    )


def _format_evolving(report: RunReport) -> str:
    from repro.experiments.reporting import format_table

    rows = [
        [
            record.graph_name,
            str(record.trial),
            str(record.step),
            str(record.n_edges),
            f"{record.warm_weight:.1f}",
            f"{record.warm_seconds:.3f}",
            f"{record.quality_ratio:.3f}" if record.compared else "-",
        ]
        for record in report.records
    ]
    return format_table(
        ["graph", "trial", "step", "edges", "warm cut", "warm s", "warm/cold"],
        rows,
    )


def _plot_evolving(report: RunReport) -> str:
    from repro.plotting.ascii import ascii_bar_chart

    return ascii_bar_chart(
        [row["solver"] for row in report.leaderboard],
        [max(0.0, float(row["score"])) for row in report.leaderboard],
        title="evolving warm/cold cut-quality ratio",
        value_format="{:.3f}",
    )


register_workload(Workload(
    name="evolving",
    summary="evolving-graph timelines: solve, apply edge deltas, re-solve warm",
    defaults={
        "suite": "scale-small", "steps": 3, "deltas": 8, "method": "auto",
        "warm": True, "compare_cold": True, "trials": 1, "samples": 64,
    },
    build_spec=_evolving_spec,
    adapter=ShardAdapter(evolving_units, run_evolving_units, evolving_outcome),
    formatter=_format_evolving,
    plotter=_plot_evolving,
))
