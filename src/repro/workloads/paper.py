"""The five paper workloads, registered as declarative specs.

Each of the reproduction's historical entry points — the Figure 3 sweep, the
Figure 4 panels, Table I, the ablations, and the solver arena — is re-cast
here as a :class:`~repro.workloads.registry.Workload`: a defaults table, a
``build_spec`` factory, and (for the figure/table/ablation workloads) a thin
executor that delegates to the existing experiment runners and adapts their
results into the uniform :class:`~repro.workloads.report.WorkloadOutcome`.
The arena needs no executor at all: its spec runs through the generic
capability-routed executor.

Everything here is reachable as ``repro run <name>`` and
``run_workload(<name>, ...)``, the only ways to run a workload.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List

from repro.arena.results import ArenaResult
from repro.experiments.ablations import (
    run_device_imperfection_ablation,
    run_learning_rate_ablation,
    run_rank_ablation,
)
from repro.experiments.config import (
    AblationConfig,
    Figure3Config,
    Figure4Config,
    Table1Config,
)
from repro.experiments.figure3 import METHODS, run_figure3
from repro.experiments.figure4 import run_figure4
from repro.experiments.reporting import (
    format_arena_report,
    format_figure3_report,
    format_figure4_report,
    format_table,
    format_table1_report,
)
from repro.experiments.table1 import run_table1
from repro.utils.validation import ValidationError
from repro.workloads.registry import Workload, register_workload
from repro.workloads.report import RunReport, WorkloadOutcome
from repro.workloads.spec import (
    Budget,
    ExecutionPolicy,
    GraphSource,
    WorkloadSpec,
)

__all__ = [
    "arena_result_from_report",
    "ABLATION_KINDS",
    "figure3_outcome",
    "figure4_outcome",
    "table1_outcome",
    "ablation_outcome",
]

#: Ablation sweep kinds accepted by the ``ablation`` workload.
ABLATION_KINDS = ("devices", "rank", "learning-rate")


def arena_result_from_report(report: RunReport) -> ArenaResult:
    """Rebuild the :class:`ArenaResult` view of an arena workload report."""
    meta = report.metadata
    return ArenaResult(
        suite=str(meta.get("suite", "custom")),
        solvers=tuple(meta.get("solvers", ())),
        graph_names=tuple(meta.get("graph_names", ())),
        n_trials=int(meta.get("n_trials", 0)),
        n_samples=int(meta.get("n_samples", 0)),
        seed=report.seed,
        entries=list(report.records),
        elapsed_seconds=float(
            meta.get("arena_elapsed_seconds", report.elapsed_seconds)
        ),
    )


def _ranked(rows: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    rows.sort(key=lambda row: -row["score"])
    return rows


# -- figure3 ----------------------------------------------------------------


def _figure3_config(params: Dict[str, Any], seed) -> Figure3Config:
    return Figure3Config(
        sizes=tuple(int(n) for n in params["sizes"]),
        probabilities=tuple(float(p) for p in params["probabilities"]),
        n_graphs_per_cell=int(params["trials"]),
        n_samples=int(params["samples"]),
        seed=seed,
    )


def _figure3_spec(params: Dict[str, Any]) -> WorkloadSpec:
    # Validates sizes/probabilities/counts before the spec is built.
    config = _figure3_config(params, params["seed"])
    return WorkloadSpec(
        workload="figure3",
        graphs=GraphSource.erdos_renyi_grid(
            config.sizes, config.probabilities, per_cell=config.n_graphs_per_cell
        ),
        solvers=("lif_gw", "lif_tr", "gw", "random"),
        # The "trials" parameter is graphs-per-cell, already encoded in the
        # graph source; each method then runs once per graph.
        budget=Budget(n_trials=1, n_samples=config.n_samples),
        policy=ExecutionPolicy(n_workers=params["workers"]),
        seed=params["seed"],
        params=params,
    )


def figure3_outcome(cells, config: Figure3Config) -> WorkloadOutcome:
    """Wrap Figure 3 cells into the uniform outcome (shared with shard merges)."""
    leaderboard = _ranked([
        {
            "solver": method,
            "score": statistics.fmean(float(c.curves[method][-1]) for c in cells),
            "metric": "mean final relative cut",
        }
        for method in METHODS
    ])
    return WorkloadOutcome(
        records=list(cells),
        leaderboard=leaderboard,
        metadata={"config": config.to_dict()},
    )


def _figure3_execute(spec: WorkloadSpec) -> WorkloadOutcome:
    # spec.seed, not params["seed"]: the session resolves None seeds to drawn
    # entropy on spec.seed, and execution must follow that resolution.
    config = _figure3_config(dict(spec.params), spec.seed)
    cells = run_figure3(config=config, parallel=spec.policy.parallel_config())
    return figure3_outcome(cells, config)


# -- figure4 ----------------------------------------------------------------


def _figure4_spec(params: Dict[str, Any]) -> WorkloadSpec:
    return WorkloadSpec(
        workload="figure4",
        graphs=GraphSource.repository(params["graphs"]),
        solvers=("lif_gw", "lif_tr", "gw", "random"),
        budget=Budget(n_trials=1, n_samples=int(params["samples"])),
        seed=params["seed"],
        params=params,
    )


def figure4_outcome(panels, config: Figure4Config) -> WorkloadOutcome:
    """Wrap Figure 4 panels into the uniform outcome (shared with shard merges)."""
    leaderboard = _ranked([
        {
            "solver": method,
            "score": statistics.fmean(
                panel.best_weights[method]
                / (panel.solver_best_weight if panel.solver_best_weight > 0 else 1.0)
                for panel in panels
            ),
            "metric": "mean best weight relative to solver",
        }
        for method in ("lif_gw", "lif_tr", "solver", "random")
    ])
    return WorkloadOutcome(
        records=list(panels),
        leaderboard=leaderboard,
        metadata={"config": config.to_dict()},
    )


def _figure4_execute(spec: WorkloadSpec) -> WorkloadOutcome:
    params = dict(spec.params)
    config = Figure4Config(n_samples=int(params["samples"]), seed=spec.seed)
    panels = run_figure4(list(params["graphs"]) or None, config=config)
    return figure4_outcome(panels, config)


# -- table1 -----------------------------------------------------------------


def _table1_spec(params: Dict[str, Any]) -> WorkloadSpec:
    return WorkloadSpec(
        workload="table1",
        graphs=GraphSource.repository(params["graphs"]),
        solvers=("lif_gw", "lif_tr", "gw", "random"),
        budget=Budget(n_trials=1, n_samples=int(params["samples"])),
        seed=params["seed"],
        params=params,
    )


def table1_outcome(rows, config: Table1Config) -> WorkloadOutcome:
    """Wrap Table I rows into the uniform outcome (shared with shard merges)."""
    methods = ("lif_gw", "lif_tr", "solver", "random")
    leaderboard = _ranked([
        {
            "solver": method,
            "score": statistics.fmean(
                row.measured[method] / (max(row.measured.values()) or 1.0)
                for row in rows
            ),
            "metric": "mean best cut relative to per-graph best",
        }
        for method in methods
    ])
    return WorkloadOutcome(
        records=list(rows),
        leaderboard=leaderboard,
        metadata={"config": config.to_dict()},
    )


def _table1_execute(spec: WorkloadSpec) -> WorkloadOutcome:
    params = dict(spec.params)
    config = Table1Config(n_samples=int(params["samples"]), seed=spec.seed)
    rows = run_table1(list(params["graphs"]) or None, config=config)
    return table1_outcome(rows, config)


# -- ablation ---------------------------------------------------------------


def _ablation_spec(params: Dict[str, Any]) -> WorkloadSpec:
    kind = params["kind"]
    if kind not in ABLATION_KINDS:
        raise ValidationError(
            f"ablation kind must be one of {ABLATION_KINDS}, got {kind!r}"
        )
    circuit = params["circuit"]
    if circuit not in ("lif_gw", "lif_tr"):
        raise ValidationError(
            f"ablation circuit must be 'lif_gw' or 'lif_tr', got {circuit!r}"
        )
    solvers = {
        "devices": (circuit, "gw"),
        "rank": ("lif_gw", "gw"),
        "learning-rate": ("lif_tr", "gw"),
    }[kind]
    return WorkloadSpec(
        workload="ablation",
        graphs=GraphSource.erdos_renyi_grid(
            (int(params["vertices"]),), (0.25,), per_cell=int(params["n_graphs"])
        ),
        solvers=solvers,
        # n_graphs is the graph count (in the source); one run per setting
        # per graph.
        budget=Budget(n_trials=1, n_samples=int(params["samples"])),
        seed=params["seed"],
        params=params,
    )


def _ablation_execute(spec: WorkloadSpec) -> WorkloadOutcome:
    params = dict(spec.params)
    config = AblationConfig(
        n_vertices=int(params["vertices"]),
        n_graphs=int(params["n_graphs"]),
        n_samples=int(params["samples"]),
        seed=spec.seed,
    )
    kind = params["kind"]
    if kind == "devices":
        points = run_device_imperfection_ablation(config=config, circuit=params["circuit"])
    elif kind == "rank":
        points = run_rank_ablation(config=config)
    else:
        points = run_learning_rate_ablation(config=config)
    return ablation_outcome(points, config, kind)


def ablation_outcome(points, config: AblationConfig, kind: str) -> WorkloadOutcome:
    """Wrap ablation points into the uniform outcome (shared with shard merges)."""
    leaderboard = _ranked([
        {
            "solver": point.setting,
            "score": float(point.mean_relative_cut),
            "metric": "mean relative cut",
        }
        for point in points
    ])
    return WorkloadOutcome(
        records=list(points),
        leaderboard=leaderboard,
        metadata={"config": config.to_dict(), "kind": kind},
    )


def _format_ablation(report: RunReport) -> str:
    rows = [
        [p.setting, p.mean_relative_cut, p.sem]
        for p in report.records
    ]
    return format_table(["setting", "relative cut", "sem"], rows)


# -- arena ------------------------------------------------------------------


def _arena_spec(params: Dict[str, Any]) -> WorkloadSpec:
    return WorkloadSpec(
        workload="arena",
        graphs=GraphSource.coerce(params["suite"]),
        solvers=tuple(params["solvers"]),
        budget=Budget(
            n_trials=int(params["trials"]),
            n_samples=int(params["samples"]),
            max_seconds=params["max_seconds"],
        ),
        policy=ExecutionPolicy(
            backend=params["backend"], n_workers=params["workers"]
        ),
        seed=params["seed"],
        params={**params, "suite": GraphSource.coerce(params["suite"]).label},
    )


def _format_arena(report: RunReport) -> str:
    return format_arena_report(arena_result_from_report(report))


def _plot_arena(report: RunReport) -> str:
    from repro.plotting.ascii import render_leaderboard

    return render_leaderboard(arena_result_from_report(report))


def _plot_curves(report: RunReport) -> str:
    from repro.plotting.ascii import render_curves

    sections = []
    for record in report.records:
        title = getattr(record, "graph_name", None)
        if title is None:
            title = f"G({record.n_vertices}, {record.probability:g})"
        sections.append(render_curves(
            record.sample_counts, record.curves,
            title=f"{title} relative cut weight",
        ))
    return "\n\n".join(sections)


for _workload in (
    Workload(
        name="figure3",
        summary="Erdős–Rényi convergence sweep (paper Figure 3)",
        defaults={
            "sizes": (50,), "probabilities": (0.25,), "trials": 3,
            "samples": 512, "workers": 1,
        },
        build_spec=_figure3_spec,
        execute=_figure3_execute,
        formatter=lambda report: format_figure3_report(report.records),
        plotter=_plot_curves,
    ),
    Workload(
        name="figure4",
        summary="empirical-graph convergence curves (paper Figure 4)",
        defaults={"graphs": ("hamming6-2",), "samples": 512},
        build_spec=_figure4_spec,
        execute=_figure4_execute,
        formatter=lambda report: format_figure4_report(report.records),
        plotter=_plot_curves,
    ),
    Workload(
        name="table1",
        summary="maximum cut values per method per empirical graph (Table I)",
        defaults={"graphs": (), "samples": 1024},
        build_spec=_table1_spec,
        execute=_table1_execute,
        formatter=lambda report: format_table1_report(report.records),
    ),
    Workload(
        name="ablation",
        summary="device / rank / learning-rate ablation sweeps",
        defaults={
            "kind": "devices", "circuit": "lif_gw", "vertices": 50,
            "samples": 256, "n_graphs": 3,
        },
        build_spec=_ablation_spec,
        execute=_ablation_execute,
        formatter=_format_ablation,
    ),
    Workload(
        name="arena",
        summary="race registered solvers over a graph suite under one budget",
        defaults={
            "solvers": ("lif_gw", "lif_tr", "gw", "trevisan", "random"),
            "suite": "er-small", "trials": 4, "samples": 256,
            "max_seconds": None, "backend": "auto", "workers": 1,
        },
        build_spec=_arena_spec,
        formatter=_format_arena,
        plotter=_plot_arena,
    ),
):
    register_workload(_workload)
del _workload
