"""The five paper workloads, registered as declarative specs.

Each of the reproduction's paper artifacts — the Figure 3 sweep, the
Figure 4 panels, Table I, the ablations, and the solver arena — is a
:class:`~repro.workloads.registry.Workload`: a defaults table, a
``build_spec`` factory, and (for the figure/table/ablation workloads) a
:class:`~repro.workloads.registry.ShardAdapter` whose units are the
experiment modules' per-graph / per-setting bodies and whose merge folds
their payloads into the uniform
:class:`~repro.workloads.report.WorkloadOutcome`.  The arena needs no
adapter: its spec runs as the generic executor's cell units.

Everything here is reachable as ``repro run <name>`` and
``run_workload(<name>, ...)``, the only ways to run a workload.
"""

from __future__ import annotations

import json
import statistics
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.arena.results import ArenaResult
from repro.experiments.ablations import (
    DEFAULT_LEARNING_RATES,
    DEFAULT_RANKS,
    DEVICE_MODELS,
    _ablation_graphs,
    _solver_references,
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
from repro.experiments.figure3 import (
    METHODS,
    figure3_cell_from_graph_results,
    run_figure3_graph,
)
from repro.experiments.figure4 import run_figure4_panel
from repro.experiments.reporting import (
    format_arena_report,
    format_figure3_report,
    format_figure4_report,
    format_table,
    format_table1_report,
)
from repro.experiments.runner import results_from_jsonable, results_to_jsonable
from repro.experiments.table1 import run_table1_row
from repro.graphs.repository import list_empirical_graphs
from repro.parallel.pool import parallel_map
from repro.utils.validation import ValidationError
from repro.workloads.registry import ShardAdapter, Workload, register_workload
from repro.workloads.report import RunReport, WorkloadOutcome
from repro.workloads.spec import (
    Budget,
    ExecutionPolicy,
    GraphSource,
    WorkloadSpec,
)

__all__ = ["arena_result_from_report", "ABLATION_KINDS"]

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


def _figure3_cells(config: Figure3Config) -> List[Tuple[int, float]]:
    return [(n, p) for n in config.sizes for p in config.probabilities]


def _figure3_units(spec: WorkloadSpec, n_shards: int) -> List[Tuple[int, int]]:
    # spec.seed, not params["seed"]: the session resolves None seeds to drawn
    # entropy on spec.seed, and execution must follow that resolution.
    config = _figure3_config(dict(spec.params), spec.seed)
    return [
        (cell_index, j)
        for cell_index in range(len(_figure3_cells(config)))
        for j in range(config.n_graphs_per_cell)
    ]


def _figure3_graph_payload(task) -> Dict[str, list]:
    """Run one (cell, graph) unit into a JSON-safe payload (picklable worker)."""
    n, p, j, config = task
    result = run_figure3_graph(n, p, j, config=config)
    return {key: np.asarray(value).tolist() for key, value in result.items()}


def _figure3_run_units(spec: WorkloadSpec, units: Sequence[Tuple]) -> List[Any]:
    config = _figure3_config(dict(spec.params), spec.seed)
    cells = _figure3_cells(config)
    tasks = [(*cells[int(c)], int(j), config) for c, j in units]
    return parallel_map(
        _figure3_graph_payload, tasks, config=spec.policy.parallel_config()
    )


def _figure3_merge(
    spec: WorkloadSpec, units: Sequence[Tuple], payloads: Sequence[Any]
) -> WorkloadOutcome:
    config = _figure3_config(dict(spec.params), spec.seed)
    by_cell: Dict[int, List[Tuple[int, Any]]] = {}
    for (cell_index, j), payload in zip(units, payloads):
        by_cell.setdefault(int(cell_index), []).append((int(j), payload))
    cells = []
    for cell_index, (n, p) in enumerate(_figure3_cells(config)):
        graphs = sorted(by_cell.get(cell_index, []), key=lambda item: item[0])
        if len(graphs) != config.n_graphs_per_cell:
            raise ValidationError(
                f"figure3 cell {cell_index} has {len(graphs)} of "
                f"{config.n_graphs_per_cell} graph payloads"
            )
        results = [
            {key: np.asarray(value) for key, value in payload.items()}
            for _, payload in graphs
        ]
        cells.append(figure3_cell_from_graph_results(n, p, results, config=config))
    leaderboard = _ranked([
        {
            "solver": method,
            "score": statistics.fmean(float(c.curves[method][-1]) for c in cells),
            "metric": "mean final relative cut",
        }
        for method in METHODS
    ])
    return WorkloadOutcome(
        records=cells,
        leaderboard=leaderboard,
        metadata={"config": config.to_dict()},
    )


# -- figure4 ----------------------------------------------------------------


def _empirical_names(spec: WorkloadSpec) -> List[str]:
    return list(spec.params["graphs"]) or list_empirical_graphs()


def _empirical_units(spec: WorkloadSpec, n_shards: int) -> List[Tuple[int]]:
    """One unit per empirical graph, by sweep index (figure4 and table1)."""
    return [(g,) for g in range(len(_empirical_names(spec)))]


def _figure4_spec(params: Dict[str, Any]) -> WorkloadSpec:
    return WorkloadSpec(
        workload="figure4",
        graphs=GraphSource.repository(params["graphs"]),
        solvers=("lif_gw", "lif_tr", "gw", "random"),
        budget=Budget(n_trials=1, n_samples=int(params["samples"])),
        seed=params["seed"],
        params=params,
    )


def _figure4_config(spec: WorkloadSpec) -> Figure4Config:
    return Figure4Config(n_samples=int(spec.params["samples"]), seed=spec.seed)


def _by_unit(units: Sequence[Tuple], payloads: Sequence[Any]) -> List[Any]:
    """Decode one saved record per unit, ordered by unit key."""
    ordered = sorted(zip(units, payloads), key=lambda item: tuple(item[0]))
    return results_from_jsonable([payload for _, payload in ordered])


def _figure4_run_units(spec: WorkloadSpec, units: Sequence[Tuple]) -> List[Any]:
    config = _figure4_config(spec)
    names = _empirical_names(spec)
    return results_to_jsonable([
        run_figure4_panel(names[int(g)], config=config, graph_index=int(g))
        for (g,) in units
    ])


def _figure4_merge(
    spec: WorkloadSpec, units: Sequence[Tuple], payloads: Sequence[Any]
) -> WorkloadOutcome:
    panels = _by_unit(units, payloads)
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
        records=panels,
        leaderboard=leaderboard,
        metadata={"config": _figure4_config(spec).to_dict()},
    )


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


def _table1_config(spec: WorkloadSpec) -> Table1Config:
    return Table1Config(n_samples=int(spec.params["samples"]), seed=spec.seed)


def _table1_run_units(spec: WorkloadSpec, units: Sequence[Tuple]) -> List[Any]:
    config = _table1_config(spec)
    names = _empirical_names(spec)
    return results_to_jsonable([
        run_table1_row(names[int(g)], config=config, graph_index=int(g))
        for (g,) in units
    ])


def _table1_merge(
    spec: WorkloadSpec, units: Sequence[Tuple], payloads: Sequence[Any]
) -> WorkloadOutcome:
    rows = _by_unit(units, payloads)
    leaderboard = _ranked([
        {
            "solver": method,
            "score": statistics.fmean(
                row.measured[method] / (max(row.measured.values()) or 1.0)
                for row in rows
            ),
            "metric": "mean best cut relative to per-graph best",
        }
        for method in ("lif_gw", "lif_tr", "solver", "random")
    ])
    return WorkloadOutcome(
        records=rows,
        leaderboard=leaderboard,
        metadata={"config": _table1_config(spec).to_dict()},
    )


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


def _ablation_config(spec: WorkloadSpec) -> AblationConfig:
    params = dict(spec.params)
    return AblationConfig(
        n_vertices=int(params["vertices"]),
        n_graphs=int(params["n_graphs"]),
        n_samples=int(params["samples"]),
        seed=spec.seed,
    )


def _ablation_units(spec: WorkloadSpec, n_shards: int) -> List[Tuple[int]]:
    """One unit per sweep setting, by global setting index."""
    n_settings = {
        "devices": len(DEVICE_MODELS),
        "rank": len(DEFAULT_RANKS),
        "learning-rate": len(DEFAULT_LEARNING_RATES),
    }[spec.params["kind"]]
    return [(s,) for s in range(n_settings)]


#: Per-config cache of the ablation's classical-solver references — the
#: expensive fixed stage every setting shares.  Keyed by the config dict, so
#: an in-process sharded run (one run_units call per shard) computes the
#: references once instead of once per shard; separate worker processes
#: still each pay for it once, which is the unavoidable per-machine cost.
_ABLATION_REFERENCES: Dict[str, Any] = {}


def _ablation_references(config: AblationConfig) -> Any:
    key = json.dumps(config.to_dict(), sort_keys=True)
    if key not in _ABLATION_REFERENCES:
        if len(_ABLATION_REFERENCES) > 8:
            _ABLATION_REFERENCES.clear()
        _ABLATION_REFERENCES[key] = _solver_references(
            _ablation_graphs(config), config
        )
    return _ABLATION_REFERENCES[key]


def _ablation_run_units(spec: WorkloadSpec, units: Sequence[Tuple]) -> List[Any]:
    config = _ablation_config(spec)
    kind = spec.params["kind"]
    wanted = [int(s) for (s,) in units]
    only = sorted(set(wanted))
    references = _ablation_references(config)
    if kind == "devices":
        points = run_device_imperfection_ablation(
            config=config, circuit=spec.params["circuit"], only=only,
            references=references,
        )
    elif kind == "rank":
        points = run_rank_ablation(config=config, only=only, references=references)
    else:
        points = run_learning_rate_ablation(
            config=config, only=only, references=references
        )
    by_index = dict(zip(only, points))
    return results_to_jsonable([by_index[s] for s in wanted])


def _ablation_merge(
    spec: WorkloadSpec, units: Sequence[Tuple], payloads: Sequence[Any]
) -> WorkloadOutcome:
    points = _by_unit(units, payloads)
    leaderboard = _ranked([
        {
            "solver": point.setting,
            "score": float(point.mean_relative_cut),
            "metric": "mean relative cut",
        }
        for point in points
    ])
    return WorkloadOutcome(
        records=points,
        leaderboard=leaderboard,
        metadata={
            "config": _ablation_config(spec).to_dict(),
            "kind": spec.params["kind"],
        },
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
        adapter=ShardAdapter(_figure3_units, _figure3_run_units, _figure3_merge),
        formatter=lambda report: format_figure3_report(report.records),
        plotter=_plot_curves,
    ),
    Workload(
        name="figure4",
        summary="empirical-graph convergence curves (paper Figure 4)",
        defaults={"graphs": ("hamming6-2",), "samples": 512},
        build_spec=_figure4_spec,
        adapter=ShardAdapter(_empirical_units, _figure4_run_units, _figure4_merge),
        formatter=lambda report: format_figure4_report(report.records),
        plotter=_plot_curves,
    ),
    Workload(
        name="table1",
        summary="maximum cut values per method per empirical graph (Table I)",
        defaults={"graphs": (), "samples": 1024},
        build_spec=_table1_spec,
        adapter=ShardAdapter(_empirical_units, _table1_run_units, _table1_merge),
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
        adapter=ShardAdapter(_ablation_units, _ablation_run_units, _ablation_merge),
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
