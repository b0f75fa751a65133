"""Unified Workload API: one declarative spec + session runner for every run.

This package is the single stable surface behind every experiment, arena
race, and engine solve:

* :class:`WorkloadSpec` declares a run — graph source (:class:`GraphSource`),
  solver set (capability-aware registry keys), shared :class:`Budget`, and
  :class:`ExecutionPolicy` (engine backend and per-trial worker count);
* :class:`Session` validates, plans, executes, and returns a uniform
  :class:`RunReport` (per-trial records, leaderboard, timing, metadata
  header) persisted through :func:`repro.experiments.runner.save_results`;
* :func:`register_workload` / :func:`list_workloads` make named workloads
  discoverable from Python and the generic ``repro run <name>`` CLI.

The five paper workloads — ``figure3``, ``figure4``, ``table1``,
``ablation``, ``arena`` — are registered on import (see
:mod:`repro.workloads.paper`); a new scenario is typically a ~30-line
``build_spec`` rather than a new module and CLI subcommand.

Quickstart
----------
>>> from repro.workloads import list_workloads, run_workload
>>> "figure3" in list_workloads()
True
>>> report = run_workload("arena", solvers=("random", "trevisan"),
...                       suite="er-small", trials=2, samples=16, seed=0)
>>> len(report.records) > 0
True
"""

from repro.workloads.spec import (
    Budget,
    ExecutionPolicy,
    GraphSource,
    WorkloadSpec,
)
from repro.workloads.report import RunReport, WorkloadOutcome
from repro.workloads.registry import (
    ShardAdapter,
    Workload,
    get_workload,
    list_workloads,
    register_workload,
)
from repro.workloads.session import PlanStep, RunPlan, Session, run_workload
from repro.workloads import paper as _paper  # registers the five paper workloads
from repro.workloads import bench as _bench  # registers the bench workload
from repro.workloads import problems as _problems  # registers the problems workload
from repro.workloads import evolving as _evolving  # registers the evolving workload
from repro import portfolio as _portfolio  # registers the portfolio meta-solver
from repro.workloads.bench import BenchRecord, check_baseline
from repro.workloads.paper import arena_result_from_report


def __getattr__(name):
    # ProblemSource joins GraphSource as a spec-level source, but it lives in
    # repro.problems (which imports repro.workloads.spec) — resolving it
    # lazily keeps the package importable from either direction.
    if name == "ProblemSource":
        from repro.problems.source import ProblemSource

        return ProblemSource
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Budget",
    "ExecutionPolicy",
    "GraphSource",
    "ProblemSource",
    "WorkloadSpec",
    "RunReport",
    "WorkloadOutcome",
    "Workload",
    "ShardAdapter",
    "register_workload",
    "get_workload",
    "list_workloads",
    "Session",
    "RunPlan",
    "PlanStep",
    "run_workload",
    "arena_result_from_report",
    "BenchRecord",
    "check_baseline",
]
