"""Solver arena: capability-aware, cross-method MAXCUT comparison harness.

The arena is the repo's answer to the paper's central comparative claim —
stochastic LIF circuits vs. classical baselines — as a reusable subsystem:
pick solvers from the registry, pick (or register) a graph suite, set one
shared budget, and get a paired, reproducible leaderboard.

Public API
----------
:class:`ArenaResult` / :class:`ArenaEntry`
    Results: per-(solver, graph) entries with arena-relative cut ratios,
    wall time, throughput, and execution-path provenance; ``aggregate()``
    produces leaderboard rows.
:class:`GraphSuite` / :func:`register_suite` / :func:`list_suites` /
:func:`build_suite`
    Named, seed-deterministic benchmark graph collections.

Races run through the unified workload API:
``repro.workloads.run_workload("arena", ...)`` (CLI: ``python -m repro run
arena``), whose generic executor routes batchable circuits onto the
trial-parallel engine and everything else through ``parallel_map``;
:func:`repro.workloads.arena_result_from_report` turns the report back into
an :class:`ArenaResult`.

Quickstart
----------
>>> from repro.workloads import arena_result_from_report, run_workload
>>> report = run_workload("arena", solvers=("random", "trevisan"),
...                       suite="er-small", trials=2, samples=32, seed=0)
>>> arena_result_from_report(report).winner() in {"random", "trevisan"}
True

See DESIGN.md §"Workload API" and §"Solver arena", and
``examples/solver_arena.py``.
"""

from repro.arena.results import ArenaEntry, ArenaResult
from repro.arena.suite import (
    SUITES,
    GraphSuite,
    build_suite,
    get_suite,
    list_suites,
    register_suite,
)

__all__ = [
    "ArenaEntry",
    "ArenaResult",
    "GraphSuite",
    "SUITES",
    "build_suite",
    "get_suite",
    "list_suites",
    "register_suite",
]
