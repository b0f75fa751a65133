"""The session runner: validate → plan → execute → report.

A :class:`Session` wraps one :class:`~repro.workloads.spec.WorkloadSpec` (and
optionally its registered :class:`~repro.workloads.registry.Workload`) and
drives it through the uniform lifecycle:

* :meth:`Session.validate` resolves solver names against the registry and
  checks the graph source, failing fast before any expensive work;
* :meth:`Session.plan` previews the execution — which graph/solver cells will
  run, on which path (``engine[<backend>]`` for batchable circuits,
  ``parallel[<workers>]`` / ``sequential`` for per-trial solvers, ``once``
  for deterministic ones), with how many trials — without running anything;
* :meth:`Session.run` executes the workload's
  :class:`~repro.workloads.registry.ShardAdapter` triple (``units`` →
  ``run_units`` → ``merge``; the generic capability-routed cell triple when
  the workload registers none) and returns a
  :class:`~repro.workloads.report.RunReport`.

``seed=None`` specs draw fresh root entropy once, at session construction,
so ``plan`` and ``run`` agree and the report records a reproducible seed.

Quickstart
----------
>>> from repro.workloads import run_workload
>>> report = run_workload("arena", solvers=("random", "trevisan"),
...                       suite="er-small", trials=2, samples=16, seed=0)
>>> report.winner() in {"random", "trevisan"}
True
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.algorithms.registry import get_spec
from repro.obs.trace import mark, span, spans_since, summarize_spans, tracing_enabled
from repro.utils.validation import ValidationError, _config_jsonable
from repro.workloads.executor import adapter_for
from repro.workloads.registry import (
    Workload,
    get_workload,
    resolve_params,
)
from repro.workloads.report import RunReport
from repro.workloads.spec import WorkloadSpec

__all__ = ["PlanStep", "RunPlan", "Session", "run_workload"]


@dataclass(frozen=True)
class PlanStep:
    """One planned (graph, solver) cell and the path it will take."""

    graph_name: str
    solver: str
    route: str
    n_trials: int


@dataclass(frozen=True)
class RunPlan:
    """Preview of a session's execution (advisory for workloads with an adapter)."""

    workload: str
    seed: Optional[int]
    graph_names: Tuple[str, ...]
    steps: Tuple[PlanStep, ...]

    def describe(self) -> str:
        """Multi-line human-readable rendering of the plan."""
        lines = [
            f"workload {self.workload!r} — seed {self.seed}, "
            f"{len(self.graph_names)} graph(s), {len(self.steps)} cell(s)"
        ]
        for step in self.steps:
            lines.append(
                f"  {step.graph_name:<24} {step.solver:<14} "
                f"{step.route:<14} trials={step.n_trials}"
            )
        return "\n".join(lines)


class Session:
    """One validated, plannable, runnable workload execution.

    Parameters
    ----------
    spec:
        The declarative description of the run.
    workload:
        Optional registered workload providing the shard adapter and
        formatting; bare specs run as the generic executor's cell units.
    """

    def __init__(self, spec: WorkloadSpec, workload: Optional[Workload] = None) -> None:
        if workload is not None and workload.name != spec.workload:
            raise ValidationError(
                f"spec names workload {spec.workload!r} but was paired with "
                f"{workload.name!r}"
            )
        if spec.seed is None:
            # Library convention: None means fresh entropy, not seed 0.  Draw
            # it once, up front, so plan() and run() agree and the report
            # records a seed the run can be reproduced from.  Any "seed"
            # carried in the workload params must track the resolution —
            # adapters build their experiment configs from params, and a
            # stale None there would make them draw unrelated entropy.
            resolved = int(np.random.SeedSequence().entropy)
            params = dict(spec.params)
            if "seed" in params:
                params["seed"] = resolved
            spec = dataclasses.replace(spec, seed=resolved, params=params)
        self.spec = spec
        self.workload = workload

    @classmethod
    def from_workload(cls, name: str, **params: Any) -> "Session":
        """Build a session for registered workload *name* with overrides."""
        workload = get_workload(name)
        resolved = resolve_params(workload, params)
        return cls(workload.build_spec(resolved), workload)

    # -- lifecycle ----------------------------------------------------------

    def validate(self) -> None:
        """Fail fast on unknown/duplicate solvers or an unbuildable source."""
        self.spec.resolve_solvers()
        if self.spec.graphs.kind == "suite" and isinstance(self.spec.graphs.suite, str):
            from repro.arena.suite import get_suite

            get_suite(self.spec.graphs.suite)

    def plan(self) -> RunPlan:
        """Preview the (graph, solver) cells and their execution routes."""
        self.validate()
        spec = self.spec
        graphs = spec.graphs.build(spec.seed)
        steps: List[PlanStep] = []
        for graph in graphs:
            for name in spec.solvers:
                solver = get_spec(name)
                if solver.deterministic:
                    route, trials = "once", 1
                elif solver.batchable:
                    route, trials = f"engine[{spec.policy.backend}]", spec.budget.n_trials
                else:
                    # resolved_workers() so n_workers=None previews as the
                    # cpu-count fan-out it actually runs with.
                    workers = spec.policy.parallel_config().resolved_workers()
                    route = f"parallel[{workers}]" if workers > 1 else "sequential"
                    trials = spec.budget.n_trials
                steps.append(PlanStep(
                    graph_name=graph.name, solver=solver.key,
                    route=route, n_trials=trials,
                ))
        return RunPlan(
            workload=spec.workload,
            seed=spec.seed,
            graph_names=tuple(graph.name for graph in graphs),
            steps=tuple(steps),
        )

    def run(
        self,
        shards: int = 1,
        checkpoint_dir: Optional[str] = None,
        resume: bool = False,
    ) -> RunReport:
        """Validate, execute, and wrap the outcome in a :class:`RunReport`.

        Parameters
        ----------
        shards:
            Split the run into this many independently executed,
            checkpointable shards (:mod:`repro.distrib`).  Shard boundaries
            never change results: the merged report's records and leaderboard
            equal the monolithic run's (modulo timing metadata).
        checkpoint_dir:
            Directory for the shard manifest + per-shard atomic checkpoint
            files; any value other than ``None`` switches to the sharded
            path even for ``shards=1``.
        resume:
            Skip shards already completed in *checkpoint_dir* (requires it) —
            the crash-recovery path: rerun the same command after a kill and
            only the missing shards execute.
        """
        with span("session.validate", workload=self.spec.workload):
            self.validate()
        from repro import __version__

        if not isinstance(shards, int) or isinstance(shards, bool) or shards < 1:
            raise ValidationError(f"shards must be an integer >= 1, got {shards!r}")
        # Under active tracing the report additionally carries a per-phase
        # timing block in metadata["timing"]; with tracing off (the default)
        # the report is byte-for-byte what it always was.
        trace_mark = mark() if tracing_enabled() else None
        started = time.perf_counter()
        with span(
            "session.execute", workload=self.spec.workload, shards=shards
        ):
            if shards == 1 and checkpoint_dir is None and not resume:
                adapter = adapter_for(self.workload)
                units = adapter.units(self.spec, 1)
                outcome = adapter.merge(
                    self.spec, units, adapter.run_units(self.spec, units)
                )
            else:
                from repro.distrib import run_sharded

                outcome = run_sharded(
                    self.spec, shards, workload=self.workload,
                    checkpoint_dir=checkpoint_dir, resume=resume,
                )
        elapsed = time.perf_counter() - started
        params: Dict[str, Any] = {
            str(k): _config_jsonable(v) for k, v in dict(self.spec.params).items()
        }
        metadata = dict(outcome.metadata)
        if trace_mark is not None:
            metadata["timing"] = summarize_spans(spans_since(trace_mark))
        return RunReport(
            workload=self.spec.workload,
            seed=self.spec.seed,
            params=params,
            records=list(outcome.records),
            leaderboard=list(outcome.leaderboard),
            elapsed_seconds=float(elapsed),
            metadata=metadata,
            version=__version__,
        )


def run_workload(
    name: str,
    save: Optional[str] = None,
    shards: int = 1,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    **params: Any,
) -> RunReport:
    """Run registered workload *name* and return its :class:`RunReport`.

    Parameters are the workload's declared defaults (see
    ``get_workload(name).defaults``) plus ``seed``; *save* additionally
    persists the report as JSON through
    :func:`repro.experiments.runner.save_results`.  *shards* /
    *checkpoint_dir* / *resume* select the sharded, resumable execution path
    (see :meth:`Session.run`).
    """
    session = Session.from_workload(name, **params)
    report = session.run(shards=shards, checkpoint_dir=checkpoint_dir, resume=resume)
    if save is not None:
        report.save(save)
    return report
