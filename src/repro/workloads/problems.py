"""The ``problems`` workload: race solvers over a compiled problem suite.

``repro run problems --param problem=qubo`` (or ``ising`` / ``dicut`` /
``2sat``) builds a :class:`repro.problems.source.ProblemSource` over the
matching problem suite, lowers every instance to MAXCUT through the problem
compiler (certified per instance), and races a solver set mixing
compiled-to-MAXCUT solvers (``lif_gw`` through the batched engine, ``gw``,
``annealing``/``tempering``, ``random``) with the problem class's *native*
solvers (``maxdicut_gw``, ``max2sat_gw``) on one leaderboard.

There is deliberately **no shard adapter**: the spec runs as the generic
capability-routed executor's cell units, so engine batching, ``--shards N``
checkpointed sharding, ``--resume``, and ``repro merge`` all apply to
problem workloads exactly as they do to graph workloads.

Imports of :mod:`repro.problems` happen inside the factories — the problems
package itself imports :mod:`repro.workloads.spec`, and deferring breaks the
cycle regardless of which package is imported first.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.utils.validation import ValidationError
from repro.workloads.registry import Workload, register_workload
from repro.workloads.report import RunReport
from repro.workloads.spec import Budget, ExecutionPolicy, WorkloadSpec

__all__ = [
    "PROBLEM_KIND_ALIASES",
    "DEFAULT_PROBLEM_SUITES",
    "default_problem_solvers",
    "check_solver_compatibility",
]

#: Accepted ``problem=`` spellings → canonical problem kind.
PROBLEM_KIND_ALIASES = {
    "qubo": "qubo",
    "ising": "ising",
    "dicut": "maxdicut",
    "maxdicut": "maxdicut",
    "2sat": "max2sat",
    "max2sat": "max2sat",
}

#: Canonical kind → default problem suite.
DEFAULT_PROBLEM_SUITES = {
    "qubo": "qubo-small",
    "ising": "ising-small",
    "maxdicut": "dicut-small",
    "max2sat": "2sat-small",
}

#: Compiled-graph solvers every problem race includes by default.
_BASE_SOLVERS = ("lif_gw", "gw", "annealing", "tempering", "random")


def default_problem_solvers(kind: str) -> Tuple[str, ...]:
    """The default solver race for problem class *kind*.

    Compiled-to-MAXCUT solvers (circuit + classical) plus every registered
    problem-native solver of the class, deduplicated in stable order.
    """
    from repro.algorithms.registry import solvers_for_problem

    solvers = list(_BASE_SOLVERS)
    for key in solvers_for_problem(kind):
        if key not in solvers:
            solvers.append(key)
    return tuple(solvers)


def check_solver_compatibility(name: str, kind: str) -> "Any":
    """Resolve solver *name* and check it can run a compiled *kind* instance.

    The one routing rule shared by the ``problems`` workload and
    ``repro solve --problem``: a solver is compatible when it handles any
    MAXCUT graph (``"maxcut"`` in its ``problem_classes``) or is native to
    the class.  Returns the resolved :class:`SolverSpec`; raises otherwise.
    """
    from repro.algorithms.registry import get_spec

    spec = get_spec(name)
    if "maxcut" in spec.problem_classes or kind in spec.problem_classes:
        return spec
    raise ValidationError(
        f"solver {spec.key!r} handles problem class(es) "
        f"{list(spec.problem_classes)} and cannot solve a compiled "
        f"{kind!r} instance; pick a maxcut-capable or {kind}-native solver"
    )


def _check_solver_compatibility(solvers: Tuple[str, ...], kind: str) -> None:
    for name in solvers:
        check_solver_compatibility(name, kind)


def _problems_spec(params: Dict[str, Any]) -> WorkloadSpec:
    from repro.problems.source import ProblemSource
    from repro.problems.suites import get_problem_suite

    requested = str(params["problem"]).lower()
    kind = PROBLEM_KIND_ALIASES.get(requested)
    if kind is None:
        raise ValidationError(
            f"problem must be one of {sorted(PROBLEM_KIND_ALIASES)}, "
            f"got {params['problem']!r}"
        )
    suite_key = str(params["suite"]) or DEFAULT_PROBLEM_SUITES[kind]
    suite = get_problem_suite(suite_key)
    if suite.kind != kind:
        raise ValidationError(
            f"problem suite {suite_key!r} holds {suite.kind!r} instances, "
            f"not {kind!r}; pass a matching suite (or drop --param suite)"
        )
    solvers = tuple(params["solvers"]) or default_problem_solvers(kind)
    _check_solver_compatibility(solvers, kind)
    return WorkloadSpec(
        workload="problems",
        graphs=ProblemSource.from_suite(suite_key),
        solvers=solvers,
        budget=Budget(
            n_trials=int(params["trials"]),
            n_samples=int(params["samples"]),
            max_seconds=params["max_seconds"],
        ),
        policy=ExecutionPolicy(
            backend=params["backend"], n_workers=params["workers"],
        ),
        seed=params["seed"],
        params={**params, "problem": kind, "suite": suite_key, "solvers": solvers},
    )


def _format_problems(report: RunReport) -> str:
    from repro.experiments.reporting import format_arena_report
    from repro.workloads.paper import arena_result_from_report

    kind = report.params.get("problem", "?")
    header = (
        f"problem class {kind!r} — every instance compiled to MAXCUT "
        f"(certified); native solvers embedded on the same leaderboard\n"
    )
    return header + format_arena_report(arena_result_from_report(report))


def _plot_problems(report: RunReport) -> str:
    from repro.plotting.ascii import render_leaderboard
    from repro.workloads.paper import arena_result_from_report

    return render_leaderboard(arena_result_from_report(report))


register_workload(Workload(
    name="problems",
    summary="race compiled-to-MAXCUT and problem-native solvers over a problem suite",
    defaults={
        "problem": "qubo", "suite": "", "solvers": (), "trials": 2,
        "samples": 64, "max_seconds": None, "backend": "auto",
        "workers": 1,
    },
    build_spec=_problems_spec,
    formatter=_format_problems,
    plotter=_plot_problems,
))
