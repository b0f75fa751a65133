"""Capability-aware solver registry: the single source of truth for MAXCUT methods.

Every solver in the library — neuromorphic circuits and classical baselines
alike — is registered here behind the uniform call signature

    solve(graph, n_samples, seed, **kwargs) -> Cut

so experiments, the CLI, and the cross-method arena (:mod:`repro.arena`) can
be parameterised by short string keys without import-time coupling.  Beyond
the historical flat name→callable map (still exported as :data:`SOLVERS`),
each method now carries a :class:`SolverSpec` describing its *capabilities*:
whether it is deterministic, whether it can be batched through the
trial-parallel engine (:mod:`repro.engine`), how it interprets the
``n_samples`` budget, and which paper it comes from.  The arena uses this
metadata to route each solver down the right execution path and to report
budgets honestly.

``n_samples`` semantics per solver
----------------------------------
The uniform signature hides real differences in what "one sample" means.
Each spec's ``budget`` field records the interpretation:

``"readouts"``
    ``lif_gw`` / ``lif_tr`` — cut read-outs of the stochastic circuit; more
    samples, better best-of-batch cut.  Batchable through the engine.
``"roundings"``
    ``gw`` (alias ``solver``) — random hyperplane roundings of one SDP
    solution; the SDP itself is solved once regardless of ``n_samples``.
``"cuts"``
    ``random`` — uniformly random cuts drawn and evaluated.
``"ignored"``
    ``trevisan`` — deterministic spectral method; ``n_samples`` is accepted
    for interface uniformity but has **no effect** on result or cost.
``"sweeps"``
    ``annealing`` / ``tempering`` — Metropolis sweeps of the Ising dynamics;
    one sweep touches every spin once, so cost scales with ``n · n_samples``.
``"restarts"``
    ``local_search`` — the budget is divided by 10 to give the number of
    greedy restarts (each restart performs many flip passes).

One registered solver is *meta*: ``portfolio`` (alias ``auto``, registered
on import of :mod:`repro.portfolio`) routes each instance to another
registry entry via mined priors, or races a candidate subset by successive
halving when no model is given — see DESIGN.md §"Portfolio meta-solver".

Problem classes
---------------
The problem compiler (:mod:`repro.problems`) lowers QUBO / Ising / MAXDICUT /
MAX2SAT instances onto MAXCUT graphs, and ``problem_classes`` records which
instances a solver can race:

``("maxcut",)`` (the default)
    The solver operates on any weighted graph — compiled problem instances
    included, since a compiled instance *is* a MAXCUT graph.
``("maxdicut",)`` / ``("max2sat",)`` / ...
    A *problem-native* solver (e.g. ``maxdicut_gw``): it requires the
    compiled graph to carry a native instance of that class (a
    :class:`repro.problems.compile.CompiledGraph`) and solves it directly,
    returning the solution embedded back as a cut of the compiled graph so
    both routes share one leaderboard currency.

:func:`solvers_for_problem` lists the native solvers of a class; the
``problems`` workload (:mod:`repro.workloads.problems`) uses it to race them
against compiled-to-MAXCUT circuit solvers.

Registering a new solver
------------------------
Build a :class:`SolverSpec` and pass it to :func:`register_solver`::

    register_solver(SolverSpec(
        key="my_method", fn=my_solve_fn, deterministic=False,
        budget="cuts", summary="one-line description",
    ))

The solver immediately appears in :func:`list_solvers`, the ``repro solve``
CLI, and ``repro run arena``.  Set ``batchable=True`` and ``circuit=<engine
circuit name>`` only for circuits the batched engine knows how to simulate.
See DESIGN.md §"Solver arena" and §"Problem compiler" for the full contract.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.algorithms.goemans_williamson import goemans_williamson
from repro.algorithms.random_baseline import random_baseline
from repro.algorithms.trevisan import trevisan_spectral
from repro.circuits.lif_gw import LIFGWCircuit
from repro.circuits.lif_trevisan import LIFTrevisanCircuit
from repro.cuts.cut import Cut
from repro.cuts.local_search import local_search_maxcut
from repro.graphs.graph import Graph
from repro.ising.annealing import simulated_annealing_maxcut
from repro.ising.tempering import parallel_tempering
from repro.utils.rng import RandomState
from repro.utils.validation import ValidationError

__all__ = [
    "SolverSpec",
    "SOLVERS",
    "SOLVER_SPECS",
    "register_solver",
    "get_solver",
    "get_spec",
    "list_solvers",
    "list_specs",
    "solvers_for_problem",
]

SolverFn = Callable[..., Cut]

#: Recognised ``n_samples`` interpretations (see module docstring).
BUDGET_SEMANTICS = ("readouts", "roundings", "cuts", "ignored", "sweeps", "restarts")


@dataclass(frozen=True)
class SolverSpec:
    """Metadata + callable for one registered solver.

    Attributes
    ----------
    key:
        Canonical registry key (e.g. ``"lif_gw"``).
    fn:
        Callable with the uniform ``(graph, n_samples, seed, **kwargs) -> Cut``
        signature.
    deterministic:
        True when the result is independent of ``seed`` (and the arena need
        run only a single trial).
    batchable:
        True when the solver can be routed through the trial-parallel batched
        engine (:func:`repro.engine.solve`).
    circuit:
        Engine circuit name (``"lif_gw"`` / ``"lif_tr"``) for batchable
        solvers; ``None`` otherwise.
    budget:
        How the solver interprets ``n_samples`` — one of
        :data:`BUDGET_SEMANTICS`; see the module docstring.
    citation:
        Short citation tag for reports (e.g. ``"GW95"``).
    summary:
        One-line human description used by CLI listings and docs.
    aliases:
        Extra registry keys resolving to this spec (kept for backward
        compatibility, e.g. ``"solver"`` → ``"gw"``).
    problem_classes:
        Problem classes the solver can race (see the module docstring):
        ``("maxcut",)`` for any-graph solvers (the default), or the native
        class(es) of a problem-native solver that requires a
        :class:`repro.problems.compile.CompiledGraph` of that kind.
    """

    key: str
    fn: SolverFn
    deterministic: bool
    batchable: bool = False
    circuit: Optional[str] = None
    budget: str = "readouts"
    citation: str = ""
    summary: str = ""
    aliases: Tuple[str, ...] = field(default=())
    problem_classes: Tuple[str, ...] = ("maxcut",)

    def __post_init__(self) -> None:
        if not self.key or not isinstance(self.key, str):
            raise ValidationError(f"solver key must be a non-empty string, got {self.key!r}")
        if not callable(self.fn):
            raise ValidationError(f"solver {self.key!r}: fn must be callable")
        if self.budget not in BUDGET_SEMANTICS:
            raise ValidationError(
                f"solver {self.key!r}: budget must be one of {BUDGET_SEMANTICS}, "
                f"got {self.budget!r}"
            )
        if self.batchable and self.circuit is None:
            raise ValidationError(
                f"solver {self.key!r}: batchable solvers must name their engine circuit"
            )
        if self.batchable and self.deterministic:
            raise ValidationError(
                f"solver {self.key!r}: batchable circuits are stochastic by construction"
            )
        if not self.problem_classes or not all(
            isinstance(kind, str) and kind for kind in self.problem_classes
        ):
            raise ValidationError(
                f"solver {self.key!r}: problem_classes must be a non-empty "
                f"tuple of class names, got {self.problem_classes!r}"
            )


def _solve_lif_gw(graph: Graph, n_samples: int = 100, seed: RandomState = None, **kwargs) -> Cut:
    return LIFGWCircuit(graph, seed=seed, **kwargs).sample_cuts(n_samples, seed=seed).best_cut


def _solve_lif_tr(graph: Graph, n_samples: int = 100, seed: RandomState = None, **kwargs) -> Cut:
    return LIFTrevisanCircuit(graph, **kwargs).sample_cuts(n_samples, seed=seed).best_cut


def _solve_gw(graph: Graph, n_samples: int = 100, seed: RandomState = None, **kwargs) -> Cut:
    return goemans_williamson(graph, n_samples=n_samples, seed=seed, **kwargs).best_cut


def _solve_trevisan(graph: Graph, n_samples: int = 100, seed: RandomState = None, **kwargs) -> Cut:
    # Deterministic spectral method: n_samples is accepted for interface
    # uniformity but ignored.
    return trevisan_spectral(graph, seed=seed, **kwargs)


def _solve_random(graph: Graph, n_samples: int = 100, seed: RandomState = None, **kwargs) -> Cut:
    best, _ = random_baseline(graph, n_samples=n_samples, seed=seed, **kwargs)
    return best


def _solve_annealing(graph: Graph, n_samples: int = 100, seed: RandomState = None, **kwargs) -> Cut:
    # n_samples maps naturally onto the number of Metropolis sweeps.
    from repro.ising.annealing import AnnealingSchedule

    schedule = AnnealingSchedule(n_sweeps=max(1, n_samples))
    return simulated_annealing_maxcut(graph, schedule=schedule, seed=seed, **kwargs)


def _solve_tempering(graph: Graph, n_samples: int = 100, seed: RandomState = None, **kwargs) -> Cut:
    return parallel_tempering(graph, n_sweeps=max(1, n_samples), seed=seed, **kwargs).best_cut


def _solve_local_search(graph: Graph, n_samples: int = 100, seed: RandomState = None, **kwargs) -> Cut:
    # n_samples maps onto the number of random restarts.
    return local_search_maxcut(graph, n_restarts=max(1, n_samples // 10 or 1), seed=seed, **kwargs)


#: Canonical-key → spec registry (aliases are not keys here).
SOLVER_SPECS: Dict[str, SolverSpec] = {}

#: Backward-compatible flat map: every key *and alias* → solver callable.
SOLVERS: Dict[str, SolverFn] = {}


def register_solver(spec: SolverSpec, overwrite: bool = False) -> SolverSpec:
    """Add *spec* (and its aliases) to the registry and return it.

    Raises :class:`ValidationError` when any of its names collides with an
    existing registration, unless ``overwrite=True`` — in which case every
    colliding spec is removed wholesale (key *and* aliases), so no stale
    alias keeps serving a replaced callable.
    """
    names = (spec.key,) + tuple(spec.aliases)
    colliding = {
        old.key
        for old in SOLVER_SPECS.values()
        if any(name in (old.key,) + tuple(old.aliases) for name in names)
    }
    if colliding and not overwrite:
        taken = sorted(name for name in names if name in SOLVERS)
        raise ValidationError(
            f"solver name(s) {taken} already registered; "
            f"pass overwrite=True to replace"
        )
    for old_key in colliding:
        old = SOLVER_SPECS.pop(old_key)
        for name in (old.key,) + tuple(old.aliases):
            SOLVERS.pop(name, None)
    SOLVER_SPECS[spec.key] = spec
    for name in names:
        SOLVERS[name] = spec.fn
    return spec


for _spec in (
    SolverSpec(
        key="lif_gw", fn=_solve_lif_gw, deterministic=False, batchable=True,
        circuit="lif_gw", budget="readouts", citation="Theilman+23 §III",
        summary="stochastic LIF circuit sampling GW hyperplane roundings",
    ),
    SolverSpec(
        key="lif_tr", fn=_solve_lif_tr, deterministic=False, batchable=True,
        circuit="lif_tr", budget="readouts", citation="Theilman+23 §IV",
        summary="stochastic LIF circuit with anti-Hebbian Trevisan dynamics",
    ),
    SolverSpec(
        key="gw", fn=_solve_gw, deterministic=False, budget="roundings",
        citation="GW95", aliases=("solver",),
        summary="software Goemans-Williamson: Burer-Monteiro SDP + hyperplane rounding",
    ),
    SolverSpec(
        key="trevisan", fn=_solve_trevisan, deterministic=True, budget="ignored",
        citation="Trevisan12",
        summary="deterministic simple-spectral cut (n_samples ignored)",
    ),
    SolverSpec(
        key="random", fn=_solve_random, deterministic=False, budget="cuts",
        citation="baseline",
        summary="best of n_samples uniformly random cuts",
    ),
    SolverSpec(
        key="annealing", fn=_solve_annealing, deterministic=False, budget="sweeps",
        citation="KGV83", aliases=("ising.annealing",),
        problem_classes=("maxcut", "ising"),
        summary="simulated annealing on the Ising encoding (n_samples sweeps)",
    ),
    SolverSpec(
        key="tempering", fn=_solve_tempering, deterministic=False, budget="sweeps",
        citation="Geyer91", aliases=("ising.tempering",),
        problem_classes=("maxcut", "ising"),
        summary="parallel tempering on the Ising encoding (n_samples sweeps)",
    ),
    SolverSpec(
        key="local_search", fn=_solve_local_search, deterministic=False, budget="restarts",
        citation="baseline",
        summary="greedy single-flip local search (n_samples/10 restarts)",
    ),
):
    register_solver(_spec)
del _spec


def list_solvers() -> list[str]:
    """All registry names (canonical keys and aliases), sorted."""
    return sorted(SOLVERS.keys())


def list_specs() -> list[SolverSpec]:
    """All registered specs (one per canonical key), sorted by key."""
    return [SOLVER_SPECS[k] for k in sorted(SOLVER_SPECS.keys())]


def solvers_for_problem(kind: str) -> list[str]:
    """Canonical keys of the problem-native solvers of class *kind*, sorted.

    Any-graph solvers (``problem_classes == ("maxcut",)``) are *not* listed
    for other kinds — they run on the compiled graph and need no routing.
    """
    return sorted(
        spec.key for spec in SOLVER_SPECS.values()
        if kind in spec.problem_classes
    )


def _unknown_solver_error(name: str) -> ValidationError:
    message = f"unknown solver {name!r}; available: {list_solvers()}"
    close = difflib.get_close_matches(str(name), list_solvers(), n=1)
    if close:
        message += f" (did you mean {close[0]!r}?)"
    return ValidationError(message)


def get_solver(name: str) -> SolverFn:
    """Look up a solver callable by key or alias.

    Raises a :class:`ValidationError` that lists every registered name (and a
    closest-match suggestion) for unknown *name*, so CLI and notebook typos
    are self-diagnosing.
    """
    try:
        return SOLVERS[name]
    except KeyError:
        raise _unknown_solver_error(name) from None


def get_spec(name: str) -> SolverSpec:
    """Look up a :class:`SolverSpec` by canonical key or alias."""
    if name in SOLVER_SPECS:
        return SOLVER_SPECS[name]
    for spec in SOLVER_SPECS.values():
        if name in spec.aliases:
            return spec
    raise _unknown_solver_error(name)
