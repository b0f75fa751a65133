"""Successive-halving solver races under a single :class:`Budget`.

Cold-start routing problem: with no prior data, which registered solver
should ``auto`` spend its budget on?  Answer: race a candidate subset —
give every candidate a small rung of trials, halve the field by interim
best cut, and let the survivors inherit the freed budget.  The classic
successive-halving argument applies: the eventual winner is never
eliminated while it holds the best cut, so the race's best cut equals the
best cut any surviving allocation would have found.

Determinism is the design constraint that shapes the seeding.  Trial *i*
of *every* candidate draws from the same paired seed
(``SeedSequence(root, spawn_key=(i,))`` via
:func:`repro.engine.sampler.trial_seed_sequences`), so

* the race is bit-reproducible for a fixed ``(graph, solvers, budget,
  seed)`` — the k=1 degenerate race equals running the single solver
  alone with the same root seed (pinned in ``tests/test_portfolio.py``);
* comparisons between candidates are *paired*: every solver sees the same
  random trial stream, removing seed luck from the halving decisions.

Batchable candidates run their rungs through the batched engine
(one :func:`repro.engine.solve` per rung, with ``trial_offset`` for
rung continuation); everything else runs per-trial
through :func:`repro.parallel.pool.parallel_map`.
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.algorithms.registry import SolverSpec, get_spec
from repro.cuts.cut import Cut
from repro.engine import SolveRequest, solve
from repro.engine.sampler import trial_seed_sequences
from repro.parallel.pool import ParallelConfig, parallel_map
from repro.utils.validation import ValidationError
from repro.workloads.spec import Budget

__all__ = ["RaceResult", "race", "rung_schedule"]


def rung_schedule(n_solvers: int, n_trials: int) -> List[int]:
    """Cumulative per-solver trial targets for each halving rung.

    Returns a strictly increasing list ending at *n_trials*: rung *j*
    brings every still-active solver up to ``targets[j]`` trials, then the
    field is halved.  The number of rungs is ``ceil(log2(K))`` (one halving
    per rung until a single survivor remains), clamped so every rung can
    allocate at least one fresh trial.  Guarantees, property-tested in
    ``tests/test_property_based.py``:

    * every target is in ``[1, n_trials]`` and the last equals *n_trials*;
    * a solver surviving to the end runs exactly *n_trials* trials;
    * total trials across the race never exceed ``K * n_trials``.
    """
    if n_solvers < 1:
        raise ValidationError(f"n_solvers must be >= 1, got {n_solvers}")
    if n_trials < 1:
        raise ValidationError(f"n_trials must be >= 1, got {n_trials}")
    n_rungs = min(max(1, math.ceil(math.log2(n_solvers))), n_trials)
    targets: List[int] = []
    for j in range(n_rungs):
        # Geometric ramp: the final rung gets the full budget, each earlier
        # rung half the next one's, floored so every rung runs something
        # and capped so later rungs keep room to grow.
        raw = int(round(n_trials * 2.0 ** (j + 1 - n_rungs)))
        target = max(j + 1, raw, targets[-1] + 1 if targets else 1)
        target = min(target, n_trials - (n_rungs - 1 - j))
        targets.append(target)
    targets[-1] = n_trials
    return targets


@dataclasses.dataclass(frozen=True)
class RaceResult:
    """Outcome of one successive-halving race.

    ``winner`` is the canonical registry key of the surviving solver;
    ``best_cut`` is the best cut *it* found (which, by the elimination
    rule, is the best cut found by anyone).  ``rungs`` records the halving
    trace — per rung: the cumulative trial target, the active field, and
    the survivors — for ``repro portfolio explain``-style diagnostics and
    the bench scenario's detail payload.
    """

    winner: str
    best_cut: Cut
    solver_best: Dict[str, float]
    trials_used: Dict[str, int]
    total_trials: int
    rungs: Tuple[Dict[str, Any], ...]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "winner": self.winner,
            "best_weight": float(self.best_cut.weight),
            "solver_best": {k: float(v) for k, v in self.solver_best.items()},
            "trials_used": dict(self.trials_used),
            "total_trials": self.total_trials,
            "rungs": [dict(r) for r in self.rungs],
        }


def _sequential_race_trial(task) -> Cut:
    """Module-level worker so non-batchable rungs can cross process pools."""
    fn, graph, n_samples, seed_seq = task
    return fn(graph, n_samples=n_samples, seed=seed_seq)


class _Lane:
    """Mutable per-candidate race state (spec + incumbent best)."""

    __slots__ = ("name", "spec", "best_cut", "trials_done")

    def __init__(self, name: str, spec: SolverSpec) -> None:
        self.name = name
        self.spec = spec
        self.best_cut: Optional[Cut] = None
        self.trials_done = 0

    @property
    def best_weight(self) -> float:
        return self.best_cut.weight if self.best_cut is not None else float("-inf")

    def observe(self, cut: Optional[Cut]) -> None:
        # Strict > keeps argmax-first (earliest trial) semantics on ties,
        # matching the engine's own best-cut selection.
        if cut is not None and (self.best_cut is None or cut.weight > self.best_cut.weight):
            self.best_cut = cut


def _resolve_lanes(graph, solvers: Sequence[str]) -> List[_Lane]:
    problem = getattr(graph, "problem", None)
    problem_class = getattr(problem, "kind", None) or "maxcut"
    lanes: List[_Lane] = []
    seen: Dict[str, str] = {}
    for name in solvers:
        spec = get_spec(name)
        if spec.key in seen:
            raise ValidationError(
                f"duplicate race candidate: {name!r} and {seen[spec.key]!r} "
                f"both resolve to solver {spec.key!r}"
            )
        seen[spec.key] = name
        if "maxcut" not in spec.problem_classes \
                and problem_class not in spec.problem_classes:
            raise ValidationError(
                f"solver {spec.key!r} cannot race a {problem_class!r} "
                f"instance (supports {spec.problem_classes!r})"
            )
        lanes.append(_Lane(spec.key, spec))
    if not lanes:
        raise ValidationError("race needs at least one candidate solver")
    return lanes


def _run_rung(lane: _Lane, graph, n_new: int, n_samples: int, seed,
              backend: str, parallel: Optional[ParallelConfig]) -> None:
    """Advance *lane* by *n_new* trials (continuing at its trial offset)."""
    offset = lane.trials_done
    if lane.spec.batchable:
        result = solve(SolveRequest(
            circuit=lane.spec.circuit, graph=graph, n_trials=n_new,
            n_samples=n_samples, seed=seed, backend=backend,
            trial_offset=offset,
        ))
        lane.observe(result.best_cut)
    else:
        seqs = trial_seed_sequences(seed, n_new, start=offset)
        tasks = [(lane.spec.fn, graph, n_samples, seq) for seq in seqs]
        for cut in parallel_map(_sequential_race_trial, tasks, config=parallel):
            lane.observe(cut)
    lane.trials_done = offset + n_new


def race(graph, solvers: Sequence[str], budget: Optional[Budget] = None,
         seed: Optional[int] = 0, backend: str = "auto",
         parallel: Optional[ParallelConfig] = None) -> RaceResult:
    """Race *solvers* on *graph* under *budget*; return the surviving lane.

    Per rung, every active candidate is advanced to the rung's cumulative
    trial target (deterministic candidates run exactly one trial, ever —
    re-running them buys nothing), then the field is cut to the top
    ``ceil(k/2)`` by interim best cut weight, ties broken by input order.
    ``budget.max_seconds``, when set, is checked between rungs: an
    exhausted clock stops the race early with the current leader.
    """
    budget = budget if budget is not None else Budget()
    lanes = _resolve_lanes(graph, solvers)
    targets = rung_schedule(len(lanes), budget.n_trials)
    started = time.perf_counter()

    active = list(lanes)
    rungs: List[Dict[str, Any]] = []
    for rung_index, target in enumerate(targets):
        for lane in active:
            if lane.spec.deterministic:
                n_new = 1 if lane.trials_done == 0 else 0
            else:
                n_new = target - lane.trials_done
            if n_new > 0:
                _run_rung(lane, graph, n_new, budget.n_samples, seed,
                          backend, parallel)
        # Halve: keep the top half by best weight; input order breaks ties
        # so the race is deterministic regardless of dict/hash order.
        order = {lane.name: i for i, lane in enumerate(lanes)}
        ranked = sorted(active, key=lambda l: (-l.best_weight, order[l.name]))
        survivors = ranked[: max(1, math.ceil(len(ranked) / 2))] \
            if rung_index < len(targets) - 1 else ranked[:1]
        rungs.append({
            "rung": rung_index,
            "target_trials": target,
            "active": [lane.name for lane in active],
            "best_weights": {lane.name: lane.best_weight for lane in active},
            "survivors": [lane.name for lane in survivors],
        })
        active = survivors
        if budget.max_seconds is not None \
                and time.perf_counter() - started >= budget.max_seconds:
            break
        if len(active) == 1 and rung_index == len(targets) - 1:
            break

    # Finish the winner's budget if the schedule ended early (single
    # candidate with remaining rungs collapses here).
    winner = active[0]
    if not winner.spec.deterministic and winner.trials_done < budget.n_trials \
            and (budget.max_seconds is None
                 or time.perf_counter() - started < budget.max_seconds):
        _run_rung(winner, graph, budget.n_trials - winner.trials_done,
                  budget.n_samples, seed, backend, parallel)

    if winner.best_cut is None:
        raise ValidationError("race produced no cuts (zero-trial budget?)")
    return RaceResult(
        winner=winner.name,
        best_cut=winner.best_cut,
        solver_best={lane.name: lane.best_weight for lane in lanes
                     if lane.best_cut is not None},
        trials_used={lane.name: lane.trials_done for lane in lanes},
        total_trials=sum(lane.trials_done for lane in lanes),
        rungs=tuple(rungs),
    )
