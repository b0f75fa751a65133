"""The ``portfolio`` meta-solver: route with priors, race when cold.

Registered as a normal :class:`repro.algorithms.registry.SolverSpec` under
the key ``"portfolio"`` (alias ``"auto"``), so it is usable everywhere a
solver name is accepted today — ``repro run``, ``repro solve``, workload
specs, and serve requests.  Two regimes:

* **Routed** — given a :class:`repro.portfolio.priors.PortfolioModel`
  (object or path), extract features, look up the instance's bucket
  ranking, and run the top-ranked available solver *once* with the
  caller's exact ``(graph, n_samples, seed)``.  Routing adds feature
  extraction only; the answer is bit-identical to invoking the chosen
  solver directly (an acceptance criterion of the serve integration).
* **Cold** — with no model, race :data:`DEFAULT_CANDIDATES` under a small
  :class:`repro.workloads.spec.Budget` via successive halving
  (:func:`repro.portfolio.race.race`) and return the winner's best cut.

The cold default deliberately omits the SDP-embedding solvers (``gw``,
``lif_gw``): their per-instance setup dwarfs a small race budget, and the
racing literature's advice is to race the cheap field and reserve
expensive solvers for routed (prior-backed) decisions.
"""

from __future__ import annotations

import os
from typing import Any, Optional, Sequence, Tuple, Union

from repro.algorithms.registry import (
    SolverSpec,
    get_spec,
    register_solver,
)
from repro.cuts.cut import Cut
from repro.portfolio.features import extract_features
from repro.portfolio.priors import PortfolioModel, load_model, rank_solvers
from repro.portfolio.race import race
from repro.utils.validation import ValidationError
from repro.workloads.spec import Budget

__all__ = [
    "DEFAULT_CANDIDATES",
    "PORTFOLIO_SPEC",
    "route_circuit",
    "solve_portfolio",
]

#: Cold-race candidate pool: cheap, setup-free solvers only (see module
#: docstring for why the SDP family sits this one out).
DEFAULT_CANDIDATES: Tuple[str, ...] = (
    "lif_tr", "trevisan", "annealing", "local_search",
)

#: Engine circuits the serve daemon can batch — the routing targets of
#: :func:`route_circuit`.
SERVE_CIRCUITS: Tuple[str, ...] = ("lif_gw", "lif_tr")

ModelLike = Union[PortfolioModel, str, os.PathLike, None]


def _coerce_model(model: ModelLike) -> Optional[PortfolioModel]:
    if model is None or isinstance(model, PortfolioModel):
        return model
    return load_model(model)


def _resolve_candidates(candidates: Optional[Sequence[str]]) -> Tuple[str, ...]:
    names = tuple(candidates) if candidates else DEFAULT_CANDIDATES
    resolved = []
    for name in names:
        key = get_spec(name).key
        if key == "portfolio":
            raise ValidationError(
                "the portfolio solver cannot race itself; remove "
                f"{name!r} from the candidate list"
            )
        if key not in resolved:
            resolved.append(key)
    if not resolved:
        raise ValidationError("portfolio needs at least one candidate solver")
    return tuple(resolved)


def solve_portfolio(graph, n_samples: int = 256, seed: Any = None, *,
                    model: ModelLike = None,
                    candidates: Optional[Sequence[str]] = None,
                    race_trials: int = 4,
                    backend: str = "auto",
                    **kwargs: Any) -> Cut:
    """Solve *graph* by prior-based routing or a cold successive-halving race.

    Uniform registry signature: ``(graph, n_samples, seed, **kwargs) ->
    Cut``.  With a *model*, the top-ranked candidate runs once with the
    caller's exact arguments (bit-identical to a direct call); without
    one, the candidates race under ``Budget(n_trials=race_trials,
    n_samples=n_samples)`` with paired per-trial seeds.
    """
    loaded = _coerce_model(model)
    pool = _resolve_candidates(candidates)
    if loaded is not None:
        features = extract_features(graph)
        ranked = rank_solvers(loaded, features, available=pool)
        choice = ranked[0]
        return get_spec(choice).fn(graph, n_samples=n_samples, seed=seed,
                                   **kwargs)
    result = race(graph, pool,
                  budget=Budget(n_trials=race_trials, n_samples=n_samples),
                  seed=seed, backend=backend)
    return result.best_cut


def route_circuit(graph, model: ModelLike = None) -> str:
    """Pick the engine circuit a ``"solver": "auto"`` serve request runs.

    With a model: the top-ranked of :data:`SERVE_CIRCUITS` for the
    instance's feature bucket.  Without one: a deterministic density
    heuristic — dense graphs amortise the LIF-GW SDP setup (its embedding
    quality pays off), sparse graphs go to the setup-free LIF-Trevisan
    circuit.  Deterministic either way, so routed responses stay
    content-addressable.
    """
    loaded = _coerce_model(model)
    features = extract_features(graph)
    if loaded is not None:
        ranked = rank_solvers(loaded, features, available=list(SERVE_CIRCUITS))
        if ranked and ranked[0] in SERVE_CIRCUITS:
            return ranked[0]
    return "lif_gw" if features.density >= 0.25 else "lif_tr"


PORTFOLIO_SPEC = register_solver(SolverSpec(
    key="portfolio",
    fn=solve_portfolio,
    deterministic=False,
    batchable=False,
    budget="readouts",
    citation="JT16",
    summary="meta-solver: routes via mined priors, races the registry cold",
    aliases=("auto",),
))
