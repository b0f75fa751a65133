#!/usr/bin/env python
"""The `auto` portfolio meta-solver end to end — runs in < 5 s.

Demonstrates the routing loop behind ``--solver auto``:

1. extract cheap, relabeling-invariant instance features,
2. cold-start: race a candidate pool by successive halving under one
   budget (paired per-trial seeds, deterministic),
3. mine priors from a saved arena run into a `PortfolioModel`,
4. route with the model — bit-identical to calling the chosen solver
   directly — and save/reload the model through the standard JSON layer.

Usage:
    python examples/portfolio.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.algorithms.registry import get_spec
from repro.graphs.generators import erdos_renyi
from repro.portfolio import (
    explain_model,
    extract_features,
    fit_from_paths,
    load_model,
    race,
    save_model,
    solve_portfolio,
)
from repro.workloads import Budget, run_workload


def main() -> None:
    graph = erdos_renyi(24, 0.3, seed=7, name="demo-er")

    # 1. Features: what the router sees. Deterministic and invariant
    #    under vertex relabeling (including the Lanczos gap estimate).
    features = extract_features(graph)
    print(f"features for {graph.name}:")
    for key, value in features.to_dict().items():
        print(f"  {key:<14} {value}")

    # 2. Cold start: no priors, so race a candidate pool. Every lane sees
    #    the same per-trial seed stream; the field halves by interim best
    #    cut each rung until one survivor spends the full budget.
    result = race(graph, ["lif_tr", "trevisan", "local_search"],
                  budget=Budget(n_trials=4, n_samples=64), seed=0)
    print(f"\nrace winner: {result.winner} "
          f"(best cut {result.best_cut.weight:.1f}, "
          f"trials used {result.trials_used})")
    for rung in result.rungs:
        print(f"  rung {rung['rung']}: {rung['active']} -> "
              f"{rung['survivors']}")

    with tempfile.TemporaryDirectory() as tmp:
        # 3. Mine priors from a persisted run (any saved results carrying
        #    solver/n_vertices/n_edges/cut_ratio records are minable).
        runs = Path(tmp) / "runs.json"
        run_workload(
            "arena", solvers=("lif_tr", "trevisan", "random"),
            suite=[erdos_renyi(16, 0.3, seed=1, name="fit-er")],
            trials=2, samples=32, seed=0, save=str(runs))
        model = fit_from_paths([runs])
        print(f"\nmined model ({model.n_records} records):")
        print(explain_model(model, top=3))

        # 4. Route with the model: the top-ranked candidate runs with the
        #    caller's exact arguments, so the answer is bit-identical to
        #    invoking that solver directly.
        routed = solve_portfolio(graph, n_samples=64, seed=5, model=model)
        best = model.ranking_for(
            "maxcut/small/mid")[0]["solver"]
        direct = get_spec(best).fn(graph, n_samples=64, seed=5)
        assert routed.weight == direct.weight
        assert np.array_equal(routed.assignment, direct.assignment)
        print(f"routed solve -> {best}: cut {routed.weight:.1f} "
              f"(bit-identical to the direct call)")

        # The model is a registered result type: plain JSON round-trip.
        model_path = Path(tmp) / "model.json"
        save_model(model_path, model)
        assert load_model(model_path) == model
        print(f"model round-tripped through {model_path.name}")


if __name__ == "__main__":
    main()
