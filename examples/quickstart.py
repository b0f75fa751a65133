#!/usr/bin/env python
"""Quickstart: solve MAXCUT on a random graph with both neuromorphic circuits.

Runs the LIF-Goemans-Williamson and LIF-Trevisan circuits on an Erdős–Rényi
graph, compares them against the software Goemans-Williamson solver, the
software Trevisan spectral algorithm, random cuts, and (because the graph is
small) the exact maximum cut.

Usage:
    python examples/quickstart.py [--vertices 24] [--probability 0.4] [--samples 500]
"""

from __future__ import annotations

import argparse

import repro
from repro.analysis import running_best
from repro.cuts import exact_maxcut_value
from repro.utils.logging import configure_logging


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--vertices", type=int, default=24, help="number of graph vertices")
    parser.add_argument("--probability", type=float, default=0.4, help="edge probability")
    parser.add_argument("--samples", type=int, default=500, help="cut samples per circuit")
    parser.add_argument("--seed", type=int, default=0, help="root random seed")
    args = parser.parse_args()

    configure_logging()

    graph = repro.erdos_renyi(args.vertices, args.probability, seed=args.seed)
    print(f"Graph: {graph.n_vertices} vertices, {graph.n_edges} edges "
          f"(total weight {graph.total_weight:g})")

    # Exact optimum (exhaustive; only feasible because the graph is small).
    optimum = exact_maxcut_value(graph) if graph.n_vertices <= 24 else None
    if optimum is not None:
        print(f"Exact maximum cut: {optimum:g}")

    # Software baselines.
    solver = repro.goemans_williamson(graph, n_samples=200, seed=args.seed + 1)
    spectral = repro.trevisan_spectral(graph)
    random_best, _ = repro.random_baseline(graph, n_samples=args.samples, seed=args.seed + 2)

    # Neuromorphic circuits.
    lif_gw = repro.LIFGWCircuit(graph, seed=args.seed + 3)
    gw_result = lif_gw.sample_cuts(args.samples, seed=args.seed + 4)

    lif_tr = repro.LIFTrevisanCircuit(graph)
    tr_result = lif_tr.sample_cuts(args.samples, seed=args.seed + 5)

    print("\nBest cut weights")
    print(f"  software GW solver   : {solver.best_weight:g}  (SDP bound {solver.sdp.objective:.1f})")
    print(f"  software Trevisan    : {spectral.weight:g}")
    print(f"  LIF-GW circuit       : {gw_result.best_weight:g}")
    print(f"  LIF-Trevisan circuit : {tr_result.best_weight:g}")
    print(f"  random cuts          : {random_best.weight:g}")

    if optimum:
        print("\nApproximation ratios (vs exact optimum)")
        for label, value in [
            ("software GW solver", solver.best_weight),
            ("LIF-GW circuit", gw_result.best_weight),
            ("LIF-Trevisan circuit", tr_result.best_weight),
            ("random cuts", random_best.weight),
        ]:
            print(f"  {label:<22}: {value / optimum:.3f}")

    # Convergence of the LIF-TR circuit (the paper's orange curve).
    running = running_best(tr_result.trajectories[0])
    checkpoints = [1, len(running) // 10, len(running) // 3, len(running)]
    print("\nLIF-Trevisan running best (cut weight after k samples)")
    for k in checkpoints:
        print(f"  after {k:>6d} samples: {running[k - 1]:g}")


if __name__ == "__main__":
    main()
