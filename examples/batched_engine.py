#!/usr/bin/env python
"""Trial-parallel solving with the batched engine (repro.engine).

Runs a batch of independent LIF-GW trials on one Erdős–Rényi graph through
the batched solver engine, then repeats the identical trials one at a time
(the same request with ``max_block_bytes=1``) to demonstrate (a) the
throughput gap and (b) the bit-identical results guaranteed by the engine's
seeding contract.  Finally
shows early stopping: the same batch with a plateau rule terminates as soon
as the best-cut distribution converges.

Usage:
    python examples/batched_engine.py
    python examples/batched_engine.py --vertices 200 --trials 32 --samples 512
    python examples/batched_engine.py --circuit lif_tr --early-stop
"""

from __future__ import annotations

import argparse
from dataclasses import replace

import numpy as np

from repro.circuits.config import LIFGWConfig, LIFTrevisanConfig
from repro.circuits.lif_gw import LIFGWCircuit
from repro.circuits.lif_trevisan import LIFTrevisanCircuit
from repro.engine import EarlyStopConfig, SolveRequest, solve
from repro.graphs.generators import erdos_renyi


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--circuit", choices=["lif_gw", "lif_tr"], default="lif_gw")
    parser.add_argument("--vertices", type=int, default=100)
    parser.add_argument("--probability", type=float, default=0.25)
    parser.add_argument("--trials", type=int, default=64)
    parser.add_argument("--samples", type=int, default=256)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--early-stop", action="store_true",
                        help="also run the batch with a plateau rule")
    args = parser.parse_args()

    graph = erdos_renyi(args.vertices, args.probability, seed=args.seed)
    print(f"graph: {graph.name} ({graph.n_vertices} vertices, {graph.n_edges} edges)")

    if args.circuit == "lif_gw":
        circuit = LIFGWCircuit(graph, config=LIFGWConfig(), seed=args.seed)
    else:
        circuit = LIFTrevisanCircuit(graph, config=LIFTrevisanConfig())

    request = SolveRequest(
        circuit=circuit, n_trials=args.trials, n_samples=args.samples, seed=args.seed
    )

    batched = solve(request)
    print(f"\nbatched engine ({batched.backend_name} backend):")
    print(f"  best cut {batched.best_weight:g} of {graph.total_weight:g} total, "
          f"{batched.samples_per_second:,.0f} read-outs/s "
          f"({batched.elapsed_seconds:.3f}s)")

    reference = solve(replace(request, max_block_bytes=1))
    print("one trial at a time:")
    print(f"  best cut {reference.best_weight:g}, "
          f"{reference.samples_per_second:,.0f} read-outs/s "
          f"({reference.elapsed_seconds:.3f}s)")
    identical = np.array_equal(batched.trajectories, reference.trajectories)
    speedup = reference.elapsed_seconds / max(batched.elapsed_seconds, 1e-12)
    print(f"  -> {speedup:.1f}x speedup, trajectories bit-identical: {identical}")

    if args.early_stop:
        stopped = solve(
            SolveRequest(
                circuit=circuit, n_trials=args.trials, n_samples=args.samples,
                seed=args.seed, early_stop=EarlyStopConfig(patience=16, min_rounds=32),
            )
        )
        print(f"\nwith early stop: {stopped.n_rounds}/{stopped.n_samples} rounds "
              f"simulated (best cut {stopped.best_weight:g}, "
              f"early_stopped={stopped.early_stopped})")


if __name__ == "__main__":
    main()
