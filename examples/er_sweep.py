#!/usr/bin/env python
"""Figure 3 style sweep: Erdős–Rényi convergence curves for all four methods.

Reproduces a (scaled-down) version of the paper's Figure 3: for each requested
(n, p) cell, generate several random graphs, run LIF-GW, LIF-TR, the software
solver, and random cuts, and print the mean cut weight relative to the solver
as a function of the number of samples.

Usage:
    python examples/er_sweep.py --sizes 50 100 --probabilities 0.1 0.25 --samples 512
    python examples/er_sweep.py --paper-grid --samples 1024   # the paper's full grid
"""

from __future__ import annotations

import argparse

from repro.experiments.config import (
    PAPER_FIGURE3_PROBABILITIES,
    PAPER_FIGURE3_SIZES,
)
from repro.experiments.reporting import format_figure3_report
from repro.utils.logging import configure_logging
from repro.workloads import run_workload


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+", default=[50, 100])
    parser.add_argument("--probabilities", type=float, nargs="+", default=[0.1, 0.25])
    parser.add_argument("--graphs-per-cell", type=int, default=3)
    parser.add_argument("--samples", type=int, default=512)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1, help="processes over graphs")
    parser.add_argument(
        "--paper-grid", action="store_true",
        help="use the paper's full n x p grid (slow)",
    )
    args = parser.parse_args()

    configure_logging()

    sizes = PAPER_FIGURE3_SIZES if args.paper_grid else tuple(args.sizes)
    probabilities = (
        PAPER_FIGURE3_PROBABILITIES if args.paper_grid else tuple(args.probabilities)
    )

    cells = run_workload(
        "figure3",
        sizes=sizes,
        probabilities=probabilities,
        trials=args.graphs_per_cell,
        samples=args.samples,
        seed=args.seed,
        workers=args.workers,
    ).records
    print(format_figure3_report(cells))

    print("\nSummary (final relative cut weight, mean over graphs)")
    print(f"{'cell':>16}  {'LIF-GW':>8}  {'LIF-TR':>8}  {'solver':>8}  {'random':>8}")
    for cell in cells:
        label = f"G({cell.n_vertices},{cell.probability:g})"
        print(
            f"{label:>16}  "
            f"{cell.curves['lif_gw'][-1]:8.3f}  "
            f"{cell.curves['lif_tr'][-1]:8.3f}  "
            f"{cell.curves['solver'][-1]:8.3f}  "
            f"{cell.curves['random'][-1]:8.3f}"
        )


if __name__ == "__main__":
    main()
