#!/usr/bin/env python
"""The unified workload API end to end (repro.workloads) — runs in < 5 s.

Demonstrates the whole surface behind ``repro run``:

1. discover the registered workloads (`list_workloads`),
2. preview an execution plan without running anything (`Session.plan`),
3. run a registered workload and read its uniform `RunReport`,
4. persist / reload the report through the standard JSON layer,
5. declare and run an *ad-hoc* `WorkloadSpec` — no registration, no new
   module, no new CLI subcommand.

Usage:
    python examples/workloads.py
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from repro.experiments.runner import load_results
from repro.workloads import (
    Budget,
    GraphSource,
    Session,
    WorkloadSpec,
    get_workload,
    list_workloads,
    run_workload,
)


def main() -> None:
    # 1. Discovery: every scenario in the repo is a registered workload.
    print("registered workloads:")
    for name in list_workloads():
        print(f"  {name:<10} {get_workload(name).summary}")

    # 2. Plan before running: which (graph, solver) cells, on which path.
    session = Session.from_workload(
        "arena", solvers=("lif_tr", "trevisan", "random"),
        suite="er-small", trials=2, samples=16, seed=0,
    )
    print("\nexecution plan:")
    print(session.plan().describe())

    # 3. Run: a uniform RunReport whatever the workload.
    report = session.run()
    print(f"\nwinner: {report.winner()}  "
          f"({len(report.records)} records, {report.elapsed_seconds:.2f}s)")
    for row in report.leaderboard:
        print(f"  {row['solver']:<10} score={row['score']:.3f}")

    # 4. Persist and reload through the standard experiment JSON layer.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "arena.json"
        report.save(path)
        record = load_results(path)
        payload = json.loads(path.read_text())
        print(f"\nsaved {path.name}: experiment={record.experiment!r}, "
              f"{len(record.results)} results, "
              f"suite={payload['config']['suite']!r}")

    # 5. Ad-hoc spec: a new scenario is ~10 lines, not a new module.
    spec = WorkloadSpec(
        workload="adhoc-er-race",
        graphs=GraphSource.erdos_renyi_grid((16,), (0.4,), per_cell=2),
        solvers=("random", "trevisan", "local_search"),
        budget=Budget(n_trials=2, n_samples=16),
        seed=1,
    )
    adhoc = Session(spec).run()
    print(f"\nad-hoc spec {spec.workload!r}: winner {adhoc.winner()}")

    # Convenience one-liner for registered workloads:
    quick = run_workload("arena", solvers=("random", "trevisan"),
                         suite="structured-small", trials=2, samples=8, seed=0)
    print(f"one-liner on structured-small: winner {quick.winner()}")


if __name__ == "__main__":
    main()
