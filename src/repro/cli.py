"""Command-line interface: ``python -m repro <command>``.

Commands
--------
run         Run any registered workload (the unified entry point):
            ``repro run <workload> [--param k=v] [--trials N] [--samples N]``.
            ``--plan`` previews the execution without running; ``--save``
            persists the uniform RunReport JSON.  ``--shards N`` splits the
            run into checkpointable shards (``--checkpoint-dir`` persists
            them; ``--resume`` skips completed shards after a crash).
workloads   List the registered workloads and their parameters.
merge       Merge a shard checkpoint directory into a report without
            re-running anything (``repro merge <dir>``).
bench       Run the performance benchmark workload and write the schema'd
            BENCH artifact; ``--check benchmarks/baseline.json`` gates the
            measured speedups against committed floors (CI's bench-smoke).
solve       Run one solver (circuit or classical) on a graph and print the cut.
            With ``--problem {qubo,ising,dicut,2sat}`` the instance (random,
            or loaded with ``--from FILE``) is lowered to MAXCUT through the
            problem compiler, solved (batchable circuits ride the batched
            engine), lifted back, and certified for value preservation.
engine      Run trial-parallel batched circuit simulation (repro.engine):
            many independent trials of one circuit on one graph in a single
            vectorised solve, with dense/sparse weight backends and optional
            early stopping; ``--compare`` also times the same request run
            one trial per block.
serve       Run the solver as a daemon (repro.serve): an async request queue
            over HTTP or a unix socket that coalesces same-shape requests
            into single engine batches, caches served results by content,
            and exposes queue/batching/cache metrics on ``/stats`` plus
            Prometheus text on ``/metrics``.  SIGTERM drains the queue
            before exiting.
profile     Run any registered workload under the tracer (repro.obs) and
            print an ASCII per-phase breakdown; ``--format chrome`` writes
            a Perfetto-loadable Chrome trace-event JSON, ``--format
            summary`` the per-phase aggregate JSON.
graphs      List the empirical graphs in the Table I registry.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, Optional, Sequence

import numpy as np

import repro.problems  # registers problem-native solvers and problem suites
import repro.portfolio  # registers the portfolio meta-solver ("auto")
from repro.algorithms.registry import get_solver, get_spec, list_solvers
from repro.experiments.runner import save_results
from repro.graphs.generators import erdos_renyi
from repro.graphs.io import read_edge_list, read_matrix_market
from repro.graphs.repository import EMPIRICAL_GRAPHS, list_empirical_graphs, load_empirical_graph
from repro.utils.logging import configure_logging
from repro.utils.validation import ValidationError

__all__ = ["main", "build_parser"]


def _load_graph(args: argparse.Namespace):
    """Resolve the graph requested by --graph / --er options."""
    if args.graph is not None:
        name = args.graph
        if name in EMPIRICAL_GRAPHS:
            return load_empirical_graph(name, seed=args.seed)
        if name.endswith(".mtx"):
            return read_matrix_market(name)
        return read_edge_list(name)
    n, p = args.er
    return erdos_renyi(int(n), float(p), seed=args.seed)


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Stochastic neuromorphic MAXCUT circuits (paper reproduction CLI)",
    )
    parser.add_argument("--seed", type=int, default=0, help="root random seed")
    parser.add_argument("--save", type=str, default=None, help="write results to this JSON file")
    parser.add_argument("--verbose", action="store_true", help="enable library logging")
    subparsers = parser.add_subparsers(dest="command", required=True)

    # run --------------------------------------------------------------------
    run = subparsers.add_parser(
        "run",
        help="run a registered workload (the unified entry point)",
        description=(
            "Run any workload from the registry (see `repro workloads`). "
            "Workload-specific parameters are passed as repeated --param k=v "
            "(values coerced to the declared default's type; comma-separated "
            "lists for sequence parameters). --trials/--samples/--workers "
            "are shorthand for the parameters of the same name."
        ),
    )
    run.add_argument("workload", metavar="WORKLOAD",
                     help="registered workload name (see `repro workloads`)")
    run.add_argument("--param", "-p", action="append", default=[], metavar="K=V",
                     help="override one workload parameter (repeatable)")
    run.add_argument("--trials", type=int, default=None,
                     help="shorthand for --param trials=N")
    run.add_argument("--samples", type=int, default=None,
                     help="shorthand for --param samples=N")
    run.add_argument("--workers", type=int, default=None,
                     help="shorthand for --param workers=N")
    run.add_argument("--backend", type=str, default=None, metavar="SPEC",
                     help="shorthand for --param backend=SPEC (engine backend "
                          "spec: auto, dense, sparse, numpy, torch, cupy, or "
                          "<array>:<weight> like torch:dense)")
    run.add_argument("--plan", action="store_true",
                     help="print the execution plan and exit without running")
    run.add_argument("--plot", action="store_true",
                     help="render the workload's ASCII plot, if it has one")
    run.add_argument("--shards", type=int, default=1, metavar="N",
                     help="split the run into N checkpointable shards "
                          "(results are identical to an unsharded run)")
    run.add_argument("--checkpoint-dir", type=str, default=None, metavar="DIR",
                     help="directory for the shard manifest and per-shard "
                          "atomic checkpoint files")
    run.add_argument("--resume", action="store_true",
                     help="skip shards already completed in --checkpoint-dir "
                          "(rerun the same command after a crash/kill)")
    run.add_argument("--shard-index", type=int, default=None, metavar="K",
                     help="worker mode: execute only shard K of --shards N "
                          "into --checkpoint-dir and exit without merging — "
                          "run one worker per shard (on any machine sharing "
                          "the directory), then `repro merge DIR`")
    # SUPPRESS (not a value) so the global `repro --seed/--save ... run ...`
    # spellings keep working while `repro run <w> --seed N --save F` is also
    # accepted (the subcommand-position spelling the docs use).
    run.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                     help="root random seed (same as the global --seed)")
    run.add_argument("--save", type=str, default=argparse.SUPPRESS, metavar="FILE",
                     help="write the RunReport to this JSON file (same as the global --save)")

    # workloads --------------------------------------------------------------
    subparsers.add_parser("workloads", help="list the registered workloads")

    # backends ---------------------------------------------------------------
    subparsers.add_parser(
        "backends",
        help="list the engine's array and weight backends with availability",
        description=(
            "Probe the two backend registries of the batched engine: array "
            "backends (the tensor namespace a batch runs on — numpy always, "
            "torch/cupy when installed) and weight backends (how the weight "
            "matrix is applied — dense GEMM or sparse CSR). Any listed pair "
            "combines as --backend <array>:<weight>."
        ),
    )

    # merge ------------------------------------------------------------------
    merge = subparsers.add_parser(
        "merge",
        help="merge a shard checkpoint directory into a report",
        description=(
            "Fold the completed shard checkpoints written by "
            "`repro run <workload> --shards N --checkpoint-dir DIR` into the "
            "workload's report, without re-running anything. Incomplete "
            "directories fail and name the missing shards (rerun with "
            "--resume to complete them)."
        ),
    )
    merge.add_argument("directory", metavar="DIR",
                       help="checkpoint directory (contains manifest.json)")
    merge.add_argument("--plot", action="store_true",
                       help="render the workload's ASCII plot, if it has one")
    merge.add_argument("--save", type=str, default=argparse.SUPPRESS, metavar="FILE",
                       help="write the merged RunReport to this JSON file")

    # bench ------------------------------------------------------------------
    bench = subparsers.add_parser(
        "bench",
        help="run the performance benchmark workload (perf-gating artifact)",
        description=(
            "Time batched-vs-one-trial engine and sharded-vs-monolithic execution "
            "on an arena suite, print the speedup leaderboard, and write the "
            "schema'd benchmark artifact. With --check, exit non-zero when "
            "any measured speedup falls below the committed baseline floors."
        ),
    )
    bench.add_argument("--quick", action="store_true",
                       help="reduced budgets for CI smoke runs (about a minute; "
                            "the engine legs keep their gated shape)")
    bench.add_argument("--suite", type=str, default=None,
                       help="graph suite to benchmark on (default: er-small)")
    bench.add_argument("--trials", type=int, default=None,
                       help="trials per scenario (default: 16, quick: 6; "
                            "the engine legs: 64)")
    bench.add_argument("--samples", type=int, default=None,
                       help="read-outs per trial (default: 128, quick: 48; "
                            "the engine legs: 256)")
    bench.add_argument("--out", type=str, default="bench.json", metavar="FILE",
                       help="benchmark artifact path (default: bench.json)")
    bench.add_argument("--check", type=str, default=None, metavar="BASELINE",
                       help="baseline JSON with per-scenario min_speedup floors; "
                            "exit 1 when the gate fails")

    # solve ------------------------------------------------------------------
    solve = subparsers.add_parser(
        "solve",
        help="run one solver on one graph or one compiled problem instance",
        description=(
            "Run one solver on one graph and print the cut. With --problem, "
            "the instance is lowered to MAXCUT through the problem compiler "
            "(repro.problems), solved — batchable circuits through the "
            "batched engine — lifted back to a native solution, and checked "
            "against a value-preservation certificate."
        ),
    )
    solve.add_argument("--solver", choices=list_solvers(), default="lif_gw")
    solve.add_argument("--graph", type=str, default=None,
                       help="Table I graph name or an edge-list / .mtx file path")
    solve.add_argument("--er", type=float, nargs=2, metavar=("N", "P"), default=(50, 0.25),
                       help="Erdős–Rényi parameters used when --graph is not given")
    solve.add_argument("--samples", type=int, default=512)
    solve.add_argument("--problem", type=str, default=None,
                       choices=["qubo", "ising", "dicut", "2sat"],
                       help="solve a problem instance compiled to MAXCUT "
                            "instead of a raw graph")
    solve.add_argument("--from", dest="from_file", type=str, default=None,
                       metavar="FILE",
                       help="JSON problem instance to load (default: a "
                            "seed-deterministic random instance of --problem)")
    solve.add_argument("--vertices", type=int, default=16, metavar="N",
                       help="size of the random instance when --from is not given")
    solve.add_argument("--trials", type=int, default=4,
                       help="engine batch trials for batchable solvers "
                            "(--problem mode)")
    solve.add_argument("--model", type=str, default=None, metavar="FILE",
                       help="portfolio model for --solver auto (from "
                            "`repro portfolio fit`); without one, auto "
                            "races its candidate pool cold")
    solve.add_argument("--backend", type=str, default="auto", metavar="SPEC",
                       help="engine backend spec for batchable solvers: auto, "
                            "a weight backend (dense/sparse), an array "
                            "backend (numpy/torch/cupy), or <array>:<weight> "
                            "(see `repro backends`)")

    # engine -----------------------------------------------------------------
    engine = subparsers.add_parser(
        "engine",
        help="batched trial-parallel circuit simulation (repro.engine)",
        description=(
            "Run many independent trials of one circuit on one graph through "
            "the batched solver engine. Trial i is seeded with "
            "SeedSequence(seed, spawn_key=(i,)), so results are reproducible "
            "and (numpy dense backend, no early stop) bit-identical to running "
            "the trials one at a time or through circuit.sample_cuts."
        ),
    )
    engine.add_argument("--circuit", choices=["lif_gw", "lif_tr"], default="lif_gw")
    engine.add_argument("--graph", type=str, default=None,
                        help="Table I graph name or an edge-list / .mtx file path")
    engine.add_argument("--er", type=float, nargs=2, metavar=("N", "P"), default=(100, 0.25),
                        help="Erdős–Rényi parameters used when --graph is not given")
    engine.add_argument("--trials", type=int, default=64,
                        help="number of independent trials in the batch")
    engine.add_argument("--samples", type=int, default=256,
                        help="cut read-outs per trial")
    engine.add_argument("--backend", type=str, default="auto", metavar="SPEC",
                        help="backend spec: auto, a weight backend "
                             "(dense/sparse), an array backend "
                             "(numpy/torch/cupy), or <array>:<weight> "
                             "(see `repro backends`)")
    engine.add_argument("--early-stop-patience", type=int, default=0, metavar="ROUNDS",
                        help="stop after this many non-improving read-out rounds "
                             "(0 disables early stopping)")
    engine.add_argument("--compare", action="store_true",
                        help="also run the same request one trial per block "
                             "(max_block_bytes=1) and report the speedup")

    # serve ------------------------------------------------------------------
    serve = subparsers.add_parser(
        "serve",
        help="run the solver as a daemon (async queue + cross-request batching)",
        description=(
            "Start the solve service (repro.serve): a JSON-over-HTTP daemon "
            "that queues solve requests (graphs, or any compiled problem "
            "class), coalesces same-shape requests into single engine "
            "batches, and answers bit-identically to standalone engine runs "
            "with the same seed. GET /stats exposes queue/batching/cache "
            "metrics. SIGTERM (or Ctrl-C) drains the queue — pending "
            "requests finish, new admissions are refused — then exits."
        ),
    )
    serve.add_argument("--host", type=str, default="127.0.0.1",
                       help="TCP bind address")
    serve.add_argument("--port", type=int, default=8765,
                       help="TCP port (0 binds an ephemeral port; the bound "
                            "port is printed either way)")
    serve.add_argument("--socket", type=str, default=None, metavar="PATH",
                       help="serve on an AF_UNIX socket path instead of TCP")
    serve.add_argument("--max-queue", type=int, default=64,
                       help="admission limit on queued requests")
    serve.add_argument("--batch-trials", type=int, default=64,
                       help="trial-axis ceiling of one coalesced engine batch")
    serve.add_argument("--max-trials", type=int, default=256,
                       help="per-request trial budget cap")
    serve.add_argument("--max-vertices", type=int, default=4096,
                       help="largest admissible instance (compiled size for "
                            "problem requests)")
    serve.add_argument("--timeout", type=float, default=60.0,
                       help="default per-request queue timeout in seconds")
    serve.add_argument("--model", type=str, default=None, metavar="FILE",
                       help="portfolio model used to route \"solver\": "
                            "\"auto\" requests (from `repro portfolio fit`)")

    # profile ----------------------------------------------------------------
    profile = subparsers.add_parser(
        "profile",
        help="run a workload under the tracer and break down where time went",
        description=(
            "Run any registered workload with span collection enabled "
            "(repro.obs) and print an ASCII per-phase breakdown: a table of "
            "every span name with inclusive/exclusive seconds plus bar "
            "charts of the top-N phases. --format chrome (the default) "
            "additionally writes a Chrome trace-event JSON file loadable in "
            "Perfetto / chrome://tracing; --format summary writes the "
            "per-phase aggregate as JSON instead. Tracing never perturbs "
            "seeding, so the profiled run's results are identical to "
            "`repro run` with the same parameters."
        ),
    )
    profile.add_argument("workload", metavar="WORKLOAD",
                         help="registered workload name (see `repro workloads`)")
    profile.add_argument("--param", "-p", action="append", default=[], metavar="K=V",
                         help="override one workload parameter (repeatable)")
    profile.add_argument("--trials", type=int, default=None,
                         help="shorthand for --param trials=N")
    profile.add_argument("--samples", type=int, default=None,
                         help="shorthand for --param samples=N")
    profile.add_argument("--shards", type=int, default=1, metavar="N",
                         help="profile the sharded execution path (per-shard "
                              "timings are folded into the merge)")
    profile.add_argument("--out", type=str, default=None, metavar="FILE",
                         help="trace file path (default: trace.json for "
                              "--format chrome; summary is print-only "
                              "without --out)")
    profile.add_argument("--format", choices=["chrome", "summary"],
                         default="chrome", dest="trace_format",
                         help="trace file format: Chrome trace-event JSON "
                              "(default) or the per-phase summary JSON")
    profile.add_argument("--top", type=int, default=10,
                         help="span names shown in the ASCII bar charts")
    profile.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                         help="root random seed (same as the global --seed)")
    profile.add_argument("--save", type=str, default=argparse.SUPPRESS, metavar="FILE",
                         help="write the RunReport (with its timing block) to "
                              "this JSON file (same as the global --save)")

    # portfolio --------------------------------------------------------------
    portfolio = subparsers.add_parser(
        "portfolio",
        help="fit/inspect the portfolio meta-solver's routing priors",
        description=(
            "Mine persisted arena/workload result files (repro --save, "
            "repro run arena, the sharded executor's merge output) into a "
            "PortfolioModel: per-feature-bucket solver rankings by mean "
            "arena-relative cut ratio. The model drives `--solver auto` "
            "routing in `repro solve`, workloads, and the serve daemon."
        ),
    )
    portfolio.add_argument("action", choices=["fit", "explain"],
                           help="fit: mine result files into a model; "
                                "explain: render a saved model's rankings")
    portfolio.add_argument("paths", nargs="+", metavar="FILE",
                           help="result JSON files (fit) or one model file "
                                "(explain)")
    portfolio.add_argument("--out", type=str, default=None, metavar="FILE",
                           help="fit: write the model to this JSON file")
    portfolio.add_argument("--top", type=int, default=3,
                           help="solvers shown per bucket in the rendering")

    # graphs -----------------------------------------------------------------
    subparsers.add_parser("graphs", help="list the Table I empirical graph registry")

    return parser


# ---------------------------------------------------------------------------
# Workload execution
# ---------------------------------------------------------------------------


def _render_report(workload, report, plot: bool) -> None:
    """Print a workload report: formatted body, optional plot, winner line.

    *workload* may be ``None`` (e.g. merging checkpoints of an unregistered
    ad-hoc spec) — the generic leaderboard table is used.
    """
    from repro.experiments.reporting import format_table

    if workload is not None and workload.formatter is not None:
        print(workload.formatter(report))
    else:
        rows = [
            [row.get("solver", "?"), row.get("score", float("nan"))]
            for row in report.leaderboard
        ]
        print(format_table(["competitor", "score"], rows))
    if plot and workload is not None and workload.plotter is not None:
        print()
        print(workload.plotter(report))
    winner = report.winner()
    if winner is not None:
        print(f"\nwinner: {winner}  ({report.elapsed_seconds:.3f}s total)")


def _execute_workload(
    name: str,
    overrides: Dict[str, Any],
    save: Optional[str],
    plot: bool = False,
    plan_only: bool = False,
    shards: int = 1,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
) -> int:
    """Build a session for workload *name*, run it, render, persist."""
    from repro.workloads import Session, get_workload

    try:
        workload = get_workload(name)
        session = Session.from_workload(name, **overrides)
        if plan_only:
            print(session.plan().describe())
            return 0
        report = session.run(
            shards=shards, checkpoint_dir=checkpoint_dir, resume=resume
        )
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    distrib = report.metadata.get("distrib")
    if distrib:
        print(
            f"shards: {distrib['n_shards']} over {distrib['n_units']} unit(s)"
            + (f", resumed {len(distrib['resumed_shards'])} completed shard(s)"
               if distrib["resumed_shards"] else "")
            + (f", checkpoints in {distrib['checkpoint_dir']}"
               if distrib["checkpoint_dir"] else "")
            + "\n"
        )
    _render_report(workload, report, plot=plot)
    if save:
        report.save(save)
        print(f"\nresults written to {save}")
    return 0


def _command_run(args: argparse.Namespace) -> int:
    from repro.workloads import get_workload
    from repro.workloads.registry import coerce_param_strings

    try:
        workload = get_workload(args.workload)
        raw: Dict[str, Any] = {}
        for item in args.param:
            if "=" not in item:
                raise ValidationError(
                    f"--param expects K=V, got {item!r}"
                )
            key, text = item.split("=", 1)
            raw[key.strip()] = text
        for key in ("trials", "samples", "workers", "backend"):
            value = getattr(args, key)
            if value is not None:
                raw[key] = value
        overrides = {"seed": args.seed, **coerce_param_strings(workload, raw)}
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # --plan wins over worker mode: a routing preview must never execute or
    # write anything, whatever other flags are present.
    if args.shard_index is not None and not args.plan:
        if args.save or args.plot:
            print(
                "note: --save/--plot apply to merged reports; ignored in "
                "worker mode (run `repro merge` when all shards are done)",
                file=sys.stderr,
            )
        return _execute_single_shard(
            args.workload, overrides, n_shards=args.shards,
            shard_index=args.shard_index, checkpoint_dir=args.checkpoint_dir,
        )
    return _execute_workload(
        args.workload, overrides, save=args.save, plot=args.plot,
        plan_only=args.plan, shards=args.shards,
        checkpoint_dir=args.checkpoint_dir, resume=args.resume,
    )


def _execute_single_shard(
    name: str,
    overrides: Dict[str, Any],
    n_shards: int,
    shard_index: int,
    checkpoint_dir: Optional[str],
) -> int:
    """Worker mode: run exactly one shard into the checkpoint directory."""
    from repro.distrib import execute_single_shard
    from repro.workloads import Session

    try:
        if checkpoint_dir is None:
            raise ValidationError("--shard-index requires --checkpoint-dir")
        session = Session.from_workload(name, **overrides)
        status = execute_single_shard(
            session.spec, n_shards, shard_index, checkpoint_dir,
            workload=session.workload,
        )
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    verb = "already complete (skipped)" if status["skipped"] else "completed"
    print(f"shard {shard_index}/{status['n_shards']} {verb} "
          f"({status['n_units']} unit(s)) -> {checkpoint_dir}")
    if status["complete"]:
        print(f"all {status['n_shards']} shards complete — merge with: "
              f"repro merge {checkpoint_dir}")
    else:
        print(f"waiting on shard(s) {status['missing_shards']}")
    return 0


def _command_merge(args: argparse.Namespace) -> int:
    from repro import __version__
    from repro.distrib import merge_checkpoints
    from repro.workloads.registry import WORKLOADS
    from repro.workloads.report import RunReport

    try:
        outcome, manifest = merge_checkpoints(args.directory)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    name = str(manifest.get("workload", "workload"))
    spec_dict = dict(manifest.get("spec") or {})
    distrib = outcome.metadata.get("distrib", {})
    report = RunReport(
        workload=name,
        seed=spec_dict.get("seed"),
        params=dict(spec_dict.get("params") or {}),
        records=list(outcome.records),
        leaderboard=list(outcome.leaderboard),
        elapsed_seconds=float(sum(distrib.get("shard_elapsed_seconds", []))),
        metadata=dict(outcome.metadata),
        version=__version__,
    )
    print(
        f"merged {distrib.get('n_shards', '?')} shard(s) / "
        f"{distrib.get('n_units', '?')} unit(s) of workload {name!r} "
        f"from {args.directory}\n"
    )
    _render_report(WORKLOADS.get(name), report, plot=args.plot)
    if args.save:
        report.save(args.save)
        print(f"\nresults written to {args.save}")
    return 0


def _command_bench(args: argparse.Namespace) -> int:
    from repro.workloads import Session, check_baseline, get_workload
    from repro.workloads.bench import load_baseline

    overrides: Dict[str, Any] = {
        "seed": args.seed,
        "trials": args.trials if args.trials is not None else (6 if args.quick else 16),
        "samples": args.samples if args.samples is not None else (48 if args.quick else 128),
    }
    # The engine legs keep their gated shape unless a budget is given.
    if args.trials is not None:
        overrides["engine_trials"] = args.trials
    if args.samples is not None:
        overrides["engine_samples"] = args.samples
    if args.suite is not None:
        overrides["suite"] = args.suite
    # Read the baseline first: a bad path fails before the legs run.
    baseline = None
    if args.check:
        try:
            baseline = load_baseline(args.check)
        except (OSError, ValueError) as exc:
            print(f"error: cannot load baseline {args.check!r}: {exc}", file=sys.stderr)
            return 2
    try:
        workload = get_workload("bench")
        report = Session.from_workload("bench", **overrides).run()
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # Always render the bar-chart leaderboard: the bench's whole point is
    # the at-a-glance speedup trajectory.
    _render_report(workload, report, plot=True)
    report.save(args.out)
    print(f"\nbenchmark artifact written to {args.out}")
    if args.save and args.save != args.out:
        # Honor the global --save contract like every other subcommand.
        report.save(args.save)
        print(f"results written to {args.save}")
    if args.check:
        failures = check_baseline(report, baseline)
        if failures:
            print(f"\nbaseline gate FAILED against {args.check}:", file=sys.stderr)
            for failure in failures:
                print(f"  - {failure}", file=sys.stderr)
            return 1
        floors = dict(baseline.get("min_speedup", {}))
        print(f"baseline gate: OK ({len(floors)} floor(s) from {args.check})")
    return 0


def _command_profile(args: argparse.Namespace) -> int:
    import json as _json

    from repro.obs import capture, chrome_trace, profile_summary, render_profile
    from repro.workloads import Session, get_workload
    from repro.workloads.registry import coerce_param_strings

    try:
        workload = get_workload(args.workload)
        raw: Dict[str, Any] = {}
        for item in args.param:
            if "=" not in item:
                raise ValidationError(f"--param expects K=V, got {item!r}")
            key, text = item.split("=", 1)
            raw[key.strip()] = text
        for key in ("trials", "samples"):
            value = getattr(args, key)
            if value is not None:
                raw[key] = value
        overrides = {"seed": args.seed, **coerce_param_strings(workload, raw)}
        session = Session.from_workload(args.workload, **overrides)
        with capture() as trace:
            report = session.run(shards=args.shards)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    spans = trace.spans
    print(render_profile(
        spans, top=args.top,
        title=(f"profile: workload {args.workload!r} — "
               f"{report.elapsed_seconds:.3f}s wall, {len(spans)} span(s)"),
    ))
    out = args.out
    if args.trace_format == "chrome":
        out = out or "trace.json"
        payload = chrome_trace(spans)
    else:
        payload = profile_summary(spans)
    if out is not None:
        from repro.experiments.runner import atomic_write_json

        atomic_write_json(out, payload)
        kind = ("Chrome trace-event" if args.trace_format == "chrome"
                else "profile summary")
        print(f"\n{kind} JSON written to {out}")
    if args.save:
        report.save(args.save)
        print(f"results written to {args.save}")
    return 0


def _command_workloads(_args: argparse.Namespace) -> int:
    from repro.experiments.reporting import format_table
    from repro.workloads import get_workload, list_workloads

    rows = []
    for name in list_workloads():
        workload = get_workload(name)
        defaults = ", ".join(f"{k}={v!r}" for k, v in workload.defaults.items())
        rows.append([name, workload.summary, defaults])
    print(format_table(["workload", "summary", "parameters (defaults)"], rows))
    print("\nrun one with: repro run <workload> [--param k=v ...]")
    return 0


def _command_backends(_args: argparse.Namespace) -> int:
    from repro.engine import probe_array_backends, probe_weight_backends
    from repro.experiments.reporting import format_table

    def rows(probes):
        return [
            [
                probe["name"],
                "yes" if probe["available"] else "no",
                probe["device"] if probe["available"] else "-",
                probe["reason"],
            ]
            for probe in probes
        ]

    print("array backends (tensor namespace the engine batch runs on):")
    print(format_table(["name", "available", "device", "notes"],
                       rows(probe_array_backends())))
    print("\nweight backends (how the weight matrix is applied):")
    print(format_table(["name", "available", "device", "notes"],
                       rows(probe_weight_backends())))
    print("\nselect with: repro engine|solve|run ... --backend "
          "<name> or <array>:<weight>   (e.g. --backend torch:dense)")
    return 0


# ---------------------------------------------------------------------------
# Plain commands
# ---------------------------------------------------------------------------


def _command_solve(args: argparse.Namespace) -> int:
    if args.problem is not None:
        return _solve_problem(args)
    graph = _load_graph(args)
    spec = get_spec(args.solver)
    engine_note = ""
    if args.backend != "auto":
        # An explicit backend routes batchable solvers through the batched
        # engine (a per-trial sample_cuts always runs dense).  Non-batchable
        # solvers cannot honour the request — say so instead of ignoring it.
        if not spec.batchable:
            print(
                f"error: --backend applies to batchable solvers "
                f"(lif_gw, lif_tr); {args.solver!r} runs sequentially",
                file=sys.stderr,
            )
            return 2
        try:
            from repro.engine import resolve_backend
            from repro.experiments.runner import run_circuit_trials

            resolve_backend(args.backend)  # fail fast, before the SDP solve
            result = run_circuit_trials(
                graph=graph, circuit=spec.circuit, n_trials=1,
                n_samples=args.samples, seed=args.seed, backend=args.backend,
            )
        except ValidationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        cut = result.best_cut
        engine_note = (f" (batched engine, backend {result.backend_name}"
                       f" on {result.metadata.get('array_backend', 'numpy')})")
    else:
        solver = get_solver(args.solver)
        extra: Dict[str, Any] = {}
        if spec.key == "portfolio" and args.model is not None:
            extra["model"] = args.model
        cut = solver(graph, n_samples=args.samples, seed=args.seed, **extra)
    print(f"graph      : {graph.name} ({graph.n_vertices} vertices, {graph.n_edges} edges)")
    print(f"solver     : {args.solver}{engine_note}")
    print(f"cut weight : {cut.weight:g}  (of total edge weight {graph.total_weight:g})")
    sides = cut.side_sizes
    print(f"partition  : {sides[0]} / {sides[1]} vertices")
    return 0


def _solve_problem(args: argparse.Namespace) -> int:
    """``repro solve --problem``: compile → solve → lift → certify."""
    from repro.experiments.runner import run_circuit_trials
    from repro.problems import (
        compile_to_maxcut,
        load_problem,
        random_problem,
        verify_certificate,
    )
    from repro.workloads.problems import (
        PROBLEM_KIND_ALIASES,
        check_solver_compatibility,
    )

    kind = PROBLEM_KIND_ALIASES[args.problem]
    try:
        if args.from_file is not None:
            problem = load_problem(args.from_file)
            if problem.kind != kind:
                raise ValidationError(
                    f"{args.from_file!r} holds a {problem.kind!r} instance, "
                    f"but --problem {args.problem} was requested"
                )
        else:
            problem = random_problem(
                kind, seed=args.seed, n_variables=args.vertices
            )
        graph, lifter = compile_to_maxcut(problem, seed=args.seed)
        spec = check_solver_compatibility(args.solver, kind)
        print(f"problem    : {problem.describe()}")
        print(f"compiled   : {graph.name} ({graph.n_vertices} vertices, "
              f"{graph.n_edges} edges)")
        if spec.batchable:
            result = run_circuit_trials(
                graph=graph, circuit=spec.circuit, n_trials=args.trials,
                n_samples=args.samples, seed=args.seed,
                backend=args.backend,
            )
            cut = result.best_cut
            print(f"solver     : {spec.key} (batched engine, "
                  f"{result.n_trials} trials x {result.n_rounds} read-outs, "
                  f"backend {result.backend_name})")
        else:
            cut = spec.fn(graph, n_samples=args.samples, seed=args.seed)
            print(f"solver     : {spec.key}")
        solution = lifter.lift(cut.assignment)
        certificate = verify_certificate(
            problem, graph, lifter, assignment=cut.assignment, seed=args.seed
        )
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    direction = "maximise" if problem.direction == "max" else "minimise"
    print(f"cut weight : {cut.weight:g}")
    print(f"objective  : {problem.objective(solution):g}  ({direction}, "
          f"native {problem.kind})")
    print(f"certificate: OK — value preservation verified on "
          f"{certificate.n_probes} probes + the solved cut "
          f"(max |error| {certificate.max_abs_error:.2e})")
    if args.save:
        from repro.experiments.runner import atomic_write_json

        atomic_write_json(args.save, {
            "problem": problem.to_dict(),
            "solver": spec.key,
            "cut_weight": float(cut.weight),
            "objective": float(problem.objective(solution)),
            "assignment": np.asarray(cut.assignment).tolist(),
            "solution": np.asarray(solution).tolist(),
            "certificate": {
                "n_probes": certificate.n_probes,
                "max_abs_error": certificate.max_abs_error,
            },
            "seed": args.seed,
        })
        print(f"\nresults written to {args.save}")
    return 0


def _command_engine(args: argparse.Namespace) -> int:
    from repro.circuits.lif_gw import LIFGWCircuit
    from repro.circuits.lif_trevisan import LIFTrevisanCircuit
    from repro.engine import EarlyStopConfig, resolve_backend
    from repro.experiments.runner import run_circuit_trials

    # Fail fast on a bad or unavailable backend spec, before the (possibly
    # expensive) graph load and offline SDP solve.
    try:
        resolve_backend(args.backend)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    graph = _load_graph(args)
    early_stop = None
    if args.early_stop_patience > 0:
        # Let the rule fire as soon as `patience` rounds have been seen —
        # EarlyStopConfig's default min_rounds floor (64) would silently
        # disable the flag for short runs.
        early_stop = EarlyStopConfig(
            patience=args.early_stop_patience,
            min_rounds=args.early_stop_patience,
        )
    # Build the circuit once (the LIF-GW SDP solve is the offline stage) so
    # the reported throughput — and any --compare speedup — measures the
    # simulation itself, not a repeated SDP solve.
    if args.circuit == "lif_gw":
        circuit = LIFGWCircuit(graph, seed=args.seed)
    else:
        circuit = LIFTrevisanCircuit(graph)
    result = run_circuit_trials(
        circuit=circuit,
        graph=None,
        n_trials=args.trials,
        n_samples=args.samples,
        seed=args.seed,
        backend=args.backend,
        early_stop=early_stop,
    )
    print(f"graph      : {graph.name} ({graph.n_vertices} vertices, {graph.n_edges} edges)")
    print(f"circuit    : {result.circuit_name}  backend: {result.backend_name}")
    print(f"batch      : {result.n_trials} trials x {result.n_rounds} read-outs"
          + (f" (early-stopped at {result.n_rounds}/{result.n_samples})"
             if result.early_stopped else ""))
    print(f"best cut   : {result.best_weight:g}  (of total edge weight {graph.total_weight:g})")
    if result.n_trials:
        mean = float(result.trial_best_weights.mean())
        print(f"trial best : mean {mean:g}  min {result.trial_best_weights.min():g}  "
              f"max {result.trial_best_weights.max():g}")
    print(f"throughput : {result.samples_per_second:,.0f} read-outs/s "
          f"({result.elapsed_seconds:.3f}s wall)")
    if args.compare:
        # The reference is the engine one trial at a time: the same seeds,
        # so per-trial bests must match bit for bit.
        reference = run_circuit_trials(
            circuit=circuit,
            graph=None,
            n_trials=args.trials,
            n_samples=args.samples,
            seed=args.seed,
            backend=args.backend,
            early_stop=early_stop,
            max_block_bytes=1,
        )
        # Per-read-out throughput ratio, so an early-stopped (truncated)
        # engine run is not credited for the rounds it skipped.
        speedup = (result.samples_per_second / reference.samples_per_second
                   if reference.samples_per_second > 0 else float("inf"))
        print(f"1 per block: {reference.samples_per_second:,.0f} read-outs/s "
              f"({reference.elapsed_seconds:.3f}s wall)")
        if result.n_rounds == reference.n_rounds:
            match = bool(
                (result.trial_best_weights == reference.trial_best_weights).all()
            )
            print(f"speedup    : {speedup:.1f}x  per-trial bests match: {match}")
        else:
            print(f"speedup    : {speedup:.1f}x per read-out "
                  f"(engine truncated to {result.n_rounds}/{reference.n_rounds} rounds)")
    if args.save:
        save_results(
            args.save, "engine", [result],
            config={
                "circuit": args.circuit, "n_trials": args.trials,
                "n_samples": args.samples, "backend": args.backend,
                "seed": args.seed,
            },
        )
        print(f"\nresults written to {args.save}")
    return 0


def _command_graphs(_args: argparse.Namespace) -> int:
    from repro.experiments.reporting import format_table

    rows = []
    for name in list_empirical_graphs():
        spec = EMPIRICAL_GRAPHS[name]
        rows.append([name, spec.n_vertices, spec.n_edges, spec.kind, spec.family, spec.description])
    print(format_table(["graph", "n", "m", "kind", "family", "description"], rows))
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    import signal

    from repro.serve import ServiceConfig, SolverService, serve_http, serve_unix

    try:
        config = ServiceConfig(
            max_queue_depth=args.max_queue,
            max_batch_trials=args.batch_trials,
            max_trials_per_request=args.max_trials,
            max_request_vertices=args.max_vertices,
            default_timeout_seconds=args.timeout,
            portfolio_model=args.model,
        )
        service = SolverService(config)
        if args.socket is not None:
            server = serve_unix(service, args.socket)
            endpoint = f"unix:{args.socket}"
        else:
            server = serve_http(service, host=args.host, port=args.port)
            host, port = server.server_address[:2]
            endpoint = f"http://{host}:{port}"
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # Printed unconditionally (and flushed) so wrappers binding --port 0 can
    # parse the ephemeral endpoint from the first stdout line.
    print(f"serving on {endpoint}", flush=True)

    def _drain(signum, frame):  # noqa: ARG001 - signal handler signature
        # shutdown() blocks until serve_forever() returns, and the handler
        # interrupts the very thread running serve_forever() — so it must be
        # issued from a helper thread or the two deadlock.
        import threading

        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _drain)
    signal.signal(signal.SIGINT, _drain)
    try:
        server.serve_forever()
    finally:
        server.server_close()
        service.shutdown(drain=True)
        stats = service.stats()
        print(
            f"drained: {stats['completed']} completed, "
            f"{stats['engine']['invocations']} engine invocation(s), "
            f"coalesce ratio {stats['engine']['coalesce_ratio']:.2f}",
            flush=True,
        )
    return 0


def _command_portfolio(args: argparse.Namespace) -> int:
    from repro.portfolio import explain_model, fit_from_paths, load_model, save_model

    try:
        if args.action == "fit":
            model = fit_from_paths(args.paths)
            if args.out is not None:
                save_model(args.out, model)
                print(f"wrote portfolio model to {args.out}")
        else:
            if len(args.paths) != 1:
                raise ValidationError(
                    "portfolio explain takes exactly one model file, got "
                    f"{len(args.paths)}"
                )
            model = load_model(args.paths[0])
        print(explain_model(model, top=args.top))
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


_COMMANDS = {
    "run": _command_run,
    "workloads": _command_workloads,
    "backends": _command_backends,
    "merge": _command_merge,
    "bench": _command_bench,
    "profile": _command_profile,
    "solve": _command_solve,
    "engine": _command_engine,
    "serve": _command_serve,
    "portfolio": _command_portfolio,
    "graphs": _command_graphs,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verbose:
        configure_logging()
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
