"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload engine-gw --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with the program untraced;
``--trace 1`` wraps each layer's public calls and reports the per-layer
metrics instead.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread, pinned before numpy is first imported: the default
# two-thread OpenBLAS made figure3 slower and its timings noisier on a
# two-core host, and a second busy thread would contend with the serve
# scheduler thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import harness  # noqa: E402

#: End-to-end metric units, in the order they are printed.
END_TO_END_UNITS = {
    "setup_s": "s",
    "cuts_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "cut_ratio": "ratio",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}


def end_to_end(workload, window, setups, notes):
    """The end-to-end metrics of one untraced run."""
    latencies = window.latencies
    n = len(latencies)
    beyond = n - math.ceil(workload.TAIL * n)
    notes.append(
        f"latency_p95_ms: nearest-rank p{100 * workload.TAIL:g} (this workload's "
        f"fixed tail) of {n} samples, {beyond} beyond it")
    return {
        "setup_s": statistics.median(setups),
        "cuts_per_s": window.cuts_per_s,
        "latency_p50_ms": 1000.0 * statistics.median(latencies),
        "latency_p95_ms": 1000.0 * harness.nearest_rank(latencies, workload.TAIL),
        "cut_ratio": statistics.fmean(window.quality) if window.quality else 0.0,
        "ok_frac": (window.attempted - window.failed) / window.attempted,
        "peak_rss_mb": harness.peak_rss_mb(),
    }


def host_audit(window, pre_probes, notes):
    """Probe audit: a run whose idle probes drift from the pre-import ones is flagged."""
    pre = statistics.median(pre_probes)
    idle = statistics.median(window.probes)
    spread = harness.relative_spread(window.probes)
    drift = idle / pre - 1.0
    flagged = abs(drift) > spread
    if flagged:
        notes.append(
            f"FLAG: idle probe {1000 * idle:.2f} ms differs from the pre-import "
            f"probe {1000 * pre:.2f} ms by {100 * drift:+.1f}%, more than the "
            f"probe spread {100 * spread:.1f}%"
        )
    return {
        "host.probe_ms": 1000.0 * idle,
        "host.probe_pre_ms": 1000.0 * pre,
        "host.probe_drift_frac": drift,
        "host.probe_flagged": float(flagged),
        "host.raw_wall_s": window.raw_wall,
    }


def per_layer(workload, state, seconds, pre_probes, notes):
    """Untraced then traced half-windows; per-layer metrics of the traced half."""
    import layers

    untraced = workload.window(state, seconds / 2.0)
    untraced.run_deferred()
    stats = harness.LayerStats()
    patcher, absent = layers.install(stats)
    try:
        traced = workload.window(state, seconds / 2.0)
    finally:
        patcher.restore()
    traced.run_deferred()
    traced.attempted += untraced.attempted
    traced.failed += untraced.failed
    ops = len(traced.latencies)
    factor = traced.factor
    metrics = {}
    for name, (layer, field) in layers.PER_OP.items():
        if field == "busy":
            value = stats.busy.get(layer, 0.0) * factor
        elif field == "calls":
            value = stats.calls.get(layer, 0)
        else:
            value = stats.counts.get(layer, 0.0)
        metrics[name] = float(value) / ops
    for name in layers.SERVE_UNITS:
        metrics[name] = float(traced.extra.get(name, 0.0))
    metrics.update(host_audit(traced, pre_probes, notes))
    metrics["host.trace_overhead_frac"] = (
        untraced.cuts_per_s / traced.cuts_per_s - 1.0 if traced.cuts_per_s else 0.0)
    metrics["host.ops"] = float(ops)
    metrics["host.absent_layers"] = float(len(absent))
    if patcher.missing:
        notes.append("wrap targets not found: " + ", ".join(patcher.missing))
    if absent:
        notes.append("absent layers (reported as 0): " + ", ".join(absent))
    ranked = sorted(stats.self_time.items(), key=lambda item: -item[1])
    notes.append("self time per op (reference s): " + ", ".join(
        f"{layer}={busy * factor / ops:.4f}" for layer, busy in ranked))
    if "serve.queue_wait_ms_p50" in traced.extra:
        notes.append(
            f"serve: queue wait p50 {traced.extra['serve.queue_wait_ms_p50']:.1f} ms, "
            f"solve p50 {traced.extra['serve.solve_ms_p50']:.1f} ms over "
            f"{ops} requests")
    return traced, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    cpu, cpu_probes = harness.pin_to_fastest_cpu()
    pre_probes = harness.calibrate()  # before the program is imported
    try:
        import workloads
    except ImportError as exc:
        print(f"cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workload = workloads.make(args.workload, args.seed)
    notes = [f"pinned to CPU {cpu}; probe ms per CPU: " + ", ".join(
        f"{c}={1000 * t:.2f}" for c, t in cpu_probes.items())]
    repeats = 1 if args.trace else workloads.SETUP_REPEATS
    state, setups, stages = workloads.run_setup(workload, repeats)
    try:
        if args.trace:
            import layers

            window, metrics = per_layer(workload, state, args.seconds, pre_probes, notes)
            units = layers.PER_LAYER_UNITS
        else:
            window = workload.window(state, args.seconds)
            window.run_deferred()
            metrics = end_to_end(workload, window, setups, notes)
            units = END_TO_END_UNITS
            audit = host_audit(window, pre_probes, notes)
            audit["raw cuts_per_s"] = window.cuts / window.raw_busy
            notes.append("host: " + ", ".join(f"{k}={v:.4g}" for k, v in audit.items()))
            notes.append(
                f"setup_s over {len(setups)} set-ups: "
                + ", ".join(f"{s:.3f}" for s in setups) + "; stage medians: "
                + ", ".join(f"{name}={statistics.median(times):.3f}"
                            for name, times in stages.items()))
    finally:
        workload.teardown(state)

    correct = window.failed == 0
    print(f"workload {args.workload} seed {args.seed}: {window.attempted} operations, "
          f"{window.failed} failed, raw window {window.raw_wall:.2f} s")
    for line in notes:
        print(line)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": window.attempted,
        "failed": window.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
