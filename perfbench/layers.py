"""Per-layer wrappers for the traced run.

Each layer's count and busy time is taken around the program's public calls
into it, from the benchmark's own code: class methods are patched on the
class, module functions in the module that calls them.  A target that a later
change removed is skipped and its metrics are reported as absent.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import harness

#: (layer, module, attribute, kind): ``call`` times every call, ``iter`` times
#: the work done inside ``next()`` of the returned generator.
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("sdp.solve", "repro.circuits.lif_gw", "solve_maxcut_sdp", "call"),
    ("sdp.solve", "repro.algorithms.goemans_williamson", "solve_maxcut_sdp", "call"),
    ("circuits.build", "repro.circuits.lif_gw", "LIFGWCircuit.__init__", "call"),
    ("circuits.build", "repro.circuits.lif_trevisan", "LIFTrevisanCircuit.__init__", "call"),
    ("algorithms.gw", "repro.experiments.figure3", "goemans_williamson", "call"),
    ("algorithms.random", "repro.experiments.figure3", "random_baseline", "call"),
    ("neurons.lif_run", "repro.neurons.lif", "LIFPopulation.run", "call"),
    ("neurons.lif_run", "repro.neurons.lif", "LIFPopulation.run_subthreshold", "call"),
    ("neurons.plasticity", "repro.neurons.plasticity", "AntiHebbianMinorComponent.step", "call"),
    ("engine.solve", "repro.engine.engine", "BatchedSolverEngine.solve", "call"),
    ("engine.solve", "repro.serve.service", "solve_instance_block", "call"),
    ("engine.sample", "repro.engine.sampler", "BatchDeviceSampler.sample_block", "call"),
    ("engine.drive", "repro.engine.simulator", "BatchLIFSimulator.drive_currents", "call"),
    ("engine.integrate", "repro.engine.simulator", "BatchLIFSimulator.iter_membrane_readouts", "iter"),
    ("engine.integrate", "repro.engine.simulator", "BatchLIFSimulator.iter_spike_readouts", "iter"),
    ("engine.integrate", "repro.engine.simulator", "BatchLIFSimulator.iter_subthreshold_rounds", "iter"),
    ("engine.track", "repro.engine.tracker", "BestCutTracker.update", "call"),
    ("cuts.eval", "repro.cuts.cut", "BatchCutEvaluator.weights", "call"),
    ("serve.admit", "repro.serve.service", "SolverService.submit", "call"),
)

#: Per-operation metrics derived from the layer stats: name -> (layer, field).
#: ``busy`` is seconds per operation, ``calls`` and counters are per operation.
PER_OP: Dict[str, Tuple[str, str]] = {
    "sdp.solve_s": ("sdp.solve", "busy"),
    "sdp.solves": ("sdp.solve", "calls"),
    "circuits.build_s": ("circuits.build", "busy"),
    "circuits.builds": ("circuits.build", "calls"),
    "algorithms.gw_s": ("algorithms.gw", "busy"),
    "algorithms.random_s": ("algorithms.random", "busy"),
    "neurons.lif_run_s": ("neurons.lif_run", "busy"),
    "neurons.lif_runs": ("neurons.lif_run", "calls"),
    "neurons.plasticity_s": ("neurons.plasticity", "busy"),
    "neurons.plasticity_steps": ("neurons.plasticity", "calls"),
    "engine.solve_s": ("engine.solve", "busy"),
    "engine.solves": ("engine.solve", "calls"),
    "engine.rounds": ("engine.rounds", "count"),
    "engine.sample_s": ("engine.sample", "busy"),
    "engine.drive_s": ("engine.drive", "busy"),
    "engine.integrate_s": ("engine.integrate", "busy"),
    "engine.track_s": ("engine.track", "busy"),
    "cuts.eval_s": ("cuts.eval", "busy"),
    "cuts.evaluations": ("cuts.eval", "calls"),
    "cuts.rows": ("cuts.rows", "count"),
}


def _count_rounds(stats: harness.LayerStats, args: tuple, result) -> None:
    results = result if isinstance(result, list) else [result]
    stats.add("engine.rounds", float(sum(r.n_rounds for r in results)))


def _count_rows(stats: harness.LayerStats, args: tuple, result) -> None:
    stats.add("cuts.rows", float(len(result)))


_AFTER = {"engine.solve": _count_rounds, "cuts.eval": _count_rows}


def install(stats: harness.LayerStats) -> Tuple[harness.Patcher, List[str]]:
    """Wrap every target; return the patcher and the layers with no target left."""
    patcher = harness.Patcher()
    present: Dict[str, bool] = {}
    for layer, module, attr, kind in TARGETS:
        if kind == "iter":
            factory = harness.iterator_wrapper(stats, layer)
        else:
            factory = harness.span_wrapper(stats, layer, _AFTER.get(layer))
        found = patcher.wrap(module, attr, factory)
        present[layer] = present.get(layer, False) or found
    absent = sorted(layer for layer, found in present.items() if not found)
    return patcher, absent


#: Serve metrics taken from the responses and from ``stats()`` deltas.
SERVE_UNITS: Dict[str, str] = {
    "serve.admit_ms": "ms",
    "serve.queue_wait_ms_p50": "ms",
    "serve.queue_wait_ms_p95": "ms",
    "serve.solve_ms_p50": "ms",
    "serve.coalesce_ratio": "ratio",
    "serve.batch_occupancy": "ratio",
    "serve.invocations": "count",
    "serve.result_hit_rate": "ratio",
    "serve.circuit_hit_rate": "ratio",
    "serve.rejected": "count",
    "serve.timed_out": "count",
    "serve.requests": "count",
}

#: Audit of the normalisation and of the tracing cost.
HOST_UNITS: Dict[str, str] = {
    "host.probe_ms": "ms",
    "host.probe_pre_ms": "ms",
    "host.probe_drift_frac": "ratio",
    "host.probe_flagged": "count",
    "host.raw_wall_s": "s",
    "host.trace_overhead_frac": "ratio",
    "host.ops": "count",
    "host.absent_layers": "count",
}

#: Every per-layer metric of the traced run, with its unit.
PER_LAYER_UNITS: Dict[str, str] = {
    **{name: ("s/op" if field == "busy" else "1/op")
       for name, (_, field) in PER_OP.items()},
    **SERVE_UNITS,
    **HOST_UNITS,
}
