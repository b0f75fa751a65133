"""Batched-engine throughput benchmarks: trial batches vs. one trial at a time.

Measures the trial-parallel engine against the same request run one trial
per block (``max_block_bytes=1``: the engine simulating trials one after
another, with the same seeds) on the workloads the paper's sweeps are made
of:

* LIF-GW on a 100-node Erdős–Rényi graph, 64-trial batches, both read-outs.
  The spike read-out (the hardware-native mechanism) must show >= 5x
  aggregate throughput; the membrane read-out must show a solid win too.
* LIF-TR with the dense vs. sparse weight backend on a low-density graph.

Each speed-up is the ratio of the medians of 7 alternating (batched,
one-trial-per-block) timing pairs, taken after a warm-up solve so one-time
page-faulting of the current buffers is not billed to either side; a single
best-of timing per side read below the floor under host load alone.  Every
pair is asserted bit-identical before any speedup claim.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np
import pytest

from benchmarks.conftest import sample_budget
from repro.circuits.config import LIFGWConfig, LIFTrevisanConfig
from repro.circuits.lif_gw import LIFGWCircuit
from repro.circuits.lif_trevisan import LIFTrevisanCircuit
from repro.engine import SolveRequest, solve
from repro.graphs.generators import erdos_renyi

#: The acceptance workload: 64-trial batches on a 100-node ER graph.
N_TRIALS = 64
N_VERTICES = 100


@pytest.fixture(scope="module")
def bench_graph():
    return erdos_renyi(N_VERTICES, 0.25, seed=42, name="engine_bench_er100")


def _best_of(fn, repeats: int = 3):
    """Best wall-clock of *repeats* runs and the last result."""
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _speedup(circuit, n_samples: int, pairs: int = 7):
    request = SolveRequest(
        circuit=circuit, n_trials=N_TRIALS, n_samples=n_samples, seed=2
    )
    one_by_one = replace(request, max_block_bytes=1)
    solve(request)  # warm-up: allocator + BLAS
    batched_times, one_times = [], []
    for _ in range(pairs):
        batched_s, batched = _timed(lambda: solve(request))
        one_s, one = _timed(lambda: solve(one_by_one))
        assert np.array_equal(batched.trajectories, one.trajectories), (
            "batched engine diverged from the one-trial-per-block run"
        )
        batched_times.append(batched_s)
        one_times.append(one_s)
    batched_s, one_s = float(np.median(batched_times)), float(np.median(one_times))
    return one_s / batched_s, batched_s, one_s


def test_bench_engine_spike_readout_speedup(benchmark, bench_graph):
    """Hardware-native spike read-out: the engine must be >= 5x faster."""
    n_samples = sample_budget(256, 2048)
    circuit = LIFGWCircuit(
        bench_graph,
        config=LIFGWConfig(burn_in_steps=100, sample_interval=10, readout="spike"),
        seed=1,
    )

    speedup, batched_s, one_s = benchmark.pedantic(
        _speedup, args=(circuit, n_samples), iterations=1, rounds=1
    )
    throughput = N_TRIALS * n_samples / batched_s
    print(
        f"\nspike readout: batched {batched_s:.3f}s, one at a time {one_s:.3f}s "
        f"-> {speedup:.1f}x ({throughput:,.0f} read-outs/s)"
    )
    assert speedup >= 5.0, (
        f"expected >= 5x engine speedup on {N_TRIALS}-trial batches of a "
        f"{N_VERTICES}-node ER graph, measured {speedup:.2f}x"
    )


def test_bench_engine_membrane_readout_speedup(benchmark, bench_graph):
    """Membrane (Gaussian-rounding) read-out: assert a conservative 2x floor."""
    n_samples = sample_budget(256, 2048)
    circuit = LIFGWCircuit(
        bench_graph,
        config=LIFGWConfig(burn_in_steps=100, sample_interval=10),
        seed=1,
    )

    speedup, batched_s, one_s = benchmark.pedantic(
        _speedup, args=(circuit, n_samples), iterations=1, rounds=1
    )
    throughput = N_TRIALS * n_samples / batched_s
    print(
        f"\nmembrane readout: batched {batched_s:.3f}s, one at a time {one_s:.3f}s "
        f"-> {speedup:.1f}x ({throughput:,.0f} read-outs/s)"
    )
    assert speedup >= 2.0


@pytest.mark.slow
def test_bench_engine_sparse_backend(benchmark):
    """LIF-TR dense vs. sparse weight backend on a low-density graph."""
    graph = erdos_renyi(256, 0.015, seed=3, name="engine_bench_sparse_er256")
    circuit = LIFTrevisanCircuit(
        graph, config=LIFTrevisanConfig(burn_in_steps=50, sample_interval=5)
    )
    n_samples = sample_budget(64, 512)

    def run(backend):
        request = SolveRequest(
            circuit=circuit, n_trials=8, n_samples=n_samples, seed=4, backend=backend
        )
        solve(request)  # warm-up
        return _best_of(lambda: solve(request), repeats=2)

    def compare():
        dense_s, dense = run("dense")
        sparse_s, sparse = run("sparse")
        return dense_s, sparse_s, dense, sparse

    dense_s, sparse_s, dense, sparse = benchmark.pedantic(
        compare, iterations=1, rounds=1
    )
    print(
        f"\nsparse backend: dense {dense_s:.3f}s vs sparse {sparse_s:.3f}s "
        f"({dense_s / sparse_s:.2f}x) on density {graph.density():.3f}"
    )
    assert sparse.backend_name == "sparse"
    # Backends agree on the cuts (floating-point round-off does not flip signs
    # on this workload).
    assert np.array_equal(dense.trajectories, sparse.trajectories)


def test_bench_engine_smoke(bench_graph):
    """Fast non-benchmark smoke: engine runs and beats 1x trivially.

    Kept cheap (and unmarked) so ``-m "not slow"`` tier-1 runs still cover
    the engine end to end.
    """
    circuit = LIFGWCircuit(
        bench_graph,
        config=LIFGWConfig(burn_in_steps=20, sample_interval=4),
        seed=1,
    )
    request = SolveRequest(circuit=circuit, n_trials=8, n_samples=16, seed=0)
    result = solve(request)
    assert result.n_rounds == 16
    assert result.best_weight > 0
