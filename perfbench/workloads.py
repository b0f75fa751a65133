"""The benchmark's workloads, driven only through the program's public entry points.

Every workload turns the benchmark seed into its inputs; the program sees
only those inputs.  The entry points used are the ones the project keeps:
``run_figure3_graph``, ``repro.engine.solve`` with ``SolveRequest``, the
circuit constructors, and ``SolverService.submit``/``stats``.

Why these workloads:

* ``figure3`` is the paper's own end-to-end run (two SDP solves per graph,
  the sequential LIF path, LIF-TR plasticity); the batched engine does no
  work in it.
* ``engine-gw`` is the engine on a prebuilt LIF-GW circuit: integration,
  the drive product and cut evaluation dominate, plasticity does nothing
  and the SDP falls only in set-up.
* ``engine-tr`` is the engine on LIF-TR: per-trial plasticity steps
  dominate and there is no SDP.
* ``serve`` is the only workload that exercises admission, queueing,
  coalescing and the result and circuit caches.
"""

from __future__ import annotations

import functools
import hashlib
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

import harness
from repro.circuits.lif_gw import LIFGWCircuit
from repro.circuits.lif_trevisan import LIFTrevisanCircuit
from repro.cuts.cut import cut_weight, cut_weights_batch
from repro.engine import SolveRequest, solve
from repro.experiments.config import Figure3Config
from repro.experiments.figure3 import run_figure3_graph
from repro.graphs.generators import erdos_renyi
from repro.graphs.io import graph_to_dict
from repro.serve import AdmissionError, SolverService

#: Set-up runs per benchmark run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Seed of the set-up inputs that build an SDP (the figure3 warm-up graph,
#: the engine graph and circuit, the serve pool graphs).  It is the same for
#: every benchmark seed, and every set-up of a run builds the same inputs:
#: SDP convergence, and so build time, varies up to threefold between graphs,
#: so seed-drawn set-up graphs made ``setup_s`` measure which graphs a seed
#: drew, and distinct graphs per set-up left the median with the noise of a
#: single build.
SETUP_SEED = 20231

#: Longest wait for one set-up request of the serve workload.
SETUP_TIMEOUT_S = 60.0


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        h.update(str(array.dtype).encode())
        h.update(str(array.shape).encode())
        h.update(array.tobytes())
    return h.hexdigest()


def _derived_seeds(seed: int, count: int) -> List[int]:
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


@dataclass
class Window:
    """What one timed window measured (times in raw and reference seconds)."""

    latencies: List[float] = field(default_factory=list)
    busy: float = 0.0
    cuts: int = 0
    attempted: int = 0
    failed: int = 0
    quality: List[float] = field(default_factory=list)
    probes: List[float] = field(default_factory=list)
    raw_wall: float = 0.0
    raw_busy: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)
    #: Output checks that call the program again; run after the window so
    #: neither the timing nor the traced layers include them.
    deferred: List[Callable[[], bool]] = field(default_factory=list)

    def run_deferred(self) -> None:
        for check in self.deferred:
            if not check():
                self.failed += 1
        self.deferred.clear()

    @property
    def cuts_per_s(self) -> float:
        return self.cuts / self.busy if self.busy > 0 else 0.0

    @property
    def factor(self) -> float:
        """Median probe factor of the window (reference seconds per raw second)."""
        return harness.REFERENCE_PROBE_S / statistics.median(self.probes)


def run_setup(workload, repeats: int = SETUP_REPEATS
              ) -> Tuple[dict, List[float], Dict[str, List[float]]]:
    """Run the same set-up *repeats* times, each stage bracketed by probes.

    Returns the state of the last set-up, which the window uses, each
    set-up's total and each stage's times, in reference seconds.
    """
    totals: List[float] = []
    stages: Dict[str, List[float]] = {}
    state: dict = {}
    for _ in range(repeats):
        if totals:
            workload.teardown(state)
        state = {}
        total = 0.0
        before = harness.probe()
        for name, stage in workload.setup_stages():
            start = time.perf_counter()
            stage(state)
            raw = time.perf_counter() - start
            after = harness.probe()
            seconds = harness.normalise(raw, before, after)
            stages.setdefault(name, []).append(seconds)
            total += seconds
            before = after
        totals.append(total)
    return state, totals, stages


# ---------------------------------------------------------------------------
# Cycle workloads: figure3, engine-gw, engine-tr


class CycleWorkload:
    """A workload of blocking operations over a fixed cycle of inputs.

    The window runs the cycle in order, wrapping around, until ``seconds``
    have passed and at least ``tail_samples(TAIL)`` operations completed, so
    ``latency_p95_ms`` is the nearest-rank ``TAIL`` percentile on every run.
    ``cut_ratio`` comes from the first ``quality_ops`` operations, which
    every window completes, so it depends on the seed only.  An input met
    again is re-checked for bit identity with its first result; a window
    that repeated no input repeats the first one, untimed.
    """

    name = ""
    cycle: Sequence = ()
    quality_ops = 0
    TAIL: float

    def setup_stages(self) -> List[Tuple[str, Callable[[dict], None]]]:
        raise NotImplementedError

    def teardown(self, state: dict) -> None:
        pass

    def run_op(self, state: dict, arg):
        raise NotImplementedError

    def cuts(self, result) -> int:
        raise NotImplementedError

    def check(self, state: dict, arg, result) -> bool:
        raise NotImplementedError

    def quality(self, state: dict, arg, result) -> float:
        raise NotImplementedError

    def fingerprint(self, result) -> str:
        raise NotImplementedError

    def window(self, state: dict, seconds: float) -> Window:
        win = Window()
        reference: Dict[int, str] = {}
        before = harness.probe()
        win.probes.append(before)
        start = time.perf_counter()
        repeated = False
        min_ops = max(self.quality_ops, harness.tail_samples(self.TAIL))
        op = 0
        while op < min_ops or time.perf_counter() - start < seconds:
            position = op % len(self.cycle)
            arg = self.cycle[position]
            t0 = time.perf_counter()
            result = self.run_op(state, arg)
            raw = time.perf_counter() - t0
            after = harness.probe()
            win.probes.append(after)
            norm = harness.normalise(raw, before, after)
            before = after
            win.attempted += 1
            win.latencies.append(norm)
            win.busy += norm
            win.raw_busy += raw
            ok = self.check(state, arg, result)
            digest = self.fingerprint(result)
            if position in reference:
                repeated = True
                ok = ok and digest == reference[position]
            else:
                reference[position] = digest
            if op < self.quality_ops:
                win.quality.append(self.quality(state, arg, result))
            if ok:
                win.cuts += self.cuts(result)
            else:
                win.failed += 1
            op += 1
        win.raw_wall = time.perf_counter() - start
        if not repeated:
            win.attempted += 1
            win.deferred.append(lambda: self.fingerprint(
                self.run_op(state, self.cycle[0])) == reference[0])
        return win


class Figure3Workload(CycleWorkload):
    """``run_figure3_graph`` over G(n, 0.25) graphs with the default config.

    Every operation is a new graph: SDP cost varies several-fold from graph
    to graph, so a run averages over as many graphs as its window holds.
    Four of every five graphs have n=100, so the median operation sits well
    inside the n=100 cluster instead of near the gap between the two sizes
    (a 2:1 mix put it at the cluster's lower quartile and spread more).
    The set-up warms up on graph ``GRAPHS`` of the ``SETUP_SEED`` config,
    the same graph for every benchmark seed and never one a window runs.
    The tail is p70: the 34 operations it needs fit in a window on the
    reference host.
    """

    name = "figure3"
    PATTERN = (100, 100, 100, 100, 50)
    GRAPHS = 300
    PROBABILITY = 0.25
    quality_ops = 12
    TAIL = 0.70

    def __init__(self, seed: int) -> None:
        self.config = Figure3Config(seed=seed)
        self.setup_config = Figure3Config(seed=SETUP_SEED)
        index: Dict[int, int] = {}
        cycle = []
        for k in range(self.GRAPHS):
            n = self.PATTERN[k % len(self.PATTERN)]
            cycle.append((n, index.get(n, 0)))
            index[n] = index.get(n, 0) + 1
        self.cycle = cycle

    def setup_stages(self):
        def warmup(state):
            run_figure3_graph(100, self.PROBABILITY, self.GRAPHS, self.setup_config)

        return [("warmup", warmup)]

    def run_op(self, state, arg):
        n, graph_index = arg
        return run_figure3_graph(n, self.PROBABILITY, graph_index, self.config)

    def cuts(self, result) -> int:
        return 2 * self.config.n_samples

    def check(self, state, arg, result) -> bool:
        counts = np.asarray(result["sample_counts"])
        for method in ("lif_gw", "lif_tr", "solver", "random"):
            curve = np.asarray(result[method], dtype=np.float64)
            if curve.shape != counts.shape or not np.all(np.isfinite(curve)):
                return False
            if np.any(np.diff(curve) < 0):
                return False
        return True

    def quality(self, state, arg, result) -> float:
        return 0.5 * (float(result["lif_gw"][-1]) + float(result["lif_tr"][-1]))

    def fingerprint(self, result) -> str:
        return _digest(*(np.asarray(result[key]) for key in sorted(result)))


class EngineWorkload(CycleWorkload):
    """``repro.engine.solve`` on one prebuilt circuit over a cycle of seeds.

    The cycle of sampling seeds and the warm-up seed come from the benchmark
    seed.  The set-up builds its graph and circuit from ``SETUP_SEED``, the
    same for every benchmark seed, and the window solves on that circuit.
    *tail* is chosen so that the operations it needs (``tail_samples(tail)``)
    fit in half a window on the reference host, and so in a whole one on a
    host at half its speed.
    """

    CYCLE = 4
    PROBABILITY = 0.25
    quality_ops = CYCLE

    def __init__(self, name: str, circuit: str, n_vertices: int,
                 n_trials: int, n_samples: int, tail: float, seed: int) -> None:
        self.name = name
        self.TAIL = tail
        self.circuit = circuit
        self.n_vertices = n_vertices
        self.n_trials = n_trials
        self.n_samples = n_samples
        seeds = _derived_seeds(seed, self.CYCLE + 1)
        self.cycle = seeds[:self.CYCLE]
        self.warmup_seed = seeds[self.CYCLE]
        self.graph_seed, self.build_seed = _derived_seeds(SETUP_SEED, 2)

    def setup_stages(self):

        def graph(state):
            state["graph"] = erdos_renyi(
                self.n_vertices, self.PROBABILITY, seed=self.graph_seed,
                name=f"er_n{self.n_vertices}",
            )

        def build(state):
            if self.circuit == "lif_gw":
                state["circuit"] = LIFGWCircuit(state["graph"], seed=self.build_seed)
            else:
                state["circuit"] = LIFTrevisanCircuit(state["graph"])

        def warmup(state):
            self.run_op(state, self.warmup_seed)

        return [("graph", graph), ("build", build), ("warmup", warmup)]

    def run_op(self, state, seed):
        return solve(SolveRequest(
            circuit=state["circuit"], n_trials=self.n_trials,
            n_samples=self.n_samples, seed=seed,
        ))

    def cuts(self, result) -> int:
        return result.n_trials * result.n_rounds

    def check(self, state, arg, result) -> bool:
        graph = state["graph"]
        if result.n_trials != self.n_trials or result.n_rounds != self.n_samples:
            return False
        if cut_weight(graph, result.best_cut.assignment) != result.best_weight:
            return False
        recomputed = cut_weights_batch(graph, result.trial_best_assignments)
        return bool(np.array_equal(recomputed, result.trial_best_weights))

    def quality(self, state, arg, result) -> float:
        return float(np.mean(result.trial_best_weights)) / state["graph"].total_weight

    def fingerprint(self, result) -> str:
        return _digest(
            result.trial_best_weights, result.trial_best_assignments,
            result.trajectories,
        )


# ---------------------------------------------------------------------------
# serve


@dataclass(frozen=True)
class ServeRequest:
    """One generated request: what the service receives and how to check it."""

    index: int
    kind: str  # "pool", "repeat" or "novel"
    graph_id: str
    circuit: str
    seed: int
    graph: object = field(compare=False, repr=False)
    payload: dict = field(compare=False, repr=False)


class ServeTraffic:
    """The serve traffic of one seed: a pool of graphs and a request stream.

    The stream comes in blocks of ``BLOCK`` requests, shuffled within the
    block, so every window sees the same mix.  Per block, ``REPEATS``
    requests re-send an earlier request at least ``REPEAT_DISTANCE``
    positions back (already answered under the closed loop, so a
    result-cache hit), ``NOVEL`` carry a never-seen graph on ``lif_gw``,
    which forces an SDP build on the scheduler thread, and the rest
    alternate ``lif_gw``/``lif_tr`` on one of the pool graphs with a fresh
    sampling seed.  The pool graphs, whose circuits the set-up builds, come
    from ``SETUP_SEED``; the stream and its novel graphs come from *seed*.
    """

    CIRCUITS = ("lif_gw", "lif_tr")
    POOL_SIZE = 6
    N_VERTICES = 60
    PROBABILITY = 0.25
    N_TRIALS = 4
    N_SAMPLES = 64
    BLOCK = 20
    REPEATS = 2
    NOVEL = 1
    REPEAT_DISTANCE = 16

    def __init__(self, seed: int) -> None:
        self._rng = np.random.default_rng(seed)
        self.graphs: Dict[str, object] = {}
        self._dicts: Dict[str, dict] = {}
        pool_rng = np.random.default_rng(SETUP_SEED)
        self.pool = [self._add_graph(f"pool{k}", pool_rng) for k in range(self.POOL_SIZE)]

    def _add_graph(self, graph_id: str, rng: np.random.Generator) -> str:
        graph = erdos_renyi(self.N_VERTICES, self.PROBABILITY,
                            seed=int(rng.integers(2**31 - 1)), name=graph_id)
        self.graphs[graph_id] = graph
        self._dicts[graph_id] = graph_to_dict(graph)
        return graph_id

    def payload(self, graph_id: str, circuit: str, seed: int) -> dict:
        """The request body the service receives (its JSON wire format)."""
        return {
            "graph": self._dicts[graph_id], "circuit": circuit,
            "trials": self.N_TRIALS, "samples": self.N_SAMPLES, "seed": seed,
        }

    def requests(self) -> Iterator[ServeRequest]:
        """The endless, deterministic request stream (call once per traffic)."""
        rng = self._rng
        block = (["repeat"] * self.REPEATS + ["novel"] * self.NOVEL
                 + ["pool"] * (self.BLOCK - self.REPEATS - self.NOVEL))
        history: List[ServeRequest] = []
        kinds: List[str] = []
        pool_count = 0
        index = 0
        while True:
            if not kinds:
                kinds = [block[k] for k in rng.permutation(self.BLOCK)]
            kind = kinds.pop()
            if kind == "repeat" and index >= self.REPEAT_DISTANCE:
                source = history[int(rng.integers(index - self.REPEAT_DISTANCE + 1))]
                graph_id, circuit, sample_seed = (
                    source.graph_id, source.circuit, source.seed)
            elif kind == "novel":
                graph_id = self._add_graph(f"novel{index}", rng)
                circuit = "lif_gw"
                sample_seed = int(rng.integers(2**31 - 1))
            else:
                kind = "pool"
                graph_id = self.pool[int(rng.integers(len(self.pool)))]
                circuit = self.CIRCUITS[pool_count % 2]
                pool_count += 1
                sample_seed = int(rng.integers(2**31 - 1))
            request = ServeRequest(
                index, kind, graph_id, circuit, sample_seed,
                self.graphs[graph_id], self.payload(graph_id, circuit, sample_seed),
            )
            history.append(request)
            index += 1
            yield request


def _answer(job) -> dict:
    """Wait for a set-up request's response; fail loudly if it errs or hangs."""
    response = job.wait(SETUP_TIMEOUT_S)
    if response is None or response.get("status") != "ok":
        raise RuntimeError(f"set-up request failed: {response!r}")
    return response


@dataclass
class Outcome:
    request: ServeRequest
    latency: float
    admit: float
    response: Optional[dict] = None
    error: Optional[str] = None


class ServeWorkload:
    """An in-process ``SolverService`` under a closed loop of 8 clients.

    One generator thread (this one) keeps the requests in flight with
    ``submit`` and polling, beside the service's single scheduler thread.
    The window runs in segments of ``SEGMENT`` requests; each segment drains
    before the next starts, so the probe between segments runs while the
    program is idle.  It answers at least ``tail_samples(TAIL)`` requests,
    so ``latency_p95_ms`` is a true p95 with ten samples beyond it.
    """

    name = "serve"
    CLIENTS = 8
    SEGMENT = 16
    TAIL = 0.95
    QUALITY_PREFIX = 48
    IDENTITY_CHECKS = 8
    POLL_S = 0.001

    def __init__(self, seed: int) -> None:
        self.fill_seed, self.warmup_seed, self.traffic_seed = _derived_seeds(seed, 3)

    def setup_stages(self):
        def inputs(state):
            state["traffic"] = ServeTraffic(self.traffic_seed)
            state["requests"] = state["traffic"].requests()

        def start(state):
            state["service"] = SolverService()

        def fill(state):
            # One request per pool graph and circuit builds every circuit the
            # pool traffic uses (the LIF-GW SDPs) into the circuit cache.
            traffic = state["traffic"]
            seeds = iter(_derived_seeds(self.fill_seed, 2 * len(traffic.pool)))
            jobs = [
                state["service"].submit(traffic.payload(graph_id, circuit, next(seeds)))
                for graph_id in traffic.pool for circuit in traffic.CIRCUITS
            ]
            for job in jobs:
                _answer(job)

        def warmup(state):
            traffic = state["traffic"]
            payload = traffic.payload(traffic.pool[0], "lif_gw", self.warmup_seed)
            _answer(state["service"].submit(payload))

        return [("inputs", inputs), ("start", start), ("fill", fill), ("warmup", warmup)]

    def teardown(self, state: dict) -> None:
        service = state.get("service")
        if service is not None:
            service.shutdown(drain=True)

    def _segment(self, state: dict, count: int) -> List[Outcome]:
        service = state["service"]
        requests = state["requests"]
        inflight: List[Tuple[ServeRequest, object, float, float]] = []
        outcomes: List[Outcome] = []
        issued = 0
        while issued < count or inflight:
            while issued < count and len(inflight) < self.CLIENTS:
                request = next(requests)
                issued += 1
                t0 = time.perf_counter()
                try:
                    job = service.submit(request.payload)
                except AdmissionError as exc:
                    now = time.perf_counter()
                    outcomes.append(Outcome(request, now - t0, now - t0, error=exc.reason))
                    continue
                inflight.append((request, job, t0, time.perf_counter() - t0))
            pending = []
            for request, job, t0, admit in inflight:
                if job.done:
                    outcomes.append(Outcome(request, time.perf_counter() - t0, admit,
                                            response=job.response))
                else:
                    pending.append((request, job, t0, admit))
            if len(pending) == len(inflight):
                time.sleep(self.POLL_S)
            inflight = pending
        return outcomes

    def _check(self, outcome: Outcome) -> bool:
        response = outcome.response
        if outcome.error is not None or response is None or response.get("status") != "ok":
            return False
        if (response["n_trials"] != ServeTraffic.N_TRIALS
                or response["n_rounds"] != ServeTraffic.N_SAMPLES):
            return False
        graph = outcome.request.graph
        assignment = np.asarray(response["assignment"], dtype=np.int8)
        if cut_weight(graph, assignment) != response["best_weight"]:
            return False
        return max(response["trial_best_weights"]) == response["best_weight"]

    def _identical_to_direct(self, outcome: Outcome) -> bool:
        request, response = outcome.request, outcome.response
        if request.circuit == "lif_gw":
            circuit = LIFGWCircuit(request.graph, seed=0)  # the default setup_seed
        else:
            circuit = LIFTrevisanCircuit(request.graph)
        direct = solve(SolveRequest(circuit=circuit, n_trials=ServeTraffic.N_TRIALS,
                                    n_samples=ServeTraffic.N_SAMPLES, seed=request.seed))
        return (
            direct.best_weight == response["best_weight"]
            and [float(w) for w in direct.trial_best_weights] == response["trial_best_weights"]
            and np.asarray(direct.best_cut.assignment).astype(int).tolist()
            == response["assignment"]
        )

    def window(self, state: dict, seconds: float) -> Window:
        win = Window()
        min_ops = harness.tail_samples(self.TAIL)
        service = state["service"]
        stats_before = service.stats()
        outcomes: List[Tuple[Outcome, float]] = []
        before = harness.probe()
        win.probes.append(before)
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            segment = self._segment(state, self.SEGMENT)
            raw = time.perf_counter() - t0
            after = harness.probe()
            win.probes.append(after)
            factor = harness.normalise(1.0, before, after)
            before = after
            win.busy += raw * factor
            win.raw_busy += raw
            outcomes.extend((outcome, factor) for outcome in segment)
            if time.perf_counter() - start >= seconds and len(outcomes) >= min_ops:
                break
        win.raw_wall = time.perf_counter() - start
        stats_after = service.stats()

        ok_outcomes = []
        for outcome, factor in outcomes:
            win.attempted += 1
            win.latencies.append(outcome.latency * factor)
            if self._check(outcome):
                ok_outcomes.append((outcome, factor))
                win.cuts += ServeTraffic.N_TRIALS * ServeTraffic.N_SAMPLES
            else:
                win.failed += 1
        first = min(outcome.request.index for outcome, _ in outcomes)
        prefix = [o for o, _ in ok_outcomes if o.request.index < first + self.QUALITY_PREFIX]
        win.quality = [
            float(np.mean(o.response["trial_best_weights"])) / o.request.graph.total_weight
            for o in sorted(prefix, key=lambda o: o.request.index)
        ]
        # Bit identity with a direct engine solve, for a few answers of each
        # circuit, checked after the timed window.
        chosen: Dict[str, int] = {"lif_gw": 0, "lif_tr": 0}
        for outcome, _ in sorted(ok_outcomes, key=lambda pair: pair[0].request.index):
            circuit = outcome.request.circuit
            if chosen[circuit] < self.IDENTITY_CHECKS // 2:
                chosen[circuit] += 1
                win.deferred.append(functools.partial(self._identical_to_direct, outcome))

        served = [(o, f) for o, f in ok_outcomes if not o.response.get("cached")]
        solve_times = [o.response["elapsed_seconds"] * f for o, f in served]
        waits = [(o.latency - o.response["elapsed_seconds"]) * f for o, f in served]
        admits = [o.admit * f for o, f in outcomes]
        win.extra = _serve_extra(stats_before, stats_after, service.config.max_batch_trials)
        win.extra["serve.requests"] = float(len(outcomes))
        win.extra["serve.admit_ms"] = 1000.0 * statistics.fmean(admits)
        if waits:
            win.extra["serve.queue_wait_ms_p50"] = 1000.0 * harness.nearest_rank(waits, 0.50)
            win.extra["serve.queue_wait_ms_p95"] = 1000.0 * harness.nearest_rank(waits, 0.95)
            win.extra["serve.solve_ms_p50"] = 1000.0 * harness.nearest_rank(solve_times, 0.50)
        return win


def _serve_extra(before: dict, after: dict, max_batch_trials: int) -> Dict[str, float]:
    """Service counters over the window, from two ``stats()`` snapshots."""

    def delta(*path) -> float:
        a, b = before, after
        for key in path:
            a, b = a[key], b[key]
        return float(b) - float(a)

    def hit_rate(cache: str) -> float:
        hits = delta("caches", cache, "hits")
        total = hits + delta("caches", cache, "misses")
        return hits / total if total else 0.0

    invocations = delta("engine", "invocations")
    jobs = delta("engine", "jobs")
    trials = delta("engine", "trials")
    rejected = sum(after["rejected"].values()) - sum(before["rejected"].values())
    return {
        "serve.coalesce_ratio": jobs / invocations if invocations else 0.0,
        "serve.batch_occupancy": (
            trials / (invocations * max_batch_trials) if invocations else 0.0),
        "serve.invocations": invocations,
        "serve.result_hit_rate": hit_rate("results"),
        "serve.circuit_hit_rate": hit_rate("circuits"),
        "serve.rejected": float(rejected),
        "serve.timed_out": delta("timed_out"),
    }


def make(name: str, seed: int):
    """The workload called *name*, with its inputs drawn from *seed*."""
    if name == "figure3":
        return Figure3Workload(seed)
    if name == "engine-gw":
        return EngineWorkload("engine-gw", "lif_gw", 300, 32, 64, 0.90, seed)
    if name == "engine-tr":
        return EngineWorkload("engine-tr", "lif_tr", 100, 16, 64, 0.80, seed)
    if name == "serve":
        return ServeWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("figure3", "engine-gw", "engine-tr", "serve")
