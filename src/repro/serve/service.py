"""The solve service: admission, cross-request batching, result caching.

:class:`SolverService` is the transport-independent heart of ``repro serve``
(the HTTP/Unix-socket layer in :mod:`repro.serve.http` is a thin shell over
it).  A request's life:

1. **Admission** (caller's thread).  The payload is parsed
   (:mod:`repro.serve.protocol`), problem requests are compiled to MAXCUT
   through a content-addressed compile cache (certificate verified once per
   distinct instance), and the admission policy is enforced: queue depth
   bound, per-request trial budget, instance size cap, drain state.
   Violations raise :class:`AdmissionError` with a machine-readable reason.
2. **Result cache.**  A content key over (graph fingerprint, circuit,
   backend, seeds, batch geometry) indexes previously served responses —
   an identical re-ask is answered immediately without touching the queue.
3. **Batching** (worker thread).  The scheduler pops the oldest queued job
   and every other queued job sharing its *fuse* shape — same circuit,
   backend, sample count and vertex count — up to ``max_batch_trials``
   trials, and hands the batch to one
   :func:`repro.engine.solve_instance_block` call, one request per job.
   Jobs sharing the finer *shape* — (graph fingerprint, circuit, backend,
   setup seed, sample count) — form a *lane*: they share one circuit
   instance and run as one segment of rows; lanes on different graphs
   share the engine run when their engine plans agree exactly, and run
   separately when they do not.  Each request keeps its own per-trial
   seeds, so the responses are bit-identical to standalone engine runs
   with the same seed (deadline requests run solo: wall-clock truncation is
   the one thing batch-mates could perturb).  If building a batch's
   circuits or solving it raises, every job is retried once on its own, so
   one bad job cannot fail its batch-mates.
4. **Response.**  Per-request results are shaped into JSON-safe payloads
   (problem requests additionally lift the best assignment back to a native
   solution with its certificate constants), stored in the result cache,
   and handed to the waiting caller.

Metrics for every stage (queue depth, batch occupancy, coalesce ratio,
cache hit rates, latency percentiles) are served by :meth:`SolverService.stats`
— the ``/stats`` endpoint.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.engine import SolveRequest, SolveResult, solve_instance_block
from repro.engine.backends import check_backend
from repro.obs.metrics import MetricsRegistry, nearest_rank_percentile
from repro.obs.trace import span
from repro.serve.cache import ContentAddressedCache, content_key
from repro.serve.protocol import (
    AUTO_CIRCUIT,
    SolveSpec,
    error_payload,
    parse_solve_payload,
)
from repro.utils.logging import get_logger
from repro.utils.validation import ValidationError

__all__ = ["AdmissionError", "ServiceConfig", "ServeJob", "SolverService"]

_logger = get_logger("serve")


class AdmissionError(ValidationError):
    """A request refused at the door, with a machine-readable *reason*.

    Reasons: ``"queue_full"``, ``"budget"``, ``"too_large"``, ``"draining"``,
    ``"bad_backend"``.
    The HTTP layer maps these onto status codes (429 for ``queue_full``,
    503 for ``draining``, 400 otherwise).
    """

    def __init__(self, reason: str, message: str) -> None:
        super().__init__(message)
        self.reason = reason


@dataclass(frozen=True)
class ServiceConfig:
    """Admission policy and batching/caching knobs of a :class:`SolverService`.

    Attributes
    ----------
    max_queue_depth:
        Jobs allowed to wait; submissions beyond it are rejected
        (``queue_full``) so clients back off instead of piling on.
    max_batch_trials:
        Trial-axis ceiling of one coalesced engine batch.  A single job may
        exceed it (it then rides alone); coalescing never does.
    max_trials_per_request:
        Per-request trial budget cap (``budget`` rejection above it).
    max_request_vertices:
        Instance size cap, checked on the graph actually solved (the
        *compiled* graph for problem requests).
    default_timeout_seconds:
        Admission deadline applied when a request carries no
        ``timeout_seconds``: a job still queued past it is answered with a
        timeout error instead of taking a batch slot.
    circuit_cache_entries / compile_cache_entries / result_cache_entries:
        Bounds of the three content-addressed caches (built circuits —
        including the LIF-GW SDP stage — compiled problems, and served
        responses).
    latency_window:
        Completed-request latencies kept for the p50/p95 stats.
    portfolio_model:
        Optional path to a persisted :class:`repro.portfolio.priors.PortfolioModel`
        used to route ``"solver": "auto"`` requests (loaded lazily on the
        first auto request).  Without one, auto requests use the
        deterministic cold heuristic of
        :func:`repro.portfolio.solver.route_circuit`.
    """

    max_queue_depth: int = 64
    max_batch_trials: int = 64
    max_trials_per_request: int = 256
    max_request_vertices: int = 4096
    default_timeout_seconds: float = 60.0
    circuit_cache_entries: int = 16
    compile_cache_entries: int = 32
    result_cache_entries: int = 256
    latency_window: int = 512
    portfolio_model: Optional[str] = None

    def __post_init__(self) -> None:
        for name in (
            "max_queue_depth", "max_batch_trials", "max_trials_per_request",
            "max_request_vertices", "circuit_cache_entries",
            "compile_cache_entries", "result_cache_entries", "latency_window",
        ):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValidationError(f"{name} must be a positive integer, got {value!r}")
        if not self.default_timeout_seconds > 0:
            raise ValidationError(
                f"default_timeout_seconds must be positive, "
                f"got {self.default_timeout_seconds!r}"
            )


class ServeJob:
    """One admitted request: its spec, resolution state, and completion event."""

    __slots__ = (
        "job_id", "spec", "graph", "problem", "lifter", "certificate",
        "shape_key", "fuse_key", "result_key", "submitted_at",
        "admission_deadline", "_event", "response", "routed",
    )

    def __init__(
        self,
        job_id: str,
        spec: SolveSpec,
        graph,
        problem,
        lifter,
        certificate,
        admission_deadline: float,
        routed: bool = False,
    ) -> None:
        self.job_id = job_id
        self.spec = spec
        # True when an "auto" request had its circuit resolved by the
        # portfolio router at admission; keys below use the resolved
        # circuit, so routed jobs coalesce/cache exactly like direct ones.
        self.routed = routed
        self.graph = graph
        self.problem = problem
        self.lifter = lifter
        self.certificate = certificate
        self.submitted_at = time.perf_counter()
        self.admission_deadline = admission_deadline
        self._event = threading.Event()
        self.response: Optional[dict] = None
        # Coalescing shape: jobs sharing this key run as one engine batch.
        # Deadline jobs get a unique shape (their wall-clock truncation must
        # not bleed into batch-mates), enforced via coalescable below.
        self.shape_key = content_key(
            "shape", graph.fingerprint(), spec.circuit, spec.backend,
            spec.setup_seed, spec.n_samples,
        )
        # Fusion shape: jobs sharing this key but *differing* in shape_key
        # may still ride one batch as separate lanes, which
        # repro.engine.solve_instance_block runs as segments of one group.
        # The key is a cheap pre-filter (same circuit/backend/sample-count/
        # vertex-count); the engine's exact shape comparison is the safety
        # net and runs lanes whose plans differ separately.
        self.fuse_key = content_key(
            "fuse", spec.circuit, spec.backend, spec.n_samples,
            graph.n_vertices,
        )
        self.result_key = content_key(
            "result", graph.fingerprint(), spec.circuit, spec.backend,
            spec.setup_seed, spec.n_samples, spec.n_trials, spec.seed,
            spec.deadline_seconds,
        )

    @property
    def coalescable(self) -> bool:
        return self.spec.deadline_seconds is None

    def expired(self, now: float) -> bool:
        return now >= self.admission_deadline

    @property
    def done(self) -> bool:
        return self._event.is_set()

    def complete(self, response: dict) -> None:
        self.response = response
        self._event.set()

    def wait(self, timeout: Optional[float] = None) -> Optional[dict]:
        """Block until the response is ready; ``None`` on wait timeout."""
        if not self._event.wait(timeout):
            return None
        return self.response


class SolverService:
    """Asynchronous solve queue with cross-request batching (module docstring).

    Parameters
    ----------
    config:
        Admission/batching policy; defaults to :class:`ServiceConfig`.
    autostart:
        Start the batching worker immediately.  Pass ``False`` to stage jobs
        first and :meth:`start` later — with the worker parked, every
        compatible submission is guaranteed to land in the same batch, which
        is what the coalescing tests and the bench scenario rely on.
    """

    def __init__(self, config: Optional[ServiceConfig] = None, autostart: bool = True) -> None:
        self.config = config or ServiceConfig()
        self._condition = threading.Condition()
        self._queue: deque = deque()
        self._thread: Optional[threading.Thread] = None
        self._stopping = False
        self._drain = True
        self._draining = False
        self._job_counter = 0
        self._circuits = ContentAddressedCache(
            max_entries=self.config.circuit_cache_entries, name="circuits"
        )
        self._compiles = ContentAddressedCache(
            max_entries=self.config.compile_cache_entries, name="compiles"
        )
        self._results = ContentAddressedCache(
            max_entries=self.config.result_cache_entries, name="results"
        )
        # Every counter lives on a per-service obs registry (one registry
        # per service keeps tests isolated); self.registry.lock replaces the
        # old hand-rolled _metrics_lock, and multi-metric updates hold it so
        # a concurrent stats()/snapshot() never observes them half-applied.
        # Lock ordering: _condition (when needed) strictly outside
        # registry.lock, never the reverse.
        self.registry = MetricsRegistry()
        reg = self.registry
        self._m_admitted = reg.counter(
            "repro_serve_admitted_total", "Requests admitted (cached or queued)")
        self._m_completed = reg.counter(
            "repro_serve_completed_total", "Requests answered with a result")
        self._m_timed_out = reg.counter(
            "repro_serve_timed_out_total", "Requests expired in the queue")
        self._m_routed = reg.counter(
            "repro_serve_routed_total", "Auto requests resolved by the portfolio router")
        self._m_rejected = reg.counter(
            "repro_serve_rejected_total", "Requests refused at admission, by reason")
        self._m_engine_invocations = reg.counter(
            "repro_serve_engine_invocations_total", "Engine kernel invocations")
        self._m_engine_jobs = reg.counter(
            "repro_serve_engine_jobs_total", "Jobs solved through the engine")
        self._m_engine_trials = reg.counter(
            "repro_serve_engine_trials_total", "Trials solved through the engine")
        self._m_coalesced_jobs = reg.counter(
            "repro_serve_coalesced_jobs_total", "Jobs that shared a batch with others")
        self._m_fused_invocations = reg.counter(
            "repro_serve_fused_invocations_total", "Batches run as one fused instance block")
        self._m_fused_lanes = reg.counter(
            "repro_serve_fused_lanes_total", "Instance lanes stacked into fused batches")
        self._m_latency = reg.histogram(
            "repro_serve_request_latency_seconds",
            "Admission-to-response latency of completed requests",
            window=self.config.latency_window,
        )
        # len() on a deque is safe without the condition; a gauge read is a
        # point-in-time sample anyway (callbacks run outside registry.lock).
        reg.gauge(
            "repro_serve_queue_depth", "Jobs waiting for a batch slot"
        ).set_function(lambda: float(len(self._queue)))
        cache_hit_rate = reg.gauge(
            "repro_serve_cache_hit_rate", "Hit rate per content-addressed cache")
        cache_entries = reg.gauge(
            "repro_serve_cache_entries", "Current entries per content-addressed cache")
        cache_hits = reg.gauge(
            "repro_serve_cache_hits", "Lifetime hits per content-addressed cache")
        cache_misses = reg.gauge(
            "repro_serve_cache_misses", "Lifetime misses per content-addressed cache")
        for cache in (self._results, self._circuits, self._compiles):
            stats_of = cache.stats
            cache_hit_rate.set_function(
                lambda s=stats_of: float(s()["hit_rate"]), cache=cache.name)
            cache_entries.set_function(
                lambda s=stats_of: float(s()["size"]), cache=cache.name)
            cache_hits.set_function(
                lambda s=stats_of: float(s()["hits"]), cache=cache.name)
            cache_misses.set_function(
                lambda s=stats_of: float(s()["misses"]), cache=cache.name)
        self._portfolio_model: Any = None
        self._portfolio_loaded = False
        if autostart:
            self.start()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Start the batching worker (idempotent)."""
        with self._condition:
            if self._thread is not None or self._stopping:
                return
            self._thread = threading.Thread(
                target=self._worker_loop, name="serve-worker", daemon=True
            )
            self._thread.start()

    @property
    def draining(self) -> bool:
        return self._draining

    def shutdown(self, drain: bool = True, timeout: Optional[float] = 30.0) -> None:
        """Stop the service: refuse new admissions, then stop the worker.

        With ``drain=True`` (the SIGTERM path) the worker finishes every
        queued job first; with ``drain=False`` queued jobs are answered with
        a shutdown error immediately.
        """
        with self._condition:
            self._draining = True
            self._stopping = True
            self._drain = drain
            thread = self._thread
            if thread is None:
                # No worker was ever started; nothing will drain the queue.
                orphans = list(self._queue)
                self._queue.clear()
            else:
                orphans = []
            self._condition.notify_all()
        for job in orphans:
            self._fail(job, "shutdown", "service stopped before the request ran")
        if thread is not None:
            thread.join(timeout)

    def __enter__(self) -> "SolverService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown(drain=True)

    # -- admission ---------------------------------------------------------

    def submit(self, payload: Any) -> ServeJob:
        """Admit one request; returns the job to :meth:`ServeJob.wait` on.

        *payload* is a request JSON object (or an already-parsed
        :class:`SolveSpec`).  Raises :class:`AdmissionError` on policy
        rejection and :class:`ValidationError` on a malformed payload.
        """
        with span("serve.admit"):
            return self._submit(payload)

    def _submit(self, payload: Any) -> ServeJob:
        spec = payload if isinstance(payload, SolveSpec) else parse_solve_payload(payload)
        problem = lifter = certificate = None
        if spec.problem is not None:
            problem = spec.problem
            graph, lifter, certificate = self._compile(spec)
        else:
            graph = spec.graph
        routed = False
        if spec.circuit == AUTO_CIRCUIT:
            # Resolve "auto" before the job (and its shape/result keys)
            # exists: downstream, a routed request is indistinguishable from
            # one that named the chosen circuit — identical coalescing,
            # caching, and bit-identical answers.
            spec = replace(spec, circuit=self._route(graph))
            routed = True
            self._m_routed.inc()
        if self._draining:
            self._count_rejection("draining")
            raise AdmissionError("draining", "service is draining; not accepting requests")
        try:
            # Reject unknown backends at the door with a machine-readable
            # reason, so they never take a queue slot only to fail in the
            # worker.
            check_backend(spec.backend)
        except ValidationError as exc:
            self._count_rejection("bad_backend")
            raise AdmissionError("bad_backend", str(exc)) from exc
        if spec.n_trials > self.config.max_trials_per_request:
            self._count_rejection("budget")
            raise AdmissionError(
                "budget",
                f"trials {spec.n_trials} exceeds the per-request cap "
                f"{self.config.max_trials_per_request}",
            )
        if graph.n_vertices > self.config.max_request_vertices:
            self._count_rejection("too_large")
            raise AdmissionError(
                "too_large",
                f"instance has {graph.n_vertices} vertices; the service caps "
                f"requests at {self.config.max_request_vertices}",
            )
        timeout = spec.timeout_seconds or self.config.default_timeout_seconds
        with self._condition:
            self._job_counter += 1
            job_id = f"job-{self._job_counter}"
        job = ServeJob(
            job_id, spec, graph, problem, lifter, certificate,
            admission_deadline=time.perf_counter() + timeout,
            routed=routed,
        )
        cached = self._results.get(job.result_key)
        if cached is not None:
            response = dict(cached)
            response["job_id"] = job.job_id
            response["cached"] = True
            response["routed"] = job.routed
            response["wait_seconds"] = 0.0
            job.complete(response)
            with self.registry.lock:
                self._m_admitted.inc()
                self._m_completed.inc()
                self._m_latency.observe(0.0)
            return job
        with self._condition:
            if self._draining:
                self._count_rejection("draining")
                raise AdmissionError(
                    "draining", "service is draining; not accepting requests"
                )
            if len(self._queue) >= self.config.max_queue_depth:
                self._count_rejection("queue_full")
                raise AdmissionError(
                    "queue_full",
                    f"queue depth {len(self._queue)} is at the admission "
                    f"limit {self.config.max_queue_depth}",
                )
            self._queue.append(job)
            # Counted while still holding the condition: the old code
            # admitted after releasing it, so a concurrent stats() could see
            # the job queued but not yet admitted (queue_depth > admitted).
            self._m_admitted.inc()
            self._condition.notify_all()
        return job

    def solve(self, payload: Any, timeout: Optional[float] = None) -> dict:
        """Submit and wait: the one-call convenience used by tests/examples."""
        job = self.submit(payload)
        response = job.wait(timeout)
        if response is None:
            return error_payload("timeout", "timed out waiting for the response")
        return response

    def _compile(self, spec: SolveSpec) -> Tuple[Any, Any, Any]:
        from repro.problems import compile_to_maxcut
        from repro.problems.base import verify_certificate

        key = content_key("compile", spec.problem.fingerprint(), spec.setup_seed)

        def build():
            # The span sits inside the cache's get_or_build, so a trace
            # shows only true compiles — cache hits cost no compile span.
            with span("serve.compile", kind=spec.problem.kind):
                graph, lifter = compile_to_maxcut(
                    spec.problem, verify=False, seed=spec.setup_seed
                )
                # Certify once per distinct instance — the certificate rides
                # the cache with the compiled graph, so responses can claim
                # it without paying the probes per request.
                certificate = verify_certificate(
                    spec.problem, graph, lifter, seed=spec.setup_seed
                )
                return graph, lifter, certificate

        return self._compiles.get_or_build(key, build)

    def _route(self, graph) -> str:
        """Resolve an ``"auto"`` request to a concrete engine circuit."""
        from repro.portfolio.solver import route_circuit

        if not self._portfolio_loaded:
            # Benign under concurrent admission: two threads may both load
            # the model; both land on the same object semantics.
            if self.config.portfolio_model is not None:
                from repro.portfolio.priors import load_model

                self._portfolio_model = load_model(self.config.portfolio_model)
            self._portfolio_loaded = True
        return route_circuit(graph, model=self._portfolio_model)

    def _count_rejection(self, reason: str) -> None:
        self._m_rejected.inc(reason=reason)

    # -- batching worker ---------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            rejected: List[ServeJob] = []
            expired: List[ServeJob] = []
            batch: List[ServeJob] = []
            stop = False
            with self._condition:
                while not self._queue and not self._stopping:
                    self._condition.wait(0.05)
                if self._stopping and not self._drain:
                    rejected = list(self._queue)
                    self._queue.clear()
                    stop = True
                elif not self._queue:
                    stop = True  # stopping with the queue drained
                else:
                    expired, batch = self._pop_batch_locked(time.perf_counter())
            for job in rejected:
                self._fail(job, "shutdown", "service stopped before the request ran")
            for job in expired:
                self._expire(job)
            if batch:
                try:
                    self._run_batch(batch)
                except Exception as exc:  # noqa: BLE001 - served as a response
                    _logger.exception("batch failed: %s", exc)
                    for job in batch:
                        if not job.done:
                            self._fail(job, "internal", f"solve failed: {exc}")
            if stop:
                return

    def _pop_batch_locked(
        self, now: float
    ) -> Tuple[List[ServeJob], List[ServeJob]]:
        """Pop the oldest job plus every queued fusable job that fits.

        Same-``shape_key`` mates join the head's lane; jobs that merely
        share the head's ``fuse_key`` (same circuit family and geometry on
        *different* graphs) join as additional lanes.  ``max_batch_trials``
        caps the combined trial count across all lanes.
        """
        expired: List[ServeJob] = []
        while self._queue and self._queue[0].expired(now):
            expired.append(self._queue.popleft())
        if not self._queue:
            return expired, []
        head = self._queue.popleft()
        batch = [head]
        trials = head.spec.n_trials
        keep: deque = deque()
        while self._queue:
            job = self._queue.popleft()
            if job.expired(now):
                expired.append(job)
            elif (
                head.coalescable
                and job.coalescable
                and job.fuse_key == head.fuse_key
                and trials + job.spec.n_trials <= self.config.max_batch_trials
            ):
                batch.append(job)
                trials += job.spec.n_trials
            else:
                keep.append(job)
        self._queue = keep
        return expired, batch

    def _circuit_for(self, job: ServeJob):
        spec = job.spec
        key = content_key(
            "circuit", job.graph.fingerprint(), spec.circuit, spec.setup_seed
        )

        def build():
            if spec.circuit == "lif_gw":
                from repro.circuits.lif_gw import LIFGWCircuit

                # The SDP solve is the expensive offline stage; seeding it
                # from setup_seed (not the sampling seed) is what lets
                # different-seed requests share one cached circuit.
                return LIFGWCircuit(job.graph, seed=spec.setup_seed)
            from repro.circuits.lif_trevisan import LIFTrevisanCircuit

            return LIFTrevisanCircuit(job.graph)

        return self._circuits.get_or_build(key, build)

    def _run_batch(self, batch: List[ServeJob]) -> None:
        with span("serve.batch", batch_jobs=len(batch)) as batch_span:
            try:
                results = self._solve_batch(batch, batch_span)
            except Exception as exc:  # noqa: BLE001 - retried, then served
                if len(batch) == 1:
                    raise
                _logger.warning(
                    "batch of %d jobs failed (%s); retrying each job alone",
                    len(batch), exc,
                )
                batch_span.set(retried=True)
            else:
                self._respond(batch, results)
                return
        # Failure isolation: one job's circuit or solve must not fail its
        # batch-mates, so each job gets one solo run and only jobs that fail
        # alone too are answered with an error.
        for job in batch:
            try:
                self._run_batch([job])
            except Exception as exc:  # noqa: BLE001 - served as a response
                _logger.exception("job %s failed: %s", job.job_id, exc)
                self._fail(job, "internal", f"solve failed: {exc}")

    def _solve_batch(self, batch: List[ServeJob], batch_span) -> List[SolveResult]:
        """One request per job, lanes kept consecutive, in one engine call.

        Reorders *batch* in place so each lane's jobs are adjacent: they
        share one circuit instance, which makes them one segment of rows.
        """
        lane_order: Dict[str, int] = {}
        for job in batch:
            lane_order.setdefault(job.shape_key, len(lane_order))
        batch.sort(key=lambda job: lane_order[job.shape_key])
        circuits: Dict[str, Any] = {}
        requests = []
        for job in batch:
            if job.shape_key not in circuits:
                circuits[job.shape_key] = self._circuit_for(job)
            requests.append(SolveRequest(
                circuit=circuits[job.shape_key],
                n_trials=job.spec.n_trials,
                n_samples=job.spec.n_samples,
                seed=job.spec.seed,
                backend=job.spec.backend,
                deadline_seconds=job.spec.deadline_seconds,
            ))
        with span("serve.solve", lanes=len(circuits)):
            results = solve_instance_block(requests)
        batch_span.set(lanes=len(circuits), fused=any(
            (r.metadata.get("instance_block") or {}).get("segments", 1) > 1
            for r in results
        ))
        return results

    def _respond(self, batch: List[ServeJob], results: List[SolveResult]) -> None:
        # One engine run per group: a result without instance_block metadata
        # ran alone, and index 0 opens every shared group.
        blocks = [r.metadata.get("instance_block") for r in results]
        runs = [block for block in blocks if block is None or block["index"] == 0]
        fused = [block["segments"] for block in runs if block and block["segments"] > 1]
        now = time.perf_counter()
        with self.registry.lock:
            # All counters move under one registry lock hold so stats() sees
            # them together.
            self._m_engine_invocations.inc(len(runs))
            self._m_engine_jobs.inc(len(batch))
            self._m_engine_trials.inc(sum(r.n_trials for r in results))
            if len(batch) > 1:
                self._m_coalesced_jobs.inc(len(batch))
            if fused:
                self._m_fused_invocations.inc(len(fused))
                self._m_fused_lanes.inc(sum(fused))
            self._m_completed.inc(len(batch))
            for job in batch:
                self._m_latency.observe(now - job.submitted_at)
        for job, result in zip(batch, results):
            response = self._shape_response(job, result, batch_jobs=len(batch))
            self._results.put(job.result_key, response)
            final = dict(response)
            final["routed"] = job.routed
            final["wait_seconds"] = float(now - job.submitted_at)
            job.complete(final)

    def _shape_response(
        self, job: ServeJob, part: SolveResult, batch_jobs: int
    ) -> dict:
        spec = job.spec
        # A lane is the job's segment of rows: batch_trials counts the
        # lane's trials and fused_lanes the segments sharing its engine run.
        block = part.metadata.get("instance_block") or {}
        best = part.best_cut
        response = {
            "status": "ok",
            "job_id": job.job_id,
            "graph_name": job.graph.name,
            "graph_fingerprint": job.graph.fingerprint(),
            "circuit": spec.circuit,
            "backend": part.backend_name,
            "seed": spec.seed,
            "n_trials": int(part.n_trials),
            "n_samples": int(spec.n_samples),
            "n_rounds": int(part.n_rounds),
            "best_weight": float(best.weight),
            "assignment": np.asarray(best.assignment).astype(int).tolist(),
            "trial_best_weights": [float(w) for w in part.trial_best_weights],
            "elapsed_seconds": float(part.elapsed_seconds),
            "coalesced": batch_jobs > 1,
            "batch_jobs": int(batch_jobs),
            "batch_trials": int(block.get("segment_trials", part.n_trials)),
            "fused_lanes": int(block.get("segments", 1)),
            "deadline_exceeded": bool(part.metadata.get("deadline_exceeded", False)),
            "cached": False,
            "wait_seconds": 0.0,
        }
        if job.problem is not None:
            solution = job.lifter.lift(best.assignment)
            response["problem"] = {
                "kind": job.problem.kind,
                "n_variables": int(job.problem.n_variables),
                "objective": float(job.problem.objective(solution)),
                "solution": np.asarray(solution).tolist(),
                "certified": True,
                "certificate_max_abs_error": float(job.certificate.max_abs_error),
                "value_scale": float(job.lifter.value_scale),
                "value_offset": float(job.lifter.value_offset),
            }
        return response

    def _fail(self, job: ServeJob, reason: str, message: str) -> None:
        response = error_payload(reason, message)
        response["job_id"] = job.job_id
        job.complete(response)

    def _expire(self, job: ServeJob) -> None:
        self._m_timed_out.inc()
        self._fail(
            job, "timeout",
            "request timed out in the queue before a batch slot opened",
        )

    # -- metrics -----------------------------------------------------------

    def stats(self) -> dict:
        """JSON-safe service metrics (the ``/stats`` endpoint body).

        Payload shape is pinned (clients and tests depend on it); the values
        now come from the obs registry, read coherently: the condition
        (queue state) is taken first and the registry lock nested inside it
        — the same order every writer uses — so queue depth, drain state,
        and every counter are one consistent observation.
        """
        with self._condition:
            queue_depth = len(self._queue)
            draining = self._draining
            with self.registry.lock:
                latencies = self._m_latency.window_values()
                invocations = int(self._m_engine_invocations.value())
                jobs = int(self._m_engine_jobs.value())
                trials = int(self._m_engine_trials.value())
                stats = {
                    "queue_depth": queue_depth,
                    "draining": draining,
                    "admitted": int(self._m_admitted.value()),
                    "completed": int(self._m_completed.value()),
                    "timed_out": int(self._m_timed_out.value()),
                    "routed": int(self._m_routed.value()),
                    "rejected": {
                        reason: int(count)
                        for reason, count in self._m_rejected.as_dict("reason").items()
                    },
                    "engine": {
                        "invocations": invocations,
                        "jobs": jobs,
                        "trials": trials,
                        "coalesced_jobs": int(self._m_coalesced_jobs.value()),
                        "fused_invocations": int(self._m_fused_invocations.value()),
                        "fused_lanes": int(self._m_fused_lanes.value()),
                        "coalesce_ratio": (jobs / invocations) if invocations else 0.0,
                        "mean_batch_trials": (trials / invocations) if invocations else 0.0,
                        "batch_occupancy": (
                            trials / (invocations * self.config.max_batch_trials)
                        ) if invocations else 0.0,
                    },
                    "caches": {
                        "results": self._results.stats(),
                        "circuits": self._circuits.stats(),
                        "compiles": self._compiles.stats(),
                    },
                    "latency": {
                        "count": len(latencies),
                        "p50_seconds": nearest_rank_percentile(latencies, 0.50),
                        "p95_seconds": nearest_rank_percentile(latencies, 0.95),
                    },
                }
        return stats
