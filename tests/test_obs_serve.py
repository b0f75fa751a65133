"""Serve-side observability: /stats on the metrics registry, /metrics, spans.

The load-bearing claims:

* migrating ``SolverService``'s hand-rolled counters and latency deque onto
  the :mod:`repro.obs` registry left the ``/stats`` payload shape and
  percentile numerics pinned exactly;
* ``stats()`` reads are coherent under concurrent submitters and the drain
  path (the historical race: admitted incremented outside the queue lock
  could make ``queue_depth > admitted``);
* ``GET /metrics`` serves Prometheus text exposition alongside ``/stats``;
* spans emitted while serving 8 concurrent batched requests form
  well-formed per-request trees with no cross-request leakage.
"""

from __future__ import annotations

import http.client
import json
import threading

import pytest

from repro.graphs.generators import erdos_renyi
from repro.graphs.io import graph_to_dict
from repro.obs import (
    PROMETHEUS_CONTENT_TYPE,
    capture,
    disable_tracing,
    nearest_rank_percentile,
)
from repro.serve import ServiceConfig, SolverService, serve_http


@pytest.fixture(autouse=True)
def _no_tracing_leaks():
    disable_tracing()
    yield
    disable_tracing()


def _graph(seed=1, n=16):
    return erdos_renyi(n, 0.35, seed=seed)


def _payload(graph, **overrides):
    payload = {
        "graph": graph_to_dict(graph), "circuit": "lif_tr",
        "trials": 2, "samples": 8, "seed": 0,
    }
    payload.update(overrides)
    return payload


class TestStatsPayloadPin:
    def test_stats_payload_shape_is_unchanged(self):
        """The registry migration must not move or rename a single key."""
        g = _graph(seed=20)
        with SolverService() as service:
            service.solve(_payload(g, seed=1), timeout=60)
            stats = service.stats()
        assert set(stats) == {
            "queue_depth", "draining", "admitted", "completed", "timed_out",
            "routed", "rejected", "engine", "caches", "latency",
        }
        assert set(stats["engine"]) == {
            "invocations", "jobs", "trials", "coalesced_jobs",
            "fused_invocations", "fused_lanes", "coalesce_ratio",
            "mean_batch_trials", "batch_occupancy",
        }
        assert set(stats["caches"]) == {"results", "circuits", "compiles"}
        assert set(stats["latency"]) == {"count", "p50_seconds", "p95_seconds"}
        assert stats["admitted"] == stats["completed"] == 1
        assert stats["rejected"] == {}
        assert stats["latency"]["count"] == 1
        assert stats["latency"]["p50_seconds"] > 0.0
        json.dumps(stats)

    def test_latency_histogram_window_backs_the_percentiles(self):
        service = SolverService(
            ServiceConfig(latency_window=4), autostart=False
        )
        hist = service.registry.get("repro_serve_request_latency_seconds")
        for value in (1.0, 2.0, 3.0, 4.0, 5.0):
            hist.observe(value)
        stats = service.stats()
        window = [3.0, 4.0, 5.0, 2.0]  # eviction dropped 1.0
        assert sorted(hist.window_values()) == [2.0, 3.0, 4.0, 5.0]
        assert stats["latency"]["count"] == 4
        assert stats["latency"]["p50_seconds"] == nearest_rank_percentile(
            window, 0.50
        )
        service.shutdown()

    def test_rejections_surface_as_labelled_counter(self):
        g = _graph(seed=21)
        service = SolverService(
            ServiceConfig(max_queue_depth=1), autostart=False
        )
        service.submit(_payload(g, seed=0))
        for _ in range(2):
            with pytest.raises(Exception):
                service.submit(_payload(g, seed=1))
        assert service.stats()["rejected"] == {"queue_full": 2}
        counter = service.registry.get("repro_serve_rejected_total")
        assert counter.value(reason="queue_full") == 2
        service.start()
        service.shutdown(drain=True)


class TestConcurrentStats:
    def test_stats_reads_are_coherent_while_submitting(self):
        """Satellite: the drain-path counter race.  Readers hammering
        ``stats()`` while 4 writers submit must never observe
        ``queue_depth > admitted`` (a job visible in the queue before its
        admission was counted)."""
        g = _graph(seed=22, n=12)
        service = SolverService(autostart=False)
        n_writers, per_writer = 4, 10
        start = threading.Barrier(n_writers + 4)
        violations = []
        done = threading.Event()

        def write(base):
            start.wait()
            for i in range(per_writer):
                service.submit(
                    _payload(g, trials=1, samples=4, seed=base * 100 + i)
                )

        def read():
            start.wait()
            while not done.is_set():
                stats = service.stats()
                if stats["queue_depth"] > stats["admitted"]:
                    violations.append(stats)

        writers = [
            threading.Thread(target=write, args=(b,)) for b in range(n_writers)
        ]
        readers = [threading.Thread(target=read) for _ in range(4)]
        for t in writers + readers:
            t.start()
        for t in writers:
            t.join()
        done.set()
        for t in readers:
            t.join()
        assert violations == []
        assert service.stats()["admitted"] == n_writers * per_writer
        service.start()
        service.shutdown(drain=True)
        final = service.stats()
        assert final["completed"] + final["timed_out"] == n_writers * per_writer
        assert final["queue_depth"] == 0


class TestMetricsEndpoint:
    def test_get_metrics_serves_prometheus_text(self):
        g = _graph(seed=23)
        with SolverService() as service:
            server = serve_http(service, port=0)
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            try:
                service.solve(_payload(g, seed=2), timeout=60)
                conn = http.client.HTTPConnection(
                    "127.0.0.1", server.server_address[1], timeout=30
                )
                conn.request("GET", "/metrics")
                response = conn.getresponse()
                body = response.read().decode("utf-8")
                assert response.status == 200
                assert response.getheader("Content-Type") == \
                    PROMETHEUS_CONTENT_TYPE
                conn.close()
            finally:
                server.shutdown()
                server.server_close()
        assert "# TYPE repro_serve_admitted_total counter" in body
        assert "repro_serve_admitted_total 1" in body
        assert "repro_serve_completed_total 1" in body
        assert "repro_serve_queue_depth 0" in body
        assert "repro_serve_request_latency_seconds_count 1" in body
        assert 'repro_serve_request_latency_seconds_bucket{le="+Inf"} 1' in body
        assert 'repro_serve_cache_hit_rate{cache="results"}' in body
        assert body.endswith("\n")

    def test_stats_endpoint_still_serves_json(self):
        with SolverService() as service:
            server = serve_http(service, port=0)
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            try:
                conn = http.client.HTTPConnection(
                    "127.0.0.1", server.server_address[1], timeout=30
                )
                conn.request("GET", "/stats")
                response = conn.getresponse()
                payload = json.loads(response.read().decode("utf-8"))
                assert response.status == 200
                assert payload["admitted"] == 0
                assert payload["latency"]["p95_seconds"] == 0.0
                conn.close()
            finally:
                server.shutdown()
                server.server_close()


class TestServeSpanNesting:
    def test_eight_concurrent_requests_form_clean_span_trees(self):
        """Satellite: 8 concurrent batched requests -> every span tree is
        rooted at its own ``serve.admit``, parents resolve within the same
        capture, and solve work hangs off ``serve.batch`` -> ``serve.solve``
        with no cross-request leakage."""
        g = _graph(seed=24, n=16)
        n_requests, trials = 8, 2
        config = ServiceConfig(max_batch_trials=4 * trials)
        service = SolverService(config, autostart=False)
        jobs = [None] * n_requests
        barrier = threading.Barrier(n_requests)

        def post(index):
            barrier.wait()
            jobs[index] = service.submit(
                _payload(g, trials=trials, samples=8, seed=index)
            )

        with capture() as trace:
            threads = [
                threading.Thread(target=post, args=(i,))
                for i in range(n_requests)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            service.start()
            responses = [job.wait(60) for job in jobs]
            service.shutdown()
        assert all(r["status"] == "ok" for r in responses)

        spans = trace.spans
        by_id = {s.span_id: s for s in spans}
        admits = [s for s in spans if s.name == "serve.admit"]
        assert len(admits) == n_requests
        # Each admission is its own root, on its own submitting thread.
        assert all(s.parent_id is None for s in admits)
        assert len({s.thread for s in admits}) == n_requests

        batches = [s for s in spans if s.name == "serve.batch"]
        solves = [s for s in spans if s.name == "serve.solve"]
        assert batches and len(solves) == len(batches)
        assert sum(s.attrs["batch_jobs"] for s in batches) == n_requests
        for s in solves:
            assert by_id[s.parent_id].name == "serve.batch"
        for s in spans:
            if s.name == "engine.solve":
                assert by_id[s.parent_id].name == "serve.solve"

        # Well-formed trees: every parent exists, shares the child's thread,
        # and contains the child's interval.
        for s in spans:
            if s.parent_id is None:
                continue
            parent = by_id.get(s.parent_id)
            assert parent is not None, f"dangling parent for {s.name}"
            assert parent.thread == s.thread
            assert parent.start_seconds <= s.start_seconds
            assert (s.start_seconds + s.duration_seconds) <= (
                parent.start_seconds + parent.duration_seconds + 1e-6
            )
