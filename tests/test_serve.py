"""Tests for the solve service: cache, protocol, batching, transports.

The load-bearing claims:

* the content-addressed cache is a bounded, thread-safe LRU with accurate
  hit/miss/eviction accounting (it also backs the workload executor);
* served responses are bit-identical to standalone engine runs with the
  same seed, *regardless of which batch the scheduler coalesced them into*;
* N concurrent same-shape requests cost at most ``ceil(N / per-batch
  capacity)`` engine invocations (the coalescing guarantee, ISSUE
  acceptance: >= 2x fewer than serial for 8 concurrent requests);
* the admission policy rejects with machine-readable reasons, and shutdown
  drains the queue while refusing new work.
"""

from __future__ import annotations

import json
import threading
import time

import numpy as np
import pytest

from repro.engine import SolveRequest, solve
from repro.graphs.generators import erdos_renyi
from repro.graphs.graph import Graph
from repro.graphs.io import graph_from_dict, graph_to_dict
from repro.problems import problem_from_dict, random_problem
from repro.serve import (
    AdmissionError,
    ContentAddressedCache,
    ServeClient,
    ServeClientError,
    ServiceConfig,
    SolverService,
    content_key,
    parse_solve_payload,
    serve_http,
    serve_unix,
    solve_payload,
)
from repro.utils.validation import ValidationError


def _graph(seed=1, n=16):
    return erdos_renyi(n, 0.35, seed=seed)


def _payload(graph, **overrides):
    payload = {
        "graph": graph_to_dict(graph), "circuit": "lif_tr",
        "trials": 2, "samples": 8, "seed": 0,
    }
    payload.update(overrides)
    return payload


class TestContentAddressedCache:
    def test_lru_eviction_respects_size_bound(self):
        cache = ContentAddressedCache(max_entries=2, name="t")
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh: "b" is now the LRU entry
        cache.put("c", 3)
        assert len(cache) == 2
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.evictions == 1

    def test_stats_accounting(self):
        cache = ContentAddressedCache(max_entries=4, name="t")
        cache.put("k", "v")
        assert cache.get("k") == "v"
        assert cache.get("missing") is None
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5
        assert stats["size"] == 1 and stats["max_entries"] == 4
        assert stats["name"] == "t"

    def test_get_or_build_builds_once_across_threads(self):
        cache = ContentAddressedCache(max_entries=4, name="t")
        builds = []
        barrier = threading.Barrier(4)

        def build():
            builds.append(1)
            return "built"

        def worker():
            barrier.wait()
            assert cache.get_or_build("k", build) == "built"

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(builds) == 1

    def test_invalidate_and_contains(self):
        cache = ContentAddressedCache(max_entries=2, name="t")
        cache.put("k", 1)
        assert "k" in cache
        assert cache.invalidate("k") is True
        assert cache.invalidate("k") is False
        assert "k" not in cache

    def test_max_entries_validation(self):
        for bad in (0, -1, True, 1.5):
            with pytest.raises(ValidationError):
                ContentAddressedCache(max_entries=bad)

    def test_content_key_is_order_sensitive_and_stable(self):
        assert content_key("a", 1) == content_key("a", 1)
        assert content_key("a", 1) != content_key(1, "a")


class TestFingerprints:
    def test_graph_fingerprint_ignores_name_not_structure(self):
        g1 = Graph(4, [(0, 1, 2.0), (1, 2, 1.0)], name="one")
        g2 = Graph(4, [(0, 1, 2.0), (1, 2, 1.0)], name="two")
        g3 = Graph(4, [(0, 1, 2.5), (1, 2, 1.0)], name="one")
        assert g1.fingerprint() == g2.fingerprint()
        assert g1.fingerprint() != g3.fingerprint()
        assert g1.fingerprint() != Graph(5, [(0, 1, 2.0), (1, 2, 1.0)]).fingerprint()

    def test_graph_dict_round_trip(self):
        g = _graph(seed=5)
        clone = graph_from_dict(graph_to_dict(g))
        assert clone.fingerprint() == g.fingerprint()
        assert clone.name == g.name
        with pytest.raises(ValidationError):
            graph_from_dict({"edges": []})
        with pytest.raises(ValidationError):
            graph_from_dict({"n_vertices": 3, "edges": "nope"})

    def test_problem_fingerprint_round_trips_through_json(self):
        problem = random_problem("qubo", seed=2, n_variables=6)
        clone = problem_from_dict(json.loads(json.dumps(problem.to_dict())))
        assert clone.fingerprint() == problem.fingerprint()


class TestProtocol:
    def test_parse_defaults(self):
        spec = parse_solve_payload({"graph": graph_to_dict(_graph())})
        assert spec.circuit == "lif_gw" and spec.backend == "auto"
        assert spec.n_trials == 8 and spec.n_samples == 64
        assert spec.seed == 0 and spec.problem is None

    def test_parse_rejections(self):
        graph = graph_to_dict(_graph())
        problem = random_problem("qubo", seed=1, n_variables=4).to_dict()
        for payload in (
            [],                                         # not an object
            {},                                         # neither graph nor problem
            {"graph": graph, "problem": problem},       # both
            {"graph": graph, "bogus": 1},               # unknown key
            {"graph": graph, "circuit": "warp"},        # unknown circuit
            {"graph": graph, "trials": 0},              # bad count
            {"graph": graph, "trials": True},           # bool is not an int
            {"graph": graph, "seed": -1},               # negative seed
            {"graph": graph, "timeout_seconds": 0},     # non-positive timeout
            {"graph": {"n_vertices": 3,                 # weights overflow
                       "edges": [[0, 1, 1e308], [1, 2, 1e308]]}},
        ):
            with pytest.raises(ValidationError):
                parse_solve_payload(payload)

    def test_solve_payload_round_trip(self):
        g = _graph()
        payload = solve_payload(graph=g, circuit="lif_tr", trials=3, seed=9)
        spec = parse_solve_payload(payload)
        assert spec.circuit == "lif_tr" and spec.n_trials == 3 and spec.seed == 9
        with pytest.raises(ValidationError):
            solve_payload(graph=g, problem=random_problem("qubo", seed=1, n_variables=4))
        with pytest.raises(ValidationError):
            solve_payload(graph=g, bogus=1)

    def test_solver_key_aliases_circuit(self):
        graph = graph_to_dict(_graph())
        # "solver" is the client-friendly spelling of "circuit".
        spec = parse_solve_payload({"graph": graph, "solver": "lif_tr"})
        assert spec.circuit == "lif_tr"
        # Agreeing duplicates are tolerated; disagreeing ones are not.
        spec = parse_solve_payload(
            {"graph": graph, "solver": "lif_tr", "circuit": "lif_tr"}
        )
        assert spec.circuit == "lif_tr"
        with pytest.raises(ValidationError):
            parse_solve_payload(
                {"graph": graph, "solver": "lif_tr", "circuit": "lif_gw"}
            )
        with pytest.raises(ValidationError):
            parse_solve_payload({"graph": graph, "solver": "warp"})

    def test_auto_circuit_parses_to_sentinel(self):
        graph = graph_to_dict(_graph())
        for spelling in ("auto", "portfolio"):
            for key in ("solver", "circuit"):
                spec = parse_solve_payload({"graph": graph, key: spelling})
                assert spec.circuit == "auto"


class TestServiceIdentity:
    def test_served_lif_tr_matches_direct_engine_run(self):
        g = _graph(seed=3, n=18)
        with SolverService() as service:
            for seed in (0, 5):
                response = service.solve(
                    _payload(g, trials=3, samples=12, seed=seed), timeout=60
                )
                direct = solve(SolveRequest(
                    circuit="lif_tr", graph=g, n_trials=3, n_samples=12, seed=seed
                ))
                assert response["status"] == "ok"
                assert response["trial_best_weights"] == [
                    float(w) for w in direct.trial_best_weights
                ]
                assert response["best_weight"] == float(direct.best_cut.weight)
                assert response["assignment"] == [
                    int(v) for v in direct.best_cut.assignment
                ]

    def test_served_lif_gw_matches_setup_seeded_instance(self):
        from repro.circuits.lif_gw import LIFGWCircuit

        g = _graph(seed=4, n=14)
        with SolverService() as service:
            response = service.solve(
                _payload(g, circuit="lif_gw", trials=2, samples=10,
                         seed=6, setup_seed=2),
                timeout=60,
            )
        # The service's reference point: the circuit built from setup_seed
        # (the SDP stage), sampled with the request seed.
        circuit = LIFGWCircuit(g, seed=2)
        direct = solve(SolveRequest(
            circuit=circuit, n_trials=2, n_samples=10, seed=6
        ))
        assert response["trial_best_weights"] == [
            float(w) for w in direct.trial_best_weights
        ]

    def test_problem_request_lifts_and_certifies(self):
        problem = random_problem("qubo", seed=7, n_variables=6)
        with SolverService() as service:
            response = service.solve(
                {"problem": problem.to_dict(), "trials": 3, "samples": 12, "seed": 1},
                timeout=60,
            )
        assert response["status"] == "ok"
        block = response["problem"]
        assert block["kind"] == "qubo" and block["certified"] is True
        solution = np.asarray(block["solution"])
        # The reported objective is the real native objective of the lifted
        # solution, and the affine certificate ties it to the cut weight.
        assert block["objective"] == pytest.approx(float(problem.objective(solution)))
        assert block["objective"] == pytest.approx(
            block["value_scale"] * response["best_weight"] + block["value_offset"]
        )


class TestCoalescingConcurrency:
    def test_eight_threads_at_most_ceil_n_over_cap_invocations(self):
        """Satellite 3: 8 concurrent same-shape requests, capacity 4 requests
        per batch -> at most 2 engine invocations, every response equal to
        its standalone solve."""
        g = _graph(seed=8, n=16)
        n_requests, trials = 8, 2
        # 4 requests of 2 trials fill one 8-trial batch.
        config = ServiceConfig(max_batch_trials=4 * trials)
        service = SolverService(config, autostart=False)
        jobs = [None] * n_requests
        barrier = threading.Barrier(n_requests)

        def post(index):
            barrier.wait()
            jobs[index] = service.submit(
                _payload(g, trials=trials, samples=10, seed=index)
            )

        threads = [
            threading.Thread(target=post, args=(i,)) for i in range(n_requests)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        service.start()
        responses = [job.wait(60) for job in jobs]
        service.shutdown()

        invocations = service.stats()["engine"]["invocations"]
        assert invocations <= 2  # == ceil(8 / 4)
        assert invocations < n_requests / 2  # ISSUE floor: >= 2x fewer than serial
        for seed, response in enumerate(responses):
            assert response["status"] == "ok"
            direct = solve(SolveRequest(
                circuit="lif_tr", graph=g, n_trials=trials, n_samples=10, seed=seed
            ))
            assert response["trial_best_weights"] == [
                float(w) for w in direct.trial_best_weights
            ]
        assert sum(r["coalesced"] for r in responses) == n_requests

    def test_result_cache_answers_repeats_without_engine(self):
        g = _graph(seed=9)
        with SolverService() as service:
            first = service.solve(_payload(g, seed=3), timeout=60)
            invocations = service.stats()["engine"]["invocations"]
            second = service.solve(_payload(g, seed=3), timeout=60)
            assert service.stats()["engine"]["invocations"] == invocations
        assert second["cached"] is True and first["cached"] is False
        assert second["trial_best_weights"] == first["trial_best_weights"]

    def test_different_shapes_do_not_coalesce(self):
        g = _graph(seed=10)
        service = SolverService(autostart=False)
        a = service.submit(_payload(g, samples=8, seed=0))
        b = service.submit(_payload(g, samples=16, seed=0))  # different shape
        service.start()
        ra, rb = a.wait(60), b.wait(60)
        service.shutdown()
        assert ra["status"] == rb["status"] == "ok"
        assert not ra["coalesced"] and not rb["coalesced"]
        assert service.stats()["engine"]["invocations"] == 2


class TestAdmission:
    def test_queue_depth_limit(self):
        g = _graph(seed=11)
        service = SolverService(
            ServiceConfig(max_queue_depth=2), autostart=False
        )
        service.submit(_payload(g, seed=0))
        service.submit(_payload(g, seed=1))
        with pytest.raises(AdmissionError) as excinfo:
            service.submit(_payload(g, seed=2))
        assert excinfo.value.reason == "queue_full"
        service.start()
        service.shutdown(drain=True)
        assert service.stats()["rejected"] == {"queue_full": 1}

    def test_budget_and_size_caps(self):
        g = _graph(seed=12)
        service = SolverService(
            ServiceConfig(max_trials_per_request=4, max_request_vertices=8),
            autostart=False,
        )
        with pytest.raises(AdmissionError) as excinfo:
            service.submit(_payload(g, trials=5))
        assert excinfo.value.reason == "budget"
        with pytest.raises(AdmissionError) as excinfo:
            service.submit(_payload(g, trials=2))
        assert excinfo.value.reason == "too_large"
        service.shutdown()

    @pytest.mark.parametrize("backend", ["torch", "cupy", "numpy:dense", "warp"])
    def test_unknown_backend_rejected_at_the_door(self, backend):
        g = _graph(seed=13)
        with SolverService() as service:
            with pytest.raises(AdmissionError) as excinfo:
                service.submit(_payload(g, backend=backend))
            assert excinfo.value.reason == "bad_backend"
            assert service.stats()["rejected"] == {"bad_backend": 1}
            server = serve_http(service, port=0)
            threading.Thread(target=server.serve_forever, daemon=True).start()
            try:
                client = ServeClient(port=server.server_address[1], timeout=30)
                with pytest.raises(ServeClientError) as excinfo:
                    client.solve(_payload(g, backend=backend))
                assert excinfo.value.status == 400
                assert excinfo.value.reason == "bad_backend"
            finally:
                server.shutdown()
                server.server_close()
            assert service.stats()["rejected"] == {"bad_backend": 2}

    def test_queue_timeout_expires_stale_jobs(self):
        g = _graph(seed=13)
        service = SolverService(autostart=False)
        job = service.submit(_payload(g, timeout_seconds=0.02))
        time.sleep(0.1)
        service.start()
        response = job.wait(30)
        service.shutdown()
        assert response["status"] == "error" and response["reason"] == "timeout"
        assert service.stats()["timed_out"] == 1

    def test_draining_service_refuses_admissions_but_finishes_queue(self):
        g = _graph(seed=14)
        service = SolverService(autostart=False)
        jobs = [service.submit(_payload(g, seed=s)) for s in range(3)]
        service.start()
        service.shutdown(drain=True)
        for job in jobs:
            assert job.wait(0)["status"] == "ok"  # drained, already complete
        with pytest.raises(AdmissionError) as excinfo:
            service.submit(_payload(g, seed=99))
        assert excinfo.value.reason == "draining"

    def test_engine_deadline_rides_solo_with_partial_result(self):
        g = _graph(seed=15)
        service = SolverService(autostart=False)
        capped = service.submit(_payload(g, samples=400, deadline_seconds=1e-4))
        plain = service.submit(_payload(g, samples=400, seed=5))
        service.start()
        rc, rp = capped.wait(60), plain.wait(60)
        service.shutdown()
        # The deadline job must not drag batch-mates into truncation.
        assert not rc["coalesced"] and not rp["coalesced"]
        assert rc["deadline_exceeded"] is True and rc["n_rounds"] < 400
        assert rp["deadline_exceeded"] is False and rp["n_rounds"] == 400


class TestFailureIsolation:
    def test_failing_circuit_does_not_fail_its_batch_mates(self):
        graphs = [_graph(seed=30 + i) for i in range(3)]
        bad = graphs[1].fingerprint()
        service = SolverService(autostart=False)
        build = service._circuit_for

        def circuit_for(job):
            if job.graph.fingerprint() == bad:
                raise RuntimeError("circuit build failed")
            return build(job)

        service._circuit_for = circuit_for
        jobs = [service.submit(_payload(g, seed=i)) for i, g in enumerate(graphs)]
        service.start()
        responses = [job.wait(60) for job in jobs]
        service.shutdown()
        assert responses[1]["status"] == "error"
        assert responses[1]["reason"] == "internal"
        for index in (0, 2):
            assert responses[index]["status"] == "ok"
            direct = solve(SolveRequest(
                circuit="lif_tr", graph=graphs[index], n_trials=2, n_samples=8,
                seed=index,
            ))
            assert responses[index]["trial_best_weights"] == [
                float(w) for w in direct.trial_best_weights
            ]


class TestTransports:
    def _run_server(self, server):
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        return thread

    def test_http_round_trip_and_stats(self):
        g = _graph(seed=16)
        with SolverService() as service:
            server = serve_http(service, port=0)
            self._run_server(server)
            try:
                client = ServeClient(port=server.server_address[1], timeout=60)
                response = client.solve_graph(
                    g, circuit="lif_tr", trials=2, samples=8, seed=1
                )
                direct = solve(SolveRequest(
                    circuit="lif_tr", graph=g, n_trials=2, n_samples=8, seed=1
                ))
                assert response["best_weight"] == float(direct.best_cut.weight)
                problem = random_problem("ising", seed=1, n_variables=5)
                presponse = client.solve_problem(problem, trials=2, samples=8)
                assert presponse["problem"]["certified"] is True
                stats = client.stats()
                assert stats["completed"] >= 2
                assert stats["latency"]["p95_seconds"] >= 0.0
                assert client.health()["status"] == "ok"
            finally:
                server.shutdown()
                server.server_close()

    def test_http_error_statuses(self):
        with SolverService() as service:
            server = serve_http(service, port=0)
            self._run_server(server)
            try:
                client = ServeClient(port=server.server_address[1], timeout=30)
                with pytest.raises(ServeClientError) as excinfo:
                    client.solve({"trials": 2})  # no graph/problem
                assert excinfo.value.status == 400
                # Finite weights whose sum overflows: the cut weights would
                # be inf, which no JSON body can carry.
                ring = {"n_vertices": 4,
                        "edges": [[i, (i + 1) % 4, 1e308] for i in range(4)]}
                with pytest.raises(ServeClientError) as excinfo:
                    client.solve({"graph": ring, "circuit": "lif_tr",
                                  "trials": 2, "samples": 8})
                assert excinfo.value.status == 400
                assert excinfo.value.reason == "bad_request"
                with pytest.raises(ServeClientError) as excinfo:
                    client._request("GET", "/nope")
                assert excinfo.value.status == 404
            finally:
                server.shutdown()
                server.server_close()

    def test_unix_socket_round_trip(self, tmp_path):
        g = _graph(seed=17)
        path = str(tmp_path / "serve.sock")
        with SolverService() as service:
            server = serve_unix(service, path)
            self._run_server(server)
            try:
                client = ServeClient(socket_path=path, timeout=60)
                response = client.solve_graph(
                    g, circuit="lif_tr", trials=2, samples=8, seed=2
                )
                assert response["status"] == "ok"
            finally:
                server.shutdown()
                server.server_close()
        assert not (tmp_path / "serve.sock").exists()  # cleaned on close

    def test_client_requires_exactly_one_endpoint(self):
        with pytest.raises(ValidationError):
            ServeClient()
        with pytest.raises(ValidationError):
            ServeClient(port=1, socket_path="/tmp/x")


class TestStatsEdgeCases:
    """/stats percentile reporting at the empty and single-sample corners."""

    def test_percentile_of_no_samples_is_zero(self):
        stats = SolverService(autostart=False).stats()
        assert stats["latency"]["count"] == 0
        assert stats["latency"]["p50_seconds"] == 0.0
        assert stats["latency"]["p95_seconds"] == 0.0

    def test_percentile_of_one_sample_is_that_sample(self):
        with SolverService() as service:
            response = service.solve(
                _payload(_graph(seed=21), trials=1, samples=4, seed=0),
                timeout=60,
            )
            assert response["status"] == "ok"
            latency = service.stats()["latency"]
        assert latency["count"] == 1
        assert latency["p50_seconds"] == latency["p95_seconds"] >= 0.0


class TestBatchCapBoundaries:
    """max_batch_trials at its boundaries: exact fill, spill, over-cap solo."""

    def test_exact_fill_coalesces_into_one_batch(self):
        g = _graph(seed=22)
        service = SolverService(
            ServiceConfig(max_batch_trials=4), autostart=False
        )
        jobs = [service.submit(_payload(g, trials=2, samples=8, seed=s))
                for s in (0, 1)]
        service.start()
        responses = [job.wait(60) for job in jobs]
        service.shutdown()
        assert all(r["status"] == "ok" and r["coalesced"] for r in responses)
        assert service.stats()["engine"]["invocations"] == 1

    def test_one_trial_over_the_cap_spills_to_a_second_batch(self):
        g = _graph(seed=23)
        service = SolverService(
            ServiceConfig(max_batch_trials=4), autostart=False
        )
        jobs = [service.submit(_payload(g, trials=t, samples=8, seed=s))
                for s, t in enumerate((2, 2, 1))]
        service.start()
        responses = [job.wait(60) for job in jobs]
        service.shutdown()
        assert all(r["status"] == "ok" for r in responses)
        # 2 + 2 fills the cap exactly; the 1-trial job spills.
        assert service.stats()["engine"]["invocations"] == 2
        assert [r["coalesced"] for r in responses] == [True, True, False]

    def test_single_job_above_the_cap_rides_alone(self):
        g = _graph(seed=24)
        service = SolverService(
            ServiceConfig(max_batch_trials=2), autostart=False
        )
        job = service.submit(_payload(g, trials=3, samples=8, seed=0))
        service.start()
        response = job.wait(60)
        service.shutdown()
        # The cap bounds *coalescing*, not a single request: the job runs
        # whole in one engine invocation.
        assert response["status"] == "ok" and not response["coalesced"]
        assert response["n_trials"] == 3
        assert service.stats()["engine"]["invocations"] == 1
