"""Tests for request groups (``repro.engine.solve_instance_block``).

The contract under test: running same-shape requests as the row segments of
one engine group is invisible in the outputs — every fused result is
bit-identical to solving its request alone, plasticity read-outs and
over-cap groups included — and every incompatible mix runs in separate
engine runs rather than erroring, again with identical results.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.circuits import (
    LIFGWCircuit,
    LIFGWConfig,
    LIFTrevisanCircuit,
    LIFTrevisanConfig,
)
from repro.engine import (
    EarlyStopConfig,
    SolveRequest,
    solve,
    solve_instance_block,
)
from repro.engine import engine as engine_module
from repro.graphs.generators import erdos_renyi
from repro.obs.trace import capture

TR_CONFIG = LIFTrevisanConfig(burn_in_steps=25, sample_interval=4)


def _requests(count=3, n=24, trials=2, samples=6, circuit="lif_gw", **kwargs):
    graphs = [erdos_renyi(n, 0.5, seed=100 + i) for i in range(count)]
    return [
        SolveRequest(
            circuit=circuit, graph=graph, n_trials=trials, n_samples=samples,
            seed=7 + i, **kwargs,
        )
        for i, graph in enumerate(graphs)
    ]


def _assert_identical(fused, solo):
    assert np.array_equal(fused.trajectories, solo.trajectories)
    assert np.array_equal(fused.trial_best_weights, solo.trial_best_weights)
    assert np.array_equal(
        fused.trial_best_assignments, solo.trial_best_assignments
    )
    assert fused.best_weight == solo.best_weight
    if solo.learner_weights is not None:
        assert np.array_equal(fused.learner_weights, solo.learner_weights)


def _digest(result) -> str:
    h = hashlib.sha256()
    for array in (
        result.trajectories, result.trial_best_weights,
        result.trial_best_assignments, result.learner_weights,
    ):
        h.update(np.ascontiguousarray(array).tobytes())
    h.update(str(result.metadata["plasticity_guard_firings"]).encode())
    return h.hexdigest()


class TestFusedEqualsPerInstance:
    def test_membrane_readout_bitwise_identical(self):
        requests = _requests()
        fused = solve_instance_block(requests)
        assert len(fused) == len(requests)
        for result, request in zip(fused, requests):
            block = result.metadata["instance_block"]
            assert block["size"] == len(requests)
            assert block["fused_trials"] == sum(r.n_trials for r in requests)
            _assert_identical(result, solve(request))

    def test_spike_readout_bitwise_identical(self):
        graphs = [erdos_renyi(20, 0.5, seed=200 + i) for i in range(3)]
        config = LIFGWConfig(readout="spike")
        requests = [
            SolveRequest(
                circuit=LIFGWCircuit(graph, config=config, seed=30 + i),
                graph=graph, n_trials=2, n_samples=5, seed=30 + i,
            )
            for i, graph in enumerate(graphs)
        ]
        fused = solve_instance_block(requests)
        assert all(r.metadata.get("instance_block") for r in fused)
        for result, request in zip(fused, requests):
            _assert_identical(result, solve(request))

    def test_mixed_trial_counts_fuse(self):
        graphs = [erdos_renyi(24, 0.5, seed=300 + i) for i in range(3)]
        requests = [
            SolveRequest(
                circuit="lif_gw", graph=graph, n_trials=trials, n_samples=6,
                seed=40 + i,
            )
            for i, (graph, trials) in enumerate(zip(graphs, (1, 3, 2)))
        ]
        fused = solve_instance_block(requests)
        assert fused[0].metadata["instance_block"]["fused_trials"] == 6
        for result, request in zip(fused, requests):
            _assert_identical(result, solve(request))

    def test_record_assignments_survive_fusion(self):
        requests = _requests(count=2, record_assignments=True)
        fused = solve_instance_block(requests)
        for result, request in zip(fused, requests):
            solo = solve(request)
            assert result.assignments is not None
            assert np.array_equal(result.assignments, solo.assignments)

    def test_plasticity_readout_fuses_across_graphs(self):
        # Two LIF-TR circuits on different graphs: one learner for the whole
        # block across both segments, each row bitwise its standalone trial.
        requests = _requests(count=2, circuit="lif_tr", trials=3)
        fused = solve_instance_block(requests)
        for result, request in zip(fused, requests):
            block = result.metadata["instance_block"]
            assert block["segments"] == 2
            assert block["segment_trials"] == 3
            _assert_identical(result, solve(request))

    def test_learners_that_differ_run_in_separate_groups(self):
        # Equal graphs and LIF parameters, different learning rates: a block
        # trains one learner, so these cannot share one.
        graph = erdos_renyi(24, 0.5, seed=100)
        requests = [
            SolveRequest(
                circuit=LIFTrevisanCircuit(
                    graph, config=replace(TR_CONFIG, learning_rate=rate)
                ),
                n_trials=2, n_samples=6, seed=7,
            )
            for rate in (0.01, 0.02)
        ]
        results = solve_instance_block(requests)
        for result, request in zip(results, requests):
            assert "instance_block" not in result.metadata
            _assert_identical(result, solve(request))
        assert not np.array_equal(results[0].learner_weights, results[1].learner_weights)

    @pytest.mark.parametrize("cap", [1, 1 << 30])
    def test_plasticity_chunk_cap_moves_no_bit(self, monkeypatch, cap):
        # One block over three segments, one learner trained a round per
        # call (cap 1) or every round in one call (2^30).
        requests = _requests(count=3, circuit="lif_tr", trials=2, samples=9)
        expected = [_digest(result) for result in solve_instance_block(requests)]
        monkeypatch.setattr(engine_module, "PLASTICITY_CHUNK_VALUES", cap)
        fused = solve_instance_block(requests)
        assert fused[0].metadata["instance_block"]["segments"] == 3
        assert fused[0].metadata["n_blocks"] == 1
        assert [_digest(result) for result in fused] == expected

    def test_coalesced_batch_is_bit_identical_per_request(self):
        # Same-circuit requests with mixed trial counts form one segment:
        # what the solve service calls a coalesced lane.
        circuit = LIFTrevisanCircuit(
            erdos_renyi(40, 0.25, seed=2024, name="er40"), config=TR_CONFIG
        )
        requests = [
            SolveRequest(circuit=circuit, n_trials=t, n_samples=8, seed=s)
            for t, s in [(2, 11), (3, 7), (1, 11), (4, 0)]
        ]
        fused = solve_instance_block(requests)
        for index, (result, request) in enumerate(zip(fused, requests)):
            assert result.n_trials == request.n_trials
            assert result.metadata["instance_block"] == {
                "size": 4, "index": index, "fused_trials": 10,
                "segments": 1, "segment_trials": 10,
            }
            _assert_identical(result, solve(request))

    def test_over_cap_group_fuses(self):
        # A 64-byte cap forces one row per block: the group still runs as
        # one engine run, block by block.
        requests = _requests(count=2, max_block_bytes=64)
        fused = solve_instance_block(requests)
        for result, request in zip(fused, requests):
            assert result.metadata["instance_block"]["size"] == 2
            assert result.metadata["n_blocks"] == 4
            _assert_identical(result, solve(request))

    def test_blocks_spanning_segments(self):
        # Three-row blocks over segments of 5 and 2 rows: blocks cut through
        # segments and requests, leaving one- and two-row learner pieces.
        graphs = [erdos_renyi(18, 0.4, seed=400 + i) for i in range(2)]
        first, second = (LIFTrevisanCircuit(g, config=TR_CONFIG) for g in graphs)
        n_steps = TR_CONFIG.burn_in_steps + 6 * TR_CONFIG.sample_interval
        requests = [
            SolveRequest(
                circuit=circuit, n_trials=trials, n_samples=6, seed=seed,
                max_block_bytes=3 * n_steps * 18 * 8,
            )
            for circuit, trials, seed in [(first, 2, 1), (first, 3, 2), (second, 2, 3)]
        ]
        fused = solve_instance_block(requests)
        assert fused[0].metadata["n_blocks"] == 3
        assert [r.metadata["instance_block"]["segment_trials"] for r in fused] == [5, 5, 2]
        for result, request in zip(fused, requests):
            _assert_identical(result, solve(request))


    def test_membrane_blocks_spanning_segments(self):
        # The same layout on the membrane read-out: each segment applies its
        # own weights to its rows of the block's filtered device stream.
        config = LIFGWConfig(burn_in_steps=25, sample_interval=4)
        graphs = [erdos_renyi(18, 0.4, seed=400 + i) for i in range(2)]
        first, second = (LIFGWCircuit(g, config=config, seed=1) for g in graphs)
        n_steps = config.burn_in_steps + 6 * config.sample_interval
        requests = [
            SolveRequest(
                circuit=circuit, n_trials=trials, n_samples=6, seed=seed,
                max_block_bytes=3 * 8 * (n_steps * config.rank + 6 * 18),
                record_potentials=True,
            )
            for circuit, trials, seed in [(first, 2, 1), (first, 3, 2), (second, 2, 3)]
        ]
        fused = solve_instance_block(requests)
        assert fused[0].metadata["n_blocks"] == 3
        assert [r.metadata["instance_block"]["segment_trials"] for r in fused] == [5, 5, 2]
        for result, request in zip(fused, requests):
            solo = solve(request)
            _assert_identical(result, solo)
            assert np.array_equal(result.potentials, solo.potentials)

class TestFallbacks:
    def _assert_fallback_identical(self, requests):
        results = solve_instance_block(requests)
        assert len(results) == len(requests)
        for result, request in zip(results, requests):
            assert not result.metadata.get("instance_block")
            _assert_identical(result, solve(request))

    def test_shape_mismatch_falls_back(self):
        small = _requests(count=1, n=20)
        large = _requests(count=1, n=28)
        self._assert_fallback_identical(small + large)

    def test_early_stop_falls_back(self):
        self._assert_fallback_identical(
            _requests(count=2, early_stop=EarlyStopConfig(patience=2))
        )

    def test_deadline_falls_back(self):
        self._assert_fallback_identical(
            _requests(count=2, deadline_seconds=60.0)
        )


class TestEdgeCases:
    def test_empty_request_list(self):
        assert solve_instance_block([]) == []

    def test_single_request_matches_solve(self):
        (request,) = _requests(count=1)
        (result,) = solve_instance_block([request])
        _assert_identical(result, solve(request))

    def test_results_positionally_aligned(self):
        requests = _requests(count=4)
        results = solve_instance_block(requests)
        for index, result in enumerate(results):
            assert result.metadata["instance_block"]["index"] == index


class TestTracing:
    def test_multi_request_call_is_one_engine_solve(self):
        requests = _requests(count=3)
        with capture() as trace:
            solve_instance_block(requests)
        spans = trace.spans
        by_id = {s.span_id: s for s in spans}
        (solve_span,) = [s for s in spans if s.name == "engine.solve"]
        assert solve_span.attrs["n_instances"] == 3
        blocks = [s for s in spans if s.name == "engine.block"]
        assert blocks and all(by_id[s.parent_id] is solve_span for s in blocks)
        for name in ("engine.sample", "engine.drive", "engine.integrate"):
            phases = [s for s in spans if s.name == name]
            assert phases
            assert all(by_id[s.parent_id].name == "engine.block" for s in phases)
        assert not any(s.name.startswith("engine.fuse") for s in spans)
