"""Unit tests for the engine's building blocks.

Covers the backend choice (dense/sparse selection), the trial-seeded device
sampler, the streaming best-cut tracker and the batched cut evaluator.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.circuits.config import LIFTrevisanConfig
from repro.circuits.lif_trevisan import LIFTrevisanCircuit
from repro.cuts.cut import BatchCutEvaluator, cut_weights_batch
from repro.devices.bernoulli import FairCoinPool
from repro.engine import (
    BACKENDS,
    BatchDeviceSampler,
    BestCutTracker,
    DenseBackend,
    EarlyStopConfig,
    SolveRequest,
    WeightBackend,
    check_backend,
    solve,
    trial_seed_sequences,
)
from repro.engine.backends import SPARSE_MIN_VERTICES, SparseBackend
from repro.graphs.generators import erdos_renyi
from repro.graphs.graph import Graph
from repro.utils.validation import ValidationError


class TestBackends:
    def test_backend_choices(self):
        assert BACKENDS == ("auto", "dense", "sparse")
        for name in BACKENDS:
            assert check_backend(name) == name

    def test_registry_lists_builtins(self):
        assert {"dense", "sparse"} <= set(BACKENDS)

    @pytest.mark.parametrize("spec", [
        "torch", "cupy", "numpy", "numpy:dense", "torch:dense", ":sparse",
        "Dense", pytest.param(" auto", id="padded-auto"),
        pytest.param("", id="empty"), None, 123,
    ])
    def test_check_backend_rejects_every_other_spec(self, spec):
        with pytest.raises(ValidationError, match="unknown backend spec"):
            check_backend(spec)

    def test_unknown_backend_raises(self):
        with pytest.raises(ValidationError):
            WeightBackend.for_graph(None, np.eye(3), backend="no-such-backend")
        with pytest.raises(ValidationError):
            SolveRequest(circuit="lif_tr", graph=erdos_renyi(8, 0.5, seed=0),
                         backend="torch")

    def test_dense_matches_sequential_drive(self):
        rng = np.random.default_rng(0)
        weights = rng.standard_normal((6, 4))
        states = rng.integers(0, 2, size=(20, 4)).astype(np.int8)
        backend = DenseBackend(weights)
        expected = (states.astype(np.float64) - 0.5) @ weights.T
        assert np.array_equal(backend.drive(states, 0.5), expected)
        out = np.empty((20, 6))
        backend.drive(states, 0.5, out=out)
        assert np.array_equal(out, expected)

    def test_sparse_matches_dense_numerically(self):
        rng = np.random.default_rng(1)
        weights = np.where(rng.random((30, 30)) < 0.1, rng.standard_normal((30, 30)), 0.0)
        states = rng.integers(0, 2, size=(50, 30)).astype(np.int8)
        dense = DenseBackend(weights).drive(states, 0.5)
        sparse = SparseBackend(weights).drive(states, 0.5)
        np.testing.assert_allclose(sparse, dense, atol=1e-12)

    def test_auto_selects_dense_for_small_or_dense_graphs(self):
        graph = erdos_renyi(40, 0.3, seed=0)
        backend = WeightBackend.for_graph(
            graph, np.eye(40), backend="auto", sparse_weights=lambda: np.eye(40)
        )
        assert backend.name == "dense"

    def test_auto_selects_sparse_for_large_low_density_graphs(self):
        n = max(SPARSE_MIN_VERTICES, 150)
        graph = erdos_renyi(n, 0.01, seed=0)
        circuit = LIFTrevisanCircuit(
            graph, config=LIFTrevisanConfig(burn_in_steps=10, sample_interval=2)
        )
        plan = circuit.engine_plan()
        backend = WeightBackend.for_graph(
            graph, plan.weights, backend="auto", sparse_weights=plan.sparse_weights
        )
        assert backend.name == "sparse"

    def test_auto_never_selects_sparse_without_sparse_weights(self):
        graph = erdos_renyi(200, 0.01, seed=0)
        backend = WeightBackend.for_graph(graph, np.eye(200), backend="auto")
        assert backend.name == "dense"

    def test_sparse_engine_run_matches_dense_cuts(self):
        """Sparse-backend cuts equal the dense (sequential-identical) cuts."""
        graph = erdos_renyi(150, 0.02, seed=3)
        circuit = LIFTrevisanCircuit(
            graph, config=LIFTrevisanConfig(burn_in_steps=10, sample_interval=3)
        )
        auto = solve(SolveRequest(circuit=circuit, n_trials=2, n_samples=6, seed=1))
        dense = solve(
            SolveRequest(circuit=circuit, n_trials=2, n_samples=6, seed=1, backend="dense")
        )
        assert auto.backend_name == "sparse"
        assert dense.backend_name == "dense"
        assert np.array_equal(auto.trajectories, dense.trajectories)

    def test_explicit_sparse_overrides_small_graph_heuristic(self):
        # "--backend sparse" is honoured even on graphs the auto heuristic
        # would route dense (small and/or dense ones).
        graph = erdos_renyi(16, 0.5, seed=0)
        assert graph.n_vertices < SPARSE_MIN_VERTICES
        weights = np.eye(graph.n_vertices)
        backend = WeightBackend.for_graph(
            graph, weights, backend="sparse", sparse_weights=lambda: weights,
        )
        assert isinstance(backend, SparseBackend)

    def test_engine_sparse_spec_end_to_end_on_small_graph(self):
        # Same override through the full engine path: a SolveRequest naming
        # sparse reports the sparse backend even under the size floor.
        graph = erdos_renyi(24, 0.5, seed=1)
        result = solve(SolveRequest(
            circuit="lif_tr", graph=graph, n_trials=2, n_samples=4,
            seed=0, backend="sparse",
        ))
        assert result.backend_name == "sparse"

    def test_sparse_and_dense_weights_give_the_same_cuts(self):
        # LIF-TR on a low-density graph: the two weight backends agree on
        # every read-out (their round-off never flips a sign here).
        graph = erdos_renyi(256, 0.015, seed=3)
        circuit = LIFTrevisanCircuit(
            graph, config=LIFTrevisanConfig(burn_in_steps=50, sample_interval=5)
        )
        dense, sparse = (
            solve(SolveRequest(
                circuit=circuit, n_trials=8, n_samples=64, seed=4, backend=backend,
            ))
            for backend in ("dense", "sparse")
        )
        assert (dense.backend_name, sparse.backend_name) == ("dense", "sparse")
        assert np.array_equal(dense.trajectories, sparse.trajectories)

    def test_dense_bit_identical_across_block_sizes(self):
        """An explicit dense run equals its trials run one block at a time."""
        graph = erdos_renyi(30, 0.4, seed=2)
        request = SolveRequest(
            circuit="lif_tr", graph=graph, n_trials=3, n_samples=6,
            seed=11, backend="dense",
        )
        engine = solve(request)
        reference = solve(replace(request, max_block_bytes=1))
        assert np.array_equal(engine.trajectories, reference.trajectories)
        assert np.array_equal(
            engine.trial_best_weights, reference.trial_best_weights
        )
        assert np.array_equal(
            engine.trial_best_assignments, reference.trial_best_assignments
        )

    def test_dense_equals_default_auto_run(self):
        graph = erdos_renyi(30, 0.4, seed=3)
        common = dict(
            circuit="lif_tr", graph=graph, n_trials=2, n_samples=5, seed=4
        )
        auto = solve(SolveRequest(backend="auto", **common))
        explicit = solve(SolveRequest(backend="dense", **common))
        assert np.array_equal(auto.trajectories, explicit.trajectories)
        assert np.array_equal(
            auto.trial_best_assignments, explicit.trial_best_assignments
        )


class TestSampler:
    def test_trial_seeds_match_seedstream_children(self):
        seeds = trial_seed_sequences(42, 3)
        for i, child in enumerate(seeds):
            expected = np.random.SeedSequence(entropy=42, spawn_key=(i,))
            assert child.entropy == expected.entropy
            assert child.spawn_key == expected.spawn_key

    def test_seed_sequence_root_extends_spawn_key(self):
        root = np.random.SeedSequence(entropy=7, spawn_key=(5,))
        seeds = trial_seed_sequences(root, 2)
        assert seeds[1].spawn_key == (5, 1)

    def test_none_seed_still_yields_independent_trials(self):
        seeds = trial_seed_sequences(None, 4)
        entropies = {s.entropy for s in seeds}
        assert len(entropies) == 1  # shared root entropy
        assert len({s.spawn_key for s in seeds}) == 4

    def test_invalid_seed_type_rejected(self):
        with pytest.raises(ValidationError):
            trial_seed_sequences("not-a-seed", 2)

    def test_sample_block_shapes_and_determinism(self):
        builder = lambda rng: FairCoinPool(5, seed=rng)
        sampler_a = BatchDeviceSampler(builder, trial_seed_sequences(3, 4))
        sampler_b = BatchDeviceSampler(builder, trial_seed_sequences(3, 4))
        block_a = sampler_a.sample_block([0, 1, 2, 3], 11)
        block_b = sampler_b.sample_block([0, 1, 2, 3], 11)
        assert block_a.shape == (4, 11, 5)
        assert block_a.dtype == np.int8
        assert np.array_equal(block_a, block_b)
        # Per-trial blocks are independent of which trials share the block.
        solo = BatchDeviceSampler(builder, trial_seed_sequences(3, 4))
        assert np.array_equal(solo.sample_block([2], 11)[0], block_a[2])

    def test_aux_generator_requires_sampling_first(self):
        sampler = BatchDeviceSampler(
            lambda rng: FairCoinPool(2, seed=rng), trial_seed_sequences(0, 2)
        )
        with pytest.raises(ValidationError):
            sampler.aux_generator(0)
        sampler.sample_block([0], 3)
        assert sampler.aux_generator(0) is not None


class TestTracker:
    def test_no_stop_without_config(self):
        tracker = BestCutTracker(None, ceiling=10.0)
        for r in range(100):
            assert tracker.update(r, np.array([10.0])) is False
        assert not tracker.stopped

    def test_plateau_stops_after_patience(self):
        tracker = BestCutTracker(EarlyStopConfig(patience=3, min_rounds=2))
        stopped_at = None
        for r in range(50):
            if tracker.update(r, np.array([5.0])):
                stopped_at = r
                break
        assert stopped_at is not None
        assert tracker.stop_round == stopped_at
        # First update improves (from -inf); then 3 flat rounds trip patience.
        assert stopped_at == 3

    def test_improvement_resets_patience(self):
        tracker = BestCutTracker(EarlyStopConfig(patience=3, min_rounds=1))
        weights = [1.0, 1.0, 2.0, 2.0, 4.0, 4.0, 4.0, 4.0]
        stops = [tracker.update(r, np.array([w])) for r, w in enumerate(weights)]
        assert stops == [False] * 7 + [True]

    def test_ceiling_stops_immediately(self):
        tracker = BestCutTracker(
            EarlyStopConfig(patience=100, min_rounds=100), ceiling=6.0
        )
        assert tracker.update(0, np.array([6.0])) is True

    def test_best_weight_tracks_maximum_across_blocks(self):
        tracker = BestCutTracker(EarlyStopConfig(patience=2, min_rounds=1))
        tracker.update(0, np.array([3.0, 7.0]))
        tracker.start_block()
        tracker.update(0, np.array([5.0]))
        assert tracker.best_weight == 7.0


class TestBatchCutEvaluator:
    def test_matches_cut_weights_batch_unweighted(self, medium_er_graph, rng):
        assignments = rng.choice([-1, 1], size=(13, medium_er_graph.n_vertices))
        assignments = assignments.astype(np.int8)
        evaluator = BatchCutEvaluator(medium_er_graph)
        assert np.array_equal(
            evaluator.weights(assignments),
            cut_weights_batch(medium_er_graph, assignments),
        )

    def test_matches_cut_weights_batch_weighted(self, weighted_graph, rng):
        assignments = rng.choice([-1, 1], size=(9, 4)).astype(np.int8)
        evaluator = BatchCutEvaluator(weighted_graph)
        assert np.array_equal(
            evaluator.weights(assignments),
            cut_weights_batch(weighted_graph, assignments),
        )

    def test_weighted_rows_independent_of_batch_size(self, rng):
        """A weighted cut sums its edges on its own, whatever shares the call."""
        base = erdos_renyi(40, 0.25, seed=2024)
        weights = rng.uniform(0.1, 3.0, base.n_edges)
        graph = Graph(40, [(int(u), int(v), float(w))
                           for (u, v), w in zip(base.edges, weights)])
        assignments = rng.choice([-1, 1], size=(64, 40)).astype(np.int8)
        evaluator = BatchCutEvaluator(graph)
        batched = cut_weights_batch(graph, assignments)
        one_by_one = np.array([cut_weights_batch(graph, row)[0] for row in assignments])
        assert np.array_equal(batched, one_by_one)
        assert np.array_equal(evaluator.weights(assignments), batched)
        assert np.array_equal(
            np.concatenate([evaluator.weights(assignments[:5]),
                            evaluator.weights(assignments[5:])]),
            batched,
        )

    def test_edgeless_graph(self, empty_graph, rng):
        assignments = rng.choice([-1, 1], size=(4, 5)).astype(np.int8)
        assert np.array_equal(
            BatchCutEvaluator(empty_graph).weights(assignments), np.zeros(4)
        )
