"""Unit tests for the engine's building blocks.

Covers the backend registry (dense/sparse selection and extension), the
trial-seeded device sampler, the streaming best-cut tracker, the batched cut
evaluator, and the batched ``DevicePool.sample_batch`` API.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits.config import LIFTrevisanConfig
from repro.circuits.lif_trevisan import LIFTrevisanCircuit
from repro.cuts.cut import BatchCutEvaluator, cut_weights_batch
from repro.devices.base import DevicePool
from repro.devices.bernoulli import BiasedCoinPool, FairCoinPool
from repro.devices.correlated import CorrelatedDevicePool
from repro.devices.drift import DriftingDevicePool
from repro.devices.telegraph import TelegraphNoisePool
from repro.engine import (
    BatchDeviceSampler,
    BestCutTracker,
    DenseBackend,
    EarlyStopConfig,
    SolveRequest,
    WeightBackend,
    list_backends,
    register_backend,
    solve,
    trial_seed_sequences,
)
from repro.engine.backends import SPARSE_MIN_VERTICES, SparseBackend
from repro.graphs.generators import erdos_renyi
from repro.graphs.graph import Graph
from repro.utils.validation import ValidationError


class TestBackends:
    def test_registry_lists_builtins(self):
        assert {"dense", "sparse"} <= set(list_backends())

    def test_unknown_backend_raises(self):
        with pytest.raises(ValidationError):
            WeightBackend.for_graph(None, np.eye(3), policy="no-such-backend")

    def test_register_custom_backend(self):
        class Doubling(DenseBackend):
            name = "doubling-test"

        register_backend("doubling-test", Doubling)
        try:
            backend = WeightBackend.for_graph(None, np.eye(3), policy="doubling-test")
            assert isinstance(backend, Doubling)
        finally:
            from repro.engine import backends as backends_module

            backends_module._REGISTRY.pop("doubling-test", None)

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
            graph, np.eye(40), policy="auto", sparse_weights=lambda: np.eye(40)
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
            graph, plan.weights, policy="auto", sparse_weights=plan.sparse_weights
        )
        assert backend.name == "sparse"

    def test_auto_never_selects_sparse_without_sparse_weights(self):
        graph = erdos_renyi(200, 0.01, seed=0)
        backend = WeightBackend.for_graph(graph, np.eye(200), policy="auto")
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


class TestSampleBatch:
    POOLS = [
        lambda: FairCoinPool(6, seed=0),
        lambda: BiasedCoinPool(0.7, n_devices=6, seed=0),
        lambda: TelegraphNoisePool(6, switch_up=0.2, seed=0),
        lambda: DriftingDevicePool(6, seed=0),
        lambda: CorrelatedDevicePool(6, 0.3, seed=0),
    ]

    @pytest.mark.parametrize("make_pool", POOLS, ids=[
        "fair", "biased", "telegraph", "drifting", "correlated",
    ])
    def test_shape_dtype_and_binary_values(self, make_pool):
        pool = make_pool()
        batch = pool.sample_batch(3, 7, rng=123)
        assert batch.shape == (3, 7, 6)
        assert batch.dtype == np.int8
        assert set(np.unique(batch)) <= {0, 1}

    @pytest.mark.parametrize("make_pool", POOLS, ids=[
        "fair", "biased", "telegraph", "drifting", "correlated",
    ])
    def test_reproducible_given_rng(self, make_pool):
        a = make_pool().sample_batch(2, 9, rng=7)
        b = make_pool().sample_batch(2, 9, rng=7)
        assert np.array_equal(a, b)

    def test_zero_trials_and_zero_steps(self):
        pool = FairCoinPool(4, seed=0)
        assert pool.sample_batch(0, 5, rng=1).shape == (0, 5, 4)
        assert pool.sample_batch(3, 0, rng=1).shape == (3, 0, 4)

    def test_negative_trials_rejected(self):
        with pytest.raises(ValidationError):
            FairCoinPool(4, seed=0).sample_batch(-1, 5)

    def test_statistics_match_expected_mean(self):
        pool = BiasedCoinPool(0.8, n_devices=4, seed=0)
        batch = pool.sample_batch(20, 500, rng=5)
        np.testing.assert_allclose(batch.mean(axis=(0, 1)), 0.8, atol=0.02)

    def test_telegraph_trials_are_independent_replicas(self):
        """Batched trials start fresh; the pool's own state is untouched."""
        pool = TelegraphNoisePool(3, switch_up=0.05, seed=0)
        state_before = pool._state.copy()
        pool.sample_batch(4, 50, rng=9)
        assert np.array_equal(pool._state, state_before)

    def test_default_loop_fallback_for_custom_pools(self):
        class ConstantPool(DevicePool):
            def sample(self, n_steps):
                n_steps = self._check_steps(n_steps)
                return np.ones((n_steps, self.n_devices), dtype=np.int8)

            def expected_mean(self):
                return np.ones(self.n_devices)

        batch = ConstantPool(3).sample_batch(2, 4)
        assert batch.shape == (2, 4, 3)
        assert np.all(batch == 1)
        # An explicit rng cannot be honoured without an _rng slot: loud error
        # beats silently sampling from the wrong stream.
        with pytest.raises(ValidationError):
            ConstantPool(3).sample_batch(2, 4, rng=7)

    def test_default_fallback_honours_rng_for_rng_idiom_pools(self):
        """The base fallback substitutes rng into the standard _rng slot."""
        from repro.utils.rng import as_generator

        class CustomCoinPool(DevicePool):
            def __init__(self, n_devices, seed=None):
                super().__init__(n_devices)
                self._rng = as_generator(seed)

            def sample(self, n_steps):
                n_steps = self._check_steps(n_steps)
                return self._rng.integers(
                    0, 2, size=(n_steps, self.n_devices), dtype=np.int8
                )

            def expected_mean(self):
                return np.full(self.n_devices, 0.5)

        pool = CustomCoinPool(4, seed=0)
        state_probe = pool._rng
        a = CustomCoinPool(4, seed=0).sample_batch(3, 8, rng=42)
        b = CustomCoinPool(4, seed=999).sample_batch(3, 8, rng=42)
        assert np.array_equal(a, b)  # rng, not the pool's seed, decides
        assert pool._rng is state_probe  # original stream restored untouched
        c = CustomCoinPool(4, seed=0).sample_batch(3, 8, rng=43)
        assert not np.array_equal(a, c)
