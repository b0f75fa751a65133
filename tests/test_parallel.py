"""Tests for the parallel execution harness."""

import os

import numpy as np
import pytest

from repro.parallel.partition import balance_by_cost, chunk_indices, partition_work
from repro.parallel.pool import ParallelConfig, parallel_map
from repro.utils.validation import ValidationError


def _square(x):
    return x * x


class TestParallelConfig:
    def test_defaults(self):
        config = ParallelConfig()
        assert config.resolved_workers() >= 1

    def test_explicit_workers(self):
        assert ParallelConfig(n_workers=3).resolved_workers() == 3

    def test_zero_workers_means_serial(self):
        assert ParallelConfig(n_workers=0).resolved_workers() == 0

    def test_invalid_chunk_size(self):
        with pytest.raises(ValidationError):
            ParallelConfig(chunk_size=0)

    def test_invalid_workers(self):
        with pytest.raises(ValidationError):
            ParallelConfig(n_workers=-1)


class TestParallelMap:
    def test_serial_path(self):
        out = parallel_map(_square, [1, 2, 3], ParallelConfig(n_workers=1))
        assert out == [1, 4, 9]

    def test_serial_preserves_order(self):
        out = parallel_map(_square, range(10), ParallelConfig(n_workers=0))
        assert out == [i * i for i in range(10)]

    def test_process_path_matches_serial(self):
        items = list(range(12))
        serial = parallel_map(_square, items, ParallelConfig(n_workers=1))
        parallel = parallel_map(_square, items, ParallelConfig(n_workers=2, serial_threshold=0))
        assert serial == parallel

    def test_small_lists_run_serially_even_with_workers(self):
        # serial_threshold larger than the item count forces the serial path;
        # lambdas are not picklable, so this only works if it is indeed serial.
        out = parallel_map(lambda x: x + 1, [1], ParallelConfig(n_workers=4, serial_threshold=10))
        assert out == [2]

    def test_exceptions_propagate(self):
        def boom(x):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            parallel_map(boom, [1, 2], ParallelConfig(n_workers=1))

    def test_empty_items(self):
        assert parallel_map(_square, [], ParallelConfig(n_workers=2)) == []


class TestPartitioning:
    def test_chunk_indices(self):
        assert chunk_indices(10, 4) == [(0, 4), (4, 8), (8, 10)]

    def test_chunk_indices_exact(self):
        assert chunk_indices(8, 4) == [(0, 4), (4, 8)]

    def test_chunk_indices_zero_items(self):
        assert chunk_indices(0, 4) == []

    def test_chunk_invalid(self):
        with pytest.raises(ValidationError):
            chunk_indices(5, 0)
        with pytest.raises(ValidationError):
            chunk_indices(-1, 2)

    def test_partition_work_sizes(self):
        parts = partition_work(10, 3)
        sizes = [stop - start for start, stop in parts]
        assert sum(sizes) == 10
        assert max(sizes) - min(sizes) <= 1
        assert len(parts) == 3

    def test_partition_more_bins_than_items(self):
        parts = partition_work(2, 5)
        assert len(parts) == 5
        assert sum(stop - start for start, stop in parts) == 2

    def test_partition_contiguous(self):
        parts = partition_work(17, 4)
        for (s1, e1), (s2, _e2) in zip(parts, parts[1:]):
            assert e1 == s2

    def test_partition_invalid(self):
        with pytest.raises(ValidationError):
            partition_work(5, 0)

    def test_balance_by_cost_covers_all_items(self):
        costs = [5.0, 1.0, 3.0, 2.0, 4.0]
        bins = balance_by_cost(costs, 2)
        assigned = sorted(i for b in bins for i in b)
        assert assigned == list(range(5))

    def test_balance_by_cost_reasonable_makespan(self):
        costs = [8.0, 7.0, 6.0, 5.0, 4.0, 3.0]
        bins = balance_by_cost(costs, 2)
        loads = [sum(costs[i] for i in b) for b in bins]
        # LPT guarantee: within 4/3 of optimal (16.5)
        assert max(loads) <= 4.0 / 3.0 * 16.5 + 1e-9

    def test_balance_invalid(self):
        with pytest.raises(ValidationError):
            balance_by_cost([1.0], 0)
        with pytest.raises(ValidationError):
            balance_by_cost([-1.0], 2)
        with pytest.raises(ValidationError):
            balance_by_cost(np.ones((2, 2)), 2)
