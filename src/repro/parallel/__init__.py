"""Parallel execution harness for experiment sweeps.

The paper's Figure 3 sweep covers 200 graphs x 4 methods; each cell is an
independent work item, so the natural parallelisation is a process pool over
cells, each seeding itself from its own paired key
(:func:`repro.utils.rng.paired_seed`).  The harness degrades gracefully to
serial execution (useful in tests and on single-core CI machines) and keeps
the mapping deterministic regardless of the execution mode or chunk size.
"""

from repro.parallel.pool import ParallelConfig, parallel_map
from repro.parallel.partition import chunk_indices, partition_work, balance_by_cost

__all__ = [
    "ParallelConfig",
    "parallel_map",
    "chunk_indices",
    "partition_work",
    "balance_by_cost",
]
