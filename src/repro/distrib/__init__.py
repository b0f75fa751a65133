"""Sharded, resumable workload execution.

This package makes every workload in the library horizontally splittable and
crash-safe at once:

* :func:`plan_shards` deterministically partitions any
  :class:`~repro.workloads.WorkloadSpec` into shards of independent *units*
  (graph x solver x trial-range cells for the generic executor; per-graph /
  per-setting units for the paper workloads) — because every unit seeds
  itself with the library's paired ``SeedSequence(seed, spawn_key=...)``
  convention, shard boundaries never change results;
* :func:`run_sharded` executes (or resumes) the shards with per-shard
  **atomic** JSON checkpoints and merges the payloads into an outcome whose
  records and leaderboard equal the monolithic run (modulo timing metadata);
* :func:`merge_checkpoints` folds a checkpoint directory written by an
  earlier (possibly killed) run back into a report.

The user-facing surface is ``Session(spec).run(shards=N, resume=...)``,
``repro run <workload> --shards N [--resume]`` and ``repro merge <dir>``;
this package is the machinery behind them.  The units come from the
workload's own :class:`~repro.workloads.registry.ShardAdapter` — the same
triple its monolithic run executes — so every registered workload shards.
"""

from repro.distrib.checkpoint import CheckpointStore, ShardCheckpoint
from repro.distrib.shards import (
    ShardPlan,
    execute_single_shard,
    fingerprint,
    merge_checkpoints,
    plan_shards,
    run_shard,
    run_sharded,
)

__all__ = [
    "CheckpointStore",
    "ShardCheckpoint",
    "ShardPlan",
    "fingerprint",
    "plan_shards",
    "run_shard",
    "run_sharded",
    "execute_single_shard",
    "merge_checkpoints",
]
