"""Deterministic shard planning + the resumable sharded run driver.

``plan_shards`` partitions a workload into shards, ``run_sharded`` executes
(or resumes) them with per-shard atomic checkpoints, and ``merge_checkpoints``
folds a directory of completed shards back into the workload's uniform
outcome.

Shard plan
----------
A plan is a pure function of ``(spec, n_shards)``:

1. the workload's :class:`~repro.workloads.registry.ShardAdapter`
   enumerates the run's atomic *units* in canonical order (e.g. ``(graph,
   solver, trial_lo, trial_hi)`` cells for the generic executor, ``(cell,
   graph)`` for Figure 3);
2. unit *j* is assigned round-robin to shard ``j % n_shards``, so work
   spreads evenly even when unit costs correlate with position (e.g. suites
   ordered by graph size).

Because every unit seeds itself with the paired
``SeedSequence(seed, spawn_key=...)`` convention, shard boundaries never
change results: the merged output equals the monolithic run record for
record (modulo timing metadata).

Fingerprint
-----------
``fingerprint(spec, n_shards)`` hashes the canonical spec JSON plus the
shard count.  It names the run: checkpoints carry it, resume only accepts
checkpoints that match it, and a checkpoint directory refuses to mix runs.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.distrib.checkpoint import CheckpointStore, ShardCheckpoint, unit_key
from repro.obs.trace import (
    mark,
    merge_summaries,
    span,
    spans_since,
    summarize_spans,
    tracing_enabled,
)
from repro.utils.validation import ValidationError
from repro.workloads.executor import adapter_for
from repro.workloads.registry import Workload
from repro.workloads.report import WorkloadOutcome
from repro.workloads.spec import WorkloadSpec

__all__ = [
    "ShardPlan",
    "fingerprint",
    "plan_shards",
    "run_shard",
    "run_sharded",
    "execute_single_shard",
    "merge_checkpoints",
]


@dataclass(frozen=True)
class ShardPlan:
    """Deterministic split of one workload run into shards.

    Attributes
    ----------
    workload:
        The workload name.
    n_shards:
        Number of shards (shards may be empty when units < shards).
    fingerprint:
        The run identity hash (spec + shard count).
    units:
        Every unit key, in the adapter's canonical order.
    assignments:
        Per shard, the indices into ``units`` it executes (round-robin).
    """

    workload: str
    n_shards: int
    fingerprint: str
    units: Tuple[Tuple, ...]
    assignments: Tuple[Tuple[int, ...], ...]

    def shard_units(self, shard_index: int) -> List[Tuple]:
        """The unit keys shard *shard_index* executes, in execution order."""
        return [self.units[j] for j in self.assignments[shard_index]]


def fingerprint(spec: WorkloadSpec, n_shards: int) -> str:
    """Stable identity hash of one sharded run (spec + shard count)."""
    canonical = json.dumps(
        {"spec": spec.to_dict(), "n_shards": int(n_shards)},
        sort_keys=True,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def plan_shards(
    spec: WorkloadSpec,
    n_shards: int,
    workload: Optional[Workload] = None,
) -> ShardPlan:
    """Partition *spec* into *n_shards* deterministic shards."""
    if not isinstance(n_shards, int) or isinstance(n_shards, bool) or n_shards < 1:
        raise ValidationError(f"n_shards must be an integer >= 1, got {n_shards!r}")
    adapter = adapter_for(workload)
    units = tuple(tuple(unit) for unit in adapter.units(spec, n_shards))
    assignments: List[List[int]] = [[] for _ in range(n_shards)]
    for j in range(len(units)):
        assignments[j % n_shards].append(j)
    return ShardPlan(
        workload=spec.workload,
        n_shards=n_shards,
        fingerprint=fingerprint(spec, n_shards),
        units=units,
        assignments=tuple(tuple(a) for a in assignments),
    )


def run_shard(
    spec: WorkloadSpec,
    plan: ShardPlan,
    shard_index: int,
    workload: Optional[Workload] = None,
) -> ShardCheckpoint:
    """Execute one shard of *plan* and return its checkpoint (not yet saved)."""
    if not (0 <= shard_index < plan.n_shards):
        raise ValidationError(
            f"shard_index must be in [0, {plan.n_shards}), got {shard_index}"
        )
    adapter = adapter_for(workload)
    units = plan.shard_units(shard_index)
    # Under active tracing the shard's per-phase timing summary rides the
    # checkpoint metadata, so a later `repro merge` can fold timings across
    # shards even when the shards ran in separate processes.
    trace_mark = mark() if tracing_enabled() else None
    started = time.perf_counter()
    with span(
        "distrib.shard", shard_index=shard_index, n_units=len(units)
    ):
        payloads = adapter.run_units(spec, units) if units else []
    if len(payloads) != len(units):
        raise ValidationError(
            f"shard adapter for {spec.workload!r} returned {len(payloads)} "
            f"payloads for {len(units)} units"
        )
    metadata: Dict[str, Any] = {}
    if trace_mark is not None:
        metadata["timing"] = summarize_spans(spans_since(trace_mark))
    # Round-trip through JSON so the in-memory path is semantically identical
    # to the resume-from-disk path (and non-JSON-safe payloads fail loudly at
    # the shard that produced them, not at a later resume).
    payloads = json.loads(json.dumps(payloads))
    return ShardCheckpoint(
        workload=spec.workload,
        shard_index=shard_index,
        n_shards=plan.n_shards,
        fingerprint=plan.fingerprint,
        units=[list(unit) for unit in units],
        payloads=payloads,
        elapsed_seconds=float(time.perf_counter() - started),
        metadata=metadata,
    )


def _manifest(spec: WorkloadSpec, plan: ShardPlan) -> Dict[str, Any]:
    return {
        "kind": "repro-shards/v1",
        "workload": plan.workload,
        "n_shards": plan.n_shards,
        "fingerprint": plan.fingerprint,
        "spec": spec.to_dict(),
        "units": [list(unit) for unit in plan.units],
    }


def _merge_plan(
    spec: WorkloadSpec,
    plan: ShardPlan,
    checkpoints: Sequence[ShardCheckpoint],
    workload: Optional[Workload] = None,
) -> WorkloadOutcome:
    adapter = adapter_for(workload)
    payload_by_unit: Dict[Tuple, Any] = {}
    for checkpoint in checkpoints:
        for unit, payload in zip(checkpoint.units, checkpoint.payloads):
            payload_by_unit[unit_key(unit)] = payload
    missing = [unit for unit in plan.units if unit_key(unit) not in payload_by_unit]
    if missing:
        raise ValidationError(
            f"cannot merge: {len(missing)} of {len(plan.units)} units have no "
            f"payload (first missing: {missing[0]!r})"
        )
    ordered = [payload_by_unit[unit_key(unit)] for unit in plan.units]
    return adapter.merge(spec, list(plan.units), ordered)


def run_sharded(
    spec: WorkloadSpec,
    n_shards: int,
    workload: Optional[Workload] = None,
    checkpoint_dir: Union[str, None] = None,
    resume: bool = False,
) -> WorkloadOutcome:
    """Execute *spec* as *n_shards* checkpointed shards and merge the outcome.

    Parameters
    ----------
    spec:
        The workload spec (seed already resolved — run through a
        :class:`~repro.workloads.session.Session`).
    n_shards:
        How many shards to split into.
    workload:
        The registered workload whose adapter runs the units; ``None``
        runs the generic executor's cell units.
    checkpoint_dir:
        Directory for the manifest + per-shard checkpoint files.  ``None``
        runs fully in memory (no files, nothing to resume).
    resume:
        Skip shards whose checkpoint file already exists and matches this
        run's fingerprint; requires *checkpoint_dir*.  Corrupt or foreign
        checkpoint files are treated as missing and re-run.

    Returns the merged :class:`~repro.workloads.report.WorkloadOutcome`; its
    metadata carries a ``"distrib"`` header recording the split and which
    shards were executed vs resumed.
    """
    if resume and checkpoint_dir is None:
        raise ValidationError("resume=True requires a checkpoint_dir")
    plan = plan_shards(spec, n_shards, workload)
    store: Optional[CheckpointStore] = None
    if checkpoint_dir is not None:
        store = CheckpointStore(checkpoint_dir)
        store.prepare(_manifest(spec, plan), resume=resume)

    checkpoints: List[ShardCheckpoint] = []
    executed: List[int] = []
    resumed: List[int] = []
    for shard_index in range(plan.n_shards):
        checkpoint = None
        if store is not None and resume:
            checkpoint = store.load_shard(shard_index, plan.fingerprint)
        if checkpoint is None:
            checkpoint = run_shard(spec, plan, shard_index, workload)
            if store is not None:
                store.save_shard(checkpoint)
            executed.append(shard_index)
        else:
            resumed.append(shard_index)
        checkpoints.append(checkpoint)

    with span("distrib.merge", n_shards=plan.n_shards):
        outcome = _merge_plan(spec, plan, checkpoints, workload)
    outcome.metadata["distrib"] = {
        "n_shards": plan.n_shards,
        "n_units": len(plan.units),
        "fingerprint": plan.fingerprint,
        "checkpoint_dir": checkpoint_dir,
        "executed_shards": executed,
        "resumed_shards": resumed,
        "shard_elapsed_seconds": [c.elapsed_seconds for c in checkpoints],
        **_fold_shard_timings(checkpoints),
    }
    return outcome


def _fold_shard_timings(
    checkpoints: Sequence[ShardCheckpoint],
) -> Dict[str, Any]:
    """Per-shard trace summaries from checkpoint metadata, plus their sum.

    Empty when no shard carried timing (tracing was off when it ran) — the
    ``distrib`` metadata block then stays exactly its historical shape.
    """
    timings = [
        checkpoint.metadata.get("timing")
        for checkpoint in checkpoints
        if isinstance(checkpoint.metadata, dict)
        and checkpoint.metadata.get("timing")
    ]
    if not timings:
        return {}
    return {
        "shard_timings": timings,
        "timing": merge_summaries(timings),
    }


def execute_single_shard(
    spec: WorkloadSpec,
    n_shards: int,
    shard_index: int,
    checkpoint_dir: str,
    workload: Optional[Workload] = None,
    resume: bool = True,
) -> Dict[str, Any]:
    """Execute exactly one shard into *checkpoint_dir* — the worker-process mode.

    This is how a run is actually split across processes or machines: N
    workers each call this (or ``repro run <w> --shards N --shard-index K
    --checkpoint-dir D``) with their own *shard_index* against a shared
    directory, then anyone runs :func:`merge_checkpoints` (``repro merge D``)
    once every shard file exists.  With *resume* (the default here — a worker
    re-running its own shard is the common crash case) an already-valid
    checkpoint is skipped.

    Returns a status dictionary: ``shard_index``, ``n_shards``, ``skipped``
    (checkpoint already valid), ``n_units`` (this shard's unit count),
    ``completed_shards`` / ``missing_shards`` across the directory, and
    ``complete`` (ready to merge).  The directory-wide counts are *advisory*
    and based on file presence only (atomic writes make present ≈ complete)
    — a worker never re-reads the other shards' payloads, so fleet status
    stays O(1) stat calls per shard instead of O(total payload bytes);
    :func:`merge_checkpoints` does the authoritative validation.
    """
    import os

    if checkpoint_dir is None:
        raise ValidationError("execute_single_shard requires a checkpoint_dir")
    plan = plan_shards(spec, n_shards, workload)
    if not (0 <= shard_index < plan.n_shards):
        raise ValidationError(
            f"shard_index must be in [0, {plan.n_shards}), got {shard_index}"
        )
    store = CheckpointStore(checkpoint_dir)
    store.prepare(_manifest(spec, plan), resume=resume)
    skipped = False
    if resume and store.load_shard(shard_index, plan.fingerprint) is not None:
        skipped = True
    else:
        store.save_shard(run_shard(spec, plan, shard_index, workload))
    present = [
        i for i in range(plan.n_shards)
        if os.path.exists(store.shard_path(i))
    ]
    return {
        "shard_index": shard_index,
        "n_shards": plan.n_shards,
        "skipped": skipped,
        "n_units": len(plan.assignments[shard_index]),
        "fingerprint": plan.fingerprint,
        "completed_shards": present,
        "missing_shards": [i for i in range(plan.n_shards) if i not in present],
        "complete": len(present) == plan.n_shards,
    }


def merge_checkpoints(
    checkpoint_dir: str,
    workload: Optional[Workload] = None,
    spec: Optional[WorkloadSpec] = None,
) -> Tuple[WorkloadOutcome, Dict[str, Any]]:
    """Merge a checkpoint directory written by :func:`run_sharded`.

    Reconstructs the spec from the stored manifest (unless an explicit *spec*
    is given), validates that every shard is complete, and folds the shard
    payloads into the workload outcome.  Incomplete directories raise a
    :class:`ValidationError` naming the missing shards — rerun with
    ``resume=True`` to fill them in.

    Returns ``(outcome, manifest)``.
    """
    store = CheckpointStore(checkpoint_dir)
    manifest = store.read_manifest()
    if manifest is None:
        raise ValidationError(
            f"no readable {store.manifest_path!r}; not a checkpoint directory?"
        )
    if spec is None:
        spec = WorkloadSpec.from_dict(manifest.get("spec") or {})
    if workload is None:
        from repro.workloads.registry import WORKLOADS

        workload = WORKLOADS.get(str(manifest.get("workload", "")))
    n_shards = int(manifest["n_shards"])
    run_fingerprint = str(manifest["fingerprint"])
    if fingerprint(spec, n_shards) != run_fingerprint:
        raise ValidationError(
            f"manifest fingerprint {run_fingerprint!r} does not match its "
            f"own spec; the checkpoint directory is corrupt"
        )
    plan = plan_shards(spec, n_shards, workload)
    checkpoints: List[ShardCheckpoint] = []
    missing: List[int] = []
    for shard_index in range(n_shards):
        checkpoint = store.load_shard(shard_index, run_fingerprint)
        if checkpoint is None:
            missing.append(shard_index)
        else:
            checkpoints.append(checkpoint)
    if missing:
        raise ValidationError(
            f"checkpoint directory {checkpoint_dir!r} is missing shard(s) "
            f"{missing}; rerun with --resume to complete them"
        )
    with span("distrib.merge", n_shards=n_shards):
        outcome = _merge_plan(spec, plan, checkpoints, workload)
    outcome.metadata["distrib"] = {
        "n_shards": n_shards,
        "n_units": len(plan.units),
        "fingerprint": run_fingerprint,
        "checkpoint_dir": checkpoint_dir,
        "executed_shards": [],
        "resumed_shards": list(range(n_shards)),
        "shard_elapsed_seconds": [c.elapsed_seconds for c in checkpoints],
        **_fold_shard_timings(checkpoints),
    }
    return outcome, manifest
