"""Atomic, resumable shard checkpointing.

A sharded run (:func:`repro.distrib.run_sharded`) owns one checkpoint
directory::

    <dir>/manifest.json       # the run's identity: spec, units, fingerprint
    <dir>/shard-0000.json     # one completed shard, atomically written
    <dir>/shard-0001.json
    ...

Every file goes through :func:`repro.experiments.runner.save_results`, which
writes via a temp file + ``os.replace`` — so a killed shard never leaves a
truncated JSON behind, and an *existing* shard file is always a *complete*
shard.  That invariant is what makes resume trivial: a shard file that loads
and matches the manifest fingerprint is done; anything else (missing,
corrupt, foreign) is re-run.

:class:`ShardCheckpoint` is a registered result type
(:func:`repro.experiments.runner.register_result_type`), so shard files are
ordinary experiment records — loadable with
:func:`repro.experiments.runner.load_results` and diffable like any other
persisted result.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.experiments.runner import (
    atomic_write_json,
    load_results,
    register_result_type,
    results_from_jsonable,
    save_results,
)
from repro.utils.validation import ValidationError

__all__ = ["ShardCheckpoint", "CheckpointStore", "MANIFEST_NAME"]

MANIFEST_NAME = "manifest.json"


@register_result_type
@dataclass(frozen=True)
class ShardCheckpoint:
    """One completed shard: its unit keys and their JSON-safe payloads.

    Attributes
    ----------
    workload:
        Workload name of the owning run.
    shard_index, n_shards:
        This shard's position in the split.
    fingerprint:
        The run fingerprint (hash of spec + shard count); a checkpoint only
        counts as complete for a run with the same fingerprint.
    units:
        The unit keys this shard executed, in execution order (JSON-safe
        tuples, stored as lists).
    payloads:
        One JSON-safe payload per unit, aligned with ``units`` — the
        adapter-defined partial results the merge step folds.
    elapsed_seconds:
        Wall-clock time the shard's execution took.
    """

    workload: str
    shard_index: int
    n_shards: int
    fingerprint: str
    units: List[Any]
    payloads: List[Any]
    elapsed_seconds: float = 0.0
    metadata: Dict[str, Any] = field(default_factory=dict)


class CheckpointStore:
    """Filesystem layout + atomic IO for one sharded run's checkpoints."""

    def __init__(self, directory: Union[str, os.PathLike]) -> None:
        self.directory = os.fspath(directory)

    # -- manifest -----------------------------------------------------------

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.directory, MANIFEST_NAME)

    def read_manifest(self) -> Optional[Dict[str, Any]]:
        """The stored manifest, or ``None`` when absent/unreadable."""
        try:
            with open(self.manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        return manifest if isinstance(manifest, dict) else None

    def prepare(self, manifest: Dict[str, Any], resume: bool) -> None:
        """Create the directory and reconcile *manifest* with any existing one.

        A fresh directory just records the manifest.  An existing manifest
        with a **different** fingerprint means the directory belongs to a
        different run (different spec or shard count) — that is always an
        error, resumable or not, so one run's checkpoints can never be merged
        into another's.
        """
        os.makedirs(self.directory, exist_ok=True)
        existing = self.read_manifest()
        if existing is not None:
            if existing.get("fingerprint") != manifest.get("fingerprint"):
                raise ValidationError(
                    f"checkpoint directory {self.directory!r} belongs to a "
                    f"different run (fingerprint {existing.get('fingerprint')!r}"
                    f" != {manifest.get('fingerprint')!r}); use a fresh "
                    f"directory or delete the old checkpoints"
                )
            return
        atomic_write_json(self.manifest_path, manifest)

    # -- shards -------------------------------------------------------------

    def shard_path(self, shard_index: int) -> str:
        return os.path.join(self.directory, f"shard-{shard_index:04d}.json")

    def save_shard(self, checkpoint: ShardCheckpoint) -> None:
        """Persist one completed shard atomically."""
        save_results(
            self.shard_path(checkpoint.shard_index),
            f"shard:{checkpoint.workload}",
            [checkpoint],
            config={
                "workload": checkpoint.workload,
                "shard_index": checkpoint.shard_index,
                "n_shards": checkpoint.n_shards,
                "fingerprint": checkpoint.fingerprint,
            },
        )

    def load_shard(
        self, shard_index: int, fingerprint: str
    ) -> Optional[ShardCheckpoint]:
        """Load shard *shard_index* if it is complete for this run.

        Returns ``None`` — "treat as missing, re-run" — for absent, corrupt,
        or foreign (fingerprint-mismatched) files.  Never raises for bad
        files: a half-written checkpoint from a crashed run without atomic
        IO, or a stray file, must not poison resume.
        """
        try:
            record = load_results(self.shard_path(shard_index))
            if len(record.results) != 1:
                return None
            (checkpoint,) = results_from_jsonable(record.results)
        except (OSError, json.JSONDecodeError, ValidationError, ValueError):
            return None
        if not isinstance(checkpoint, ShardCheckpoint):
            return None
        if checkpoint.fingerprint != fingerprint:
            return None
        if checkpoint.shard_index != shard_index:
            return None
        # A parseable record with malformed fields (units: null, payloads a
        # scalar, ...) is just as foreign as a corrupt file — re-run, never
        # raise, per the validate-or-redo contract above.
        if not isinstance(checkpoint.units, list) or not isinstance(
            checkpoint.payloads, list
        ):
            return None
        if len(checkpoint.units) != len(checkpoint.payloads):
            return None
        return checkpoint

    def completed_shards(self, n_shards: int, fingerprint: str) -> List[int]:
        """Indices of shards with a valid checkpoint for this run."""
        return [
            index
            for index in range(n_shards)
            if self.load_shard(index, fingerprint) is not None
        ]


def unit_key(unit: Any) -> Tuple:
    """Normalise a unit (possibly JSON-round-tripped) into a hashable key."""
    if isinstance(unit, (list, tuple)):
        return tuple(unit_key(item) for item in unit)
    return unit
