"""Experiment orchestration with JSON result persistence.

The benchmark harness and the CLI both want to (a) run a named experiment,
(b) save its results to disk in a stable, diffable format, and (c) reload
earlier results for comparison without re-running hours of sampling.  This
module provides that thin layer: every experiment's result is converted to
plain JSON-serialisable dictionaries with a metadata header (experiment id,
configuration summary, library version, timestamp).

It is also the one record codec.  :func:`results_to_jsonable` writes a
registered result type as a dict tagged with its ``__type__``, and
:func:`results_from_jsonable` rebuilds it, field by field from the
dataclass annotations: ``np.ndarray`` and ``Optional[np.ndarray]`` fields
come back through ``np.asarray``, ``Dict[str, np.ndarray]`` as a dict of
arrays, dataclass-typed fields (``SolveResult.best_cut``) recursively, and
every other field (``Any`` included) as its JSON value.  A workload
adapter's shard payload is the saved JSON form of its records, so shard
files, checkpoints and model files all decode through this pair.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
import typing
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.engine.request import SolveResult
from repro.experiments.ablations import AblationPoint
from repro.experiments.figure3 import Figure3Cell
from repro.experiments.figure4 import Figure4Panel
from repro.experiments.table1 import Table1Row
from repro.utils.validation import ValidationError

__all__ = [
    "results_to_jsonable",
    "results_from_jsonable",
    "save_results",
    "atomic_write_json",
    "load_results",
    "register_result_type",
    "ExperimentRecord",
]

PathLike = Union[str, os.PathLike]

_RESULT_TYPES: tuple = (Figure3Cell, Figure4Panel, Table1Row, AblationPoint, SolveResult)


def register_result_type(cls: type) -> type:
    """Allow dataclass *cls* through :func:`results_to_jsonable`.

    Extension point for downstream subsystems (the solver arena registers
    its :class:`repro.arena.results.ArenaEntry` this way) so this module
    never has to import them.  Returns *cls*, so it can be used as a class
    decorator.  Idempotent; a different class whose ``__name__`` is taken
    is refused, so a saved ``__type__`` names one class only.
    """
    global _RESULT_TYPES
    if not (dataclasses.is_dataclass(cls) and isinstance(cls, type)):
        raise ValidationError(
            f"result types must be dataclasses, got {cls!r}"
        )
    if cls in _RESULT_TYPES:
        return cls
    if _result_type_named(cls.__name__) is not None:
        raise ValidationError(
            f"result type name {cls.__name__!r} is already registered"
        )
    _RESULT_TYPES = _RESULT_TYPES + (cls,)
    return cls


def _result_type_named(name: Any) -> Optional[type]:
    return next((t for t in _RESULT_TYPES if t.__name__ == name), None)


def _to_jsonable(value: Any) -> Any:
    """Recursively convert experiment objects / numpy types to JSON-safe values."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, dict):
        return {str(k): _to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_to_jsonable(v) for v in value]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__type__": type(value).__name__,
            **{
                f.name: _to_jsonable(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise ValidationError(f"cannot serialise value of type {type(value).__name__}")


def results_to_jsonable(results: Sequence[Any]) -> List[Dict[str, Any]]:
    """Convert a list of experiment result objects into JSON-safe dictionaries."""
    out = []
    for result in results:
        if not isinstance(result, _RESULT_TYPES):
            raise ValidationError(
                f"unsupported result type {type(result).__name__}; expected one of "
                f"{[t.__name__ for t in _RESULT_TYPES]}"
            )
        out.append(_to_jsonable(result))
    return out


def _from_jsonable(hint: Any, value: Any) -> Any:
    """Rebuild one field value from its JSON form and type annotation."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is Union and type(None) in args:
        if value is None:
            return None
        (hint,) = [arg for arg in args if arg is not type(None)]
        args = typing.get_args(hint)
    if hint is np.ndarray:
        return np.asarray(value)
    if typing.get_origin(hint) is dict and args[1:] == (np.ndarray,):
        if not isinstance(value, dict):
            raise ValidationError(f"expected a dict of arrays, got {value!r:.80}")
        return {key: np.asarray(item) for key, item in value.items()}
    if dataclasses.is_dataclass(hint):
        return _record_from_jsonable(hint, value)
    return value


def _record_from_jsonable(cls: type, payload: Any) -> Any:
    if not isinstance(payload, dict):
        raise ValidationError(
            f"a {cls.__name__} payload must be a dict, got {type(payload).__name__}"
        )
    hints = typing.get_type_hints(cls)
    values = {}
    for f in dataclasses.fields(cls):
        if f.name in payload:
            values[f.name] = _from_jsonable(hints[f.name], payload[f.name])
        elif f.default is dataclasses.MISSING \
                and f.default_factory is dataclasses.MISSING:
            raise ValidationError(f"{cls.__name__} payload is missing {f.name!r}")
    return cls(**values)


def results_from_jsonable(payloads: Sequence[Any]) -> List[Any]:
    """Rebuild result objects from :func:`results_to_jsonable` output.

    Each payload's ``__type__`` picks the registered result type, and each
    field is rebuilt from its annotation (see the module docstring).  A
    non-dict payload, an unknown ``__type__`` or a missing required field
    raises :class:`ValidationError`.
    """
    out = []
    for payload in payloads:
        name = payload.get("__type__") if isinstance(payload, dict) else None
        cls = _result_type_named(name)
        if cls is None:
            raise ValidationError(f"not a registered result payload: {payload!r:.80}")
        out.append(_record_from_jsonable(cls, payload))
    return out


@dataclasses.dataclass(frozen=True)
class ExperimentRecord:
    """A persisted experiment: metadata header plus serialised results."""

    experiment: str
    created_at: float
    config: Dict[str, Any]
    results: List[Dict[str, Any]]
    version: str = ""

    def result_type(self) -> Optional[str]:
        """The ``__type__`` of the first result (None for empty records)."""
        if not self.results:
            return None
        return self.results[0].get("__type__")


def save_results(
    path: PathLike,
    experiment: str,
    results: Sequence[Any],
    config: Optional[Dict[str, Any]] = None,
) -> ExperimentRecord:
    """Serialise *results* under a metadata header and write them to *path*.

    Parameters
    ----------
    path:
        Output JSON file (parent directory must exist).
    experiment:
        Experiment identifier, e.g. ``"figure3"`` or ``"table1"``.
    results:
        Result objects from the experiment runners.
    config:
        Optional JSON-safe description of the configuration used.
    """
    from repro import __version__

    record = ExperimentRecord(
        experiment=str(experiment),
        created_at=time.time(),
        config=_to_jsonable(config or {}),
        results=results_to_jsonable(results),
        version=__version__,
    )
    atomic_write_json(path, dataclasses.asdict(record))
    return record


def atomic_write_json(path: PathLike, payload: Any) -> None:
    """Write *payload* as JSON via a sibling temp file + ``os.replace``.

    A crash (or kill) mid-write never leaves a truncated JSON at *path* —
    the invariant the sharded executor's resume logic relies on ("an
    existing checkpoint file is a complete checkpoint").  The temp name
    comes from :func:`tempfile.mkstemp` (not the PID): shard workers on
    *different hosts* can share a checkpoint directory over NFS, where PIDs
    collide but mkstemp's O_EXCL create cannot.  Shared by
    :func:`save_results` and the checkpoint manifest writer so both carry
    identical durability guarantees.
    """
    import tempfile

    # Write through symlinks (matching plain open(path, "w")) rather than
    # replacing the link itself.
    path = os.path.realpath(os.fspath(path))
    directory = os.path.dirname(path) or "."
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".tmp.", dir=directory
    )
    try:
        # mkstemp creates 0600; restore the umask-governed mode plain
        # open() would have used, so saved results stay group/world
        # readable where the environment allows it.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp_path, 0o666 & ~umask)
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
        os.replace(tmp_path, path)
    finally:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)


def load_results(path: PathLike) -> ExperimentRecord:
    """Load an :class:`ExperimentRecord` previously written by :func:`save_results`."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ValidationError(f"result file {path!r} does not hold a JSON object")
    missing = {"experiment", "created_at", "config", "results"} - set(payload)
    if missing:
        raise ValidationError(f"result file {path!r} is missing fields: {sorted(missing)}")
    if not isinstance(payload["results"], list):
        raise ValidationError(f"result file {path!r} has non-list results")
    return ExperimentRecord(
        experiment=payload["experiment"],
        created_at=float(payload["created_at"]),
        config=payload["config"],
        results=payload["results"],
        version=payload.get("version", ""),
    )
