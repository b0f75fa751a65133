"""The workload registry: named, parameterised workload definitions.

A :class:`Workload` bundles a name, a defaults table, a spec factory, and an
optional :class:`ShardAdapter`.  Registered workloads are discoverable via
:func:`list_workloads` and runnable via ``repro run <name>`` or
:func:`repro.workloads.run_workload`; the five paper workloads
(``figure3``, ``figure4``, ``table1``, ``ablation``, ``arena``) are
registered on import of :mod:`repro.workloads.paper`.

Every workload executes the same way: ``units(spec, n_shards)`` enumerates
its atomic units, ``run_units(spec, units)`` runs any subset of them into
JSON-safe payloads, and ``merge(spec, units, payloads)`` folds the payloads
of all units into the workload's outcome.  A monolithic run is those three
calls in process with ``n_shards=1``; a sharded run
(:mod:`repro.distrib`) spreads ``run_units`` over checkpointed shards.

Registering a new workload::

    register_workload(Workload(
        name="my-sweep",
        summary="one-line description",
        defaults={"trials": 4, "samples": 128},
        build_spec=lambda params: WorkloadSpec(...),
    ))

A workload without an ``adapter`` runs through the generic capability-routed
executor's (graph x solver x trial-range) cell units
(:data:`repro.workloads.executor.CELL_ADAPTER`), so most new scenarios are
nothing but a ``build_spec`` of ~30 lines.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.utils.validation import ValidationError
from repro.workloads.report import RunReport, WorkloadOutcome
from repro.workloads.spec import WorkloadSpec

__all__ = [
    "ShardAdapter",
    "Workload",
    "WORKLOADS",
    "register_workload",
    "get_workload",
    "list_workloads",
    "accepted_params",
    "resolve_params",
    "coerce_param",
    "coerce_param_strings",
]

SpecFactory = Callable[[Dict[str, Any]], WorkloadSpec]
Formatter = Callable[[RunReport], str]
Unit = Tuple
UnitsFn = Callable[[WorkloadSpec, int], List[Unit]]
RunUnitsFn = Callable[[WorkloadSpec, Sequence[Unit]], List[Any]]
MergeFn = Callable[[WorkloadSpec, Sequence[Unit], Sequence[Any]], WorkloadOutcome]


@dataclass(frozen=True)
class ShardAdapter:
    """The unit-enumerate / unit-run / merge triple every workload runs as.

    ``units(spec, n_shards)``
        The run's atomic units as JSON-safe tuples, in canonical order.
        Units are *seed-independent*: every unit derives its randomness from
        the spec seed and its own key (the paired
        ``SeedSequence(seed, spawn_key=...)`` convention), never from which
        shard runs it.
    ``run_units(spec, units)``
        Execute a subset of units; one JSON-safe payload per unit, aligned
        with the input order.
    ``merge(spec, units, payloads)``
        Fold the payloads of **all** units (in canonical order) into the
        workload's :class:`~repro.workloads.report.WorkloadOutcome`.
    """

    units: UnitsFn
    run_units: RunUnitsFn
    merge: MergeFn


@dataclass(frozen=True)
class Workload:
    """Metadata + factories for one registered workload.

    Attributes
    ----------
    name:
        Registry key (``repro run <name>``).
    summary:
        One-line human description for listings.
    defaults:
        Parameter defaults; the keys define the accepted ``--param`` names
        (plus the implicit ``seed``), and each default's type drives CLI
        string coercion.
    build_spec:
        ``params -> WorkloadSpec`` (params are the defaults merged with
        overrides, including ``seed``).
    adapter:
        Optional :class:`ShardAdapter`; when omitted the spec runs as the
        generic capability-routed executor's cell units.
    formatter:
        Optional ``report -> str`` used by the CLI to print results.
    plotter:
        Optional ``report -> str`` used by the CLI under ``--plot``.
    """

    name: str
    summary: str
    defaults: Mapping[str, Any]
    build_spec: SpecFactory
    adapter: Optional[ShardAdapter] = None
    formatter: Optional[Formatter] = None
    plotter: Optional[Formatter] = None

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValidationError(
                f"workload name must be a non-empty string, got {self.name!r}"
            )
        if not callable(self.build_spec):
            raise ValidationError(f"workload {self.name!r}: build_spec must be callable")


#: Name → :class:`Workload` registry.
WORKLOADS: Dict[str, Workload] = {}


def register_workload(workload: Workload, overwrite: bool = False) -> Workload:
    """Add *workload* to the registry and return it (collisions raise)."""
    if workload.name in WORKLOADS and not overwrite:
        raise ValidationError(
            f"workload {workload.name!r} is already registered; "
            f"pass overwrite=True to replace it"
        )
    WORKLOADS[workload.name] = workload
    return workload


def list_workloads() -> List[str]:
    """All registered workload names, sorted."""
    return sorted(WORKLOADS.keys())


def get_workload(name: str) -> Workload:
    """Look up a workload; unknown names raise with a did-you-mean hint."""
    try:
        return WORKLOADS[name]
    except KeyError:
        message = f"unknown workload {name!r}; available: {list_workloads()}"
        close = difflib.get_close_matches(str(name), list_workloads(), n=1)
        if close:
            message += f" (did you mean {close[0]!r}?)"
        raise ValidationError(message) from None


def accepted_params(workload: Workload) -> Dict[str, Any]:
    """The workload's full parameter table: declared defaults plus ``seed``."""
    return {"seed": 0, **dict(workload.defaults)}


def _check_param_key(workload: Workload, key: str, accepted: Mapping[str, Any]) -> None:
    if key not in accepted:
        raise ValidationError(
            f"workload {workload.name!r} has no parameter {key!r}; "
            f"accepted: {sorted(accepted)}"
        )


def resolve_params(
    workload: Workload, overrides: Optional[Mapping[str, Any]] = None
) -> Dict[str, Any]:
    """Merge *overrides* over the workload's defaults (unknown keys raise).

    ``seed`` is always accepted (default 0) on top of the declared defaults.
    """
    params = accepted_params(workload)
    for key, value in dict(overrides or {}).items():
        _check_param_key(workload, key, params)
        params[key] = value
    return params


def coerce_param_strings(
    workload: Workload, items: Mapping[str, Any]
) -> Dict[str, Any]:
    """Coerce raw CLI parameter strings against the workload's defaults.

    Unknown keys raise the same error as :func:`resolve_params`; non-string
    values (already-typed CLI sugar flags like ``--trials``) pass through
    after the key check.
    """
    accepted = accepted_params(workload)
    out: Dict[str, Any] = {}
    for key, value in dict(items).items():
        _check_param_key(workload, key, accepted)
        out[key] = (
            coerce_param(key, value, accepted[key])
            if isinstance(value, str) else value
        )
    return out


def coerce_param(key: str, text: str, default: Any) -> Any:
    """Coerce the CLI string *text* to the type of the parameter's *default*.

    Tuples/lists split on commas (element type taken from the default's first
    element, numbers otherwise); booleans accept true/false/1/0/yes/no;
    ``none`` clears optional parameters.
    """
    text = text.strip()
    if text.lower() in ("none", "null") and not isinstance(default, str):
        return None
    if isinstance(default, bool):
        if text.lower() in ("1", "true", "yes", "on"):
            return True
        if text.lower() in ("0", "false", "no", "off"):
            return False
        raise ValidationError(f"parameter {key!r} expects a boolean, got {text!r}")
    if isinstance(default, (tuple, list)):
        items = [item.strip() for item in text.split(",") if item.strip()]
        element = default[0] if len(default) else ""
        return tuple(_coerce_scalar(key, item, element) for item in items)
    return _coerce_scalar(key, text, default)


def _coerce_scalar(key: str, text: str, default: Any) -> Any:
    if isinstance(default, bool):  # before int: bool is an int subclass
        return coerce_param(key, text, default)
    if isinstance(default, int):
        try:
            return int(text)
        except ValueError:
            raise ValidationError(
                f"parameter {key!r} expects an integer, got {text!r}"
            ) from None
    if isinstance(default, float) or default is None:
        # None defaults are optional *numbers* (e.g. max_seconds); "none"
        # was already handled by coerce_param before reaching here.
        try:
            return float(text) if ("." in text or "e" in text.lower()) else int(text)
        except ValueError:
            raise ValidationError(
                f"parameter {key!r} expects a number"
                + (" or 'none'" if default is None else "")
                + f", got {text!r}"
            ) from None
    return text
