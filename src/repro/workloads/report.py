"""Uniform run results: the :class:`RunReport` every workload returns.

Whatever the workload — a paper figure, the solver arena, an ad-hoc spec —
its :class:`repro.workloads.Session` returns one :class:`RunReport`: the
per-trial/per-record results, a ranked leaderboard, wall-clock timing, and a
JSON-safe metadata header.  Persistence goes through the standard experiment
layer (:func:`repro.experiments.runner.save_results`), so every report lands
in the same diffable JSON format as the historical per-experiment files:
``experiment`` is the workload name, ``results`` are the records, and
``config`` is the metadata header.

:class:`RunReport` registers itself with
:func:`repro.experiments.runner.register_result_type`, so reports can also be
nested inside other saved result lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.experiments.runner import register_result_type, save_results

__all__ = ["RunReport", "WorkloadOutcome"]


@dataclass(frozen=True)
class WorkloadOutcome:
    """What a workload executor hands back to the session.

    Attributes
    ----------
    records:
        Result objects (registered dataclass types, e.g. ``Figure3Cell`` or
        ``ArenaEntry``) — one per trial/cell/row, workload-defined.
    leaderboard:
        Ranked rows, best first.  Every row carries at least ``solver`` (the
        competitor label) and ``score`` (higher = better); workloads may add
        columns (``mean_ratio``, ``wins``, timing, ...).
    metadata:
        JSON-safe extras merged into the report header (resolved configs,
        suite/graph names, engine details, ...).
    """

    records: List[Any]
    leaderboard: List[Dict[str, Any]]
    metadata: Dict[str, Any] = field(default_factory=dict)


@register_result_type
@dataclass(frozen=True)
class RunReport:
    """Uniform result of one workload session.

    Attributes
    ----------
    workload:
        The workload name (persisted as the ``experiment`` field).
    seed:
        The resolved root seed of the run (never ``None`` — sessions draw
        fresh entropy up front so the run is reproducible after the fact).
    params:
        The resolved workload parameters, JSON-safe.
    records:
        Per-trial / per-cell result objects (see :class:`WorkloadOutcome`).
    leaderboard:
        Ranked rows, best first (``solver`` + ``score`` at minimum).
    elapsed_seconds:
        Wall-clock time of the whole session.
    metadata:
        JSON-safe extras from the executor (resolved configs, graph names,
        engine details, ...).
    version:
        Library version that produced the report.
    """

    workload: str
    seed: Optional[int]
    params: Dict[str, Any]
    records: List[Any]
    leaderboard: List[Dict[str, Any]]
    elapsed_seconds: float
    metadata: Dict[str, Any] = field(default_factory=dict)
    version: str = ""

    def winner(self) -> Optional[str]:
        """Top leaderboard competitor (None for empty leaderboards)."""
        if not self.leaderboard:
            return None
        return str(self.leaderboard[0].get("solver"))

    def header(self) -> Dict[str, Any]:
        """The metadata header persisted as the saved file's ``config``.

        Workload parameters are flattened to the top level (so e.g. a saved
        arena run has ``config["suite"]``, exactly like the historical
        format), with the reserved keys on top.
        """
        return {
            **self.params,
            "workload": self.workload,
            "seed": self.seed,
            "leaderboard": self.leaderboard,
            "elapsed_seconds": self.elapsed_seconds,
            "metadata": self.metadata,
        }

    def save(self, path) -> Any:
        """Persist through :func:`repro.experiments.runner.save_results`."""
        return save_results(path, self.workload, self.records, config=self.header())
