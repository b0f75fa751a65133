"""Mine persisted arena/workload runs into per-bucket solver priors.

``repro run arena`` and the workload runner have been persisting
:class:`repro.arena.results.ArenaEntry` records through the standard
experiment persistence layer since PR 2.  This module folds any number of
those JSON files into a :class:`PortfolioModel`: for every coarse feature
bucket (:func:`repro.portfolio.features.bucket_key`), a ranking of the
solvers that have competed there, by mean arena-relative cut ratio.  The
model itself is a registered result type, so it round-trips through
:func:`repro.experiments.runner.save_results` /
:func:`~repro.experiments.runner.load_results` like every other artifact
(pinned by the property pass in ``tests/test_portfolio.py``).

The miner is deliberately forgiving about record shape: any dict with
``solver``, ``n_vertices``, ``n_edges`` and ``cut_ratio`` keys counts
(that covers ``ArenaEntry`` and anything the sharded executor merged),
everything else is skipped and tallied in ``n_skipped``.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.experiments.runner import (
    load_results,
    register_result_type,
    results_from_jsonable,
    save_results,
)
from repro.portfolio.features import InstanceFeatures, bucket_key
from repro.utils.validation import ValidationError

__all__ = [
    "PortfolioModel",
    "fit_from_paths",
    "fit_from_records",
    "rank_solvers",
    "save_model",
    "load_model",
    "explain_model",
]

#: Schema tag written into every persisted model.
MODEL_SCHEMA = "repro-portfolio/v1"

#: A record must carry these keys to be mined.
_REQUIRED_KEYS = ("solver", "n_vertices", "n_edges", "cut_ratio")


@register_result_type
@dataclasses.dataclass(frozen=True)
class PortfolioModel:
    """Per-feature-bucket solver priors mined from persisted runs.

    ``buckets`` maps a bucket name (``"maxcut/small/mid"``) to a ranked
    list of rows ``{"solver", "mean_ratio", "count", "wins"}``, best
    first; ``overall`` is the same ranking computed over every record (the
    fallback when an instance lands in a bucket with no data).  Rankings
    are sorted by ``(-mean_ratio, solver)`` — deterministic across
    interpreters, which the router depends on.
    """

    buckets: Dict[str, List[Dict[str, Any]]]
    overall: List[Dict[str, Any]]
    n_reports: int
    n_records: int
    n_skipped: int = 0
    sources: List[str] = dataclasses.field(default_factory=list)
    schema: str = MODEL_SCHEMA

    def ranking_for(self, bucket: str) -> List[Dict[str, Any]]:
        """Ranked rows for *bucket*, falling back to the overall ranking."""
        return self.buckets.get(bucket) or self.overall


def _density_of(record: Dict[str, Any]) -> float:
    n = int(record["n_vertices"])
    pairs = n * (n - 1) / 2.0
    return float(record["n_edges"]) / pairs if pairs else 0.0


def _record_bucket(record: Dict[str, Any]) -> str:
    metadata = record.get("metadata") or {}
    problem_class = metadata.get("problem_class") or "maxcut"
    return bucket_key(problem_class, int(record["n_vertices"]), _density_of(record))


def _rank(stats: Dict[str, Dict[str, Any]]) -> List[Dict[str, Any]]:
    rows = []
    for solver, acc in stats.items():
        rows.append({
            "solver": solver,
            "mean_ratio": acc["ratio_sum"] / acc["count"],
            "count": acc["count"],
            "wins": acc["wins"],
        })
    rows.sort(key=lambda row: (-row["mean_ratio"], row["solver"]))
    return rows


def fit_from_records(records: Iterable[Dict[str, Any]],
                     n_reports: int = 1,
                     sources: Sequence[str] = ()) -> PortfolioModel:
    """Fold raw result dicts into a :class:`PortfolioModel`."""
    per_bucket: Dict[str, Dict[str, Dict[str, Any]]] = {}
    overall: Dict[str, Dict[str, Any]] = {}
    n_records = 0
    n_skipped = 0
    for record in records:
        if not isinstance(record, dict) \
                or any(key not in record for key in _REQUIRED_KEYS):
            n_skipped += 1
            continue
        n_records += 1
        solver = str(record["solver"])
        ratio = float(record["cut_ratio"])
        win = 1 if ratio >= 1.0 - 1e-12 else 0
        bucket = _record_bucket(record)
        for stats in (per_bucket.setdefault(bucket, {}), overall):
            acc = stats.setdefault(
                solver, {"ratio_sum": 0.0, "count": 0, "wins": 0})
            acc["ratio_sum"] += ratio
            acc["count"] += 1
            acc["wins"] += win
    return PortfolioModel(
        buckets={bucket: _rank(stats)
                 for bucket, stats in sorted(per_bucket.items())},
        overall=_rank(overall),
        n_reports=int(n_reports),
        n_records=n_records,
        n_skipped=n_skipped,
        sources=[str(s) for s in sources],
    )


def fit_from_paths(paths: Sequence[Any]) -> PortfolioModel:
    """Load persisted experiment files and mine them into one model."""
    if not paths:
        raise ValidationError("portfolio fit needs at least one result file")
    records: List[Dict[str, Any]] = []
    for path in paths:
        record = load_results(path)
        records.extend(record.results)
    model = fit_from_records(records, n_reports=len(paths),
                             sources=[str(p) for p in paths])
    if model.n_records == 0:
        raise ValidationError(
            "no minable records found (need dicts with keys "
            f"{list(_REQUIRED_KEYS)}) in {[str(p) for p in paths]}"
        )
    return model


def rank_solvers(model: PortfolioModel, features: InstanceFeatures,
                 available: Optional[Sequence[str]] = None) -> List[str]:
    """Solver keys for *features*' bucket, best first.

    When *available* is given, the ranking is filtered to that set (order
    still by prior); solvers the model has never seen are appended in the
    caller's order so routing degrades to the caller's own preference.
    """
    bucket = bucket_key(features.problem_class, features.n_vertices,
                        features.density)
    ranked = [row["solver"] for row in model.ranking_for(bucket)]
    if available is None:
        return ranked
    allowed = list(available)
    ordered = [s for s in ranked if s in allowed]
    ordered.extend(s for s in allowed if s not in ordered)
    return ordered


def save_model(path: Any, model: PortfolioModel) -> None:
    """Persist *model* through the standard experiment layer."""
    save_results(path, "portfolio-model", [model],
                 config={"schema": model.schema, "sources": model.sources})


def load_model(path: Any) -> PortfolioModel:
    """Load a model previously written by :func:`save_model`."""
    record = load_results(path)
    if record.result_type() != "PortfolioModel" or len(record.results) != 1:
        raise ValidationError(
            f"{path!r} is not a portfolio model file "
            f"(result type {record.result_type()!r})"
        )
    (model,) = results_from_jsonable(record.results)
    if model.schema != MODEL_SCHEMA:
        raise ValidationError(
            f"unsupported portfolio model schema {model.schema!r} "
            f"(expected {MODEL_SCHEMA!r})"
        )
    return model


def explain_model(model: PortfolioModel, top: int = 3) -> str:
    """Human-readable rendering for ``repro portfolio explain``."""
    lines = [
        f"Portfolio model ({model.schema})",
        f"  mined {model.n_records} records from {model.n_reports} report(s)"
        + (f", skipped {model.n_skipped}" if model.n_skipped else ""),
        "",
    ]
    def _render(title: str, rows: List[Dict[str, Any]]) -> None:
        lines.append(title)
        for row in rows[:top]:
            lines.append(
                f"    {row['solver']:<14s} mean ratio {row['mean_ratio']:.4f}"
                f"  wins {row['wins']}/{row['count']}"
            )
    _render("  overall:", model.overall)
    for bucket, rows in model.buckets.items():
        _render(f"  {bucket}:", rows)
    return "\n".join(lines)
