"""Tracing core: lightweight spans with a near-zero disabled fast path.

A *span* is one timed region of the stack — ``with span("engine.solve",
graph=name):`` — recorded with monotonic ``time.perf_counter`` timestamps and
nested through a :mod:`contextvars` variable, so parent/child relationships
are correct per thread (and per task) without any cooperation from callers:
the innermost open span in the current context is the parent of the next one
opened there.  Worker threads start with no current span, so one request's
spans can never become children of another request's — the property the
serve batching tests pin.

Collection is process-global and explicitly switched:

* disabled (the default), :func:`span` returns a shared no-op context
  manager — one module-global load, one ``is None`` test, no allocation
  beyond the call's own kwargs.  Instrumented hot paths therefore cost
  nanoseconds per call when nobody is profiling, and the ``obs-overhead``
  bench scenario gates that this stays true;
* enabled (:func:`enable_tracing`, or the :func:`capture` context manager),
  finished spans append :class:`SpanRecord` rows to a lock-protected global
  buffer, in completion order.

Two invariants the engine relies on:

* tracing **never touches seeding** — no RNG is consumed anywhere in this
  module, so every bit-identity pin (goldens, block-size invariance, fused vs
  per-instance, served vs standalone) holds with tracing on or off;
* span bookkeeping is strictly additive — instrumented code computes the
  same values in the same order whether or not a trace is being collected.

:func:`accumulate` is the hot-loop companion: code that runs once per
read-out round (cut evaluation, learner steps) must not open a span per
round, so it adds elapsed seconds / counts onto the attrs of the *current*
open span instead — one dict update per round, only while tracing is
enabled.

This module deliberately depends on nothing above the standard library, so
any layer of the stack (cuts, engine, serve, workloads) may import it
without cycles.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

__all__ = [
    "SpanRecord",
    "Trace",
    "span",
    "accumulate",
    "current_span",
    "tracing_enabled",
    "enable_tracing",
    "disable_tracing",
    "capture",
    "suspended",
    "mark",
    "spans_since",
    "summarize_spans",
]


@dataclass(frozen=True)
class SpanRecord:
    """One finished span: identity, nesting, monotonic timing, attributes.

    ``start_seconds`` is a ``time.perf_counter`` reading — meaningful only
    relative to other spans of the same process, which is all a trace needs.
    """

    name: str
    span_id: int
    parent_id: Optional[int]
    start_seconds: float
    duration_seconds: float
    thread: str
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe rendering (checkpoint metadata, trace files)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_seconds": self.start_seconds,
            "duration_seconds": self.duration_seconds,
            "thread": self.thread,
            "attrs": dict(self.attrs),
        }


# -- global collection state -------------------------------------------------

# None = tracing disabled (THE fast-path check); a list = the live buffer.
_buffer: Optional[List[SpanRecord]] = None
_buffer_lock = threading.Lock()
_ids = itertools.count(1)

#: The innermost open span of the current context (thread / task), or None.
_current: "contextvars.ContextVar[Optional[_Span]]" = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)


def tracing_enabled() -> bool:
    """Whether spans are currently being collected."""
    return _buffer is not None


def enable_tracing() -> None:
    """Start collecting spans into the global buffer (idempotent)."""
    global _buffer
    with _buffer_lock:
        if _buffer is None:
            _buffer = []


def disable_tracing() -> List[SpanRecord]:
    """Stop collecting; returns (and clears) every span recorded so far."""
    global _buffer
    with _buffer_lock:
        spans = _buffer or []
        _buffer = None
    return spans


def mark() -> int:
    """Current buffer length — pair with :func:`spans_since` for sub-traces."""
    with _buffer_lock:
        return len(_buffer) if _buffer is not None else 0


def spans_since(marker: int) -> List[SpanRecord]:
    """Spans recorded since :func:`mark` returned *marker* (empty if disabled)."""
    with _buffer_lock:
        if _buffer is None:
            return []
        return list(_buffer[marker:])


# -- the span context managers ----------------------------------------------


class _NoOpSpan:
    """Shared do-nothing span: what :func:`span` returns while disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoOpSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def set(self, **attrs: Any) -> None:
        pass

    def add(self, key: str, value: float) -> None:
        pass


_NOOP = _NoOpSpan()


class _Span:
    """One live span; records itself into the buffer on exit."""

    __slots__ = ("name", "attrs", "span_id", "parent_id", "_token", "_start")

    def __init__(self, name: str, attrs: Dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "_Span":
        parent = _current.get()
        self.span_id = next(_ids)
        self.parent_id = parent.span_id if parent is not None else None
        self._token = _current.set(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> bool:
        duration = time.perf_counter() - self._start
        _current.reset(self._token)
        record = SpanRecord(
            name=self.name,
            span_id=self.span_id,
            parent_id=self.parent_id,
            start_seconds=self._start,
            duration_seconds=duration,
            thread=threading.current_thread().name,
            attrs=self.attrs,
        )
        with _buffer_lock:
            # Spans open across a disable are dropped rather than resurrect
            # the buffer: a capture's scope is decided by the capturer.
            if _buffer is not None:
                _buffer.append(record)
        return False

    def set(self, **attrs: Any) -> None:
        """Attach/overwrite attributes on the open span."""
        self.attrs.update(attrs)

    def add(self, key: str, value: float) -> None:
        """Accumulate a numeric attribute (missing keys start at 0)."""
        self.attrs[key] = self.attrs.get(key, 0) + value


def span(name: str, **attrs: Any):
    """Open a traced region: ``with span("engine.solve", graph=g.name):``.

    Disabled tracing returns a shared no-op object — the fast path the
    instrumented hot code relies on.  Attribute values should be JSON-safe
    scalars (they ride into checkpoint metadata and trace files verbatim).
    """
    if _buffer is None:
        return _NOOP
    return _Span(name, attrs)


def current_span():
    """The innermost open span of this context (no-op object when none/disabled)."""
    if _buffer is None:
        return _NOOP
    live = _current.get()
    return live if live is not None else _NOOP


def accumulate(key: str, value: float) -> None:
    """Add *value* onto attribute *key* of the current open span.

    The per-round instrumentation primitive: hot loops call this instead of
    opening a span per iteration.  No-op when tracing is disabled or no span
    is open.
    """
    if _buffer is None:
        return
    live = _current.get()
    if live is not None:
        live.add(key, value)


# -- capture ------------------------------------------------------------------


class Trace:
    """The spans recorded by one :func:`capture` block, with summaries."""

    def __init__(self) -> None:
        self.spans: List[SpanRecord] = []

    def __len__(self) -> int:
        return len(self.spans)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-span-name aggregate (see :func:`summarize_spans`)."""
        return summarize_spans(self.spans)


@contextlib.contextmanager
def capture() -> Iterator[Trace]:
    """Collect spans for the duration of the block into a :class:`Trace`.

    Nests: an inner capture inside an already-enabled trace only *observes*
    (its spans stay in the outer buffer too); the outermost capture owns the
    enable/disable transition.  The yielded trace's ``spans`` list is filled
    at block exit.
    """
    trace = Trace()
    was_enabled = tracing_enabled()
    if not was_enabled:
        enable_tracing()
    marker = mark()
    try:
        yield trace
    finally:
        trace.spans = spans_since(marker)
        if not was_enabled:
            disable_tracing()


@contextlib.contextmanager
def suspended() -> Iterator[None]:
    """Temporarily disable collection (the bench overhead scenario's
    "untraced" leg runs under an outer capture and must truly not record)."""
    global _buffer
    with _buffer_lock:
        held, _buffer = _buffer, None
    try:
        yield
    finally:
        with _buffer_lock:
            if held is not None:
                _buffer = held if _buffer is None else _buffer


# -- aggregation --------------------------------------------------------------


def summarize_spans(spans: List[SpanRecord]) -> Dict[str, Dict[str, float]]:
    """Fold spans into a JSON-safe per-name aggregate.

    Returns ``{name: {"count", "total_seconds", "self_seconds"}}`` where
    ``total_seconds`` is inclusive wall time and ``self_seconds`` is
    exclusive (inclusive minus the direct children's inclusive time) — the
    number that says where the wall-clock floor actually is.  This is the
    "per-phase timing detail block" format shared by :class:`RunReport`
    metadata, shard checkpoints, and bench record details.
    """
    child_seconds: Dict[int, float] = {}
    for record in spans:
        if record.parent_id is not None:
            child_seconds[record.parent_id] = (
                child_seconds.get(record.parent_id, 0.0)
                + record.duration_seconds
            )
    summary: Dict[str, Dict[str, float]] = {}
    for record in spans:
        row = summary.setdefault(
            record.name,
            {"count": 0, "total_seconds": 0.0, "self_seconds": 0.0},
        )
        row["count"] += 1
        row["total_seconds"] += record.duration_seconds
        row["self_seconds"] += max(
            0.0, record.duration_seconds - child_seconds.get(record.span_id, 0.0)
        )
    for row in summary.values():
        row["total_seconds"] = float(row["total_seconds"])
        row["self_seconds"] = float(row["self_seconds"])
    return summary


def merge_summaries(
    summaries: List[Dict[str, Dict[str, float]]]
) -> Dict[str, Dict[str, float]]:
    """Sum per-phase summaries (the ``repro merge`` per-shard timing fold)."""
    merged: Dict[str, Dict[str, float]] = {}
    for summary in summaries:
        for name, row in summary.items():
            out = merged.setdefault(
                name, {"count": 0, "total_seconds": 0.0, "self_seconds": 0.0}
            )
            out["count"] += int(row.get("count", 0))
            out["total_seconds"] += float(row.get("total_seconds", 0.0))
            out["self_seconds"] += float(row.get("self_seconds", 0.0))
    return merged
