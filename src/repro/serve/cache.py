"""Content-addressed caching for the solve service (and the executor).

A :class:`ContentAddressedCache` is a bounded, thread-safe LRU mapping
*content keys* — stable hashes of what a value was built from — to built
values.  The point of content addressing is that the key names the inputs,
not the requester: any request that hashes to the same key can reuse the
value, whoever built it.  The library derives keys from three fingerprints:

* :meth:`repro.graphs.graph.Graph.fingerprint` — hash of the graph structure
  (vertex count + canonical edge/weight arrays, name excluded);
* :meth:`repro.problems.base.Problem.fingerprint` — hash of a problem
  instance's canonical JSON form (the same form ``distrib`` checkpoints and
  :mod:`repro.problems.io` persist);
* :func:`content_key` — a generic hash over JSON-safe parts, for composite
  keys such as ``(circuit kind, graph fingerprint, setup seed)``.

Consumers:

* the generic workload executor's suite-build cache
  (:data:`repro.workloads.executor._GRAPH_CACHE`) — materialised graph
  suites, keyed by the source description + seed;
* the solve service (:mod:`repro.serve.service`) — built circuits (the
  LIF-GW SDP solve is the expensive offline stage) and compiled problems
  (``compile_to_maxcut`` output), so repeated instances skip compile and
  setup entirely.

Every cache keeps hit/miss/eviction counters; :meth:`ContentAddressedCache.stats`
renders them JSON-safe for the service's ``/stats`` endpoint.

This module deliberately depends on nothing above the standard library, so
any layer of the stack may import it without cycles.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Optional

from repro.utils.validation import ValidationError

__all__ = [
    "ContentAddressedCache",
    "content_key",
    "graph_key",
    "problem_key",
]


def content_key(*parts: Any) -> str:
    """Stable hash of JSON-safe *parts* — the generic content address.

    Parts are rendered as a sorted-key JSON list, so equal values produce
    equal keys across processes.  Non-JSON-safe parts raise ``TypeError``;
    hash objects (graphs, problems) should contribute their ``fingerprint()``
    string instead of themselves.
    """
    canonical = json.dumps(list(parts), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:32]


def graph_key(graph, *parts: Any) -> str:
    """Content key of a graph plus extra JSON-safe qualifiers."""
    return content_key(graph.fingerprint(), *parts)


def problem_key(problem, *parts: Any) -> str:
    """Content key of a problem instance plus extra JSON-safe qualifiers."""
    return content_key(problem.fingerprint(), *parts)


_MISSING = object()


class ContentAddressedCache:
    """A bounded, thread-safe LRU cache keyed by content hashes.

    Parameters
    ----------
    max_entries:
        Size bound; inserting beyond it evicts the least-recently-used
        entry.  Must be >= 1 (a cache that can hold nothing is a bug, not a
        configuration).
    name:
        Label used in :meth:`stats` renderings.
    """

    def __init__(self, max_entries: int = 64, name: str = "cache") -> None:
        if not isinstance(max_entries, int) or isinstance(max_entries, bool) \
                or max_entries < 1:
            raise ValidationError(
                f"max_entries must be an integer >= 1, got {max_entries!r}"
            )
        self.name = str(name)
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self._lock = threading.RLock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # -- core mapping ------------------------------------------------------

    def get(self, key: str, default: Any = None) -> Any:
        """Return the cached value for *key* (refreshing its recency)."""
        with self._lock:
            if key in self._entries:
                self._hits += 1
                self._entries.move_to_end(key)
                return self._entries[key]
            self._misses += 1
            return default

    def put(self, key: str, value: Any) -> None:
        """Insert (or refresh) ``key -> value``, evicting LRU entries."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self._evictions += 1

    def get_or_build(self, key: str, builder: Callable[[], Any]) -> Any:
        """Return the cached value, building and inserting it on a miss.

        The builder runs under the cache lock, so concurrent requests for
        the same key build once — exactly the behaviour the solve service
        wants for its expensive circuit/compile builds (a second request for
        the same content blocks briefly instead of duplicating the work).
        """
        with self._lock:
            if key in self._entries:
                self._hits += 1
                self._entries.move_to_end(key)
                return self._entries[key]
            self._misses += 1
            value = builder()
            self.put(key, value)
            return value

    def invalidate(self, key: str) -> bool:
        """Drop *key* if present; returns whether anything was removed."""
        with self._lock:
            return self._entries.pop(key, _MISSING) is not _MISSING

    def clear(self) -> None:
        """Drop every entry (counters are kept — they describe the lifetime)."""
        with self._lock:
            self._entries.clear()

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- introspection -----------------------------------------------------

    @property
    def hits(self) -> int:
        return self._hits

    @property
    def misses(self) -> int:
        return self._misses

    @property
    def evictions(self) -> int:
        return self._evictions

    def hit_rate(self) -> float:
        """Lifetime hit rate (0.0 before any lookup)."""
        total = self._hits + self._misses
        return self._hits / total if total else 0.0

    def stats(self) -> Dict[str, Any]:
        """JSON-safe counters for ``/stats`` and bench detail payloads."""
        with self._lock:
            return {
                "name": self.name,
                "size": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "hit_rate": round(self.hit_rate(), 4),
            }

    def __repr__(self) -> str:  # pragma: no cover - repr formatting
        return (
            f"ContentAddressedCache(name={self.name!r}, "
            f"size={len(self)}/{self.max_entries}, "
            f"hits={self._hits}, misses={self._misses})"
        )
