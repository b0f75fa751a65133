"""Solver-as-a-service: async queue, cross-request batching, content caches.

``repro serve`` turns the solver stack into a long-lived daemon: requests
(a graph, or any compiled problem class) are admitted into a queue, coalesced
with other same-shape requests into single engine batches along the
(trials, neurons) axis, and answered bit-identically to standalone engine
runs with the same seed.  See DESIGN.md §"Solver service".

Layering (each importable without the ones above it):

:mod:`repro.serve.cache`
    :class:`ContentAddressedCache` — the bounded, thread-safe LRU keyed by
    content fingerprints (also backs the workload executor's suite cache).
:mod:`repro.serve.protocol`
    Wire format: request parsing/validation, payload shaping.
:mod:`repro.serve.service`
    :class:`SolverService` — admission policy, batching scheduler, caches,
    metrics; transport-independent.
:mod:`repro.serve.http` / :mod:`repro.serve.client`
    Stdlib HTTP (TCP or unix-socket) shell and the matching client.
"""

from repro.serve.cache import ContentAddressedCache, content_key
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.http import (
    ServeHTTPServer,
    ServeUnixServer,
    serve_http,
    serve_unix,
)
from repro.serve.protocol import (
    SolveSpec,
    error_payload,
    parse_solve_payload,
    solve_payload,
)
from repro.serve.service import (
    AdmissionError,
    ServeJob,
    ServiceConfig,
    SolverService,
)

__all__ = [
    "AdmissionError",
    "ContentAddressedCache",
    "ServeClient",
    "ServeClientError",
    "ServeHTTPServer",
    "ServeJob",
    "ServeUnixServer",
    "ServiceConfig",
    "SolveSpec",
    "SolverService",
    "content_key",
    "error_payload",
    "parse_solve_payload",
    "serve_http",
    "serve_unix",
    "solve_payload",
]
