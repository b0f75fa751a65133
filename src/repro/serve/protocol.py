"""Wire format of the solve service: request parsing, response shaping.

One request = one JSON object describing a solve:

.. code-block:: json

    {"graph": {"n_vertices": 4, "edges": [[0, 1, 1.0], ...]},
     "circuit": "lif_tr", "trials": 8, "samples": 64, "seed": 7}

or, for any compiled problem class (QUBO, Ising, MAXDICUT, MAX2SAT):

.. code-block:: json

    {"problem": {"kind": "qubo", "matrix": [[...], ...]},
     "trials": 8, "samples": 64, "seed": 7}

Exactly one of ``graph`` / ``problem`` must be present.  The parsed form is
a :class:`SolveSpec`; unknown keys are rejected so client typos fail loudly
instead of silently running defaults.

Seeding and identity
--------------------
``seed`` is the request's *sampling* root: trial *i* runs with
``SeedSequence(seed, spawn_key=(i,))``, the engine's standard derivation, so
a served answer is bit-identical to ``repro solve`` / a direct engine run
with the same seed — regardless of which batch the service coalesced the
request into.  ``setup_seed`` (default 0) seeds the *offline* stages instead:
the LIF-GW circuit's SDP solve and the problem compiler's certificate probes.
It is part of the coalescing shape key, never of the per-trial sampling, so
requests with different sampling seeds still share one batch.

Portfolio routing
-----------------
``"circuit"`` (or its client-friendly alias ``"solver"``) also accepts
``"auto"`` / ``"portfolio"``: the spec parses with ``circuit="auto"`` and
the service resolves the actual engine circuit per instance at admission
time via :func:`repro.portfolio.solver.route_circuit` — *before* the job
enters the queue, so the routed request coalesces, caches, and answers
bit-identically to one that named the chosen circuit directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional

from repro.graphs.graph import Graph
from repro.graphs.io import graph_from_dict
from repro.problems.base import Problem
from repro.problems.io import problem_from_dict
from repro.utils.validation import ValidationError

__all__ = [
    "SolveSpec",
    "parse_solve_payload",
    "solve_payload",
    "error_payload",
    "KNOWN_CIRCUITS",
    "DEFAULT_CIRCUIT",
]

KNOWN_CIRCUITS = ("lif_gw", "lif_tr")
DEFAULT_CIRCUIT = "lif_gw"
#: Sentinel circuit meaning "route per instance via the portfolio".
AUTO_CIRCUIT = "auto"
#: Wire spellings that resolve to :data:`AUTO_CIRCUIT`.
_AUTO_NAMES = ("auto", "portfolio")

_KNOWN_KEYS = frozenset({
    "graph", "problem", "circuit", "solver", "trials", "samples", "seed",
    "backend", "setup_seed", "timeout_seconds", "deadline_seconds",
})


def _parse_count(payload: Mapping[str, Any], key: str, default: int) -> int:
    value = payload.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{key} must be an integer, got {value!r}")
    if value < 1:
        raise ValidationError(f"{key} must be >= 1, got {value}")
    return value


def _parse_seed(payload: Mapping[str, Any], key: str, default: int) -> int:
    value = payload.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{key} must be an integer, got {value!r}")
    if value < 0:
        raise ValidationError(f"{key} must be >= 0, got {value}")
    return value


def _parse_seconds(payload: Mapping[str, Any], key: str) -> Optional[float]:
    value = payload.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{key} must be a number, got {value!r}")
    if value <= 0:
        raise ValidationError(f"{key} must be positive, got {value}")
    return float(value)


@dataclass(frozen=True)
class SolveSpec:
    """A parsed, validated solve request (see the module docstring).

    Attributes
    ----------
    graph:
        The graph to cut.  For problem requests this stays ``None`` at parse
        time; the service fills in the *compiled* graph (cached by problem
        fingerprint).
    problem:
        The native problem instance of a ``problem`` request, else ``None``.
    circuit, backend:
        Engine routing — part of the coalescing shape key.
    n_trials, n_samples:
        Batch geometry of this request (trials are what coalescing
        concatenates; samples must match across a batch).
    seed:
        Per-trial sampling root (see module docstring).
    setup_seed:
        Offline-stage root: LIF-GW SDP build, compile certificate probes.
    timeout_seconds:
        Queue-admission deadline: if the request has not *started* executing
        within this window it is answered with a timeout error instead of
        taking a batch slot.
    deadline_seconds:
        Engine wall-clock deadline forwarded to
        :attr:`repro.engine.SolveRequest.deadline_seconds` (partial-but-valid
        truncation).  A job with a deadline always runs alone, so its
        truncation never reaches another job.
    """

    graph: Optional[Graph]
    problem: Optional[Problem]
    circuit: str = DEFAULT_CIRCUIT
    n_trials: int = 8
    n_samples: int = 64
    seed: int = 0
    backend: str = "auto"
    setup_seed: int = 0
    timeout_seconds: Optional[float] = None
    deadline_seconds: Optional[float] = None


def parse_solve_payload(payload: Any) -> SolveSpec:
    """Validate a request JSON object into a :class:`SolveSpec`."""
    if not isinstance(payload, Mapping):
        raise ValidationError(
            f"solve request must be a JSON object, got {type(payload).__name__}"
        )
    unknown = sorted(set(payload) - _KNOWN_KEYS)
    if unknown:
        raise ValidationError(
            f"unknown request key(s) {unknown}; known keys: {sorted(_KNOWN_KEYS)}"
        )
    has_graph = payload.get("graph") is not None
    has_problem = payload.get("problem") is not None
    if has_graph == has_problem:
        raise ValidationError(
            "a solve request needs exactly one of 'graph' or 'problem'"
        )
    graph = graph_from_dict(payload["graph"]) if has_graph else None
    problem = problem_from_dict(payload["problem"]) if has_problem else None
    # "solver" is the client-friendly alias for "circuit" (it is what the
    # CLI calls the same concept); when both appear they must agree.
    circuit_given = payload.get("circuit")
    solver_given = payload.get("solver")
    if circuit_given is not None and solver_given is not None \
            and str(circuit_given) != str(solver_given):
        raise ValidationError(
            f"'circuit' ({circuit_given!r}) and 'solver' ({solver_given!r}) "
            "disagree; pass one of them"
        )
    chosen = circuit_given if circuit_given is not None else solver_given
    circuit = str(chosen) if chosen is not None else DEFAULT_CIRCUIT
    if circuit in _AUTO_NAMES:
        circuit = AUTO_CIRCUIT
    elif circuit not in KNOWN_CIRCUITS:
        raise ValidationError(
            f"unknown circuit {circuit!r}; known circuits: "
            f"{list(KNOWN_CIRCUITS) + [AUTO_CIRCUIT]}"
        )
    return SolveSpec(
        graph=graph,
        problem=problem,
        circuit=circuit,
        n_trials=_parse_count(payload, "trials", 8),
        n_samples=_parse_count(payload, "samples", 64),
        seed=_parse_seed(payload, "seed", 0),
        backend=str(payload.get("backend", "auto")),
        setup_seed=_parse_seed(payload, "setup_seed", 0),
        timeout_seconds=_parse_seconds(payload, "timeout_seconds"),
        deadline_seconds=_parse_seconds(payload, "deadline_seconds"),
    )


def solve_payload(
    graph: Optional[Graph] = None,
    problem: Optional[Problem] = None,
    **options: Any,
) -> dict:
    """Render a request payload dict (the client-side inverse of parsing).

    ``options`` are the wire keys (``circuit``, ``trials``, ``samples``,
    ``seed``, ...); ``None`` values are dropped so defaults stay
    server-side.
    """
    from repro.graphs.io import graph_to_dict

    if (graph is None) == (problem is None):
        raise ValidationError("pass exactly one of graph / problem")
    payload: dict = {}
    if graph is not None:
        payload["graph"] = graph_to_dict(graph)
    else:
        payload["problem"] = problem.to_dict()
    for key, value in options.items():
        if key not in _KNOWN_KEYS or key in ("graph", "problem"):
            raise ValidationError(f"unknown request option {key!r}")
        if value is not None:
            payload[key] = value
    # Round-trip through the validator so client-side mistakes surface
    # before anything crosses the wire.
    parse_solve_payload(payload)
    return payload


def error_payload(reason: str, message: str) -> dict:
    """The uniform error response body (paired with an HTTP status)."""
    return {"status": "error", "reason": reason, "error": message}
