"""MAX2SAT via Goemans-Williamson-style SDP rounding (paper Discussion §VI).

MAX2SAT asks for a truth assignment maximising the number (weight) of
satisfied clauses, each clause having at most two literals.  Goemans and
Williamson showed the SDP relaxation with hyperplane rounding gives a 0.878
approximation.  As with MAXDICUT, the paper observes the LIF-GW circuit can
implement the rounding step; this module provides the software substrate —
instance representation, the relaxation, and the rounding — plus a random
instance generator for experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.sdp.manifold import random_oblique_point, riemannian_ascent
from repro.utils.rng import RandomState, as_generator, spawn_generators
from repro.utils.validation import ValidationError

__all__ = [
    "Clause",
    "Max2SatInstance",
    "satisfied_clauses",
    "max2sat_gw",
    "random_max2sat_instance",
    "Max2SatResult",
]


@dataclass(frozen=True)
class Clause:
    """A 1- or 2-literal clause.

    Literals are non-zero integers: ``+k`` means variable ``k-1`` appears
    positively, ``-k`` negated (DIMACS convention).  ``literal2 = 0`` encodes
    a unit clause.
    """

    literal1: int
    literal2: int = 0
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.literal1 == 0:
            raise ValidationError("literal1 must be non-zero")
        if not np.isfinite(self.weight) or self.weight < 0:
            raise ValidationError("clause weight must be finite and non-negative")

    def variables(self) -> tuple[int, ...]:
        """0-based variable indices appearing in the clause."""
        out = [abs(self.literal1) - 1]
        if self.literal2 != 0:
            out.append(abs(self.literal2) - 1)
        return tuple(out)


@dataclass(frozen=True)
class Max2SatInstance:
    """A weighted MAX2SAT instance."""

    n_variables: int
    clauses: tuple[Clause, ...]

    def __post_init__(self) -> None:
        if self.n_variables < 1:
            raise ValidationError(f"n_variables must be >= 1, got {self.n_variables}")
        for clause in self.clauses:
            for var in clause.variables():
                if var >= self.n_variables:
                    raise ValidationError(
                        f"clause references variable {var} but instance has "
                        f"{self.n_variables} variables"
                    )

    @property
    def n_clauses(self) -> int:
        return len(self.clauses)

    @property
    def total_weight(self) -> float:
        return float(sum(c.weight for c in self.clauses))


def satisfied_clauses(instance: Max2SatInstance, assignment: np.ndarray) -> float:
    """Total weight of clauses satisfied by a boolean *assignment* (True = variable set)."""
    assignment = np.asarray(assignment)
    if assignment.shape != (instance.n_variables,):
        raise ValidationError(
            f"assignment must have shape ({instance.n_variables},), got {assignment.shape}"
        )
    truth = assignment.astype(bool)

    def literal_true(literal: int) -> bool:
        value = bool(truth[abs(literal) - 1])
        return value if literal > 0 else not value

    total = 0.0
    for clause in instance.clauses:
        if literal_true(clause.literal1) or (
            clause.literal2 != 0 and literal_true(clause.literal2)
        ):
            total += clause.weight
    return float(total)


@dataclass(frozen=True)
class Max2SatResult:
    """Result of the SDP-based MAX2SAT approximation."""

    assignment: np.ndarray
    value: float
    sdp_objective: float
    sample_values: np.ndarray


def _clause_terms(instance: Max2SatInstance) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised clause representation: variable indices (1-based rows of V) and signs."""
    idx1 = np.empty(instance.n_clauses, dtype=np.int64)
    idx2 = np.empty(instance.n_clauses, dtype=np.int64)
    signs = np.empty((instance.n_clauses, 2))
    for k, clause in enumerate(instance.clauses):
        idx1[k] = abs(clause.literal1)
        signs[k, 0] = 1.0 if clause.literal1 > 0 else -1.0
        if clause.literal2 != 0:
            idx2[k] = abs(clause.literal2)
            signs[k, 1] = 1.0 if clause.literal2 > 0 else -1.0
        else:
            idx2[k] = abs(clause.literal1)
            signs[k, 1] = signs[k, 0]
    return idx1, idx2, signs


def _sat_value_and_gradient(
    clause_terms: Tuple[np.ndarray, np.ndarray, np.ndarray],
    weights: np.ndarray,
    V: np.ndarray,
) -> Tuple[float, np.ndarray]:
    """Relaxed expected satisfied weight, and its Euclidean gradient in V.

    For a clause (l1 or l2) with sign-adjusted vectors ``a = s1 v_{i1}`` and
    ``b = s2 v_{i2}`` the relaxation value is
    ``1 - (1 - v0.a)(1 - v0.b)/ ... `` — we use the standard quadratic form
    ``(3 + v0.a + v0.b - a.b) / 4`` which equals the probability both literals
    are not simultaneously false under hyperplane rounding for the GW analysis.
    """
    idx1, idx2, signs = clause_terms
    grad = np.zeros_like(V)
    v0 = V[0]
    a = signs[:, :1] * V[idx1]
    b = signs[:, 1:] * V[idx2]
    terms = (3.0 + a @ v0 + b @ v0 - np.sum(a * b, axis=1)) / 4.0
    w = weights[:, None] / 4.0
    grad[0] = np.sum(w * (a + b), axis=0)
    np.add.at(grad, idx1, signs[:, :1] * w * (v0[None, :] - b))
    np.add.at(grad, idx2, signs[:, 1:] * w * (v0[None, :] - a))
    return float(np.dot(weights, terms)), grad


def max2sat_gw(
    instance: Max2SatInstance,
    n_samples: int = 100,
    rank: Optional[int] = None,
    max_iterations: int = 1500,
    seed: RandomState = None,
) -> Max2SatResult:
    """Approximate MAX2SAT by SDP relaxation + hyperplane rounding.

    Variable i is set True when its vector lands on the same side of the
    random hyperplane as the marker vector ``v_0``; the best of *n_samples*
    roundings is returned.
    """
    if n_samples < 1:
        raise ValidationError(f"n_samples must be >= 1, got {n_samples}")
    n = instance.n_variables
    if rank is None:
        rank = max(4, int(np.ceil(np.sqrt(2.0 * (n + 1)))) + 1)
    weights = np.array([c.weight for c in instance.clauses]) if instance.n_clauses else np.zeros(0)
    sdp_rng, rounding_rng = spawn_generators(seed, 2)

    clause_terms = _clause_terms(instance)
    sdp = riemannian_ascent(
        lambda V: _sat_value_and_gradient(clause_terms, weights, V),
        random_oblique_point(n + 1, rank, seed=sdp_rng),
        scale=max(1.0, instance.total_weight), tolerance=1e-7,
        max_iterations=max_iterations,
    )
    V = sdp.vectors

    rng = as_generator(rounding_rng)
    normals = rng.standard_normal((n_samples, V.shape[1]))
    projections = normals @ V.T  # (k, n+1)
    side_of_v0 = np.sign(projections[:, :1])
    side_of_v0[side_of_v0 == 0] = 1.0
    assignments = (np.sign(projections[:, 1:]) == side_of_v0)
    values = np.array([satisfied_clauses(instance, assignments[k]) for k in range(n_samples)])
    best = int(np.argmax(values))
    return Max2SatResult(
        assignment=assignments[best].astype(bool),
        value=float(values[best]),
        sdp_objective=sdp.objective,
        sample_values=values,
    )


def random_max2sat_instance(
    n_variables: int,
    n_clauses: int,
    seed: RandomState = None,
    weighted: bool = False,
) -> Max2SatInstance:
    """Generate a random MAX2SAT instance with distinct-variable 2-clauses.

    With ``weighted=True`` clause weights are drawn uniformly from
    ``[0.5, 1.5)`` instead of being 1.  Deterministic given *seed*; problem
    suites seed it through the library's paired convention
    (``SeedSequence(seed, spawn_key=...)`` via
    :func:`repro.utils.rng.paired_seed`), so the same ``(seed, instance)``
    key yields the same instance across interpreters and execution paths.
    """
    if n_variables < 2:
        raise ValidationError(f"n_variables must be >= 2, got {n_variables}")
    if n_clauses < 1:
        raise ValidationError(f"n_clauses must be >= 1, got {n_clauses}")
    rng = as_generator(seed)
    clauses = []
    for _ in range(n_clauses):
        v1, v2 = rng.choice(n_variables, size=2, replace=False)
        s1 = 1 if rng.random() < 0.5 else -1
        s2 = 1 if rng.random() < 0.5 else -1
        weight = float(rng.uniform(0.5, 1.5)) if weighted else 1.0
        clauses.append(Clause(int(s1 * (v1 + 1)), int(s2 * (v2 + 1)), weight))
    return Max2SatInstance(n_variables=n_variables, clauses=tuple(clauses))
