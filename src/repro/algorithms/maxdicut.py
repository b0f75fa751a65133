"""MAXDICUT via Goemans-Williamson-style SDP rounding (paper Discussion §VI).

The maximum directed cut problem asks for a vertex set S maximising the total
weight of arcs that leave S (tail in S, head outside S).  Goemans and
Williamson showed that the natural SDP relaxation with hyperplane rounding
achieves an approximation ratio of 0.796; the paper points out that the same
LIF-GW sampling circuit implements that rounding step.

This module implements the problem substrate (a small directed graph class
and the dicut objective) and a practical SDP-based approximation: the
relaxation is solved on the *augmented* MAXCUT formulation in which each
directed instance is reduced to vectors ``v_0, v_1, ..., v_n`` (``v_0`` marks
the "inside S" direction) and rounding assigns ``i in S`` iff ``v_i`` falls on
the same side of the hyperplane as ``v_0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.sdp.manifold import random_oblique_point, riemannian_ascent
from repro.utils.rng import RandomState, as_generator, spawn_generators
from repro.utils.validation import ValidationError

__all__ = [
    "DirectedGraph",
    "dicut_value",
    "maxdicut_gw",
    "MaxDicutResult",
    "random_digraph",
]


class DirectedGraph:
    """Weighted simple directed graph with vertices ``0 .. n-1``."""

    def __init__(
        self, n_vertices: int, arcs: Iterable[Sequence[float]] = (), name: str = "digraph"
    ) -> None:
        n_vertices = int(n_vertices)
        if n_vertices < 0:
            raise ValidationError(f"n_vertices must be non-negative, got {n_vertices}")
        self.n_vertices = n_vertices
        self.name = str(name)
        arc_map: dict[tuple[int, int], float] = {}
        for arc in arcs:
            if len(arc) == 2:
                u, v = arc  # type: ignore[misc]
                w = 1.0
            elif len(arc) == 3:
                u, v, w = arc  # type: ignore[misc]
            else:
                raise ValidationError(f"arcs must be (u, v) or (u, v, w), got {arc!r}")
            u, v, w = int(u), int(v), float(w)
            if not (0 <= u < n_vertices and 0 <= v < n_vertices):
                raise ValidationError(f"arc ({u}, {v}) out of range")
            if u == v:
                raise ValidationError("self-loops are not allowed")
            if not np.isfinite(w):
                raise ValidationError("arc weights must be finite")
            arc_map[(u, v)] = arc_map.get((u, v), 0.0) + w
        if arc_map:
            self.arcs = np.array(sorted(arc_map.keys()), dtype=np.int64)
            self.arc_weights = np.array([arc_map[tuple(a)] for a in self.arcs])
        else:
            self.arcs = np.empty((0, 2), dtype=np.int64)
            self.arc_weights = np.empty(0)

    @property
    def n_arcs(self) -> int:
        return int(self.arcs.shape[0])

    @property
    def total_weight(self) -> float:
        return float(self.arc_weights.sum())


def dicut_value(graph: DirectedGraph, in_set: np.ndarray) -> float:
    """Directed cut value of the 0/1 indicator *in_set* (1 = vertex is in S)."""
    in_set = np.asarray(in_set)
    if in_set.shape != (graph.n_vertices,):
        raise ValidationError(
            f"in_set must have shape ({graph.n_vertices},), got {in_set.shape}"
        )
    if in_set.size and not np.all(np.isin(in_set, (0, 1))):
        raise ValidationError("in_set must be a 0/1 indicator vector")
    if graph.n_arcs == 0:
        return 0.0
    tails = in_set[graph.arcs[:, 0]].astype(bool)
    heads = in_set[graph.arcs[:, 1]].astype(bool)
    crossing = tails & ~heads
    return float(graph.arc_weights[crossing].sum())


def random_digraph(
    n_vertices: int,
    p: float,
    seed: RandomState = None,
    weighted: bool = False,
    name: str = "digraph",
) -> DirectedGraph:
    """Random simple digraph: each ordered pair ``(u, v)`` is an arc w.p. *p*.

    With ``weighted=True`` arc weights are drawn uniformly from
    ``[0.5, 1.5)`` instead of being 1.  Deterministic given *seed*; problem
    suites seed it through the library's paired convention
    (``SeedSequence(seed, spawn_key=...)`` via
    :func:`repro.utils.rng.paired_seed`), so the same ``(seed, instance)``
    key yields the same digraph across interpreters and execution paths.
    """
    n_vertices = int(n_vertices)
    if n_vertices < 1:
        raise ValidationError(f"n_vertices must be >= 1, got {n_vertices}")
    if not (0.0 <= float(p) <= 1.0):
        raise ValidationError(f"p must be a probability in [0, 1], got {p}")
    rng = as_generator(seed)
    mask = rng.random((n_vertices, n_vertices)) < float(p)
    np.fill_diagonal(mask, False)
    tails, heads = np.nonzero(mask)
    if weighted:
        weights = rng.uniform(0.5, 1.5, size=tails.shape[0])
    else:
        weights = np.ones(tails.shape[0])
    arcs = [
        (int(u), int(v), float(w)) for u, v, w in zip(tails, heads, weights)
    ]
    return DirectedGraph(n_vertices, arcs, name=name)


@dataclass(frozen=True)
class MaxDicutResult:
    """Result of the SDP-based MAXDICUT approximation."""

    in_set: np.ndarray
    value: float
    sdp_objective: float
    sample_values: np.ndarray


def _dicut_sdp_value_and_gradient(
    graph: DirectedGraph, V: np.ndarray
) -> Tuple[float, np.ndarray]:
    """Relaxed objective ``sum_a w_a (1 + v0.vu - v0.vv - vu.vv) / 4`` over arcs,
    and its Euclidean gradient with respect to V."""
    grad = np.zeros_like(V)
    if graph.n_arcs == 0:
        return 0.0, grad
    u_idx = 1 + graph.arcs[:, 0]
    v_idx = 1 + graph.arcs[:, 1]
    v0 = V[0]
    vu = V[u_idx]
    vv = V[v_idx]
    terms = 1.0 + vu @ v0 - vv @ v0 - np.sum(vu * vv, axis=1)
    w = graph.arc_weights[:, None] / 4.0
    # d/dv0: sum w (vu - vv); d/dvu: w (v0 - vv); d/dvv: w (-v0 - vu)
    grad[0] = np.sum(w * (vu - vv), axis=0)
    np.add.at(grad, u_idx, w * (v0[None, :] - vv))
    np.add.at(grad, v_idx, w * (-v0[None, :] - vu))
    return float(np.dot(graph.arc_weights, terms) / 4.0), grad


def maxdicut_gw(
    graph: DirectedGraph,
    n_samples: int = 100,
    rank: Optional[int] = None,
    max_iterations: int = 1500,
    seed: RandomState = None,
) -> MaxDicutResult:
    """Approximate MAXDICUT by SDP relaxation + hyperplane rounding.

    The rounding follows Goemans-Williamson: vertex i joins S when its vector
    lands on the same side of a random hyperplane as the marker vector v_0.
    The best of *n_samples* roundings is returned.
    """
    if n_samples < 1:
        raise ValidationError(f"n_samples must be >= 1, got {n_samples}")
    n = graph.n_vertices
    if n == 0:
        raise ValidationError("maxdicut_gw requires at least one vertex")
    if rank is None:
        rank = max(4, int(np.ceil(np.sqrt(2.0 * (n + 1)))) + 1)
    sdp_rng, rounding_rng = spawn_generators(seed, 2)

    sdp = riemannian_ascent(
        lambda V: _dicut_sdp_value_and_gradient(graph, V),
        random_oblique_point(n + 1, rank, seed=sdp_rng),
        scale=max(1.0, graph.total_weight), tolerance=1e-7,
        max_iterations=max_iterations,
    )
    V = sdp.vectors

    rng = as_generator(rounding_rng)
    normals = rng.standard_normal((n_samples, V.shape[1]))
    projections = normals @ V.T  # (k, n+1)
    side_of_v0 = np.sign(projections[:, :1])
    side_of_v0[side_of_v0 == 0] = 1.0
    in_sets = (np.sign(projections[:, 1:]) == side_of_v0).astype(np.int8)
    values = np.array([dicut_value(graph, in_sets[k]) for k in range(n_samples)])
    best = int(np.argmax(values))
    return MaxDicutResult(
        in_set=in_sets[best],
        value=float(values[best]),
        sdp_objective=sdp.objective,
        sample_values=values,
    )
