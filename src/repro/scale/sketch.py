"""Randomized sketching for large-graph spectral rounding.

The exact spectral path of :mod:`repro.spectral.trevisan` needs the minimum
eigenpair of the normalized adjacency ``N = D^{-1/2} A D^{-1/2}``.  On large
graphs this module replaces it with a randomized subspace sketch (the
classic Halko–Martinsson–Tropp range-finder, the idiom of APGL's
``RandomisedSVD``): draw a seeded Gaussian test matrix, run a few power
iterations of the *shifted* operator ``M = I - N`` (positive semidefinite,
its dominant eigenspace is exactly ``N``'s minimum eigenspace), and solve
the tiny Rayleigh–Ritz problem ``Q^T N Q`` in the captured subspace.  Every
operation is a sparse mat-vec or a tall-skinny QR — no ``(n, n)`` dense
allocation ever happens.

Accuracy knobs: ``rank`` (subspace width kept), ``oversample`` (extra sketch
columns, cheap insurance), ``n_power_iterations`` (sharpens the subspace
toward the extreme eigenvectors; each costs one sparse mat-mat).  When
``rank + oversample >= n`` the sketch captures the whole space and the
result is exact up to floating point.

Also here: :func:`sweep_cut_from_scores`, the ``O(m + n log n)`` threshold
sweep behind :func:`repro.spectral.trevisan.trevisan_sweep_cut` — every
edge contributes to the contiguous run of thresholds separating its
endpoints, so all ``n - 1`` prefix cuts come from one scatter-add plus a
cumulative sum.

Test matrices are seeded with the paired ``SeedSequence(seed, spawn_key)``
convention (:func:`repro.utils.rng.paired_seed`), so sketches are
deterministic given the root seed.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.cuts.cut import Cut, cut_weights_batch
from repro.graphs.graph import Graph
from repro.utils.rng import RandomState, as_generator, paired_seed
from repro.utils.validation import ValidationError

__all__ = [
    "sketched_minimum_eigenpair",
    "sweep_cut_from_scores",
]

#: Spawn-key tag for sketch test matrices (paired seeding convention).
_SKETCH_TAG = 9201


def _sketch_rng(seed: RandomState) -> np.random.Generator:
    if isinstance(seed, (np.random.Generator, np.random.SeedSequence)):
        return as_generator(seed)
    return as_generator(paired_seed(seed, _SKETCH_TAG))


def sketched_minimum_eigenpair(
    graph: Graph,
    rank: int = 8,
    oversample: int = 8,
    n_power_iterations: int = 6,
    seed: RandomState = None,
) -> Tuple[float, np.ndarray]:
    """Minimum eigenpair of the normalized adjacency from a randomized sketch.

    Runs subspace iteration on the shifted operator ``M = I - N`` (spectrum
    in ``[0, 2]``; its top eigenspace is ``N``'s minimum eigenspace), then
    solves the Rayleigh–Ritz problem ``Q^T N Q`` and returns the smallest
    Ritz pair.  The Ritz value upper-bounds the true minimum eigenvalue and
    converges geometrically in ``n_power_iterations``; with
    ``rank + oversample >= n`` the result is exact up to floating point.

    Never allocates a dense ``(n, n)`` matrix: the only operator touched is
    the cached sparse CSR from
    :meth:`repro.graphs.graph.Graph.normalized_adjacency_sparse`.
    """
    n = graph.n_vertices
    if n == 0:
        return 0.0, np.zeros(0)
    if graph.n_edges == 0:
        # N is the zero matrix; any unit vector is a 0-eigenvector.  Match
        # the dense path's convention (first coordinate vector).
        vector = np.zeros(n, dtype=np.float64)
        vector[0] = 1.0
        return 0.0, vector
    if rank < 1:
        raise ValidationError(f"rank must be >= 1, got {rank}")
    operator = graph.normalized_adjacency_sparse()
    l = min(n, int(rank) + int(oversample))
    rng = _sketch_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, l)))
    for _ in range(max(1, int(n_power_iterations))):
        q, _ = np.linalg.qr(q - np.asarray(operator @ q))
    ritz = q.T @ np.asarray(operator @ q)
    ritz = 0.5 * (ritz + ritz.T)
    theta, w = np.linalg.eigh(ritz)
    vector = np.asarray(q @ w[:, 0], dtype=np.float64)
    norm = float(np.linalg.norm(vector))
    if norm > 0:
        vector = vector / norm
    return float(theta[0]), vector


def sweep_cut_from_scores(graph: Graph, scores: np.ndarray) -> Cut:
    """Best threshold cut along sorted *scores*, in ``O(m + n log n)``.

    Candidate ``k`` places the ``k`` smallest-score vertices on the ``-1``
    side (``k = 1 .. n-1``); the plain sign threshold (``scores > 0``) is
    also tried and wins only when strictly heavier.  An edge is cut by
    exactly the thresholds strictly between its endpoints' sort positions,
    so all prefix-cut weights come from one scatter-add over edges plus a
    cumulative sum — no ``(n, n)`` assignment matrix.  The returned weight
    is the cut kernel's (:func:`repro.cuts.cut.cut_weights_batch`).
    """
    n = graph.n_vertices
    scores = np.asarray(scores, dtype=np.float64).ravel()
    if scores.shape[0] != n:
        raise ValidationError(
            f"scores must have one entry per vertex, got {scores.shape[0]} for n={n}"
        )
    if n == 0:
        return Cut(assignment=np.zeros(0, dtype=np.int8), weight=0.0,
                   graph_name=graph.name)
    order = np.argsort(scores, kind="stable")
    position = np.empty(n, dtype=np.int64)
    position[order] = np.arange(n, dtype=np.int64)

    candidates = [np.where(scores > 0.0, 1, -1).astype(np.int8)]
    if n > 1 and graph.n_edges:
        edges = graph.edges
        weights = graph.edge_weights
        lo = np.minimum(position[edges[:, 0]], position[edges[:, 1]])
        hi = np.maximum(position[edges[:, 0]], position[edges[:, 1]])
        # Edge (lo, hi) is cut by prefixes k in (lo, hi]: difference array.
        diff = np.zeros(n + 1, dtype=np.float64)
        np.add.at(diff, lo + 1, weights)
        np.add.at(diff, hi + 1, -weights)
        prefix_cuts = np.cumsum(diff)[1:n]  # weight of cut k = 1 .. n-1
        prefix = np.ones(n, dtype=np.int8)
        prefix[order[:int(np.argmax(prefix_cuts)) + 1]] = -1
        candidates.insert(0, prefix)
    cut_weights = cut_weights_batch(graph, np.stack(candidates))
    best = int(np.argmax(cut_weights))
    return Cut(assignment=candidates[best], weight=float(cut_weights[best]),
               graph_name=graph.name)
