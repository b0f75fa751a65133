"""Oblique-manifold primitives for the Burer-Monteiro MAXCUT SDP.

The oblique manifold OB(n, r) is the set of ``n x r`` matrices whose rows are
unit vectors, i.e. the product of n copies of the (r-1)-sphere.  The MAXCUT
SDP relaxation constrains the Gram matrix ``X = W W^T`` to have unit diagonal,
which is exactly the statement ``W in OB(n, r)``.

All operations are vectorised over rows.  :func:`riemannian_ascent` is the
one gradient-ascent loop on the manifold; the MAXCUT, MAXDICUT and MAX2SAT
relaxations differ only in the objective they hand it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Tuple

import numpy as np

from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import ValidationError

__all__ = [
    "project_rows_to_sphere",
    "tangent_project",
    "random_oblique_point",
    "retract",
    "is_on_manifold",
    "SDPResult",
    "riemannian_ascent",
]

_EPS = 1e-12

#: Armijo sufficient-increase constant and backtracking budget of the ascent.
_ARMIJO = 1e-4
_MAX_BACKTRACKS = 40
#: Bounds on the Barzilai-Borwein trial step.
_MIN_STEP = 1e-10
_MAX_STEP = 1e3


def project_rows_to_sphere(W: np.ndarray) -> np.ndarray:
    """Normalise every row of *W* to unit Euclidean norm.

    Rows with (numerically) zero norm are replaced by the first basis vector,
    which keeps the projection total and deterministic.
    """
    W = np.asarray(W, dtype=np.float64)
    if W.ndim != 2:
        raise ValidationError(f"W must be 2-D, got shape {W.shape}")
    norms = np.linalg.norm(W, axis=1, keepdims=True)
    safe = norms[:, 0] > _EPS
    if safe.all():
        # The common path: one broadcast division, no masked copies.
        return W / norms
    out = np.empty_like(W)
    out[safe] = W[safe] / norms[safe]
    out[~safe] = 0.0
    out[~safe, 0] = 1.0
    return out


def is_on_manifold(W: np.ndarray, atol: float = 1e-8) -> bool:
    """True if every row of *W* has unit norm within *atol*."""
    norms = np.linalg.norm(np.asarray(W, dtype=np.float64), axis=1)
    return bool(np.allclose(norms, 1.0, atol=atol))


def tangent_project(W: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Project an ambient gradient *G* onto the tangent space of OB(n, r) at *W*.

    The tangent space at a point with unit rows consists of matrices whose
    rows are orthogonal to the corresponding rows of *W*:

        P_W(G) = G - diag(<g_i, w_i>) W
    """
    W = np.asarray(W, dtype=np.float64)
    G = np.asarray(G, dtype=np.float64)
    if W.shape != G.shape:
        raise ValidationError(f"W and G must have the same shape, got {W.shape} vs {G.shape}")
    inner = np.sum(W * G, axis=1, keepdims=True)
    return G - inner * W


def retract(W: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Retraction: move from *W* along tangent direction *step* and renormalise rows."""
    return project_rows_to_sphere(np.asarray(W) + np.asarray(step))


def random_oblique_point(n: int, r: int, seed: RandomState = None) -> np.ndarray:
    """Uniformly random point on OB(n, r): i.i.d. Gaussian rows, normalised."""
    if n < 0 or r < 1:
        raise ValidationError(f"need n >= 0 and r >= 1, got n={n}, r={r}")
    rng = as_generator(seed)
    return project_rows_to_sphere(rng.standard_normal((n, r)))


@dataclass
class SDPResult:
    """Result of a Burer-Monteiro SDP solve on the oblique manifold.

    Attributes
    ----------
    vectors:
        ``(n, r)`` matrix with unit rows — the relaxed solution (for MAXCUT,
        the LIF-GW circuit's device-to-neuron weight matrix).
    objective:
        Final SDP objective value (for MAXCUT, an upper bound estimate when
        the solve converges to the global optimum).
    n_iterations:
        Number of gradient-ascent iterations performed.
    converged:
        True if the Riemannian gradient norm fell below tolerance.
    objective_history:
        Objective value after every iteration (monotone non-decreasing).
    rank:
        The factorisation rank used.
    """

    vectors: np.ndarray
    objective: float
    n_iterations: int
    converged: bool
    rank: int
    objective_history: List[float] = field(default_factory=list)

    @property
    def gram_matrix(self) -> np.ndarray:
        """The PSD Gram matrix ``X = W W^T`` with unit diagonal."""
        return self.vectors @ self.vectors.T


def riemannian_ascent(
    value_and_gradient: Callable[[np.ndarray], Tuple[float, np.ndarray]],
    W: np.ndarray,
    scale: float,
    tolerance: float,
    max_iterations: int,
    initial_step: float = 1.0,
) -> SDPResult:
    """Maximise ``f`` over OB(n, r) from the manifold point *W*.

    ``value_and_gradient(W)`` returns ``f(W)`` and an ambient ascent
    direction (the Euclidean gradient up to a positive factor), which is
    projected onto the tangent space.  The first trial step is
    *initial_step*; later ones are the Barzilai-Borwein size
    ``<S,S>/|<S,Y>|`` (Wen & Yin, Math. Program. 2013) of the last iterate
    and tangent-gradient differences, clamped to ``[1e-10, 1e3]``.  A trial
    step halves until ``f_new >= f + 1e-4 * step * |G|^2 / scale`` (Armijo,
    against the current value, so the history never decreases), and the
    accepted candidate's gradient serves the next iteration.  Converged
    when ``|G| <= tolerance * scale`` or no step passes the Armijo test.
    """
    value, ascent = value_and_gradient(W)
    history = [value]
    step = float(initial_step)
    previous = None
    converged = False
    iteration = 0
    for iteration in range(1, max_iterations + 1):
        grad = tangent_project(W, ascent)
        grad_sq = float(np.vdot(grad, grad))
        if math.sqrt(grad_sq) <= tolerance * scale:
            converged = True
            break
        if previous is not None:
            s = W - previous[0]
            sy = abs(float(np.vdot(s, grad - previous[1])))
            if sy > 0.0:
                step = min(max(float(np.vdot(s, s)) / sy, _MIN_STEP), _MAX_STEP)
        previous = (W, grad)
        for _ in range(_MAX_BACKTRACKS):
            candidate = retract(W, step * grad)
            candidate_value, candidate_ascent = value_and_gradient(candidate)
            if candidate_value >= value + _ARMIJO * step * grad_sq / scale:
                break
            step *= 0.5
        else:
            # No ascent possible at any tried step: treat as converged.
            converged = True
            history.append(value)
            break
        W, value, ascent = candidate, candidate_value, candidate_ascent
        history.append(value)
    return SDPResult(W, value, iteration, converged, W.shape[1], history)
