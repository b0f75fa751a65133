"""Semidefinite-programming substrate for the Goemans-Williamson algorithm.

The paper solves the MAXCUT SDP with PyManopt (a Riemannian-manifold
optimisation toolbox).  This package provides an equivalent solver written
from scratch: the Burer-Monteiro low-rank factorisation ``X = W W^T`` with
rows of ``W`` constrained to the unit sphere (the *oblique manifold*),
optimised by Riemannian gradient ascent with Barzilai-Borwein step sizes
and a monotone Armijo backtracking safeguard.
"""

from repro.sdp.manifold import (
    project_rows_to_sphere,
    tangent_project,
    random_oblique_point,
    retract,
)
from repro.sdp.burer_monteiro import (
    SDPResult,
    solve_maxcut_sdp,
    sdp_objective,
)
from repro.sdp.rounding import (
    hyperplane_rounding,
    gaussian_rounding,
    best_hyperplane_cut,
)
from repro.sdp.bounds import sdp_upper_bound, spectral_upper_bound, trivial_upper_bound

__all__ = [
    "project_rows_to_sphere",
    "tangent_project",
    "random_oblique_point",
    "retract",
    "SDPResult",
    "solve_maxcut_sdp",
    "sdp_objective",
    "hyperplane_rounding",
    "gaussian_rounding",
    "best_hyperplane_cut",
    "sdp_upper_bound",
    "spectral_upper_bound",
    "trivial_upper_bound",
]
