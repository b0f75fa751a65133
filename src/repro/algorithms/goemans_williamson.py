"""The full software Goemans-Williamson algorithm (paper §II.A).

Two phases: solve the MAXCUT SDP relaxation, then round the resulting unit
vectors with random hyperplanes, keeping the best of ``n_samples`` roundings.
This is the "software solver" reference curve in the paper's figures (the
paper used PyManopt for the SDP phase; here the Burer-Monteiro solver from
:mod:`repro.sdp` fills that role).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.cuts.cut import Cut
from repro.graphs.graph import Graph
from repro.sdp.burer_monteiro import SDPResult, solve_maxcut_sdp
from repro.sdp.rounding import hyperplane_rounding
from repro.utils.rng import RandomState, spawn_generators
from repro.utils.validation import ValidationError

__all__ = ["GWResult", "goemans_williamson"]

#: The Goemans-Williamson approximation constant.
GW_APPROXIMATION_RATIO = 0.8785672


@dataclass(frozen=True)
class GWResult:
    """Result of the software Goemans-Williamson run.

    Attributes
    ----------
    best_cut:
        Best cut over all hyperplane roundings.
    sdp:
        The SDP solve used for the rounding step.
    sample_weights:
        Cut weight of every rounding sample, in order (supports running-max
        convergence curves comparable to the circuits').
    """

    best_cut: Cut
    sdp: SDPResult
    sample_weights: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def best_weight(self) -> float:
        return self.best_cut.weight


def goemans_williamson(
    graph: Graph,
    n_samples: int = 100,
    rank: Optional[int] = None,
    seed: RandomState = None,
    sdp_result: Optional[SDPResult] = None,
    sdp_max_iterations: int = 2000,
    sdp_tolerance: float = 1e-6,
) -> GWResult:
    """Run the Goemans-Williamson algorithm end to end.

    Parameters
    ----------
    graph:
        Graph to cut.
    n_samples:
        Number of random hyperplane roundings (best is kept).
    rank:
        SDP factorisation rank; defaults to ``ceil(sqrt(2 n)) + 1`` so the
        Burer-Monteiro landscape is benign (the paper's circuits use rank 4,
        but the software solver is meant to be the high-quality reference).
    seed:
        Randomness for the SDP initial point and the roundings.
    sdp_result:
        Optional pre-computed SDP solution (rank must match *rank* if both
        are supplied).
    """
    if n_samples < 1:
        raise ValidationError(f"n_samples must be >= 1, got {n_samples}")
    n = graph.n_vertices
    if n == 0:
        raise ValidationError("goemans_williamson requires at least one vertex")
    if rank is None:
        rank = max(4, int(np.ceil(np.sqrt(2.0 * n))) + 1)

    sdp_rng, rounding_rng = spawn_generators(seed, 2)
    if sdp_result is None:
        sdp_result = solve_maxcut_sdp(
            graph,
            rank=rank,
            max_iterations=sdp_max_iterations,
            tolerance=sdp_tolerance,
            seed=sdp_rng,
        )
    assignments, weights = hyperplane_rounding(
        graph, sdp_result.vectors, n_samples=n_samples, seed=rounding_rng
    )
    best = int(np.argmax(weights))
    best_cut = Cut(
        assignment=assignments[best].astype(np.int8),
        weight=float(weights[best]),
        graph_name=graph.name,
    )
    return GWResult(best_cut=best_cut, sdp=sdp_result, sample_weights=weights)
