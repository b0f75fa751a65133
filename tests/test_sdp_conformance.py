"""Conformance of the Burer-Monteiro MAXCUT SDP: the claims, not the bits.

The solver's vectors are deterministic per seed, but any change to its step
rule moves them, so these checks gate such changes instead of bit pins:

* (a) on a seed sweep the objective is at least the one the earlier
  Armijo-search solver reached on the same inputs, up to ``1e-6 * W_tot``;
* (b) every SDP a Figure 3 graph runs (the GW reference at rank
  ``ceil(sqrt(2n)) + 1`` and the LIF-GW circuit at rank 4) converges on the
  paper's grid: n <= 200 here, the rest under ``slow``;
* (c) the LIF-GW membrane read-out samples GW hyperplane rounding, so its
  mean cut is at least 0.878 x the SDP objective, with the mean's lower
  confidence bound (4 standard errors over independent trials) above it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits.lif_gw import LIFGWCircuit
from repro.engine import SolveRequest, solve
from repro.experiments.config import (
    PAPER_FIGURE3_PROBABILITIES,
    PAPER_FIGURE3_SIZES,
    Figure3Config,
)
from repro.experiments.figure3 import run_figure3_graph
from repro.graphs.generators import erdos_renyi
from repro.obs import capture
from repro.sdp.burer_monteiro import solve_maxcut_sdp

#: Objectives the Armijo-search solver reached (rounded to 1e-6):
#: (n, p, seed, rank) -> objective of
#: ``solve_maxcut_sdp(erdos_renyi(n, p, seed=seed), rank=rank, seed=seed)``.
#: Ranks are 4 (LIF-GW) and the GW rank ``ceil(sqrt(2n)) + 1``; 8 of these
#: 54 solves stopped at that solver's 2000-iteration cap unconverged.
ARMIJO_OBJECTIVES = {
    (50, 0.1, 0, 4): 99.696085,
    (50, 0.1, 0, 11): 99.696085,
    (50, 0.1, 1, 4): 92.330505,
    (50, 0.1, 1, 11): 92.330505,
    (50, 0.1, 2, 4): 87.00229,
    (50, 0.1, 2, 11): 87.00229,
    (50, 0.25, 0, 4): 208.821341,
    (50, 0.25, 0, 11): 208.821341,
    (50, 0.25, 1, 4): 207.963776,
    (50, 0.25, 1, 11): 207.963776,
    (50, 0.25, 2, 4): 217.788474,
    (50, 0.25, 2, 11): 217.788471,
    (50, 0.75, 0, 4): 523.257181,
    (50, 0.75, 0, 11): 523.257181,
    (50, 0.75, 1, 4): 518.530148,
    (50, 0.75, 1, 11): 518.536658,
    (50, 0.75, 2, 4): 524.734529,
    (50, 0.75, 2, 11): 524.734528,
    (100, 0.1, 0, 4): 389.361938,
    (100, 0.1, 0, 16): 389.610287,
    (100, 0.1, 1, 4): 378.406608,
    (100, 0.1, 1, 16): 378.575238,
    (100, 0.1, 2, 4): 356.958217,
    (100, 0.1, 2, 16): 357.068867,
    (100, 0.25, 0, 4): 821.114454,
    (100, 0.25, 0, 16): 821.534428,
    (100, 0.25, 1, 4): 805.803886,
    (100, 0.25, 1, 16): 806.056841,
    (100, 0.25, 2, 4): 819.633413,
    (100, 0.25, 2, 16): 819.97775,
    (100, 0.75, 0, 4): 2047.439714,
    (100, 0.75, 0, 16): 2047.77701,
    (100, 0.75, 1, 4): 2055.945561,
    (100, 0.75, 1, 16): 2056.107402,
    (100, 0.75, 2, 4): 2038.804683,
    (100, 0.75, 2, 16): 2038.804286,
    (200, 0.1, 0, 4): 1390.011532,
    (200, 0.1, 0, 21): 1393.392029,
    (200, 0.1, 1, 4): 1393.016114,
    (200, 0.1, 1, 21): 1395.38901,
    (200, 0.1, 2, 4): 1402.555123,
    (200, 0.1, 2, 21): 1405.292182,
    (200, 0.25, 0, 4): 2978.542819,
    (200, 0.25, 0, 21): 2982.236893,
    (200, 0.25, 1, 4): 3065.44866,
    (200, 0.25, 1, 21): 3069.119305,
    (200, 0.25, 2, 4): 3049.516896,
    (200, 0.25, 2, 21): 3051.412426,
    (200, 0.75, 0, 4): 8015.325726,
    (200, 0.75, 0, 21): 8018.891879,
    (200, 0.75, 1, 4): 8029.647567,
    (200, 0.75, 1, 21): 8034.38341,
    (200, 0.75, 2, 4): 8021.395367,
    (200, 0.75, 2, 21): 8026.16996,
}


@pytest.mark.parametrize("key", sorted(ARMIJO_OBJECTIVES))
def test_objective_at_least_the_armijo_solver(key):
    n, p, seed, rank = key
    graph = erdos_renyi(n, p, seed=seed)
    result = solve_maxcut_sdp(graph, rank=rank, seed=seed)
    assert result.converged
    assert result.objective >= ARMIJO_OBJECTIVES[key] - 1e-6 * graph.total_weight


_GRID = [
    pytest.param(n, p, marks=() if n <= 200 else pytest.mark.slow)
    for n in PAPER_FIGURE3_SIZES
    for p in PAPER_FIGURE3_PROBABILITIES
]


@pytest.mark.parametrize("n, p", _GRID)
def test_every_figure3_sdp_converges(n, p):
    config = Figure3Config(n_samples=16, n_solver_samples=4)
    with capture() as trace:
        run_figure3_graph(n, p, 0, config=config)
    solves = [s.attrs for s in trace.spans if s.name == "sdp.solve"]
    assert len(solves) == 2
    assert all(attrs["converged"] for attrs in solves), solves


@pytest.mark.parametrize("p", [0.1, 0.25, 0.75])
@pytest.mark.parametrize("n", [50, 100, 200])
def test_mean_membrane_cut_beats_the_gw_ratio(n, p):
    circuit = LIFGWCircuit(erdos_renyi(n, p, seed=n), seed=1)
    result = solve(SolveRequest(circuit=circuit, n_trials=8, n_samples=64, seed=3))
    # Read-outs within a trial are correlated; trial means are independent.
    trial_means = result.trajectories.mean(axis=1)
    sem = trial_means.std(ddof=1) / np.sqrt(trial_means.size)
    assert trial_means.mean() - 4.0 * sem >= 0.878 * circuit.sdp_result.objective
