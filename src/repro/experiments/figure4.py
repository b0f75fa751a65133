"""Figure 4 reproduction: convergence on the empirical (Network Repository) graphs.

Each panel is a single graph (no error bars); curves are the best-so-far cut
weight relative to the software solver's best cut, as a function of samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.algorithms.goemans_williamson import goemans_williamson
from repro.algorithms.random_baseline import random_baseline
from repro.analysis.convergence import sample_points_log_spaced
from repro.circuits.lif_gw import LIFGWCircuit
from repro.circuits.lif_trevisan import LIFTrevisanCircuit
from repro.experiments.config import Figure4Config
from repro.experiments.figure3 import _relative_running_best
from repro.graphs.graph import Graph
from repro.engine.sampler import trial_seed_sequences
from repro.graphs.repository import load_empirical_graph
from repro.utils.logging import get_logger
from repro.utils.rng import paired_seed

__all__ = ["Figure4Panel", "run_figure4_panel"]

_logger = get_logger("experiments.figure4")


@dataclass(frozen=True)
class Figure4Panel:
    """One panel of Figure 4: one empirical graph, four methods."""

    graph_name: str
    n_vertices: int
    n_edges: int
    sample_counts: np.ndarray
    curves: Dict[str, np.ndarray]
    solver_best_weight: float
    best_weights: Dict[str, float]
    metadata: Dict = field(default_factory=dict)


def run_figure4_panel(
    graph: Graph | str,
    config: Optional[Figure4Config] = None,
    graph_index: int = 0,
) -> Figure4Panel:
    """Run one Figure 4 panel on an empirical graph (by object or registry name).

    *graph_index* is the panel's position in the sweep: all of the panel's
    randomness derives from the paired convention
    ``SeedSequence(seed, spawn_key=(graph_index, method))``, so panels are
    mutually independent yet individually reproducible.
    """
    config = config or Figure4Config()
    seeds = trial_seed_sequences(paired_seed(config.seed, graph_index), 5)
    if isinstance(graph, str):
        graph = load_empirical_graph(graph, seed=config.seed)

    counts = sample_points_log_spaced(config.n_samples)

    solver_result = goemans_williamson(
        graph, n_samples=config.n_solver_samples, seed=seeds[0]
    )
    reference = solver_result.best_weight if solver_result.best_weight > 0 else 1.0

    gw_circuit = LIFGWCircuit(graph, config=config.lif_gw, seed=seeds[1])
    gw_result = gw_circuit.sample_cuts(config.n_samples, seed=seeds[2])

    tr_circuit = LIFTrevisanCircuit(graph, config=config.lif_tr)
    tr_result = tr_circuit.sample_cuts(config.n_samples, seed=seeds[3])

    random_best, random_weights = random_baseline(
        graph, n_samples=config.n_samples, seed=seeds[4]
    )

    curves = {
        "lif_gw": _relative_running_best(gw_result.trajectories[0], counts, reference),
        "lif_tr": _relative_running_best(tr_result.trajectories[0], counts, reference),
        "solver": _relative_running_best(
            solver_result.sample_weights, np.minimum(counts, config.n_solver_samples), reference
        ),
        "random": _relative_running_best(random_weights, counts, reference),
    }
    best_weights = {
        "lif_gw": gw_result.best_weight,
        "lif_tr": tr_result.best_weight,
        "solver": solver_result.best_weight,
        "random": random_best.weight,
    }
    _logger.info(
        "Figure 4 panel %s: solver=%.0f lif_gw=%.0f lif_tr=%.0f random=%.0f",
        graph.name, best_weights["solver"], best_weights["lif_gw"],
        best_weights["lif_tr"], best_weights["random"],
    )
    return Figure4Panel(
        graph_name=graph.name,
        n_vertices=graph.n_vertices,
        n_edges=graph.n_edges,
        sample_counts=counts,
        curves=curves,
        solver_best_weight=solver_result.best_weight,
        best_weights=best_weights,
        metadata={"n_samples": config.n_samples},
    )
