"""Figure 3 reproduction: Erdős–Rényi convergence sweep.

For every (n, p) cell the paper generates 10 random graphs, runs the two
circuits plus the software solver and random baseline on each, and plots the
best-so-far cut weight *relative to the solver's best cut* as a function of
the number of samples, with error bars giving the SEM over the 10 graphs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.algorithms.goemans_williamson import goemans_williamson
from repro.algorithms.random_baseline import random_baseline
from repro.analysis.convergence import running_best, sample_points_log_spaced
from repro.analysis.statistics import mean_and_sem
from repro.circuits.lif_gw import LIFGWCircuit
from repro.circuits.lif_trevisan import LIFTrevisanCircuit
from repro.experiments.config import Figure3Config
from repro.graphs.generators import erdos_renyi
from repro.obs.trace import span
from repro.utils.logging import get_logger
from repro.utils.rng import grid_cell_key, paired_seed, spawn_generators

__all__ = [
    "Figure3Cell",
    "run_figure3_graph",
    "figure3_cell_from_graph_results",
    "METHODS",
]

_logger = get_logger("experiments.figure3")

#: Methods plotted in Figure 3, keyed as in the paper's legend.
METHODS = ("lif_gw", "lif_tr", "solver", "random")


@dataclass(frozen=True)
class Figure3Cell:
    """One panel of Figure 3: a single (n, p) graph class.

    Attributes
    ----------
    n_vertices, probability:
        The G(n, p) parameters of the panel.
    sample_counts:
        Sample counts at which the curves are evaluated.
    curves:
        Per-method mean relative cut weight at each sample count.
    sems:
        Per-method SEM (over graphs) at each sample count.
    solver_best_weights:
        The software solver's best cut weight on each graph (the normaliser).
    """

    n_vertices: int
    probability: float
    sample_counts: np.ndarray
    curves: Dict[str, np.ndarray]
    sems: Dict[str, np.ndarray]
    solver_best_weights: np.ndarray
    metadata: Dict = field(default_factory=dict)


def _relative_running_best(weights: np.ndarray, counts: np.ndarray, reference: float) -> np.ndarray:
    best = running_best(weights)
    values = best[np.minimum(counts, best.size) - 1]
    return values / reference if reference > 0 else np.ones_like(values)


def run_figure3_graph(
    n_vertices: int,
    probability: float,
    graph_index: int,
    config: Optional[Figure3Config] = None,
) -> Dict[str, np.ndarray]:
    """Run all four methods on graph *graph_index* of one (n, p) cell.

    The atomic, independently schedulable unit of the Figure 3 sweep (the
    ``figure3`` workload's unit body): all randomness derives from the paired
    convention ``SeedSequence(seed, spawn_key=(n, key(p), j))``, and each
    method gets its own spawned child, so the result is identical whether
    the graph runs in process, in a process pool, or on its own shard
    (:mod:`repro.distrib`).
    """
    config = config or Figure3Config()
    seed = paired_seed(
        config.seed, *grid_cell_key(n_vertices, probability), graph_index
    )
    with span(
        "figure3.graph", n_vertices=n_vertices, probability=probability,
        graph_index=graph_index,
    ):
        return _run_graph_traced(n_vertices, probability, config, graph_index, seed)


def _run_graph_traced(
    n: int, p: float, config: Figure3Config, graph_index: int, seed
) -> Dict[str, np.ndarray]:
    graph_rng, gw_rng, tr_rng, solver_rng, random_rng = spawn_generators(seed, 5)
    graph = erdos_renyi(n, p, seed=graph_rng, name=f"er_n{n}_p{p:g}_{graph_index}")
    counts = sample_points_log_spaced(config.n_samples)

    with span("figure3.solver"):
        solver_result = goemans_williamson(
            graph, n_samples=config.n_solver_samples, seed=solver_rng
        )
    solver_best = solver_result.best_weight
    reference = solver_best if solver_best > 0 else 1.0

    with span("figure3.lif_gw"):
        gw_circuit = LIFGWCircuit(graph, config=config.lif_gw, seed=gw_rng)
        gw_result = gw_circuit.sample_cuts(config.n_samples, seed=gw_rng)

    with span("figure3.lif_tr"):
        tr_circuit = LIFTrevisanCircuit(graph, config=config.lif_tr)
        tr_result = tr_circuit.sample_cuts(config.n_samples, seed=tr_rng)

    with span("figure3.random"):
        _, random_weights = random_baseline(
            graph, n_samples=config.n_samples, seed=random_rng
        )

    solver_curve = _relative_running_best(
        solver_result.sample_weights,
        np.minimum(counts, config.n_solver_samples),
        reference,
    )
    return {
        "sample_counts": counts,
        "lif_gw": _relative_running_best(gw_result.trajectories[0], counts, reference),
        "lif_tr": _relative_running_best(tr_result.trajectories[0], counts, reference),
        "solver": solver_curve,
        "random": _relative_running_best(random_weights, counts, reference),
        "solver_best": np.array([solver_best]),
    }


def figure3_cell_from_graph_results(
    n_vertices: int,
    probability: float,
    results: List[Dict[str, np.ndarray]],
    config: Optional[Figure3Config] = None,
) -> Figure3Cell:
    """Aggregate per-graph results (in graph order) into a :class:`Figure3Cell`.

    *results* are the dictionaries produced by :func:`run_figure3_graph` for
    graphs ``0 .. n_graphs_per_cell - 1`` of one (n, p) cell, in graph order;
    the ``figure3`` workload's merge calls this once per cell.
    """
    config = config or Figure3Config()
    counts = np.asarray(results[0]["sample_counts"])
    curves: Dict[str, np.ndarray] = {}
    sems: Dict[str, np.ndarray] = {}
    for method in METHODS:
        stacked = np.vstack([np.asarray(r[method], dtype=np.float64) for r in results])
        means = np.empty(stacked.shape[1])
        errors = np.empty(stacked.shape[1])
        for j in range(stacked.shape[1]):
            means[j], errors[j] = mean_and_sem(stacked[:, j])
        curves[method] = means
        sems[method] = errors
    solver_best_weights = np.concatenate(
        [np.asarray(r["solver_best"], dtype=np.float64) for r in results]
    )
    _logger.info(
        "Figure 3 cell G(%d, %.2f): lif_gw=%.3f lif_tr=%.3f random=%.3f (final relative)",
        n_vertices, probability,
        curves["lif_gw"][-1], curves["lif_tr"][-1], curves["random"][-1],
    )
    return Figure3Cell(
        n_vertices=n_vertices,
        probability=probability,
        sample_counts=counts,
        curves=curves,
        sems=sems,
        solver_best_weights=solver_best_weights,
        metadata={"n_graphs": len(results), "n_samples": config.n_samples},
    )
