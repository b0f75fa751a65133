"""Table I reproduction: maximum cut values per circuit per empirical graph.

The paper's Table I reports, for each of 16 Network Repository graphs, the
best cut found by LIF-GW, LIF-TR, the software solver, and random assignment,
together with the reference values from Mirka & Williamson (2022).  This
module regenerates those rows (on the exact/surrogate graphs of
:mod:`repro.graphs.repository`) and attaches the paper's published values so
reports can show paper-vs-measured side by side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.algorithms.goemans_williamson import goemans_williamson
from repro.algorithms.random_baseline import random_baseline
from repro.circuits.lif_gw import LIFGWCircuit
from repro.circuits.lif_trevisan import LIFTrevisanCircuit
from repro.experiments.config import Table1Config
from repro.graphs.graph import Graph
from repro.engine.sampler import trial_seed_sequences
from repro.graphs.repository import EMPIRICAL_GRAPHS, load_empirical_graph
from repro.utils.logging import get_logger
from repro.utils.rng import paired_seed

__all__ = ["Table1Row", "run_table1_row"]

_logger = get_logger("experiments.table1")


@dataclass(frozen=True)
class Table1Row:
    """One row of Table I: best cut per method on one graph."""

    graph_name: str
    n_vertices: int
    n_edges: int
    measured: Dict[str, float]
    paper: Dict[str, int] = field(default_factory=dict)
    is_surrogate: bool = False


def run_table1_row(
    graph: Graph | str,
    config: Optional[Table1Config] = None,
    graph_index: int = 0,
) -> Table1Row:
    """Compute one Table I row.

    *graph_index* is the row's position in the table: all of the row's
    randomness derives from the paired convention
    ``SeedSequence(seed, spawn_key=(graph_index, method))``, so rows are
    mutually independent yet individually reproducible.
    """
    config = config or Table1Config()
    seeds = trial_seed_sequences(paired_seed(config.seed, graph_index), 5)
    paper_values: Dict[str, int] = {}
    is_surrogate = False
    if isinstance(graph, str):
        spec = EMPIRICAL_GRAPHS.get(graph)
        if spec is not None:
            paper_values = dict(spec.table1)
            is_surrogate = spec.kind == "surrogate"
        graph = load_empirical_graph(graph, seed=config.seed)

    solver_result = goemans_williamson(
        graph, n_samples=config.n_solver_samples, seed=seeds[0]
    )
    gw_result = LIFGWCircuit(
        graph, config=config.lif_gw, seed=seeds[1]
    ).sample_cuts(config.n_samples, seed=seeds[2])
    tr_result = LIFTrevisanCircuit(graph, config=config.lif_tr).sample_cuts(
        config.n_samples, seed=seeds[3]
    )
    random_best, _ = random_baseline(
        graph, n_samples=config.n_random_samples, seed=seeds[4]
    )

    measured = {
        "lif_gw": gw_result.best_weight,
        "lif_tr": tr_result.best_weight,
        "solver": solver_result.best_weight,
        "random": random_best.weight,
    }
    _logger.info("Table I row %s: %s", graph.name, measured)
    return Table1Row(
        graph_name=graph.name,
        n_vertices=graph.n_vertices,
        n_edges=graph.n_edges,
        measured=measured,
        paper=paper_values,
        is_surrogate=is_surrogate,
    )
