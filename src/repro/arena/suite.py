"""Graph suites: named, reproducible collections of benchmark graphs.

A suite is the "track" the solver arena races on — a deterministic function
from a root seed to a list of :class:`repro.graphs.graph.Graph` instances.
Built-in suites cover the scenario spread the paper's evaluation implies:

``er-small`` / ``er-medium``
    Erdős–Rényi graphs at several (n, p) cells — the Figure 3 workload, at
    smoke-test and laptop scale respectively.
``structured-small``
    Graphs with *known* maximum cuts (complete bipartite, even cycles,
    grids) — useful for sanity-checking a new solver against ground truth.
``powerlaw-small``
    Barabási–Albert scale-free graphs, the surrogate family behind several
    Table I datasets (hubs stress local methods).
``empirical-small``
    The three smallest graphs from the paper's Table I registry.
``scale-small`` / ``scale-large``
    The CSR-native scale-free family of :mod:`repro.scale.generators`
    (Barabási–Albert, Watts–Strogatz, stochastic Kronecker) at arena scale
    and at the 50k–100k-vertex scale the sketched spectral path targets.

Suites are extensible at runtime: :func:`register_suite` makes a new key
immediately available to ``run_workload("arena", suite=...)`` and
``repro run arena --param suite=...``.  Builders must be pure in the seed — the
arena relies on ``build_suite(key, seed)`` returning identical graphs for
identical seeds so cross-solver comparisons are paired.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

from repro.graphs.generators import (
    barabasi_albert,
    complete_bipartite,
    cycle_graph,
    erdos_renyi,
    grid_graph,
)
from repro.graphs.graph import Graph
from repro.graphs.repository import load_empirical_graph
from repro.utils.validation import ValidationError

__all__ = [
    "GraphSuite",
    "SUITES",
    "register_suite",
    "get_suite",
    "list_suites",
    "build_suite",
]

#: Builder signature: root seed -> graphs (same seed, same graphs).
SuiteBuilder = Callable[[int], List[Graph]]


@dataclass(frozen=True)
class GraphSuite:
    """A named, seed-deterministic collection of benchmark graphs.

    Attributes
    ----------
    key:
        Registry key used by ``--suite`` and :func:`build_suite`.
    description:
        One-line description for listings.
    builder:
        ``seed -> [Graph, ...]``; must be deterministic in the seed.
    """

    key: str
    description: str
    builder: SuiteBuilder

    def build(self, seed: int = 0) -> List[Graph]:
        """Materialise the suite's graphs for *seed*."""
        graphs = list(self.builder(int(seed)))
        if not graphs:
            raise ValidationError(f"suite {self.key!r} built an empty graph list")
        return graphs


def _er_cells(cells: Sequence[tuple], seed: int) -> List[Graph]:
    graphs = []
    for i, (n, p) in enumerate(cells):
        graphs.append(
            erdos_renyi(n, p, seed=seed + i, name=f"er-{n}-{p:g}")
        )
    return graphs


def _build_er_small(seed: int) -> List[Graph]:
    return _er_cells([(24, 0.3), (32, 0.25), (40, 0.2)], seed)


def _build_er_medium(seed: int) -> List[Graph]:
    return _er_cells([(100, 0.25), (150, 0.15), (200, 0.1)], seed)


def _build_structured_small(seed: int) -> List[Graph]:
    # Known maxima: K_{a,b} cuts every edge, C_{2k} cuts every edge, and the
    # m x n grid (bipartite) cuts every edge — ratio-1.0 targets for solvers.
    return [
        complete_bipartite(8, 12, name="k8-12"),
        cycle_graph(32, name="c32"),
        grid_graph(5, 8, name="grid5x8"),
    ]


def _build_powerlaw_small(seed: int) -> List[Graph]:
    return [
        barabasi_albert(40, 3, seed=seed, name="ba-40-3"),
        barabasi_albert(64, 2, seed=seed + 1, name="ba-64-2"),
    ]


def _build_empirical_small(seed: int) -> List[Graph]:
    return [
        load_empirical_graph(name, seed=seed)
        for name in ("road-chesapeake", "eco-stmarks", "soc-dolphins")
    ]


def _build_scale_small(seed: int) -> List[Graph]:
    # The generators tag the seed with per-generator spawn keys, so the
    # plain suite seed yields independent streams in each.
    from repro.scale.generators import (
        scale_barabasi_albert,
        scale_watts_strogatz,
        stochastic_kronecker,
    )

    return [
        scale_barabasi_albert(512, 3, seed=seed, name="scale-ba-512-3"),
        scale_watts_strogatz(512, 6, 0.1, seed=seed, name="scale-ws-512-6"),
        stochastic_kronecker(9, 4, seed=seed, name="scale-kron-9-4"),
    ]


def _build_scale_large(seed: int) -> List[Graph]:
    from repro.scale.generators import (
        scale_barabasi_albert,
        scale_watts_strogatz,
        stochastic_kronecker,
    )

    return [
        scale_barabasi_albert(100_000, 3, seed=seed, name="scale-ba-100k-3"),
        scale_watts_strogatz(50_000, 6, 0.05, seed=seed, name="scale-ws-50k-6"),
        stochastic_kronecker(16, 8, seed=seed, name="scale-kron-16-8"),
    ]


#: Suite-key → :class:`GraphSuite` registry.
SUITES: Dict[str, GraphSuite] = {}


def register_suite(suite: GraphSuite, overwrite: bool = False) -> GraphSuite:
    """Add *suite* to the registry and return it (collisions raise)."""
    if suite.key in SUITES and not overwrite:
        raise ValidationError(
            f"suite {suite.key!r} is already registered; pass overwrite=True to replace it"
        )
    SUITES[suite.key] = suite
    return suite


for _suite in (
    GraphSuite("er-small", "3 Erdős–Rényi graphs, n=24..40 (smoke scale)", _build_er_small),
    GraphSuite("er-medium", "3 Erdős–Rényi graphs, n=100..200", _build_er_medium),
    GraphSuite("structured-small", "bipartite/cycle/grid graphs with known maximum cuts",
               _build_structured_small),
    GraphSuite("powerlaw-small", "2 Barabási–Albert scale-free graphs", _build_powerlaw_small),
    GraphSuite("empirical-small", "3 smallest Table I registry graphs", _build_empirical_small),
    GraphSuite("scale-small", "3 CSR-native scale-free graphs at arena scale (n=256..512)",
               _build_scale_small),
    GraphSuite("scale-large", "3 CSR-native scale-free graphs, n=50k..100k (sketch-path scale)",
               _build_scale_large),
):
    register_suite(_suite)
del _suite


def list_suites() -> List[str]:
    """All registered suite keys, sorted."""
    return sorted(SUITES.keys())


def get_suite(key: str) -> GraphSuite:
    """Look up a suite; unknown keys raise with the available list."""
    try:
        return SUITES[key]
    except KeyError:
        raise ValidationError(
            f"unknown suite {key!r}; available: {list_suites()}"
        ) from None


def build_suite(key: str, seed: int = 0) -> List[Graph]:
    """Build the graphs of suite *key* for *seed* (deterministic)."""
    return get_suite(key).build(seed)
