"""Structural graph properties used by experiments and tests."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set

import numpy as np

from repro.graphs.graph import Graph

__all__ = [
    "connected_components",
    "is_connected",
    "degree_statistics",
    "DegreeStatistics",
    "graph_summary",
    "is_bipartite",
    "is_large_and_sparse",
    "SPARSE_DENSITY_THRESHOLD",
    "SPARSE_MIN_VERTICES",
]

#: Graphs at least this dense count as dense, whatever their size.
SPARSE_DENSITY_THRESHOLD: float = 0.05

#: Graphs smaller than this count as dense, whatever their density.
SPARSE_MIN_VERTICES: int = 128


def is_large_and_sparse(graph: Graph) -> bool:
    """Whether *graph* is large and sparse enough for CSR products to pay.

    True when it has at least ``SPARSE_MIN_VERTICES`` vertices and an edge
    density below ``SPARSE_DENSITY_THRESHOLD``.  The one density test of
    the program: the engine's ``auto`` weight backend
    (:meth:`repro.engine.backends.WeightBackend.for_graph`) goes sparse on
    it, and the cut kernel (:class:`repro.cuts.cut.BatchCutEvaluator`)
    keeps its CSR route on it.  Everything else counts as dense.
    """
    return (
        graph.n_vertices >= SPARSE_MIN_VERTICES
        and graph.density() < SPARSE_DENSITY_THRESHOLD
    )


def connected_components(graph: Graph) -> List[Set[int]]:
    """Return the connected components as a list of vertex sets.

    Uses an iterative union-find over the edge list, so it handles graphs with
    hundreds of thousands of edges without recursion-depth issues.
    """
    parent = np.arange(graph.n_vertices, dtype=np.int64)

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:  # path compression
            parent[x], x = root, parent[x]
        return root

    for u, v in graph.edges:
        ru, rv = find(int(u)), find(int(v))
        if ru != rv:
            parent[ru] = rv

    components: dict[int, Set[int]] = {}
    for v in range(graph.n_vertices):
        components.setdefault(find(v), set()).add(v)
    return list(components.values())


def is_connected(graph: Graph) -> bool:
    """True if the graph has exactly one connected component (and >= 1 vertex)."""
    if graph.n_vertices == 0:
        return False
    return len(connected_components(graph)) == 1


def is_bipartite(graph: Graph) -> bool:
    """True if the graph is bipartite (2-colourable).

    For bipartite graphs the maximum cut equals the total edge weight, which
    several integration tests exploit.
    """
    color = -np.ones(graph.n_vertices, dtype=np.int64)
    adjacency = [[] for _ in range(graph.n_vertices)]
    for u, v in graph.edges:
        adjacency[int(u)].append(int(v))
        adjacency[int(v)].append(int(u))
    for start in range(graph.n_vertices):
        if color[start] != -1:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            node = stack.pop()
            for neighbor in adjacency[node]:
                if color[neighbor] == -1:
                    color[neighbor] = 1 - color[node]
                    stack.append(neighbor)
                elif color[neighbor] == color[node]:
                    return False
    return True


@dataclass(frozen=True)
class DegreeStatistics:
    """Summary statistics of a graph's (weighted) degree sequence."""

    minimum: float
    maximum: float
    mean: float
    std: float
    n_isolated: int


def degree_statistics(graph: Graph) -> DegreeStatistics:
    """Compute degree summary statistics (all zeros for an empty graph)."""
    degrees = graph.degrees()
    if degrees.size == 0:
        return DegreeStatistics(0.0, 0.0, 0.0, 0.0, 0)
    return DegreeStatistics(
        minimum=float(degrees.min()),
        maximum=float(degrees.max()),
        mean=float(degrees.mean()),
        std=float(degrees.std()),
        n_isolated=int(np.count_nonzero(degrees == 0)),
    )


def graph_summary(graph: Graph) -> dict:
    """Return a dictionary summary suitable for experiment reports."""
    stats = degree_statistics(graph)
    return {
        "name": graph.name,
        "n_vertices": graph.n_vertices,
        "n_edges": graph.n_edges,
        "density": graph.density(),
        "total_weight": graph.total_weight,
        "degree_min": stats.minimum,
        "degree_max": stats.maximum,
        "degree_mean": stats.mean,
        "n_isolated": stats.n_isolated,
        "connected": is_connected(graph),
    }
