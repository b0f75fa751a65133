"""The :class:`Graph` class: an immutable, undirected, weighted simple graph.

The class stores edges in a canonical (sorted endpoint) COO-like form and
lazily materialises the derived matrices the MAXCUT algorithms need.  Dense
matrices are cached because the graphs in the paper's evaluation are small
(n <= 700); sparse CSR forms are also available for the spectral code paths
recommended by the HPC guides (``scipy.sparse.linalg.eigsh`` instead of dense
eigendecomposition when n grows).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.utils.validation import ValidationError, check_finite

__all__ = ["Graph"]


def _check_weight_range(weights: np.ndarray) -> None:
    """Reject summed edge weights whose cut arithmetic could overflow.

    Every partial sum of the cut kernel (:class:`repro.cuts.cut.BatchCutEvaluator`)
    is bounded by ``4 sum|w|``, so requiring that bound to be finite keeps
    every cut weight, ``total_weight`` included, finite.
    """
    with np.errstate(over="ignore"):
        bound = 4.0 * float(np.abs(weights).sum())
    if not np.isfinite(bound):
        raise ValidationError(
            "edge weights are too large: 4 * sum(|w|) overflows float64"
        )


class Graph:
    """Undirected weighted graph with vertices ``0 .. n-1``.

    Parameters
    ----------
    n_vertices:
        Number of vertices.  Isolated vertices are allowed.
    edges:
        Iterable of ``(u, v)`` or ``(u, v, weight)`` tuples.  Self-loops are
        rejected; duplicate edges have their weights summed.  Weights must be
        finite, and so must ``4 * sum(|w|)`` after summing, so that no cut
        weight can overflow.
    name:
        Optional human-readable identifier (used in experiment reports).

    Notes
    -----
    The graph is immutable after construction.  All derived matrices are
    cached on first access.
    """

    __slots__ = (
        "_n",
        "_edges",
        "_weights",
        "name",
        "_adjacency",
        "_adjacency_sparse",
        "_adjacency_float32",
        "_normalized_sparse",
        "_degrees",
        "_fingerprint",
    )

    def __init__(
        self,
        n_vertices: int,
        edges: Iterable[Sequence[float]] = (),
        name: str = "graph",
    ) -> None:
        n_vertices = int(n_vertices)
        if n_vertices < 0:
            raise ValidationError(f"n_vertices must be non-negative, got {n_vertices}")
        self._n = n_vertices
        self.name = str(name)

        edge_map: dict[Tuple[int, int], float] = {}
        for edge in edges:
            if len(edge) == 2:
                u, v = edge  # type: ignore[misc]
                w = 1.0
            elif len(edge) == 3:
                u, v, w = edge  # type: ignore[misc]
            else:
                raise ValidationError(
                    f"edges must be (u, v) or (u, v, weight) tuples, got {edge!r}"
                )
            u, v, w = int(u), int(v), float(w)
            if not (0 <= u < n_vertices and 0 <= v < n_vertices):
                raise ValidationError(
                    f"edge ({u}, {v}) out of range for n_vertices={n_vertices}"
                )
            if u == v:
                raise ValidationError(f"self-loop ({u}, {u}) is not allowed")
            if not np.isfinite(w):
                raise ValidationError(f"edge ({u}, {v}) has non-finite weight {w}")
            key = (u, v) if u < v else (v, u)
            edge_map[key] = edge_map.get(key, 0.0) + w

        if edge_map:
            pairs = np.array(sorted(edge_map.keys()), dtype=np.int64)
            weights = np.array([edge_map[tuple(p)] for p in pairs], dtype=np.float64)
        else:
            pairs = np.empty((0, 2), dtype=np.int64)
            weights = np.empty(0, dtype=np.float64)
        _check_weight_range(weights)

        self._edges = pairs
        self._weights = weights
        self._adjacency: Optional[np.ndarray] = None
        self._adjacency_sparse: Optional[sp.csr_matrix] = None
        self._adjacency_float32 = None
        self._normalized_sparse: Optional[sp.csr_matrix] = None
        self._degrees: Optional[np.ndarray] = None
        self._fingerprint: Optional[str] = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_adjacency(cls, adjacency: np.ndarray, name: str = "graph") -> "Graph":
        """Build a graph from a symmetric adjacency matrix.

        Entries on the diagonal are ignored; the strict upper triangle defines
        the edge set.  Asymmetric matrices are rejected.
        """
        adjacency = np.asarray(adjacency, dtype=np.float64)
        if adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1]:
            raise ValidationError(
                f"adjacency must be square, got shape {adjacency.shape}"
            )
        check_finite(adjacency, "adjacency")
        if adjacency.size and not np.allclose(adjacency, adjacency.T):
            raise ValidationError("adjacency must be symmetric")
        n = adjacency.shape[0]
        iu, ju = np.nonzero(np.triu(adjacency, k=1))
        weights = adjacency[iu, ju]
        edges = [(int(u), int(v), float(w)) for u, v, w in zip(iu, ju, weights)]
        return cls(n, edges, name=name)

    @classmethod
    def from_edge_arrays(
        cls,
        n_vertices: int,
        u: np.ndarray,
        v: np.ndarray,
        weights: Optional[np.ndarray] = None,
        name: str = "graph",
    ) -> "Graph":
        """Vectorised constructor from parallel endpoint arrays.

        Produces exactly the canonical form of ``Graph(n, edges)`` — endpoints
        sorted within each edge, edges sorted lexicographically, duplicate
        edges summed — without the per-edge Python loop, so million-edge
        graphs build in milliseconds.  Because the canonical arrays are
        identical, :meth:`fingerprint` of a graph built here equals that of
        the same graph built through ``__init__``.

        Parameters
        ----------
        u, v:
            Integer endpoint arrays of equal length (one edge per position).
        weights:
            Optional float weights aligned with ``u``/``v`` (default all 1.0).
        """
        n_vertices = int(n_vertices)
        if n_vertices < 0:
            raise ValidationError(f"n_vertices must be non-negative, got {n_vertices}")
        u = np.asarray(u, dtype=np.int64).ravel()
        v = np.asarray(v, dtype=np.int64).ravel()
        if u.shape != v.shape:
            raise ValidationError(
                f"endpoint arrays must have equal length, got {u.shape[0]} and {v.shape[0]}"
            )
        if weights is None:
            w = np.ones(u.shape[0], dtype=np.float64)
        else:
            w = np.asarray(weights, dtype=np.float64).ravel()
            if w.shape != u.shape:
                raise ValidationError(
                    f"weights must align with endpoints, got {w.shape[0]} "
                    f"weights for {u.shape[0]} edges"
                )
        if u.size:
            if int(u.min()) < 0 or int(v.min()) < 0 or \
                    int(u.max()) >= n_vertices or int(v.max()) >= n_vertices:
                raise ValidationError(
                    f"edge endpoints out of range for n_vertices={n_vertices}"
                )
            if np.any(u == v):
                bad = int(u[np.argmax(u == v)])
                raise ValidationError(f"self-loop ({bad}, {bad}) is not allowed")
            if not np.all(np.isfinite(w)):
                raise ValidationError("edge weights must be finite")
            lo = np.minimum(u, v)
            hi = np.maximum(u, v)
            keys = lo * np.int64(n_vertices) + hi
            unique_keys, inverse = np.unique(keys, return_inverse=True)
            summed = np.zeros(unique_keys.shape[0], dtype=np.float64)
            with np.errstate(over="ignore"):
                np.add.at(summed, inverse, w)
            _check_weight_range(summed)
            pairs = np.empty((unique_keys.shape[0], 2), dtype=np.int64)
            pairs[:, 0] = unique_keys // n_vertices
            pairs[:, 1] = unique_keys % n_vertices
        else:
            pairs = np.empty((0, 2), dtype=np.int64)
            summed = np.empty(0, dtype=np.float64)

        graph = cls.__new__(cls)
        graph._n = n_vertices
        graph.name = str(name)
        graph._edges = pairs
        graph._weights = summed
        graph._adjacency = None
        graph._adjacency_sparse = None
        graph._adjacency_float32 = None
        graph._normalized_sparse = None
        graph._degrees = None
        graph._fingerprint = None
        return graph

    @classmethod
    def from_networkx(cls, nx_graph, name: Optional[str] = None) -> "Graph":
        """Build a graph from a :class:`networkx.Graph` (nodes are relabelled 0..n-1)."""
        nodes = list(nx_graph.nodes())
        index = {node: i for i, node in enumerate(nodes)}
        edges = []
        for u, v, data in nx_graph.edges(data=True):
            if u == v:
                continue
            edges.append((index[u], index[v], float(data.get("weight", 1.0))))
        return cls(len(nodes), edges, name=name or getattr(nx_graph, "name", "graph") or "graph")

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def n_vertices(self) -> int:
        """Number of vertices."""
        return self._n

    @property
    def n_edges(self) -> int:
        """Number of (undirected) edges."""
        return int(self._edges.shape[0])

    @property
    def edges(self) -> np.ndarray:
        """``(m, 2)`` array of edge endpoints with ``u < v`` in each row."""
        return self._edges.copy()

    @property
    def edge_weights(self) -> np.ndarray:
        """``(m,)`` array of edge weights aligned with :attr:`edges`."""
        return self._weights.copy()

    @property
    def total_weight(self) -> float:
        """Sum of all edge weights (the maximum conceivable cut value)."""
        return float(self._weights.sum())

    @property
    def is_weighted(self) -> bool:
        """True if any edge weight differs from 1."""
        return bool(self._weights.size) and not np.allclose(self._weights, 1.0)

    def fingerprint(self) -> str:
        """Stable content hash of the graph structure (cached).

        SHA-256 over the vertex count and the canonical (sorted, deduplicated)
        edge/weight arrays — everything that determines solver behaviour, and
        nothing that does not (the ``name`` is excluded).  Two graphs with
        equal structure hash identically across processes and sessions, which
        is what makes the hash usable as a content address
        (:mod:`repro.serve.cache`): a served request for a previously seen
        graph can reuse its compiled circuit regardless of who built it.
        """
        if self._fingerprint is None:
            import hashlib

            digest = hashlib.sha256()
            digest.update(str(self._n).encode("ascii"))
            digest.update(b"|")
            digest.update(np.ascontiguousarray(self._edges).tobytes())
            digest.update(b"|")
            digest.update(np.ascontiguousarray(self._weights).tobytes())
            self._fingerprint = digest.hexdigest()[:32]
        return self._fingerprint

    def density(self) -> float:
        """Edge density ``m / (n choose 2)`` (0 for graphs with < 2 vertices)."""
        if self._n < 2:
            return 0.0
        return 2.0 * self.n_edges / (self._n * (self._n - 1))

    def has_edge(self, u: int, v: int) -> bool:
        """Return True if edge ``{u, v}`` is present."""
        if u == v:
            return False
        key = (min(u, v), max(u, v))
        if self.n_edges == 0:
            return False
        idx = np.searchsorted(
            self._edges[:, 0] * self._n + self._edges[:, 1],
            key[0] * self._n + key[1],
        )
        if idx >= self.n_edges:
            return False
        return bool(tuple(self._edges[idx]) == key)

    # ------------------------------------------------------------------
    # Derived matrices
    # ------------------------------------------------------------------
    def adjacency(self) -> np.ndarray:
        """Dense symmetric adjacency matrix ``A`` (cached, returned as a copy view)."""
        if self._adjacency is None:
            A = np.zeros((self._n, self._n), dtype=np.float64)
            if self.n_edges:
                u, v = self._edges[:, 0], self._edges[:, 1]
                A[u, v] = self._weights
                A[v, u] = self._weights
            self._adjacency = A
        return self._adjacency

    def adjacency_sparse(self) -> sp.csr_matrix:
        """Sparse CSR adjacency matrix (cached)."""
        if self._adjacency_sparse is None:
            if self.n_edges:
                u, v = self._edges[:, 0], self._edges[:, 1]
                rows = np.concatenate([u, v])
                cols = np.concatenate([v, u])
                data = np.concatenate([self._weights, self._weights])
            else:
                rows = cols = np.empty(0, dtype=np.int64)
                data = np.empty(0, dtype=np.float64)
            self._adjacency_sparse = sp.csr_matrix(
                (data, (rows, cols)), shape=(self._n, self._n)
            )
        return self._adjacency_sparse

    def to_csr(self, normalized: bool = False) -> sp.csr_matrix:
        """Cached CSR adjacency, plain or degree-normalised.

        The canonical entry point for sparse consumers (the engine's sparse
        weight backend, :mod:`repro.spectral`): repeated calls return the same
        cached matrix instead of rebuilding COO data or re-multiplying by
        ``D^{-1/2}`` per call.  Callers must not mutate the returned matrix.
        """
        if normalized:
            return self.normalized_adjacency_sparse()
        return self.adjacency_sparse()

    def exact_float32_adjacency(self) -> Optional[np.ndarray]:
        """Dense float32 adjacency when float32 sums over it are exact, else ``None``.

        Given only when every weight is an integer and ``2 sum|w| <= 2**24``:
        then every partial sum of ``s^T A s`` for a ±1 vector ``s``, in any
        order, is an integer no larger than ``2**24`` in magnitude, which
        float32 holds exactly.  Built from the edge arrays (never through
        the float64 :meth:`adjacency`) and cached, as is a ``None`` answer,
        so an inexact graph never holds an ``n x n`` float32 matrix.
        Callers must not mutate the returned matrix.
        """
        if self._adjacency_float32 is None:
            w = self._weights
            exact = bool(np.all(w == np.rint(w))) and 2.0 * np.abs(w).sum() <= 2.0**24
            # False marks a graph already found inexact.
            self._adjacency_float32 = False
            if exact:
                A = np.zeros((self._n, self._n), dtype=np.float32)
                u, v = self._edges[:, 0], self._edges[:, 1]
                A[u, v] = w
                A[v, u] = w
                self._adjacency_float32 = A
        return self._adjacency_float32 if self._adjacency_float32 is not False else None

    def degrees(self) -> np.ndarray:
        """Weighted degree vector ``d_i = sum_j A_ij`` (cached)."""
        if self._degrees is None:
            d = np.zeros(self._n, dtype=np.float64)
            if self.n_edges:
                np.add.at(d, self._edges[:, 0], self._weights)
                np.add.at(d, self._edges[:, 1], self._weights)
            self._degrees = d
        return self._degrees

    def degree_matrix(self) -> np.ndarray:
        """Dense diagonal degree matrix ``D``."""
        return np.diag(self.degrees())

    def inverse_sqrt_degrees(self) -> np.ndarray:
        """Vector ``d_i^{-1/2}`` with zeros for isolated (degree-0) vertices.

        Isolated vertices contribute no edges to any cut, so treating their
        normalized-adjacency row/column as zero is the standard convention and
        keeps the Trevisan matrix finite.
        """
        d = self.degrees()
        inv_sqrt = np.zeros_like(d)
        positive = d > 0
        inv_sqrt[positive] = 1.0 / np.sqrt(d[positive])
        return inv_sqrt

    def normalized_adjacency(self) -> np.ndarray:
        """Dense normalized adjacency ``N = D^{-1/2} A D^{-1/2}``."""
        inv_sqrt = self.inverse_sqrt_degrees()
        A = self.adjacency()
        return (inv_sqrt[:, None] * A) * inv_sqrt[None, :]

    def normalized_adjacency_sparse(self) -> sp.csr_matrix:
        """Sparse normalized adjacency for large-graph eigensolves (cached).

        The returned matrix is shared with every other caller — treat it as
        read-only; mutate a ``.copy()`` instead.
        """
        if self._normalized_sparse is None:
            inv_sqrt = self.inverse_sqrt_degrees()
            D = sp.diags(inv_sqrt)
            self._normalized_sparse = (D @ self.adjacency_sparse() @ D).tocsr()
        return self._normalized_sparse

    def trevisan_matrix(self) -> np.ndarray:
        """Dense Trevisan matrix ``I + D^{-1/2} A D^{-1/2}`` (paper §IV.B)."""
        return np.eye(self._n) + self.normalized_adjacency()

    def laplacian(self) -> np.ndarray:
        """Dense combinatorial Laplacian ``L = D - A``."""
        return self.degree_matrix() - self.adjacency()

    def normalized_laplacian(self) -> np.ndarray:
        """Dense normalized Laplacian ``I - D^{-1/2} A D^{-1/2}``."""
        return np.eye(self._n) - self.normalized_adjacency()

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def subgraph(self, vertices: Sequence[int], name: Optional[str] = None) -> "Graph":
        """Return the induced subgraph on *vertices* (relabelled 0..k-1)."""
        vertices = np.asarray(vertices, dtype=np.int64)
        if vertices.size and (vertices.min() < 0 or vertices.max() >= self._n):
            raise ValidationError("subgraph vertices out of range")
        if np.unique(vertices).size != vertices.size:
            raise ValidationError("subgraph vertices must be distinct")
        index = -np.ones(self._n, dtype=np.int64)
        index[vertices] = np.arange(vertices.size)
        edges = []
        for (u, v), w in zip(self._edges, self._weights):
            if index[u] >= 0 and index[v] >= 0:
                edges.append((int(index[u]), int(index[v]), float(w)))
        return Graph(vertices.size, edges, name=name or f"{self.name}-sub")

    def largest_connected_component(self) -> "Graph":
        """Return the induced subgraph on the largest connected component."""
        from repro.graphs.properties import connected_components

        components = connected_components(self)
        largest = max(components, key=len)
        return self.subgraph(sorted(largest), name=f"{self.name}-lcc")

    def to_networkx(self):
        """Convert to a :class:`networkx.Graph` (for interop and tests)."""
        import networkx as nx

        g = nx.Graph(name=self.name)
        g.add_nodes_from(range(self._n))
        for (u, v), w in zip(self._edges, self._weights):
            g.add_edge(int(u), int(v), weight=float(w))
        return g

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - repr formatting
        return (
            f"Graph(name={self.name!r}, n_vertices={self._n}, "
            f"n_edges={self.n_edges}, weighted={self.is_weighted})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self._n == other._n
            and np.array_equal(self._edges, other._edges)
            and np.allclose(self._weights, other._weights)
        )

    def __hash__(self) -> int:
        return hash((self._n, self._edges.tobytes(), self._weights.tobytes()))
