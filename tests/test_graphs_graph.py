"""Tests for repro.graphs.graph.Graph."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graphs.graph import Graph
from repro.utils.validation import ValidationError


class TestConstruction:
    def test_basic(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert g.n_vertices == 3
        assert g.n_edges == 2

    def test_empty(self):
        g = Graph(0)
        assert g.n_vertices == 0
        assert g.n_edges == 0
        assert g.total_weight == 0.0

    def test_weighted_edges(self):
        g = Graph(3, [(0, 1, 2.5), (1, 2, 0.5)])
        assert g.total_weight == pytest.approx(3.0)
        assert g.is_weighted

    def test_unweighted_flag(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert not g.is_weighted

    def test_duplicate_edges_sum_weights(self):
        g = Graph(2, [(0, 1, 1.0), (1, 0, 2.0)])
        assert g.n_edges == 1
        assert g.total_weight == pytest.approx(3.0)

    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError):
            Graph(2, [(0, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            Graph(2, [(0, 5)])

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(ValidationError):
            Graph(-1)

    def test_nan_weight_rejected(self):
        with pytest.raises(ValidationError):
            Graph(2, [(0, 1, float("nan"))])

    def test_overflowing_weights_rejected(self):
        # Each weight is finite, but a sum is not, so cut weights and
        # total_weight would overflow to inf.  The bound is 4 * sum|w|:
        # mixed signs do not cancel in it.
        for weights in ([1e308, 1e308], [4e307, -4e307]):
            with pytest.raises(ValidationError, match="too large"):
                Graph(3, [(0, 1, weights[0]), (1, 2, weights[1])])
            with pytest.raises(ValidationError, match="too large"):
                Graph.from_edge_arrays(3, np.array([0, 1]), np.array([1, 2]),
                                       weights=np.array(weights))
        # Duplicate edges overflow once summed, on both constructor paths.
        with pytest.raises(ValidationError, match="too large"):
            Graph(2, [(0, 1, 1e308), (1, 0, 1e308)])
        with pytest.raises(ValidationError, match="too large"):
            Graph.from_edge_arrays(2, np.array([0, 1]), np.array([1, 0]),
                                   weights=np.array([1e308, 1e308]))
        assert Graph(3, [(0, 1, 1e307), (1, 2, -1e307)]).total_weight == 0.0

    def test_bad_tuple_length_rejected(self):
        with pytest.raises(ValidationError):
            Graph(3, [(0, 1, 2, 3)])

    def test_edges_canonical_order(self):
        g = Graph(3, [(2, 0), (1, 0)])
        edges = g.edges
        assert np.all(edges[:, 0] < edges[:, 1])


class TestFromAdjacency:
    def test_round_trip(self):
        A = np.array([[0, 1, 0], [1, 0, 2], [0, 2, 0]], dtype=float)
        g = Graph.from_adjacency(A)
        np.testing.assert_allclose(g.adjacency(), A)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValidationError):
            Graph.from_adjacency(np.array([[0, 1], [0, 0]], dtype=float))

    def test_rejects_rectangular(self):
        with pytest.raises(ValidationError):
            Graph.from_adjacency(np.zeros((2, 3)))

    def test_ignores_diagonal(self):
        A = np.array([[5.0, 1.0], [1.0, 5.0]])
        g = Graph.from_adjacency(A)
        assert g.n_edges == 1

    def test_rejects_nan(self):
        A = np.array([[0.0, np.nan], [np.nan, 0.0]])
        with pytest.raises(ValidationError):
            Graph.from_adjacency(A)


class TestNetworkxInterop:
    def test_round_trip(self, small_er_graph):
        nx_graph = small_er_graph.to_networkx()
        back = Graph.from_networkx(nx_graph)
        assert back.n_vertices == small_er_graph.n_vertices
        assert back.n_edges == small_er_graph.n_edges

    def test_weights_preserved(self, weighted_graph):
        back = Graph.from_networkx(weighted_graph.to_networkx())
        assert back.total_weight == pytest.approx(weighted_graph.total_weight)


class TestDerivedMatrices:
    def test_adjacency_symmetric(self, small_er_graph):
        A = small_er_graph.adjacency()
        np.testing.assert_allclose(A, A.T)

    def test_adjacency_sparse_matches_dense(self, small_er_graph):
        dense = small_er_graph.adjacency()
        sparse = small_er_graph.adjacency_sparse()
        assert sp.issparse(sparse)
        np.testing.assert_allclose(sparse.toarray(), dense)

    def test_degrees_match_adjacency_rowsum(self, small_er_graph):
        np.testing.assert_allclose(
            small_er_graph.degrees(), small_er_graph.adjacency().sum(axis=1)
        )

    def test_degree_matrix_diagonal(self, triangle):
        D = triangle.degree_matrix()
        np.testing.assert_allclose(np.diag(D), [2, 2, 2])

    def test_inverse_sqrt_degrees_isolated_vertex(self):
        g = Graph(3, [(0, 1)])
        inv = g.inverse_sqrt_degrees()
        assert inv[2] == 0.0
        assert inv[0] == pytest.approx(1.0)

    def test_normalized_adjacency_eigenvalues_bounded(self, small_er_graph):
        N = small_er_graph.normalized_adjacency()
        eigenvalues = np.linalg.eigvalsh(N)
        assert eigenvalues.max() <= 1.0 + 1e-9
        assert eigenvalues.min() >= -1.0 - 1e-9

    def test_normalized_adjacency_sparse_matches_dense(self, small_er_graph):
        dense = small_er_graph.normalized_adjacency()
        sparse = small_er_graph.normalized_adjacency_sparse().toarray()
        np.testing.assert_allclose(sparse, dense, atol=1e-12)

    def test_trevisan_matrix_is_identity_plus_normalized(self, small_er_graph):
        T = small_er_graph.trevisan_matrix()
        N = small_er_graph.normalized_adjacency()
        np.testing.assert_allclose(T, np.eye(small_er_graph.n_vertices) + N)

    def test_trevisan_matrix_psd(self, small_er_graph):
        eigenvalues = np.linalg.eigvalsh(small_er_graph.trevisan_matrix())
        assert eigenvalues.min() >= -1e-9

    def test_laplacian_rows_sum_to_zero(self, small_er_graph):
        L = small_er_graph.laplacian()
        np.testing.assert_allclose(L.sum(axis=1), 0.0, atol=1e-12)

    def test_laplacian_psd(self, small_er_graph):
        eigenvalues = np.linalg.eigvalsh(small_er_graph.laplacian())
        assert eigenvalues.min() >= -1e-9

    def test_normalized_laplacian(self, triangle):
        NL = triangle.normalized_laplacian()
        np.testing.assert_allclose(NL, np.eye(3) - triangle.normalized_adjacency())


class TestQueriesAndTransforms:
    def test_has_edge(self, triangle):
        assert triangle.has_edge(0, 1)
        assert triangle.has_edge(1, 0)
        assert not triangle.has_edge(0, 0)

    def test_has_edge_missing(self, path_of_three):
        assert not path_of_three.has_edge(0, 2)

    def test_density_complete(self, triangle):
        assert triangle.density() == pytest.approx(1.0)

    def test_density_small_graph(self):
        assert Graph(1).density() == 0.0

    def test_subgraph(self, small_er_graph):
        sub = small_er_graph.subgraph([0, 1, 2, 3])
        assert sub.n_vertices == 4
        for u, v in sub.edges:
            assert small_er_graph.has_edge(int(u), int(v)) or True  # relabelled

    def test_subgraph_rejects_duplicates(self, triangle):
        with pytest.raises(ValidationError):
            triangle.subgraph([0, 0])

    def test_subgraph_rejects_out_of_range(self, triangle):
        with pytest.raises(ValidationError):
            triangle.subgraph([0, 7])

    def test_largest_connected_component(self):
        g = Graph(6, [(0, 1), (1, 2), (3, 4)])
        lcc = g.largest_connected_component()
        assert lcc.n_vertices == 3
        assert lcc.n_edges == 2

    def test_equality_and_hash(self):
        a = Graph(3, [(0, 1), (1, 2)])
        b = Graph(3, [(1, 2), (0, 1)])
        c = Graph(3, [(0, 1)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != c

    def test_equality_with_non_graph(self):
        assert Graph(1) != "graph"
