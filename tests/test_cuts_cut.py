"""Tests for repro.cuts.cut."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.analysis.convergence import running_best
from repro.cuts.cut import (
    BatchCutEvaluator,
    Cut,
    bits_from_spins,
    cut_weight,
    cut_weights_batch,
    spins_from_bits,
)
from repro.graphs.generators import complete_bipartite, erdos_renyi
from repro.graphs.graph import Graph
from repro.graphs.properties import SPARSE_MIN_VERTICES, is_large_and_sparse
from repro.utils.validation import ValidationError


class TestBitSpinConversion:
    def test_spins_from_bits(self):
        np.testing.assert_array_equal(spins_from_bits(np.array([0, 1, 0])), [-1, 1, -1])

    def test_bits_from_spins(self):
        np.testing.assert_array_equal(bits_from_spins(np.array([-1, 1, 1])), [0, 1, 1])

    def test_round_trip(self):
        bits = np.array([0, 1, 1, 0, 1])
        np.testing.assert_array_equal(bits_from_spins(spins_from_bits(bits)), bits)

    def test_2d_arrays(self):
        bits = np.array([[0, 1], [1, 0]])
        spins = spins_from_bits(bits)
        assert spins.shape == (2, 2)


class TestCutWeight:
    def test_triangle(self, triangle):
        # any bipartition of K3 cuts exactly 2 edges
        assert cut_weight(triangle, np.array([1, 1, -1])) == 2.0
        assert cut_weight(triangle, np.array([1, -1, -1])) == 2.0

    def test_all_same_side_zero(self, triangle):
        assert cut_weight(triangle, np.array([1, 1, 1])) == 0.0

    def test_bipartite_full_cut(self, small_bipartite):
        assignment = np.array([1, 1, 1, -1, -1, -1, -1])
        assert cut_weight(small_bipartite, assignment) == small_bipartite.total_weight

    def test_weighted(self, weighted_graph):
        # cut {0,2} vs {1,3}: edges (0,1)=2, (1,2)=0.5, (2,3)=3, (0,3)=1 cross; (0,2)=1.5 does not
        assignment = np.array([1, -1, 1, -1])
        assert cut_weight(weighted_graph, assignment) == pytest.approx(6.5)

    def test_matches_quadratic_form(self, small_er_graph, rng):
        A = small_er_graph.adjacency()
        v = np.where(rng.random(small_er_graph.n_vertices) < 0.5, 1, -1)
        quadratic = 0.25 * float(np.sum(A * (1 - np.outer(v, v))))
        assert cut_weight(small_er_graph, v) == pytest.approx(quadratic)

    def test_wrong_length_raises(self, triangle):
        with pytest.raises(ValidationError):
            cut_weight(triangle, np.array([1, -1]))

    def test_non_spin_raises(self, triangle):
        with pytest.raises(ValidationError):
            cut_weight(triangle, np.array([1, 0, -1]))

    def test_empty_graph(self, empty_graph):
        assert cut_weight(empty_graph, np.ones(5, dtype=int)) == 0.0


class TestCutWeightsBatch:
    def test_matches_single(self, small_er_graph, rng):
        assignments = np.where(rng.random((20, small_er_graph.n_vertices)) < 0.5, 1, -1)
        batch = cut_weights_batch(small_er_graph, assignments)
        singles = [cut_weight(small_er_graph, a) for a in assignments]
        np.testing.assert_allclose(batch, singles)

    def test_1d_input(self, triangle):
        out = cut_weights_batch(triangle, np.array([1, -1, 1]))
        assert out.shape == (1,)

    def test_shape_mismatch_raises(self, triangle):
        with pytest.raises(ValidationError):
            cut_weights_batch(triangle, np.ones((3, 5), dtype=int))

    def test_invalid_values_raise(self, triangle):
        with pytest.raises(ValidationError):
            cut_weights_batch(triangle, np.zeros((2, 3), dtype=int))

    def test_zero_samples(self, triangle):
        out = cut_weights_batch(triangle, np.empty((0, 3), dtype=np.int8))
        assert out.shape == (0,)

    def test_empty_graph(self, empty_graph):
        out = cut_weights_batch(empty_graph, np.ones((4, 5), dtype=int))
        np.testing.assert_array_equal(out, np.zeros(4))


class TestCutClass:
    def test_from_assignment(self, triangle):
        c = Cut.from_assignment(triangle, np.array([1, 1, -1]))
        assert c.weight == 2.0
        assert c.graph_name == "triangle"
        assert c.n_vertices == 3

    def test_complement_same_weight(self, small_er_graph, rng):
        v = np.where(rng.random(small_er_graph.n_vertices) < 0.5, 1, -1)
        c = Cut.from_assignment(small_er_graph, v)
        assert c.complement().weight == c.weight
        np.testing.assert_array_equal(c.complement().assignment, -c.assignment)

    def test_side_sizes(self, triangle):
        c = Cut.from_assignment(triangle, np.array([1, 1, -1]))
        assert c.side_sizes == (1, 2)

    def test_partition(self, triangle):
        c = Cut.from_assignment(triangle, np.array([1, -1, -1]))
        negative, positive = c.partition()
        np.testing.assert_array_equal(negative, [1, 2])
        np.testing.assert_array_equal(positive, [0])

    def test_ordering(self, triangle):
        small = Cut.from_assignment(triangle, np.array([1, 1, 1]))
        big = Cut.from_assignment(triangle, np.array([1, 1, -1]))
        assert small < big
        assert max(small, big) is big

    def test_equality_and_hash(self, triangle):
        a = Cut.from_assignment(triangle, np.array([1, 1, -1]))
        b = Cut.from_assignment(triangle, np.array([1, 1, -1]))
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality_with_other_type(self, triangle):
        c = Cut.from_assignment(triangle, np.array([1, 1, -1]))
        assert (c == 42) is False or (c != 42)


class TestRunningBest:
    def test_monotone(self):
        out = running_best(np.array([3.0, 1.0, 5.0, 2.0]))
        np.testing.assert_array_equal(out, [3.0, 3.0, 5.0, 5.0])

    def test_rejects_2d(self):
        with pytest.raises(ValidationError):
            running_best(np.zeros((2, 2)))

    def test_empty(self):
        assert running_best(np.zeros(0)).shape == (0,)


def _edge_sum(graph, assignments, scale=1):
    """Independent reference: ``sum w_ij [s_i != s_j]`` in int64 over the edges.

    *scale* turns dyadic weights into integers first; the sum is divided by
    it at the end, exactly.
    """
    edges = graph.edges
    scaled = graph.edge_weights * scale
    weights = scaled.astype(np.int64)
    assert np.array_equal(weights, scaled)
    rows = np.atleast_2d(assignments)
    crossing = rows[:, edges[:, 0]] != rows[:, edges[:, 1]]
    return (crossing.astype(np.int64) @ weights) / scale


def _random_spins(rng, k, n):
    return np.where(rng.random((k, n)) < 0.5, 1, -1).astype(np.int8)


def _holds_no_dense_matrix(graph):
    return not isinstance(graph._adjacency_float32, np.ndarray) and graph._adjacency is None


@st.composite
def integer_weighted_graphs(draw):
    """Small graphs (dense route) or large sparse ones (CSR route) with
    integer weights of either sign; zero-edge graphs, n=1 and isolated
    vertices included."""
    n = draw(st.one_of(st.integers(1, 12), st.integers(SPARSE_MIN_VERTICES, 160)))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1]
    )
    edges = draw(st.lists(st.tuples(pairs, st.integers(-50, 50)), max_size=40)) if n > 1 else []
    return Graph(n, [(u, v, w) for (u, v), w in edges])


class TestKernelRoutes:
    """The dense float32 route and the CSR float64 route give exact weights."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(graph=integer_weighted_graphs(), seed=st.integers(0, 2**32 - 1),
           k=st.integers(1, 8))
    @example(graph=Graph(1), seed=0, k=1)
    @example(graph=Graph(5, [(0, 1, -3), (1, 3, 2)]), seed=1, k=4)
    @example(graph=Graph(SPARSE_MIN_VERTICES), seed=2, k=3)
    def test_integer_weights_match_the_edge_sum_on_both_routes(self, graph, seed, k):
        spins = _random_spins(np.random.default_rng(seed), k, graph.n_vertices)
        evaluator = BatchCutEvaluator(graph)
        expected_route = "csr" if is_large_and_sparse(graph) else "dense"
        assert evaluator.route == expected_route
        np.testing.assert_array_equal(evaluator.weights(spins), _edge_sum(graph, spins))

    def test_non_integer_weights_take_csr_and_stay_exact(self, rng):
        graph = Graph(6, [(0, 1, 0.5), (1, 2, 2.25), (2, 3, -1.75), (3, 4, 3.0),
                          (0, 5, 1.125), (2, 5, 4.0)])
        spins = _random_spins(rng, 50, 6)
        evaluator = BatchCutEvaluator(graph)
        assert evaluator.route == "csr"
        np.testing.assert_array_equal(evaluator.weights(spins), _edge_sum(graph, spins, 8))
        assert _holds_no_dense_matrix(graph)

    def test_weight_bound_decides_the_route(self, rng):
        spins = _random_spins(rng, 50, 3)
        # 2 * sum|w| == 2**24: every float32 partial sum is still exact.
        at_bound = Graph(3, [(0, 1, 2**22), (1, 2, 2**22)])
        assert BatchCutEvaluator(at_bound).route == "dense"
        np.testing.assert_array_equal(
            BatchCutEvaluator(at_bound).weights(spins), _edge_sum(at_bound, spins)
        )
        # Just over: CSR, exact in float64, and no n x n matrix is cached.
        over = Graph(3, [(0, 1, 2**22), (1, 2, -(2**22)), (0, 2, 1)])
        evaluator = BatchCutEvaluator(over)
        assert evaluator.route == "csr"
        np.testing.assert_array_equal(evaluator.weights(spins), _edge_sum(over, spins))
        assert _holds_no_dense_matrix(over)

    def test_large_sparse_graph_takes_csr(self, rng):
        graph = erdos_renyi(SPARSE_MIN_VERTICES + 72, 0.03, seed=4)
        assert is_large_and_sparse(graph)
        spins = _random_spins(rng, 40, graph.n_vertices)
        evaluator = BatchCutEvaluator(graph)
        assert evaluator.route == "csr"
        np.testing.assert_array_equal(evaluator.weights(spins), _edge_sum(graph, spins))
        assert _holds_no_dense_matrix(graph)

    def test_dense_matrix_is_cached_on_the_graph(self):
        graph = erdos_renyi(40, 0.3, seed=2)
        assert BatchCutEvaluator(graph).route == "dense"
        assert graph._adjacency is None
        assert graph.exact_float32_adjacency() is graph.exact_float32_adjacency()

    @pytest.mark.parametrize("graph", [
        erdos_renyi(60, 0.3, seed=1),
        Graph.from_edge_arrays(
            60, *np.triu_indices(60, 1),
            np.random.default_rng(0).lognormal(size=60 * 59 // 2),
        ),
        erdos_renyi(SPARSE_MIN_VERTICES + 20, 0.02, seed=3),
    ], ids=["dense", "csr-real", "csr-sparse"])
    def test_row_invariance_and_symmetry(self, graph, rng):
        evaluator = BatchCutEvaluator(graph)
        batch = _random_spins(rng, 1000, graph.n_vertices)
        weights = evaluator.weights(batch)
        for index in (0, 517, 999):
            assert evaluator.weights(batch[index:index + 1])[0] == weights[index]
        np.testing.assert_array_equal(evaluator.weights(-batch), weights)
        one_side = np.ones((2, graph.n_vertices), dtype=np.int8)
        one_side[1] = -1
        assert evaluator.weights(one_side).tolist() == [0.0, 0.0]

    def test_blas_thread_count_moves_no_bit(self):
        code = (
            "import hashlib, numpy as np\n"
            "from repro.cuts.cut import BatchCutEvaluator\n"
            "from repro.graphs.graph import Graph\n"
            "rng = np.random.default_rng(5)\n"
            "u, v = np.triu_indices(300, 1)\n"
            "keep = rng.random(u.size) < 0.25\n"
            "graph = Graph.from_edge_arrays(300, u[keep], v[keep],"
            " rng.integers(-20, 21, keep.sum()))\n"
            "evaluator = BatchCutEvaluator(graph)\n"
            "assert evaluator.route == 'dense'\n"
            "spins = np.where(rng.random((1000, 300)) < 0.5, 1, -1).astype(np.int8)\n"
            "print(hashlib.sha256(evaluator.weights(spins).tobytes()).hexdigest())\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
            completed = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True,
                env=env, check=True,
            )
            digests.append(completed.stdout.strip())
        assert digests[0] == digests[1] and len(digests[0]) == 64
