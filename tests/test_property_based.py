"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.cuts.cut import Cut, cut_weight, cut_weights_batch
from repro.cuts.local_search import greedy_improve
from repro.graphs.generators import erdos_renyi
from repro.graphs.graph import Graph
from repro.neurons.covariance import covariance_from_weights
from repro.neurons.plasticity import anti_hebbian_oja_update, oja_update
from repro.sdp.manifold import _EPS, project_rows_to_sphere, retract, tangent_project
from repro.analysis.convergence import running_best, sample_points_log_spaced

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

@st.composite
def small_graphs(draw):
    """Random small graphs (3-12 vertices) with arbitrary edge subsets."""
    n = draw(st.integers(min_value=3, max_value=12))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True, max_size=len(possible)))
    return Graph(n, edges)


@st.composite
def graph_with_assignment(draw):
    graph = draw(small_graphs())
    bits = draw(
        st.lists(st.sampled_from([-1, 1]), min_size=graph.n_vertices, max_size=graph.n_vertices)
    )
    return graph, np.array(bits, dtype=np.int8)


finite_floats = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False)


@st.composite
def weighted_graph_with_assignment(draw):
    """Float-weighted small graphs, all-positive or mixed-sign, with a ±1 row."""
    n = draw(st.integers(min_value=3, max_value=12))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    pairs = draw(st.lists(st.sampled_from(possible), unique=True, max_size=len(possible)))
    weights = draw(st.sampled_from([
        finite_floats.map(abs).filter(lambda w: w > 0.0),
        finite_floats,
    ]))
    graph = Graph(n, [(u, v, draw(weights)) for u, v in pairs])
    bits = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
    return graph, np.array(bits, dtype=np.int8)


# ---------------------------------------------------------------------------
# Cut invariants
# ---------------------------------------------------------------------------

class TestCutProperties:
    @SETTINGS
    @given(graph_with_assignment())
    def test_cut_weight_bounds(self, data):
        graph, assignment = data
        weight = cut_weight(graph, assignment)
        assert 0.0 <= weight <= graph.total_weight

    @SETTINGS
    @given(graph_with_assignment())
    def test_complement_invariance(self, data):
        graph, assignment = data
        assert cut_weight(graph, assignment) == cut_weight(graph, -assignment)

    @SETTINGS
    @given(graph_with_assignment())
    def test_batch_matches_single(self, data):
        graph, assignment = data
        batch = cut_weights_batch(graph, assignment[None, :])
        assert batch[0] == cut_weight(graph, assignment)

    @SETTINGS
    @given(graph_with_assignment())
    def test_local_search_never_decreases(self, data):
        graph, assignment = data
        improved = greedy_improve(graph, assignment)
        assert improved.weight >= cut_weight(graph, assignment) - 1e-9

    @SETTINGS
    @given(graph_with_assignment())
    def test_all_same_label_is_zero_cut(self, data):
        graph, _ = data
        assert cut_weight(graph, np.ones(graph.n_vertices, dtype=np.int8)) == 0.0

    @SETTINGS
    @given(st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=50))
    def test_running_best_monotone_and_dominating(self, weights):
        arr = np.array(weights)
        best = running_best(arr)
        assert np.all(np.diff(best) >= 0)
        assert np.all(best >= arr)
        assert best[-1] == arr.max()


#: Non-dyadic weights whose round-off shows are rarer than the simple floats
#: hypothesis draws first, so the weighted properties get more examples.
WEIGHTED_SETTINGS = settings(SETTINGS, max_examples=200)


class TestWeightedCutProperties:
    """Real weights: the kernel is exact in its symmetries, not in its sums."""

    @WEIGHTED_SETTINGS
    @given(weighted_graph_with_assignment())
    def test_complement_invariance(self, data):
        graph, assignment = data
        assert cut_weight(graph, assignment) == cut_weight(graph, -assignment)

    @WEIGHTED_SETTINGS
    @given(weighted_graph_with_assignment())
    def test_batch_matches_single(self, data):
        graph, assignment = data
        batch = cut_weights_batch(graph, assignment[None, :])
        assert batch[0] == cut_weight(graph, assignment)

    @WEIGHTED_SETTINGS
    @given(weighted_graph_with_assignment())
    def test_all_same_label_is_zero_cut(self, data):
        graph, _ = data
        ones = np.ones(graph.n_vertices, dtype=np.int8)
        assert cut_weight(graph, ones) == 0.0
        assert cut_weight(graph, -ones) == 0.0

    @WEIGHTED_SETTINGS
    @given(weighted_graph_with_assignment(), st.integers(0, 2**16),
           st.integers(min_value=1, max_value=40))
    def test_row_weight_independent_of_batch_mates(self, data, seed, n_rows):
        graph, assignment = data
        rng = np.random.default_rng(seed)
        batch = rng.choice(np.array([-1, 1], dtype=np.int8), size=(n_rows, graph.n_vertices))
        position = int(rng.integers(n_rows))
        batch[position] = assignment
        assert cut_weights_batch(graph, batch)[position] == cut_weight(graph, assignment)

    @WEIGHTED_SETTINGS
    @given(weighted_graph_with_assignment())
    def test_weight_within_signed_edge_totals(self, data):
        # With positive weights these are 0 <= cut <= total_weight.
        graph, assignment = data
        weights = graph.edge_weights
        tolerance = 1e-12 * float(np.abs(weights).sum())
        weight = cut_weight(graph, assignment)
        assert weights[weights < 0].sum() - tolerance <= weight
        assert weight <= weights[weights > 0].sum() + tolerance


# ---------------------------------------------------------------------------
# Graph invariants
# ---------------------------------------------------------------------------

class TestGraphProperties:
    @SETTINGS
    @given(small_graphs())
    def test_adjacency_symmetric_nonnegative_diagonal_zero(self, graph):
        A = graph.adjacency()
        assert np.allclose(A, A.T)
        assert np.all(np.diag(A) == 0)

    @SETTINGS
    @given(small_graphs())
    def test_degree_sum_is_twice_edges(self, graph):
        assert graph.degrees().sum() == 2 * graph.n_edges

    @SETTINGS
    @given(small_graphs())
    def test_normalized_adjacency_spectrum_in_unit_interval(self, graph):
        eigenvalues = np.linalg.eigvalsh(graph.normalized_adjacency())
        assert eigenvalues.min() >= -1.0 - 1e-8
        assert eigenvalues.max() <= 1.0 + 1e-8

    @SETTINGS
    @given(small_graphs())
    def test_laplacian_psd(self, graph):
        eigenvalues = np.linalg.eigvalsh(graph.laplacian())
        assert eigenvalues.min() >= -1e-8

    @SETTINGS
    @given(st.integers(min_value=2, max_value=20), st.floats(min_value=0, max_value=1), st.integers(0, 2**16))
    def test_erdos_renyi_edge_bounds(self, n, p, seed):
        graph = erdos_renyi(n, p, seed=seed)
        assert 0 <= graph.n_edges <= n * (n - 1) // 2


# ---------------------------------------------------------------------------
# Oblique manifold invariants
# ---------------------------------------------------------------------------

class TestManifoldProperties:
    @SETTINGS
    @given(hnp.arrays(np.float64, (6, 3), elements=finite_floats))
    def test_projection_gives_unit_rows(self, W):
        P = project_rows_to_sphere(W)
        np.testing.assert_allclose(np.linalg.norm(P, axis=1), 1.0, atol=1e-9)

    @SETTINGS
    @given(
        hnp.arrays(np.float64, (6, 3), elements=finite_floats),
        st.one_of(st.none(), st.integers(0, 5)),
    )
    @example(np.ones((6, 3)), 2)
    def test_projection_bit_identical_to_masked_expression(self, W, zero_row):
        # The plain division of the common path gives the same bits as the
        # per-row masked copy, and a zero row still maps to e_1.
        if zero_row is not None:
            W[zero_row] = 0.0
        norms = np.linalg.norm(W, axis=1, keepdims=True)
        safe = norms[:, 0] > _EPS
        masked = np.empty_like(W)
        masked[safe] = W[safe] / norms[safe]
        masked[~safe] = 0.0
        masked[~safe, 0] = 1.0
        assert np.array_equal(project_rows_to_sphere(W), masked)

    @SETTINGS
    @given(
        hnp.arrays(np.float64, (5, 3), elements=finite_floats),
        hnp.arrays(np.float64, (5, 3), elements=finite_floats),
    )
    def test_tangent_projection_orthogonal(self, W, G):
        W = project_rows_to_sphere(W)
        T = tangent_project(W, G)
        np.testing.assert_allclose(np.sum(T * W, axis=1), 0.0, atol=1e-8)

    @SETTINGS
    @given(
        hnp.arrays(np.float64, (5, 3), elements=finite_floats),
        hnp.arrays(np.float64, (5, 3), elements=finite_floats),
    )
    def test_retraction_stays_on_manifold(self, W, step):
        W = project_rows_to_sphere(W)
        R = retract(W, step)
        np.testing.assert_allclose(np.linalg.norm(R, axis=1), 1.0, atol=1e-9)


# ---------------------------------------------------------------------------
# Covariance / plasticity invariants
# ---------------------------------------------------------------------------

class TestNeuronProperties:
    @SETTINGS
    @given(hnp.arrays(np.float64, (6, 4), elements=finite_floats))
    def test_membrane_covariance_psd_symmetric(self, W):
        cov = covariance_from_weights(W)
        assert np.allclose(cov, cov.T)
        assert np.linalg.eigvalsh(cov).min() >= -1e-8

    @SETTINGS
    @given(
        hnp.arrays(np.float64, (5,), elements=finite_floats),
        hnp.arrays(np.float64, (5,), elements=finite_floats),
        st.floats(min_value=1e-4, max_value=0.1),
    )
    def test_oja_update_finite(self, w, x, eta):
        out = oja_update(w, x, eta)
        assert np.all(np.isfinite(out))

    @SETTINGS
    @given(
        hnp.arrays(np.float64, (5,), elements=finite_floats),
        hnp.arrays(np.float64, (5,), elements=finite_floats),
        st.floats(min_value=1e-4, max_value=0.1),
    )
    def test_anti_hebbian_update_finite(self, w, x, eta):
        out = anti_hebbian_oja_update(w, x, eta)
        assert np.all(np.isfinite(out))

    @SETTINGS
    @given(
        hnp.arrays(
            np.float64,
            (4,),
            elements=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
        )
    )
    def test_anti_hebbian_zero_input_pushes_norm_toward_one(self, w):
        # With x = 0 the update is eta * (1 - ||w||^2) w, so for small learning
        # rates (where the discrete step cannot overshoot) the norm moves toward 1.
        norm_before = np.linalg.norm(w)
        out = anti_hebbian_oja_update(w, np.zeros(4), 0.01)
        norm_after = np.linalg.norm(out)
        if norm_before > 1.0:
            assert norm_after <= norm_before + 1e-12
        elif norm_before > 0:
            assert norm_after >= norm_before - 1e-12


# ---------------------------------------------------------------------------
# Analysis invariants
# ---------------------------------------------------------------------------

class TestAnalysisProperties:
    @SETTINGS
    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=200))
    def test_running_best_idempotent(self, values):
        arr = np.array(values)
        once = running_best(arr)
        twice = running_best(once)
        np.testing.assert_array_equal(once, twice)

    @SETTINGS
    @given(st.integers(min_value=1, max_value=100_000), st.integers(min_value=1, max_value=50))
    def test_sample_points_valid(self, n_samples, n_points):
        points = sample_points_log_spaced(n_samples, n_points)
        assert points[0] >= 1
        assert points[-1] == n_samples
        assert np.all(np.diff(points) > 0)


# ---------------------------------------------------------------------------
# Portfolio meta-solver invariants
# ---------------------------------------------------------------------------

class TestPortfolioProperties:
    @SETTINGS
    @given(small_graphs(), st.integers(min_value=0, max_value=2**31 - 1))
    def test_features_deterministic_and_relabel_invariant(self, graph, perm_seed):
        from repro.portfolio import InstanceFeatures, extract_features
        import dataclasses

        perm = np.random.default_rng(perm_seed).permutation(graph.n_vertices)
        relabeled = Graph(
            graph.n_vertices,
            [(int(perm[u]), int(perm[v])) for u, v in graph.edges],
        )
        first = extract_features(graph)
        assert first == extract_features(graph)
        second = extract_features(relabeled)
        for field in dataclasses.fields(InstanceFeatures):
            a, b = getattr(first, field.name), getattr(second, field.name)
            if isinstance(a, float):
                assert abs(a - b) <= 1e-8, field.name
            else:
                assert a == b, field.name

    @SETTINGS
    @given(st.integers(min_value=1, max_value=16), st.integers(min_value=1, max_value=64))
    def test_rung_schedule_bounds(self, n_solvers, n_trials):
        from repro.portfolio import rung_schedule

        targets = rung_schedule(n_solvers, n_trials)
        assert targets and targets[-1] == n_trials
        assert all(1 <= t <= n_trials for t in targets)
        assert all(a < b for a, b in zip(targets, targets[1:]))
        # A full-race worst case never exceeds K * T total trials.
        assert n_solvers * targets[-1] <= n_solvers * n_trials

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(min_value=1, max_value=4),
           st.integers(min_value=0, max_value=100))
    def test_race_respects_trial_budget(self, n_trials, seed):
        from repro.portfolio import race
        from repro.workloads.spec import Budget

        graph = erdos_renyi(10, 0.4, seed=5)
        result = race(graph, ["local_search", "trevisan"],
                      budget=Budget(n_trials=n_trials, n_samples=8),
                      seed=seed)
        assert all(t <= n_trials for t in result.trials_used.values())
        assert result.total_trials <= 2 * n_trials
        assert result.trials_used["trevisan"] <= 1  # deterministic: one trial

    @SETTINGS
    @given(rows=st.lists(
        st.tuples(st.sampled_from(["a", "b", "c"]),
                  st.integers(min_value=2, max_value=400),
                  st.floats(min_value=0.0, max_value=1.0,
                            allow_nan=False)),
        min_size=1, max_size=20))
    def test_model_round_trips_through_json(self, rows, tmp_path_factory):
        from repro.portfolio import fit_from_records, load_model, save_model

        records = [
            {"solver": solver, "n_vertices": n, "cut_ratio": ratio,
             "n_edges": min(3 * n, n * (n - 1) // 2)}
            for solver, n, ratio in rows
        ]
        model = fit_from_records(records, sources=["synthetic"])
        path = tmp_path_factory.mktemp("portfolio") / "model.json"
        save_model(path, model)
        assert load_model(path) == model
