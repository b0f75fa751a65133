"""Tests for the solver arena (repro.arena): suites, routing, leaderboards."""

import dataclasses
import json

import numpy as np
import pytest

from repro.algorithms.registry import get_spec
from repro.arena import (
    ArenaEntry,
    ArenaResult,
    GraphSuite,
    build_suite,
    get_suite,
    list_suites,
    register_suite,
)
from repro.arena.suite import SUITES
from repro.experiments import runner as runner_module
from repro.experiments.reporting import format_arena_leaderboard, format_arena_report
from repro.engine.sampler import trial_seed_sequences
from repro.experiments.runner import load_results, save_results
from repro.graphs.generators import complete_bipartite, erdos_renyi
from repro.plotting.ascii import ascii_bar_chart, render_leaderboard
from repro.utils.rng import paired_seed
from repro.utils.validation import ValidationError
from repro.workloads import Budget, arena_result_from_report, run_workload
from repro.workloads import executor as executor_module


def _registered_test_solver(graph, n_samples=1, seed=None, **kwargs):
    """Module-level (hence picklable) solver for runtime-registration tests."""
    from repro.algorithms.trevisan import trevisan_spectral

    return trevisan_spectral(graph, seed=seed)


def arena(solvers, suite, budget=None, seed=0):
    """Race *solvers* through the arena workload; return the ArenaResult view."""
    budget = budget if budget is not None else Budget()
    report = run_workload(
        "arena", solvers=tuple(solvers), suite=suite, trials=budget.n_trials,
        samples=budget.n_samples, max_seconds=budget.max_seconds, seed=seed,
    )
    return arena_result_from_report(report)


@pytest.fixture
def tiny_graphs():
    """Two tiny graphs: fast for every solver, bipartite one has known optimum."""
    return [
        erdos_renyi(12, 0.4, seed=3, name="tiny-er"),
        complete_bipartite(4, 5, name="tiny-k45"),
    ]


class TestBudget:
    def test_defaults_valid(self):
        budget = Budget()
        assert budget.n_trials >= 1 and budget.n_samples >= 1

    @pytest.mark.parametrize("kwargs", [
        {"n_trials": 0},
        {"n_samples": 0},
        {"max_seconds": 0.0},
        {"max_seconds": -1.0},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            Budget(**kwargs)


class TestSuites:
    def test_builtin_suites_registered(self):
        for key in ("er-small", "er-medium", "structured-small",
                    "powerlaw-small", "empirical-small"):
            assert key in list_suites()

    def test_build_is_deterministic_in_seed(self):
        a = build_suite("er-small", seed=7)
        b = build_suite("er-small", seed=7)
        assert [g.name for g in a] == [g.name for g in b]
        for ga, gb in zip(a, b):
            np.testing.assert_array_equal(ga.edges, gb.edges)

    def test_different_seed_different_graphs(self):
        a = build_suite("er-small", seed=0)
        b = build_suite("er-small", seed=99)
        assert any(ga.n_edges != gb.n_edges for ga, gb in zip(a, b))

    def test_unknown_suite_lists_available(self):
        with pytest.raises(ValidationError, match="available"):
            get_suite("not-a-suite")

    def test_register_suite_collision_raises(self):
        with pytest.raises(ValidationError, match="already registered"):
            register_suite(GraphSuite("er-small", "dup", lambda seed: []))

    def test_register_and_build_custom_suite(self):
        suite = GraphSuite("_test-suite", "one triangle",
                           lambda seed: [erdos_renyi(6, 0.5, seed=seed)])
        try:
            register_suite(suite)
            graphs = build_suite("_test-suite", seed=1)
            assert len(graphs) == 1 and graphs[0].n_vertices == 6
        finally:
            SUITES.pop("_test-suite", None)

    def test_empty_suite_rejected(self):
        suite = GraphSuite("_empty", "builds nothing", lambda seed: [])
        with pytest.raises(ValidationError, match="empty"):
            suite.build(0)

    def test_structured_suite_has_known_optima(self):
        for graph in build_suite("structured-small", seed=0):
            # All three constructions are bipartite: max cut = all edges.
            assert graph.total_weight > 0


class TestRunArenaSequential:
    def test_basic_shape_and_ratios(self, tiny_graphs):
        result = arena(["random", "trevisan"], suite=tiny_graphs,
                           budget=Budget(n_trials=2, n_samples=16), seed=0)
        assert result.suite == "custom"
        assert result.solvers == ("random", "trevisan")
        assert len(result.entries) == 4  # 2 solvers x 2 graphs
        for graph_name in result.graph_names:
            ratios = [e.cut_ratio for e in result.entries_for_graph(graph_name)]
            assert max(ratios) == pytest.approx(1.0)
            assert all(0.0 <= r <= 1.0 + 1e-12 for r in ratios)

    def test_deterministic_solver_runs_single_trial(self, tiny_graphs):
        result = arena(["trevisan"], suite=tiny_graphs,
                           budget=Budget(n_trials=5, n_samples=16), seed=0)
        for entry in result.entries:
            assert entry.n_trials == 1
            assert entry.deterministic
            # budget semantics "ignored" -> no samples credited
            assert entry.n_samples == 0
            assert entry.samples_per_second == 0.0

    def test_reproducible_across_runs(self, tiny_graphs):
        kwargs = dict(suite=tiny_graphs, budget=Budget(n_trials=3, n_samples=16),
                      seed=42)
        a = arena(["random", "annealing"], **kwargs)
        b = arena(["random", "annealing"], **kwargs)
        for ea, eb in zip(a.entries, b.entries):
            assert ea.best_weight == eb.best_weight
            assert ea.mean_weight == eb.mean_weight

    def test_alias_duplicate_rejected(self, tiny_graphs):
        with pytest.raises(ValidationError, match="more than once"):
            arena(["gw", "solver"], suite=tiny_graphs)

    def test_empty_solver_list_rejected(self, tiny_graphs):
        with pytest.raises(ValidationError):
            arena([], suite=tiny_graphs)

    def test_unknown_solver_rejected(self, tiny_graphs):
        with pytest.raises(ValidationError, match="unknown solver"):
            arena(["not_a_method"], suite=tiny_graphs)

    def test_max_seconds_truncates_trials(self, tiny_graphs):
        result = arena(
            ["annealing"], suite=tiny_graphs[:1],
            budget=Budget(n_trials=6, n_samples=16, max_seconds=1e-9),
            seed=0,
        )
        entry = result.entries[0]
        # The first trial always completes; the cap stops the rest.
        assert entry.n_trials == 1
        assert entry.metadata.get("budget_truncated") is True

    def test_duplicate_graph_names_rejected(self):
        # Ratios/reports are keyed by graph name; duplicates would merge
        # distinct graphs' results silently.
        graphs = [erdos_renyi(10, 0.4, seed=1), erdos_renyi(10, 0.4, seed=2)]
        assert graphs[0].name == graphs[1].name
        with pytest.raises(ValidationError, match="unique names"):
            arena(["random"], suite=graphs, seed=0)

    def test_runtime_registered_solver_runs(self, tiny_graphs):
        from repro.algorithms.registry import SOLVER_SPECS, SOLVERS, SolverSpec, register_solver

        spec = SolverSpec(key="_test_arena_solver", fn=_registered_test_solver,
                          deterministic=True, budget="ignored")
        try:
            register_solver(spec)
            result = arena(["_test_arena_solver"], suite=tiny_graphs, seed=0)
            assert len(result.entries) == 2
        finally:
            SOLVER_SPECS.pop("_test_arena_solver", None)
            SOLVERS.pop("_test_arena_solver", None)

    def test_known_optimum_on_bipartite_graph(self):
        graph = complete_bipartite(5, 6, name="k56")
        result = arena(["trevisan"], suite=[graph], seed=0)
        assert result.entries[0].best_weight == pytest.approx(30.0)


class TestRunArenaEngineRouting:
    def test_batchable_solver_uses_engine_path(self, tiny_graphs, monkeypatch):
        calls = []
        real = executor_module.solve_instance_block

        def spy(requests):
            calls.append(list(requests))
            return real(requests)

        monkeypatch.setattr(executor_module, "solve_instance_block", spy)
        result = arena(["lif_tr", "random"], suite=tiny_graphs[:1],
                           budget=Budget(n_trials=2, n_samples=16), seed=0)
        # One engine call carrying every batchable unit; random never routes there.
        assert len(calls) == 1 and len(calls[0]) == 1
        assert calls[0][0].circuit == "lif_tr"
        assert calls[0][0].n_trials == 2
        by_solver = {e.solver: e for e in result.entries}
        assert by_solver["lif_tr"].used_engine
        assert by_solver["lif_tr"].backend in ("dense", "sparse")
        assert by_solver["lif_tr"].metadata["n_rounds"] == 16
        assert not by_solver["random"].used_engine
        assert by_solver["random"].backend == ""

    def test_engine_and_sequential_paths_agree(self, tiny_graphs):
        # Engine trial i equals the registry solver run alone on the paired
        # seed (g, i): the engine route is bitwise the per-trial route.
        result = arena(["lif_tr"], suite=tiny_graphs[:1],
                           budget=Budget(n_trials=2, n_samples=16), seed=5)
        solver = get_spec("lif_tr").fn
        expected = [
            solver(tiny_graphs[0], n_samples=16, seed=seq).weight
            for seq in trial_seed_sequences(paired_seed(5, 0), 2)
        ]
        assert result.entries[0].used_engine
        assert result.entries[0].metadata["trial_weights"] == expected


class TestSolverLeaderboard:
    def test_sdp_methods_lead_and_random_trails(self):
        """Every registered solver on one ER(80, 0.25) graph, 256 samples."""
        graph = erdos_renyi(80, 0.25, seed=7, name="comparison_er80")
        names = [
            "solver", "lif_gw", "lif_tr", "trevisan", "random",
            "annealing", "tempering", "local_search",
        ]
        weights = {
            name: get_spec(name).fn(graph, n_samples=256, seed=13).weight
            for name in names
        }
        reference = max(weights.values())
        assert weights["solver"] >= 0.95 * reference
        assert weights["lif_gw"] >= 0.9 * reference
        assert weights["random"] <= reference


class TestArenaResult:
    @pytest.fixture
    def result(self, tiny_graphs):
        return arena(["random", "trevisan"], suite=tiny_graphs,
                         budget=Budget(n_trials=2, n_samples=16), seed=0)

    def test_aggregate_sorted_best_first(self, result):
        rows = result.aggregate()
        assert [row["solver"] for row in rows]
        ratios = [row["mean_ratio"] for row in rows]
        assert ratios == sorted(ratios, reverse=True)
        assert result.winner() == rows[0]["solver"]

    def test_entry_accessors(self, result):
        assert len(result.entries_for_solver("random")) == 2
        assert len(result.entries_for_graph("tiny-er")) == 2
        assert result.entries_for_solver("nope") == []

    def test_report_formatting(self, result):
        report = format_arena_report(result)
        assert "Arena leaderboard" in report
        assert "tiny-er" in report and "tiny-k45" in report
        assert "sequential" in report
        leaderboard = format_arena_leaderboard(result)
        assert "mean ratio" in leaderboard

    def test_render_leaderboard_bar_chart(self, result):
        chart = render_leaderboard(result)
        assert "#" in chart
        assert "mean cut ratio" in chart

    def test_save_and_reload_json(self, result, tmp_path):
        path = tmp_path / "arena.json"
        save_results(path, "compare", result.entries,
                     config={"suite": result.suite})
        record = load_results(path)
        assert record.experiment == "compare"
        assert record.result_type() == "ArenaEntry"
        assert len(record.results) == len(result.entries)
        reloaded = record.results[0]
        assert reloaded["solver"] == result.entries[0].solver
        assert reloaded["best_weight"] == pytest.approx(result.entries[0].best_weight)
        # File is plain JSON: a fresh parse sees the same payload.
        assert json.loads(path.read_text())["experiment"] == "compare"

    @staticmethod
    def _entry(solver, graph_name, cut_ratio, elapsed_seconds, wins_weight=2.0):
        return ArenaEntry(
            solver=solver, graph_name=graph_name, n_vertices=4, n_edges=4,
            total_weight=4.0, best_weight=wins_weight, mean_weight=wins_weight,
            cut_ratio=cut_ratio, n_trials=1, n_samples=8,
            elapsed_seconds=elapsed_seconds, samples_per_second=0.0,
            used_engine=False,
        )

    def test_tied_ratios_rank_deterministically(self):
        """Regression: aggregate ties must not break on wall-clock timings.

        Two solvers with identical mean ratios and win counts used to be
        ordered by elapsed_seconds, so the leaderboard (and ``winner()``)
        flapped between runs.  Ties now fall through to the solver name.
        """
        def build(elapsed_b, elapsed_z):
            entries = [
                self._entry("zeta", "g1", 1.0, elapsed_z),
                self._entry("beta", "g1", 1.0, elapsed_b),
            ]
            return ArenaResult(
                suite="custom", solvers=("zeta", "beta"), graph_names=("g1",),
                n_trials=1, n_samples=8, seed=0, entries=entries,
            )

        fast_beta = build(elapsed_b=0.001, elapsed_z=9.0)
        slow_beta = build(elapsed_b=9.0, elapsed_z=0.001)
        assert [r["solver"] for r in fast_beta.aggregate()] == ["beta", "zeta"]
        assert [r["solver"] for r in slow_beta.aggregate()] == ["beta", "zeta"]
        assert fast_beta.winner() == slow_beta.winner() == "beta"

    def test_tied_ratio_breaks_on_wins_before_name(self):
        entries = [
            # "alpha" and "zed" share the same mean ratio (0.5), but zed has
            # an outright per-graph win so it must rank first despite its name.
            self._entry("zed", "g1", 1.0, 5.0),
            self._entry("zed", "g2", 0.0, 5.0, wins_weight=0.0),
            self._entry("alpha", "g1", 0.5, 0.001),
            self._entry("alpha", "g2", 0.5, 0.001),
        ]
        result = ArenaResult(
            suite="custom", solvers=("zed", "alpha"), graph_names=("g1", "g2"),
            n_trials=1, n_samples=8, seed=0, entries=entries,
        )
        rows = result.aggregate()
        assert [r["solver"] for r in rows] == ["zed", "alpha"]
        assert rows[0]["wins"] == 1 and rows[1]["wins"] == 0


class TestAsciiBarChart:
    def test_scales_to_peak(self):
        chart = ascii_bar_chart(["a", "bb"], [1.0, 2.0], width=10)
        lines = chart.splitlines()
        assert lines[0].endswith("1.000") and "#" * 5 in lines[0]
        assert "#" * 10 in lines[1]

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValidationError):
            ascii_bar_chart(["a"], [1.0, 2.0])

    def test_negative_values_rejected(self):
        with pytest.raises(ValidationError):
            ascii_bar_chart(["a"], [-1.0])


class TestRunnerRegistration:
    def test_arena_entry_registered_as_result_type(self):
        entry_fields = {f.name for f in dataclasses.fields(ArenaEntry)}
        assert "cut_ratio" in entry_fields
        jsonable = runner_module.results_to_jsonable([
            ArenaEntry(
                solver="random", graph_name="g", n_vertices=3, n_edges=3,
                total_weight=3.0, best_weight=2.0, mean_weight=2.0,
                cut_ratio=1.0, n_trials=1, n_samples=8, elapsed_seconds=0.1,
                samples_per_second=80.0, used_engine=False,
            )
        ])
        assert jsonable[0]["__type__"] == "ArenaEntry"

    def test_register_result_type_rejects_non_dataclass(self):
        with pytest.raises(ValidationError):
            runner_module.register_result_type(int)
