"""Tests for the unified workload API (repro.workloads)."""

import dataclasses
import json

import numpy as np
import pytest

from repro.arena.results import ArenaEntry
from repro.experiments.config import Figure3Config
from repro.graphs.generators import complete_bipartite, erdos_renyi
from repro.utils.rng import paired_seed
from repro.utils.validation import ValidatedConfig, ValidationError
from repro.workloads import (
    Budget,
    ExecutionPolicy,
    GraphSource,
    RunReport,
    Session,
    Workload,
    WorkloadSpec,
    arena_result_from_report,
    get_workload,
    list_workloads,
    register_workload,
    run_workload,
)
from repro.workloads.registry import WORKLOADS, coerce_param, resolve_params


class TestGraphSource:
    def test_suite_source_builds_deterministically(self):
        source = GraphSource.from_suite("er-small")
        a = source.build(7)
        b = source.build(7)
        assert [g.name for g in a] == [g.name for g in b]
        for ga, gb in zip(a, b):
            np.testing.assert_array_equal(ga.edges, gb.edges)

    def test_generator_grid_shape_and_names(self):
        source = GraphSource.erdos_renyi_grid((12, 16), (0.4,), per_cell=2)
        graphs = source.build(0)
        assert len(graphs) == 4
        assert graphs[0].name == "er-12-0.4-0"
        assert len({g.name for g in graphs}) == 4

    def test_generator_grid_matches_figure3_graph_stream(self):
        # grid_cell_key's contract: same (seed, n, p, j) -> same graph on
        # every workload path.  Reconstruct graph j the way the Figure 3
        # runner does (first spawned child of the cell-graph sequence) and
        # compare against the generator source.
        from repro.graphs.generators import erdos_renyi as er
        from repro.utils.rng import grid_cell_key, spawn_generators

        source = GraphSource.erdos_renyi_grid((12,), (0.4,), per_cell=2)
        graphs = source.build(5)
        for j, graph in enumerate(graphs):
            rng = spawn_generators(paired_seed(5, *grid_cell_key(12, 0.4), j), 5)[0]
            expected = er(12, 0.4, seed=rng)
            np.testing.assert_array_equal(graph.edges, expected.edges)

    def test_repository_source_by_name(self):
        source = GraphSource.repository(("road-chesapeake",))
        graphs = source.build(0)
        assert [g.name for g in graphs] == ["road-chesapeake"]

    def test_explicit_source_passthrough(self):
        graph = complete_bipartite(3, 4, name="k34")
        source = GraphSource.explicit([graph])
        assert source.build(0)[0] is graph
        assert source.to_dict()["names"] == ["k34"]

    def test_coerce_accepts_key_list_and_source(self):
        assert GraphSource.coerce("er-small").kind == "suite"
        graphs = [erdos_renyi(8, 0.5, seed=0, name="toy")]
        assert GraphSource.coerce(graphs).kind == "explicit"
        source = GraphSource.from_suite("er-small")
        assert GraphSource.coerce(source) is source

    def test_invalid_sources_rejected(self):
        with pytest.raises(ValidationError):
            GraphSource(kind="nope")
        with pytest.raises(ValidationError):
            GraphSource.erdos_renyi_grid((), (0.5,))
        with pytest.raises(ValidationError):
            GraphSource.erdos_renyi_grid((10,), (1.5,))
        with pytest.raises(ValidationError):
            GraphSource.explicit([])
        with pytest.raises(ValidationError):
            GraphSource.coerce(42)


class TestBudgetAndPolicy:
    @pytest.mark.parametrize("kwargs", [
        {"n_trials": 0},
        {"n_samples": 0},
        {"max_seconds": 0.0},
        {"max_seconds": -1.0},
    ])
    def test_invalid_budget_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            Budget(**kwargs)

    def test_policy_is_backend_and_workers(self):
        policy = ExecutionPolicy()
        assert policy.to_dict() == {"backend": "auto", "n_workers": 1}
        assert ExecutionPolicy(n_workers=3).parallel_config().n_workers == 3
        with pytest.raises(ValidationError):
            ExecutionPolicy(n_workers=-1)
        for backend in ("torch", "cupy", "numpy:dense", "warp"):
            with pytest.raises(ValidationError):
                ExecutionPolicy(backend=backend)


class TestWorkloadSpec:
    def test_empty_solvers_rejected(self):
        with pytest.raises(ValidationError):
            WorkloadSpec(
                workload="x", graphs=GraphSource.from_suite("er-small"), solvers=(),
            )

    def test_resolve_rejects_alias_duplicates(self):
        spec = WorkloadSpec(
            workload="x", graphs=GraphSource.from_suite("er-small"),
            solvers=("gw", "solver"),
        )
        with pytest.raises(ValidationError, match="more than once"):
            spec.resolve_solvers()

    def test_to_dict_is_json_safe(self):
        spec = WorkloadSpec(
            workload="x", graphs=GraphSource.erdos_renyi_grid((10,), (0.5,)),
            solvers=("random",), budget=Budget(n_trials=2, n_samples=8),
            params={"extra": (1, 2)},
        )
        payload = spec.to_dict()
        json.dumps(payload)  # must not raise
        assert payload["budget"]["n_trials"] == 2
        assert payload["graphs"]["kind"] == "generator"


class TestValidatedConfigMixin:
    def test_experiment_configs_share_the_mixin(self):
        from repro.experiments.config import (
            AblationConfig,
            Figure4Config,
            Table1Config,
        )

        for cls in (Figure3Config, Figure4Config, Table1Config, AblationConfig,
                    Budget, ExecutionPolicy, GraphSource, WorkloadSpec):
            assert issubclass(cls, ValidatedConfig)

    def test_to_dict_round_trips_through_json(self):
        payload = Figure3Config(sizes=(12,), probabilities=(0.4,)).to_dict()
        assert json.loads(json.dumps(payload)) == payload
        # Nested circuit configs are rendered as nested dictionaries.
        assert isinstance(payload["lif_gw"], dict)


class TestRegistry:
    def test_paper_workloads_registered(self):
        assert list_workloads() == [
            "ablation", "arena", "bench", "evolving", "figure3", "figure4",
            "problems", "table1",
        ]

    def test_unknown_workload_has_suggestion(self):
        with pytest.raises(ValidationError, match="did you mean 'figure3'"):
            get_workload("figure33")

    def test_register_collision_raises(self):
        workload = get_workload("arena")
        with pytest.raises(ValidationError, match="already registered"):
            register_workload(workload)

    def test_register_and_run_custom_workload(self):
        workload = Workload(
            name="_test-workload",
            summary="tiny generic race",
            defaults={"trials": 2, "samples": 8},
            build_spec=lambda params: WorkloadSpec(
                workload="_test-workload",
                graphs=GraphSource.erdos_renyi_grid((10,), (0.5,)),
                solvers=("random", "trevisan"),
                budget=Budget(n_trials=params["trials"], n_samples=params["samples"]),
                seed=params["seed"],
                params=params,
            ),
        )
        try:
            register_workload(workload)
            report = run_workload("_test-workload", seed=1)
            assert isinstance(report, RunReport)
            assert len(report.records) == 2  # 2 solvers x 1 graph
            assert report.winner() in {"random", "trevisan"}
        finally:
            WORKLOADS.pop("_test-workload", None)

    def test_resolve_params_rejects_unknown_keys(self):
        with pytest.raises(ValidationError, match="no parameter"):
            resolve_params(get_workload("figure3"), {"bogus": 1})

    def test_coerce_param_types(self):
        assert coerce_param("sizes", "12,16", (50,)) == (12, 16)
        assert coerce_param("probabilities", "0.4", (0.25,)) == (0.4,)
        assert coerce_param("trials", "3", 4) == 3
        assert coerce_param("resume", "false", True) is False
        assert coerce_param("max_seconds", "none", None) is None
        assert coerce_param("max_seconds", "1.5", None) == 1.5
        assert coerce_param("kind", "rank", "devices") == "rank"
        with pytest.raises(ValidationError):
            coerce_param("trials", "three", 4)
        with pytest.raises(ValidationError):
            coerce_param("resume", "maybe", True)
        # Optional-number params reject junk text instead of smuggling a str
        # into Budget (which would surface as a TypeError downstream).
        with pytest.raises(ValidationError, match="number or 'none'"):
            coerce_param("max_seconds", "abc", None)
        with pytest.raises(ValidationError):
            Budget(n_trials=1, n_samples=1, max_seconds="abc")


class TestSession:
    @pytest.fixture
    def tiny_spec(self):
        return WorkloadSpec(
            workload="adhoc",
            graphs=GraphSource.explicit([
                erdos_renyi(12, 0.4, seed=3, name="tiny-er"),
                complete_bipartite(4, 5, name="tiny-k45"),
            ]),
            solvers=("random", "trevisan"),
            budget=Budget(n_trials=2, n_samples=16),
            seed=0,
        )

    def test_bare_spec_runs_through_generic_executor(self, tiny_spec):
        report = Session(tiny_spec).run()
        assert report.workload == "adhoc"
        assert len(report.records) == 4  # 2 solvers x 2 graphs
        assert all(isinstance(r, ArenaEntry) for r in report.records)
        assert {row["solver"] for row in report.leaderboard} == {"random", "trevisan"}
        # Leaderboard rows are ranked best-score-first.
        scores = [row["score"] for row in report.leaderboard]
        assert scores == sorted(scores, reverse=True)

    def test_plan_routes_by_capability(self):
        spec = WorkloadSpec(
            workload="adhoc",
            graphs=GraphSource.explicit([erdos_renyi(10, 0.5, seed=1, name="g")]),
            solvers=("lif_tr", "trevisan", "random"),
            budget=Budget(n_trials=3, n_samples=8),
            policy=ExecutionPolicy(n_workers=4),
            seed=0,
        )
        plan = Session(spec).plan()
        routes = {step.solver: step.route for step in plan.steps}
        assert routes["lif_tr"].startswith("engine[")
        assert routes["trevisan"] == "once"
        assert routes["random"] == "parallel[4]"
        trials = {step.solver: step.n_trials for step in plan.steps}
        assert trials == {"lif_tr": 3, "trevisan": 1, "random": 3}
        assert "adhoc" in plan.describe()

    def test_plan_resolves_cpu_count_workers(self):
        # n_workers=None fans out over os.cpu_count() processes; the plan
        # must preview that, not claim "sequential".
        import os

        spec = WorkloadSpec(
            workload="adhoc",
            graphs=GraphSource.explicit([erdos_renyi(10, 0.5, seed=1, name="g")]),
            solvers=("random",),
            budget=Budget(n_trials=2, n_samples=4),
            policy=ExecutionPolicy(n_workers=None),
            seed=0,
        )
        route = Session(spec).plan().steps[0].route
        if (os.cpu_count() or 1) > 1:
            assert route == f"parallel[{os.cpu_count()}]"
        else:  # pragma: no cover - single-core CI runner
            assert route == "sequential"

    def test_seed_none_resolved_once_and_recorded(self):
        spec = WorkloadSpec(
            workload="adhoc",
            graphs=GraphSource.explicit([erdos_renyi(10, 0.5, seed=1, name="g")]),
            solvers=("random",),
            budget=Budget(n_trials=1, n_samples=4),
            seed=None,
        )
        session = Session(spec)
        assert session.spec.seed is not None
        assert session.plan().seed == session.spec.seed
        report = session.run()
        assert report.seed == session.spec.seed

    def test_mismatched_workload_pairing_rejected(self, tiny_spec):
        with pytest.raises(ValidationError, match="paired"):
            Session(tiny_spec, get_workload("arena"))

    def test_validate_rejects_unknown_solver(self):
        spec = WorkloadSpec(
            workload="adhoc", graphs=GraphSource.from_suite("er-small"),
            solvers=("quantum",),
        )
        with pytest.raises(ValidationError, match="unknown solver"):
            Session(spec).validate()

    def test_validate_rejects_unknown_suite(self):
        spec = WorkloadSpec(
            workload="adhoc", graphs=GraphSource.from_suite("not-a-suite"),
            solvers=("random",),
        )
        with pytest.raises(ValidationError, match="available"):
            Session(spec).validate()


class TestRunReport:
    def test_save_persists_header_and_records(self, tmp_path):
        report = run_workload(
            "arena", solvers=("random", "trevisan"), suite="er-small",
            trials=2, samples=8, seed=0,
            save=str(tmp_path / "report.json"),
        )
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["experiment"] == "arena"
        assert payload["config"]["workload"] == "arena"
        assert payload["config"]["suite"] == "er-small"
        assert payload["config"]["seed"] == 0
        assert payload["config"]["leaderboard"] == report.leaderboard
        assert len(payload["results"]) == len(report.records)
        assert payload["results"][0]["__type__"] == "ArenaEntry"

    def test_arena_result_view_round_trips(self):
        report = run_workload(
            "arena", solvers=("random", "trevisan"), suite="er-small",
            trials=2, samples=8, seed=0,
        )
        result = arena_result_from_report(report)
        assert result.suite == "er-small"
        assert result.winner() == report.winner()
        assert result.entries == report.records


class TestWorkloadSeeding:
    """The paired SeedSequence(seed, spawn_key=(graph, trial)) contract."""

    def test_engine_and_sequential_paths_agree(self):
        # Every engine trial equals the registry solver run alone on its
        # paired seed: the shared engine run is bitwise the per-trial route.
        from repro.algorithms.registry import get_solver

        report = run_workload(
            "arena", solvers=("lif_tr",), suite="er-small",
            trials=2, samples=16, seed=5,
        )
        graphs = GraphSource.from_suite("er-small").build(5)
        solver = get_solver("lif_tr")
        for g, (graph, entry) in enumerate(zip(graphs, report.records)):
            assert entry.used_engine
            expected = [
                float(solver(graph, n_samples=16, seed=paired_seed(5, g, i)).weight)
                for i in range(2)
            ]
            assert entry.metadata["trial_weights"] == expected

    def test_generic_executor_uses_paired_roots(self):
        # Trial i on graph g must consume SeedSequence(seed, spawn_key=(g, i)):
        # reproduce one cell by hand and compare against the workload records.
        from repro.algorithms.registry import get_solver

        report = run_workload(
            "arena", solvers=("random",), suite="er-small",
            trials=2, samples=8, seed=9,
        )
        graphs = GraphSource.from_suite("er-small").build(9)
        solver = get_solver("random")
        for g, (graph, entry) in enumerate(zip(graphs, report.records)):
            expected = [
                float(solver(graph, n_samples=8, seed=paired_seed(9, g, i)).weight)
                for i in range(2)
            ]
            assert entry.metadata["trial_weights"] == pytest.approx(expected)

    def test_seed_none_custom_executor_reproducible_from_report(self):
        # The session resolves seed=None to drawn entropy; workload adapters
        # (figure/table/ablation) must run on that resolution, so re-running
        # with the recorded report.seed reproduces the results exactly.
        first = run_workload("table1", graphs=("road-chesapeake",),
                             samples=16, seed=None)
        again = run_workload("table1", graphs=("road-chesapeake",),
                             samples=16, seed=first.seed)
        assert first.seed == again.seed
        assert first.records[0].measured == again.records[0].measured

    def test_run_reproducible_across_calls(self):
        kwargs = dict(solvers=("random", "annealing"), suite="er-small",
                      trials=2, samples=8, seed=42)
        a = run_workload("arena", **kwargs)
        b = run_workload("arena", **kwargs)
        for ea, eb in zip(a.records, b.records):
            assert ea.best_weight == eb.best_weight
            assert ea.mean_weight == eb.mean_weight


class TestBudgetDeadline:
    """Budget.max_seconds as a real engine deadline (satellite of PR 6)."""

    def test_engine_cell_truncates_under_tight_budget(self):
        from repro.cuts.cut import cut_weight

        spec = WorkloadSpec(
            workload="arena",
            graphs=GraphSource.from_suite("er-small"),
            solvers=("lif_tr",),
            budget=Budget(n_trials=4, n_samples=4000, max_seconds=1e-4),
            seed=3,
        )
        report = Session(spec).run()
        for entry in report.records:
            assert entry.used_engine
            assert entry.metadata["budget_truncated"] is True
            # Truncated, but every recorded round is a real one...
            assert 1 <= entry.metadata["n_rounds"] < 4000
            # ...and the best weight is a valid cut (positive on ER graphs).
            assert entry.best_weight > 0

    def test_generous_budget_leaves_results_untouched(self):
        kwargs = dict(solvers=("lif_tr",), suite="er-small", trials=2, samples=8, seed=4)
        free = run_workload("arena", **kwargs)
        capped = run_workload("arena", max_seconds=3600.0, **kwargs)
        for ea, eb in zip(free.records, capped.records):
            assert ea.best_weight == eb.best_weight
            assert "budget_truncated" not in eb.metadata


class TestEngineWallTime:
    """Each engine unit is charged the wall time of the run it rode."""

    def test_units_charged_their_own_engine_run(self):
        # Two same-size graphs fuse per circuit; the third runs alone.
        graphs = [
            erdos_renyi(16, 0.4, seed=1, name="a"),
            erdos_renyi(16, 0.4, seed=2, name="b"),
            erdos_renyi(20, 0.3, seed=3, name="c"),
        ]
        report = run_workload(
            "arena", solvers=("lif_gw", "lif_tr"), suite=graphs,
            trials=2, samples=64, seed=0,
        )
        fused = {}
        n_alone = 0
        for entry in report.records:
            engine_wall = entry.metadata["engine_elapsed_seconds"]
            block = entry.metadata.get("instance_block")
            if block is None:
                n_alone += 1
                assert entry.elapsed_seconds == engine_wall
            else:
                # Members of one fused run share its wall clock.
                fused.setdefault((engine_wall, block["fused_trials"]), []).append(
                    entry.elapsed_seconds
                )
        assert n_alone and fused
        for (engine_wall, _), shares in fused.items():
            assert len(shares) > 1
            assert sum(shares) == pytest.approx(engine_wall, rel=1e-12)
