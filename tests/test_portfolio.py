"""Tests for the portfolio meta-solver (repro.portfolio).

The load-bearing claims:

* instance features are deterministic and invariant under vertex
  relabeling (including the Lanczos spectral-gap estimate, which uses
  label-equivariant probe vectors precisely for this reason);
* a k=1 "race" is bit-identical to running the single solver alone with
  the same root seed, on both the batched-engine and sequential paths;
* races never exceed their trial budget, and deterministic candidates
  run exactly one trial;
* mined PortfolioModel priors survive a JSON round-trip through the
  standard experiment persistence layer;
* ``"auto"`` is a first-class solver name: registry, arena (with a
  timing-stripped determinism pin), CLI, and serve all accept it, and a
  served ``"solver": "auto"`` answer is bit-identical to requesting the
  routed circuit directly.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.algorithms.registry import get_spec, list_solvers
from repro.arena import build_suite
from repro.engine.sampler import trial_seed_sequences
from repro.experiments.runner import run_circuit_trials, save_results
from repro.graphs.generators import complete_bipartite, erdos_renyi
from repro.graphs.graph import Graph
from repro.graphs.io import graph_to_dict
from repro.portfolio import (
    DEFAULT_CANDIDATES,
    InstanceFeatures,
    PortfolioModel,
    bucket_key,
    explain_model,
    extract_features,
    fit_from_paths,
    fit_from_records,
    load_model,
    race,
    rank_solvers,
    route_circuit,
    rung_schedule,
    save_model,
    solve_portfolio,
    spectral_gap_estimate,
)
from repro.problems import compile_to_maxcut, random_problem
from repro.serve import ServiceConfig, SolverService
from repro.utils.validation import ValidationError
from repro.workloads import arena_result_from_report, run_workload
from repro.workloads.spec import Budget


def _arena(solvers, suite, trials, samples):
    """Race *solvers* on *suite* through the arena workload (seed 0)."""
    report = run_workload("arena", solvers=tuple(solvers), suite=suite,
                          trials=trials, samples=samples, seed=0)
    return arena_result_from_report(report)


def _permuted(graph: Graph, seed: int = 0) -> Graph:
    """The same graph with vertices relabeled by a random permutation."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(graph.n_vertices)
    edges = [(int(perm[int(u)]), int(perm[int(v)]), float(w))
             for (u, v), w in zip(graph.edges, graph.edge_weights)]
    return Graph(graph.n_vertices, edges, name=f"{graph.name}-permuted")


def _weighted_er(n: int, p: float, seed: int) -> Graph:
    """ER graph with non-uniform edge weights (weight stats must move)."""
    base = erdos_renyi(n, p, seed=seed)
    rng = np.random.default_rng(seed + 1)
    edges = [(int(u), int(v), float(w))
             for (u, v), w in zip(base.edges,
                                  rng.uniform(0.5, 2.0, base.n_edges))]
    return Graph(n, edges, name="weighted-er")


def _record(solver, n_vertices=12, n_edges=26, cut_ratio=1.0, **extra):
    row = {"solver": solver, "n_vertices": n_vertices, "n_edges": n_edges,
           "cut_ratio": cut_ratio}
    row.update(extra)
    return row


class TestFeatures:
    def test_extraction_is_deterministic(self):
        g = erdos_renyi(18, 0.3, seed=2)
        assert extract_features(g) == extract_features(g)

    def test_relabel_invariance(self):
        g = _weighted_er(16, 0.4, seed=5)
        h = _permuted(g, seed=9)
        fg, fh = extract_features(g), extract_features(h)
        for field in dataclasses.fields(InstanceFeatures):
            a, b = getattr(fg, field.name), getattr(fh, field.name)
            if isinstance(a, float):
                # Summation order differs after relabeling; everything else
                # about the estimate is label-equivariant by construction.
                assert a == pytest.approx(b, abs=1e-8), field.name
            else:
                assert a == b, field.name

    def test_spectral_gap_relabel_invariant_on_regular_graph(self):
        # Regular graphs are the adversarial case: degree-based probes
        # carry no labeling information, so any hidden label dependence
        # (e.g. a random restart vector) would show up here.
        g = complete_bipartite(5, 5)
        h = _permuted(g, seed=3)
        assert spectral_gap_estimate(g) == pytest.approx(
            spectral_gap_estimate(h), abs=1e-8)

    def test_degenerate_graphs_get_zero_gap(self):
        assert spectral_gap_estimate(Graph(1)) == 0.0
        assert spectral_gap_estimate(Graph(5)) == 0.0  # no edges

    def test_problem_class_from_compiled_graph(self):
        problem = random_problem("qubo", seed=3, n_variables=5)
        compiled = compile_to_maxcut(problem)[0]
        features = extract_features(compiled)
        assert features.problem_class == "qubo"
        assert extract_features(erdos_renyi(8, 0.5, seed=1)).problem_class \
            == "maxcut"

    def test_to_dict_round_trips_field_names(self):
        features = extract_features(erdos_renyi(10, 0.4, seed=0))
        payload = features.to_dict()
        assert set(payload) == {f.name for f in
                                dataclasses.fields(InstanceFeatures)}
        assert json.loads(json.dumps(payload)) == payload

    def test_bucket_key_bands(self):
        assert bucket_key("maxcut", 32, 0.05) == "maxcut/small/sparse"
        assert bucket_key("maxcut", 128, 0.2) == "maxcut/medium/mid"
        assert bucket_key("qubo", 1024, 0.9) == "qubo/large/dense"


class TestRungSchedule:
    def test_worked_examples(self):
        assert rung_schedule(1, 6) == [6]
        assert rung_schedule(4, 8) == [4, 8]
        assert rung_schedule(2, 1) == [1]

    def test_bounds(self):
        for k in (1, 2, 3, 5, 8):
            for t in (1, 2, 4, 7, 16):
                targets = rung_schedule(k, t)
                assert targets == sorted(set(targets))
                assert targets[-1] == t
                assert all(1 <= x <= t for x in targets)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValidationError):
            rung_schedule(0, 4)
        with pytest.raises(ValidationError):
            rung_schedule(2, 0)


class TestRace:
    @pytest.fixture
    def graph(self):
        return erdos_renyi(14, 0.4, seed=8)

    def test_single_candidate_race_equals_engine_run(self, graph):
        result = race(graph, ["lif_tr"],
                      budget=Budget(n_trials=3, n_samples=16), seed=7)
        solo = run_circuit_trials(graph, circuit="lif_tr", n_trials=3,
                                  n_samples=16, seed=7)
        assert result.winner == "lif_tr"
        assert result.best_cut.weight == solo.best_cut.weight
        assert np.array_equal(result.best_cut.assignment,
                              solo.best_cut.assignment)
        assert result.trials_used == {"lif_tr": 3}

    def test_single_candidate_race_equals_sequential_run(self, graph):
        result = race(graph, ["local_search"],
                      budget=Budget(n_trials=3, n_samples=16), seed=11)
        fn = get_spec("local_search").fn
        cuts = [fn(graph, n_samples=16, seed=seq)
                for seq in trial_seed_sequences(11, 3)]
        best = max(cuts, key=lambda c: c.weight)
        assert result.best_cut.weight == best.weight

    def test_race_is_deterministic(self, graph):
        kwargs = dict(budget=Budget(n_trials=4, n_samples=16), seed=3)
        first = race(graph, ["lif_tr", "local_search"], **kwargs)
        second = race(graph, ["lif_tr", "local_search"], **kwargs)
        assert first.winner == second.winner
        assert first.best_cut.weight == second.best_cut.weight
        assert first.trials_used == second.trials_used
        assert first.rungs == second.rungs

    def test_budget_never_exceeded(self, graph):
        solvers = ["lif_tr", "local_search", "annealing", "trevisan"]
        budget = Budget(n_trials=5, n_samples=8)
        result = race(graph, solvers, budget=budget, seed=1)
        assert all(t <= budget.n_trials for t in result.trials_used.values())
        assert result.total_trials <= len(solvers) * budget.n_trials
        # Deterministic candidates never rerun: one trial, ever.
        assert result.trials_used["trevisan"] == 1

    def test_winner_runs_full_budget(self, graph):
        result = race(graph, ["lif_tr", "local_search"],
                      budget=Budget(n_trials=6, n_samples=8), seed=2)
        if not get_spec(result.winner).deterministic:
            assert result.trials_used[result.winner] == 6

    def test_duplicate_and_empty_candidates_rejected(self, graph):
        with pytest.raises(ValidationError):
            race(graph, ["lif_tr", "lif_tr"])
        with pytest.raises(ValidationError):
            race(graph, [])

    def test_race_keeps_the_best_single_candidates_cut(self):
        # The cold-routing claim, on the largest er-small graph: the halving
        # race gives up at most 15% of the best single candidate's cut (each
        # run alone at the full budget, paired seeds), and replaying the
        # winner alone for the trials it used reproduces its cut exactly.
        graph = max(build_suite("er-small", seed=0), key=lambda g: g.n_vertices)
        candidates = ("lif_tr", "trevisan", "local_search")
        budget = Budget(n_trials=6, n_samples=48)
        raced = race(graph, candidates, budget=budget, seed=0)
        best_single = max(
            race(graph, [name], budget=budget, seed=0).best_cut.weight
            for name in candidates
        )
        assert raced.best_cut.weight >= 0.85 * best_single
        assert raced.total_trials < budget.n_trials * len(candidates)
        replay = race(
            graph, [raced.winner],
            budget=Budget(n_trials=max(1, raced.trials_used[raced.winner]),
                          n_samples=budget.n_samples),
            seed=0,
        )
        assert replay.best_cut.weight == raced.best_cut.weight

    def test_rung_trace_records_halving(self, graph):
        result = race(graph, ["lif_tr", "local_search", "trevisan"],
                      budget=Budget(n_trials=4, n_samples=8), seed=0)
        assert result.rungs[0]["active"] == ["lif_tr", "local_search",
                                             "trevisan"]
        assert len(result.rungs[-1]["survivors"]) == 1
        assert result.rungs[-1]["survivors"] == [result.winner]
        payload = result.to_dict()
        assert json.loads(json.dumps(payload)) == payload


class TestPriors:
    def test_fit_ranks_by_mean_ratio_then_name(self):
        model = fit_from_records([
            _record("alpha", cut_ratio=0.9),
            _record("beta", cut_ratio=1.0),
            _record("gamma", cut_ratio=1.0),
        ])
        assert [r["solver"] for r in model.overall] == \
            ["beta", "gamma", "alpha"]
        assert model.overall[0]["wins"] == 1
        assert model.n_records == 3 and model.n_skipped == 0

    def test_fit_skips_malformed_records(self):
        model = fit_from_records([
            _record("alpha"), {"solver": "broken"}, "not-a-dict",
        ])
        assert model.n_records == 1 and model.n_skipped == 2

    def test_fit_buckets_by_problem_class_and_size(self):
        model = fit_from_records([
            _record("alpha", n_vertices=12, n_edges=26),
            _record("beta", n_vertices=300, n_edges=600,
                    metadata={"problem_class": "qubo"}),
        ])
        assert any(b.startswith("maxcut/small/") for b in model.buckets)
        assert any(b.startswith("qubo/large/") for b in model.buckets)

    def test_model_json_round_trip(self, tmp_path):
        model = fit_from_records(
            [_record("alpha"), _record("beta", cut_ratio=0.8)],
            n_reports=2, sources=["a.json", "b.json"])
        path = tmp_path / "model.json"
        save_model(path, model)
        assert load_model(path) == model

    def test_load_rejects_wrong_result_type(self, tmp_path):
        result = _arena(["random"], [erdos_renyi(8, 0.5, seed=1, name="g")],
                        trials=1, samples=8)
        path = tmp_path / "other.json"
        save_results(path, "compare", result.entries[:1])
        with pytest.raises(ValidationError):
            load_model(path)

    def test_fit_from_arena_save(self, tmp_path):
        result = _arena(["random", "trevisan"],
                        [erdos_renyi(12, 0.4, seed=3, name="tiny-er")],
                        trials=2, samples=16)
        path = tmp_path / "arena.json"
        save_results(path, "compare", result.entries)
        model = fit_from_paths([path])
        assert model.n_records == len(result.entries)
        mined = {r["solver"] for r in model.overall}
        assert mined == {"random", "trevisan"}
        assert str(path) in model.sources
        rendered = explain_model(model)
        assert "trevisan" in rendered

    def test_fit_from_paths_requires_input(self):
        with pytest.raises(ValidationError):
            fit_from_paths([])

    def test_rank_solvers_filters_and_appends_unseen(self):
        model = fit_from_records([
            _record("beta", cut_ratio=1.0),
            _record("alpha", cut_ratio=0.5),
        ])
        features = extract_features(erdos_renyi(12, 0.4, seed=3))
        ranked = rank_solvers(model, features,
                              available=["alpha", "beta", "mystery"])
        assert ranked[:2] == ["beta", "alpha"]
        assert ranked[2] == "mystery"  # unseen: appended in caller order


class TestPortfolioSolver:
    def test_registered_under_auto_alias(self):
        assert get_spec("auto").key == "portfolio"
        assert get_spec("portfolio").key == "portfolio"
        assert "portfolio" in list_solvers()

    def test_model_routing_is_bit_identical_to_direct_call(self):
        g = erdos_renyi(12, 0.4, seed=3)
        # A model that puts the deterministic trevisan solver on top for
        # every bucket: routing must reproduce its answer exactly.
        model = fit_from_records([
            _record("trevisan", n_vertices=g.n_vertices,
                    n_edges=g.n_edges, cut_ratio=1.0),
        ])
        routed = solve_portfolio(g, n_samples=8, seed=5, model=model)
        direct = get_spec("trevisan").fn(g, n_samples=8, seed=5)
        assert routed.weight == direct.weight
        assert np.array_equal(routed.assignment, direct.assignment)

    def test_cold_path_matches_explicit_race(self):
        g = erdos_renyi(12, 0.4, seed=3)
        cut = solve_portfolio(g, n_samples=16, seed=4,
                              candidates=["lif_tr", "local_search"],
                              race_trials=3)
        raced = race(g, ["lif_tr", "local_search"],
                     budget=Budget(n_trials=3, n_samples=16), seed=4)
        assert cut.weight == raced.best_cut.weight
        assert np.array_equal(cut.assignment, raced.best_cut.assignment)

    def test_self_race_rejected(self):
        g = erdos_renyi(8, 0.4, seed=1)
        with pytest.raises(ValidationError):
            solve_portfolio(g, candidates=["auto"])

    def test_default_candidates_are_registered_and_setup_free(self):
        for name in DEFAULT_CANDIDATES:
            spec = get_spec(name)
            assert spec.key == name


def _strip_timing(rows):
    return [{k: v for k, v in row.items()
             if k not in ("elapsed_seconds", "samples_per_second")}
            for row in rows]


class TestArenaAutoDeterminism:
    def test_auto_vs_gw_leaderboard_pinned_across_runs(self):
        """Acceptance pin: `repro compare --solvers auto,gw` is deterministic.

        Two identical runs must produce identical leaderboard JSON once
        wall-clock columns are stripped (they are the only permitted
        difference).
        """
        suite = [
            erdos_renyi(10, 0.4, seed=3, name="pin-er"),
            complete_bipartite(4, 4, name="pin-k44"),
        ]

        def one_run():
            result = _arena(["auto", "gw"], suite, trials=2, samples=16)
            entries = [dataclasses.asdict(e) for e in result.entries]
            return (_strip_timing(result.aggregate()),
                    _strip_timing(entries))

        first, second = one_run(), one_run()
        assert json.dumps(first, sort_keys=True, default=str) == \
            json.dumps(second, sort_keys=True, default=str)


class TestServeAuto:
    def _payload(self, graph, **overrides):
        payload = {"graph": graph_to_dict(graph), "solver": "auto",
                   "trials": 2, "samples": 8, "seed": 0}
        payload.update(overrides)
        return {k: v for k, v in payload.items() if v is not None}

    def test_auto_routes_sparse_to_lif_tr_bit_identically(self):
        g = erdos_renyi(14, 0.15, seed=2)  # density < 0.25 -> lif_tr
        assert route_circuit(g) == "lif_tr"
        with SolverService() as service:
            routed = service.solve(self._payload(g, seed=6), timeout=60)
            direct = service.solve(
                self._payload(g, solver=None, circuit="lif_tr", seed=6),
                timeout=60)
        assert routed["status"] == direct["status"] == "ok"
        assert routed["circuit"] == "lif_tr"
        assert routed["routed"] is True and direct["routed"] is False
        # The acceptance claim: the routed answer is bit-identical to
        # requesting the chosen circuit directly (identical content key,
        # so the second request is answered from the result cache).
        for key in ("best_weight", "assignment", "trial_best_weights",
                    "graph_fingerprint", "seed"):
            assert routed[key] == direct[key], key

    def test_auto_routes_dense_to_lif_gw(self):
        g = erdos_renyi(10, 0.7, seed=4)
        assert route_circuit(g) == "lif_gw"
        with SolverService() as service:
            response = service.solve(self._payload(g, trials=1, samples=6),
                                     timeout=120)
            stats = service.stats()
        assert response["status"] == "ok"
        assert response["circuit"] == "lif_gw"
        assert response["routed"] is True
        assert stats["routed"] == 1

    def test_route_circuit_honours_model_priors(self):
        g = erdos_renyi(10, 0.7, seed=4)  # heuristic alone says lif_gw
        model = fit_from_records([
            _record("lif_tr", n_vertices=g.n_vertices, n_edges=g.n_edges,
                    cut_ratio=1.0),
            _record("lif_gw", n_vertices=g.n_vertices, n_edges=g.n_edges,
                    cut_ratio=0.5),
        ])
        assert route_circuit(g, model=model) == "lif_tr"

    def test_service_config_accepts_model_path(self, tmp_path):
        model = fit_from_records([_record("lif_tr")])
        path = tmp_path / "model.json"
        save_model(path, model)
        service = SolverService(
            ServiceConfig(portfolio_model=str(path)), autostart=False)
        assert service._route(erdos_renyi(10, 0.7, seed=4)) == "lif_tr"


class TestPortfolioCLI:
    @pytest.fixture
    def results_file(self, tmp_path):
        result = _arena(["random", "trevisan"],
                        [erdos_renyi(12, 0.4, seed=3, name="tiny-er")],
                        trials=2, samples=16)
        path = tmp_path / "compare.json"
        save_results(path, "compare", result.entries)
        return path

    def test_fit_then_explain_round_trip(self, results_file, tmp_path,
                                         capsys):
        from repro.cli import main

        out = tmp_path / "model.json"
        assert main(["portfolio", "fit", str(results_file),
                     "--out", str(out)]) == 0
        assert load_model(out).n_records > 0
        capsys.readouterr()
        assert main(["portfolio", "explain", str(out)]) == 0
        rendered = capsys.readouterr().out
        assert "trevisan" in rendered

    def test_fit_without_minable_records_exits_nonzero(self, tmp_path):
        from repro.cli import main

        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({
            "experiment": "compare", "created_at": 0.0, "config": {},
            "results": [{"not": "minable"}],
        }))
        assert main(["portfolio", "fit", str(bogus)]) == 2

    def test_solve_accepts_auto(self, capsys):
        from repro.cli import main

        assert main(["--seed", "3", "solve", "--solver", "auto",
                     "--er", "10", "0.4", "--samples", "16",
                     "--trials", "2"]) == 0
        assert "cut" in capsys.readouterr().out.lower()
