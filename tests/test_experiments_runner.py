"""Tests for experiment result persistence (repro.experiments.runner)."""

import json

import numpy as np
import pytest

from repro.experiments.ablations import AblationPoint
from repro.experiments.runner import (
    ExperimentRecord,
    load_results,
    results_to_jsonable,
    save_results,
)
from repro.experiments.table1 import Table1Row
from repro.utils.validation import ValidationError


def _toy_row():
    return Table1Row(
        graph_name="toy",
        n_vertices=5,
        n_edges=6,
        measured={"lif_gw": 5.0, "lif_tr": 4.0, "solver": 5.0, "random": 3.0},
        paper={"lif_gw": 5, "solver": 5, "lif_tr": 5, "random": 4, "reference": 5},
        is_surrogate=True,
    )


def _toy_point():
    return AblationPoint(
        setting="fair",
        mean_relative_cut=0.97,
        sem=0.01,
        per_graph=np.array([0.96, 0.98]),
        metadata={"circuit": "lif_gw"},
    )


class TestResultsToJsonable:
    def test_table1_row_serialised(self):
        payload = results_to_jsonable([_toy_row()])
        assert payload[0]["__type__"] == "Table1Row"
        assert payload[0]["measured"]["lif_gw"] == 5.0

    def test_numpy_arrays_become_lists(self):
        payload = results_to_jsonable([_toy_point()])
        assert payload[0]["per_graph"] == [0.96, 0.98]

    def test_rejects_unknown_types(self):
        with pytest.raises(ValidationError):
            results_to_jsonable([{"not": "a result"}])

    def test_json_round_trip(self):
        payload = results_to_jsonable([_toy_row(), _toy_row()])
        text = json.dumps(payload)
        assert json.loads(text) == payload


def _toy_instances():
    """One toy instance of every registered result type (keyed by type name)."""
    from repro.arena.results import ArenaEntry
    from repro.experiments.figure3 import Figure3Cell
    from repro.experiments.figure4 import Figure4Panel
    from repro.engine import SolveRequest, solve
    from repro.distrib import ShardCheckpoint
    from repro.graphs.generators import erdos_renyi
    from repro.portfolio import PortfolioModel
    from repro.workloads import BenchRecord, RunReport
    from repro.workloads.evolving import EvolvingRecord

    graph = erdos_renyi(10, 0.5, seed=0, name="toy10")
    solve_result = solve(SolveRequest(
        circuit="lif_tr", graph=graph, n_trials=2, n_samples=4, seed=0
    ))
    counts = np.array([1, 2, 4])
    curve = {"lif_gw": np.array([0.5, 0.7, 0.9])}
    arena_entry = ArenaEntry(
        solver="random", graph_name="toy10", n_vertices=10, n_edges=20,
        total_weight=20.0, best_weight=12.0, mean_weight=11.0, cut_ratio=1.0,
        n_trials=2, n_samples=8, elapsed_seconds=0.01, samples_per_second=1600.0,
        used_engine=False, metadata={"trial_weights": [11.0, 12.0]},
    )
    instances = [
        _toy_row(),
        _toy_point(),
        Figure3Cell(
            n_vertices=10, probability=0.5, sample_counts=counts,
            curves=dict(curve), sems=dict(curve),
            solver_best_weights=np.array([12.0]), metadata={"n_graphs": 1},
        ),
        Figure4Panel(
            graph_name="toy10", n_vertices=10, n_edges=20, sample_counts=counts,
            curves=dict(curve), solver_best_weight=12.0,
            best_weights={"lif_gw": 11.0}, metadata={},
        ),
        solve_result,
        arena_entry,
        RunReport(
            workload="arena", seed=0, params={"suite": "er-small"},
            records=[arena_entry], leaderboard=[{"solver": "random", "score": 1.0}],
            elapsed_seconds=0.02, metadata={"suite": "er-small"}, version="1.0.0",
        ),
        ShardCheckpoint(
            workload="arena", shard_index=0, n_shards=2, fingerprint="abc123",
            units=[[0, "random", 0, 2]],
            payloads=[{"graph_index": 0, "solver": "random", "weights": [11.0]}],
            elapsed_seconds=0.01,
        ),
        BenchRecord(
            scenario="engine:lif_tr", suite="er-small", wall_seconds=0.5,
            baseline_seconds=1.0, speedup=2.0, detail={"results_match": True},
        ),
        EvolvingRecord(
            graph_name="toy10", trial=0, step=1, n_vertices=10, n_edges=20,
            fingerprint="abc123", method="auto", warm_weight=12.0,
            warm_seconds=0.01, cold_weight=12.5, cold_seconds=0.05,
            quality_ratio=0.96, compared=True,
            detail={"parent_fingerprint": "def456"},
        ),
        PortfolioModel(
            buckets={"maxcut/small/mid": [
                {"solver": "trevisan", "mean_ratio": 1.0,
                 "count": 1, "wins": 1},
            ]},
            overall=[{"solver": "trevisan", "mean_ratio": 1.0,
                      "count": 1, "wins": 1}],
            n_reports=1, n_records=1, sources=["toy.json"],
        ),
    ]
    return {type(instance).__name__: instance for instance in instances}


class TestEveryRegisteredTypeRoundTrips:
    """Satellite contract: load_results round-trips every registered type."""

    def test_toy_instances_cover_the_registry(self):
        from repro.experiments.runner import _RESULT_TYPES

        covered = set(_toy_instances())
        registered = {t.__name__ for t in _RESULT_TYPES}
        assert registered <= covered, f"missing toys for {registered - covered}"

    @pytest.mark.parametrize("type_name", [
        "Table1Row", "AblationPoint", "Figure3Cell", "Figure4Panel",
        "SolveResult", "ArenaEntry", "RunReport", "ShardCheckpoint",
        "BenchRecord", "PortfolioModel",
    ])
    def test_round_trip(self, type_name, tmp_path):
        instance = _toy_instances()[type_name]
        path = tmp_path / f"{type_name}.json"
        save_results(path, "round-trip", [instance], config={"type": type_name})
        loaded = load_results(path)
        assert loaded.result_type() == type_name
        assert loaded.config == {"type": type_name}
        # The payload is what a fresh JSON parse sees — fully JSON-safe.
        assert loaded.results == json.loads(path.read_text())["results"]

    def test_dynamically_registered_type_round_trips(self, tmp_path):
        import dataclasses

        from repro.experiments import runner as runner_module

        @dataclasses.dataclass(frozen=True)
        class _CustomResult:
            label: str
            values: list

        try:
            runner_module.register_result_type(_CustomResult)
            path = tmp_path / "custom.json"
            save_results(path, "custom", [_CustomResult("x", [1, 2.5])])
            loaded = load_results(path)
            assert loaded.result_type() == "_CustomResult"
            assert loaded.results[0]["values"] == [1, 2.5]
        finally:
            runner_module._RESULT_TYPES = tuple(
                t for t in runner_module._RESULT_TYPES if t is not _CustomResult
            )

    def test_run_report_nested_records_serialise(self, tmp_path):
        report = _toy_instances()["RunReport"]
        path = tmp_path / "nested.json"
        save_results(path, "workload", [report])
        loaded = load_results(path)
        nested = loaded.results[0]["records"][0]
        assert nested["__type__"] == "ArenaEntry"
        assert nested["best_weight"] == 12.0


class TestSaveAndLoad:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "results.json"
        record = save_results(path, "table1", [_toy_row()], config={"n_samples": 64})
        assert isinstance(record, ExperimentRecord)
        loaded = load_results(path)
        assert loaded.experiment == "table1"
        assert loaded.config == {"n_samples": 64}
        assert loaded.result_type() == "Table1Row"
        assert loaded.results[0]["graph_name"] == "toy"
        assert loaded.version != ""

    def test_empty_results(self, tmp_path):
        path = tmp_path / "empty.json"
        save_results(path, "figure3", [])
        loaded = load_results(path)
        assert loaded.results == []
        assert loaded.result_type() is None

    def test_missing_fields_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"experiment": "x"}))
        with pytest.raises(ValidationError):
            load_results(path)

    def test_file_is_valid_json(self, tmp_path):
        path = tmp_path / "results.json"
        save_results(path, "ablation", [_toy_point()])
        payload = json.loads(path.read_text())
        assert payload["experiment"] == "ablation"
        assert payload["results"][0]["setting"] == "fair"
