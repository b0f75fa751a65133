"""Tests for sharded, resumable workload execution (``repro.distrib``).

The load-bearing contract: for **every** registered workload, a sharded run
merged back together equals the monolithic run — records and leaderboard —
for any shard count (modulo wall-clock timing metadata), and a killed run
resumes by re-executing only the shards whose checkpoints are missing.
"""

import dataclasses
import json
import os

import numpy as np
import pytest

from repro.distrib import (
    CheckpointStore,
    ShardCheckpoint,
    fingerprint,
    merge_checkpoints,
    plan_shards,
    run_sharded,
)
from repro.engine.sampler import trial_seed_sequences
from repro.experiments.runner import load_results, save_results
from repro.utils.validation import ValidationError
from repro.workloads import (
    Budget,
    ExecutionPolicy,
    GraphSource,
    Session,
    WorkloadSpec,
    run_workload,
)
from repro.workloads.executor import cell_units

#: Keys holding wall-clock measurements or shard bookkeeping — never compared.
_TIMING_KEYS = {
    "elapsed_seconds",
    "arena_elapsed_seconds",
    "engine_elapsed_seconds",
    "shard_elapsed_seconds",
    "samples_per_second",
    "warm_seconds",
    "cold_seconds",
    "n_unit_blocks",
    "distrib",
}

#: Tiny-budget parameters per workload for the determinism matrix.
WORKLOAD_PARAMS = {
    "arena": dict(
        solvers=("lif_tr", "random", "trevisan"), suite="structured-small",
        trials=2, samples=8, seed=0,
    ),
    "figure3": dict(
        sizes=(16,), probabilities=(0.3,), trials=2, samples=8, seed=0,
    ),
    "figure4": dict(graphs=("road-chesapeake",), samples=8, seed=0),
    "table1": dict(graphs=("road-chesapeake",), samples=8, seed=0),
    "ablation": dict(
        kind="learning-rate", vertices=12, samples=8, n_graphs=2, seed=0,
    ),
    "problems": dict(
        problem="2sat", solvers=("random", "annealing", "max2sat_gw"),
        trials=2, samples=8, seed=0,
    ),
    "evolving": dict(
        suite="er-small", steps=2, deltas=4, trials=2, samples=16, seed=0,
    ),
}


def _scrub(value):
    if isinstance(value, dict):
        return {k: _scrub(v) for k, v in value.items() if k not in _TIMING_KEYS}
    if isinstance(value, (list, tuple)):
        return [_scrub(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    return value


def _comparable_records(report):
    out = []
    for record in report.records:
        fields = {
            f.name: getattr(record, f.name)
            for f in dataclasses.fields(record)
        }
        out.append(_scrub(fields))
    return out


@pytest.fixture(scope="module")
def monolithic():
    """One monolithic run per workload, shared by the shard-count matrix."""
    return {
        name: Session.from_workload(name, **params).run()
        for name, params in WORKLOAD_PARAMS.items()
    }


class TestShardDeterminism:
    # 4 is the acceptance-pinned shard count; {1, 2, 7} cover the degenerate,
    # even, and more-shards-than-cells splits.
    @pytest.mark.parametrize("name", sorted(WORKLOAD_PARAMS))
    @pytest.mark.parametrize("shards", [1, 2, 4, 7])
    def test_merged_equals_monolithic(self, name, shards, monolithic, tmp_path):
        # shards=1 would normally shortcut to the monolithic path; a
        # checkpoint_dir forces it through the sharded machinery so the
        # single-shard split-and-merge is genuinely exercised too.
        checkpoint_dir = str(tmp_path) if shards == 1 else None
        sharded = Session.from_workload(name, **WORKLOAD_PARAMS[name]).run(
            shards=shards, checkpoint_dir=checkpoint_dir
        )
        mono = monolithic[name]
        assert _comparable_records(sharded) == _comparable_records(mono)
        assert _scrub(sharded.leaderboard) == _scrub(mono.leaderboard)
        assert sharded.metadata["distrib"]["n_shards"] == shards

    def test_sharded_figure3_fans_units_out_over_workers(self, monkeypatch):
        """``workers`` reaches figure3's units on sharded runs too."""
        import repro.workloads.paper as paper

        configs = []
        real_parallel_map = paper.parallel_map

        def recording_parallel_map(fn, items, config=None):
            items = list(items)
            configs.append((config, len(items)))
            return real_parallel_map(fn, items, config=config)

        monkeypatch.setattr(paper, "parallel_map", recording_parallel_map)
        params = dict(
            sizes=(12,), probabilities=(0.3,), trials=4, samples=8, seed=0,
        )
        fanned = run_workload("figure3", workers=2, shards=2, **params)
        assert [(c.n_workers, n) for c, n in configs] == [(2, 2), (2, 2)]
        serial = run_workload("figure3", workers=1, **params)
        assert _comparable_records(fanned) == _comparable_records(serial)
        assert _scrub(fanned.leaderboard) == _scrub(serial.leaderboard)

    def test_checkpointed_run_equals_in_memory(self, tmp_path, monolithic):
        """Payloads that round-trip through checkpoint files stay identical."""
        report = Session.from_workload("arena", **WORKLOAD_PARAMS["arena"]).run(
            shards=3, checkpoint_dir=str(tmp_path)
        )
        assert _comparable_records(report) == _comparable_records(
            monolithic["arena"]
        )
        files = sorted(os.listdir(tmp_path))
        assert files == [
            "manifest.json", "shard-0000.json", "shard-0001.json",
            "shard-0002.json",
        ]


class TestPlan:
    def _spec(self, **overrides):
        base = dict(
            workload="adhoc",
            graphs=GraphSource.from_suite("er-small"),
            solvers=("random",),
            budget=Budget(n_trials=4, n_samples=8),
            seed=0,
        )
        base.update(overrides)
        return WorkloadSpec(**base)

    def test_round_robin_assignment_covers_all_units(self):
        plan = plan_shards(self._spec(), 2)
        assert sorted(j for a in plan.assignments for j in a) == list(
            range(len(plan.units))
        )
        assert plan.assignments[0] == tuple(range(0, len(plan.units), 2))

    def test_more_shards_than_cells_splits_trial_ranges(self):
        # 3 er-small graphs x 1 solver = 3 cells; 7 shards forces trial splits.
        spec = self._spec()
        units = cell_units(spec, n_shards=7)
        assert len(units) > 3
        by_cell = {}
        for g, key, lo, hi in units:
            by_cell.setdefault((g, key), []).append((lo, hi))
        for ranges in by_cell.values():
            ranges.sort()
            assert ranges[0][0] == 0 and ranges[-1][1] == 4
            for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
                assert hi == lo  # contiguous, non-overlapping

    def test_mixed_solver_split_still_covers_every_shard(self):
        # Deterministic cells cannot absorb extra shards — the stochastic
        # cells alone must cover the deficit.
        spec = self._spec(
            graphs=GraphSource.from_suite("structured-small"),
            solvers=("trevisan", "random"),
            budget=Budget(n_trials=16, n_samples=8),
        )
        # 6 cells (3 deterministic + 3 stochastic), 12 shards requested.
        units = cell_units(spec, n_shards=12)
        assert len(units) >= 12
        plan = plan_shards(spec, 12)
        assert all(len(a) > 0 for a in plan.assignments)

    def test_deterministic_solvers_never_split(self):
        spec = self._spec(solvers=("trevisan",))
        units = cell_units(spec, n_shards=9)
        assert all(lo == 0 and hi == 1 for (_, _, lo, hi) in units)

    def test_capped_budgets_never_split(self):
        spec = self._spec(budget=Budget(n_trials=4, n_samples=8, max_seconds=60))
        assert len(cell_units(spec, n_shards=9)) == 3

    def test_plan_is_deterministic_and_fingerprinted(self):
        spec = self._spec()
        a, b = plan_shards(spec, 3), plan_shards(spec, 3)
        assert a == b
        assert a.fingerprint == fingerprint(spec, 3)
        assert plan_shards(spec, 4).fingerprint != a.fingerprint

    def test_invalid_shard_count(self):
        with pytest.raises(ValidationError):
            plan_shards(self._spec(), 0)


class TestTrialOffset:
    def test_offset_blocks_reproduce_the_unsplit_seed_stream(self):
        full = trial_seed_sequences(1234, 5)
        split = trial_seed_sequences(1234, 2) + trial_seed_sequences(1234, 3, start=2)
        assert [s.spawn_key for s in split] == [s.spawn_key for s in full]
        assert all(s.entropy == 1234 for s in split)

    def test_negative_offset_rejected(self):
        with pytest.raises(ValidationError):
            trial_seed_sequences(0, 1, start=-1)


class TestResume:
    PARAMS = dict(solvers=("lif_tr", "random"), suite="structured-small",
                  trials=2, samples=8, seed=0)

    def _run(self, tmp_path, resume=False):
        return Session.from_workload("arena", **self.PARAMS).run(
            shards=3, checkpoint_dir=str(tmp_path), resume=resume
        )

    def test_resume_executes_only_missing_shards(self, tmp_path):
        first = self._run(tmp_path)
        os.unlink(tmp_path / "shard-0001.json")
        second = self._run(tmp_path, resume=True)
        distrib = second.metadata["distrib"]
        assert distrib["executed_shards"] == [1]
        assert distrib["resumed_shards"] == [0, 2]
        assert _comparable_records(second) == _comparable_records(first)
        assert _scrub(second.leaderboard) == _scrub(first.leaderboard)

    def test_corrupt_checkpoint_is_rerun_not_trusted(self, tmp_path):
        first = self._run(tmp_path)
        # Simulate the torn write atomic IO prevents: truncated JSON.
        (tmp_path / "shard-0002.json").write_text('{"experiment": "shard:are')
        second = self._run(tmp_path, resume=True)
        assert 2 in second.metadata["distrib"]["executed_shards"]
        assert _comparable_records(second) == _comparable_records(first)

    def test_malformed_checkpoint_fields_are_rerun_not_crashed(self, tmp_path):
        # Parseable record, but units is null — foreign/hand-edited schema.
        first = self._run(tmp_path)
        path = tmp_path / "shard-0001.json"
        payload = json.loads(path.read_text())
        payload["results"][0]["units"] = None
        path.write_text(json.dumps(payload))
        second = self._run(tmp_path, resume=True)
        assert second.metadata["distrib"]["executed_shards"] == [1]
        assert _comparable_records(second) == _comparable_records(first)

    def test_foreign_fingerprint_checkpoint_dir_is_rejected(self, tmp_path):
        self._run(tmp_path)
        other = dict(self.PARAMS, seed=1)
        with pytest.raises(ValidationError, match="different run"):
            Session.from_workload("arena", **other).run(
                shards=3, checkpoint_dir=str(tmp_path), resume=True
            )

    def test_resume_requires_checkpoint_dir(self):
        with pytest.raises(ValidationError, match="checkpoint_dir"):
            Session.from_workload("arena", **self.PARAMS).run(
                shards=2, resume=True
            )

    def test_merge_checkpoints_roundtrip_and_missing_shard_error(self, tmp_path):
        first = self._run(tmp_path)
        outcome, manifest = merge_checkpoints(str(tmp_path))
        assert manifest["workload"] == "arena"
        assert _scrub([dataclasses.asdict(e) for e in outcome.records]) == \
            _scrub([dataclasses.asdict(e) for e in first.records])
        os.unlink(tmp_path / "shard-0000.json")
        with pytest.raises(ValidationError, match=r"missing shard\(s\) \[0\]"):
            merge_checkpoints(str(tmp_path))

    def test_shard_files_are_registered_experiment_records(self, tmp_path):
        self._run(tmp_path)
        record = load_results(tmp_path / "shard-0000.json")
        assert record.experiment == "shard:arena"
        assert record.result_type() == "ShardCheckpoint"
        store = CheckpointStore(str(tmp_path))
        manifest = store.read_manifest()
        checkpoint = store.load_shard(0, manifest["fingerprint"])
        assert isinstance(checkpoint, ShardCheckpoint)
        assert len(checkpoint.units) == len(checkpoint.payloads)

    @pytest.mark.parametrize("text", [
        "5",
        '{"experiment": "x", "created_at": 0, "config": {}, "results": 5}',
        '{"experiment": "x", "created_at": 0, "config": {}, "results": [7]}',
        '{"experiment": "x", "created_at": 0, "config": {},'
        ' "results": [{"__type__": "Table1Row", "graph_name": "g",'
        ' "n_vertices": 1, "n_edges": 0, "measured": {}}]}',
        '{"experiment": "x", "created_at": 0, "config": {},'
        ' "results": [{"__type__": "Figure4Panel", "graph_name": "g",'
        ' "n_vertices": 1, "n_edges": 0, "sample_counts": [1], "curves": 5,'
        ' "solver_best_weight": 1.0, "best_weights": {}}]}',
    ], ids=[
        "number", "results-number", "results-not-records", "other-record-type",
        "malformed-other-record",
    ])
    def test_non_checkpoint_json_is_rerun_not_crashed(self, tmp_path, text):
        (tmp_path / "shard-0000.json").write_text(text)
        assert CheckpointStore(str(tmp_path)).load_shard(0, "abc") is None


class TestWorkerMode:
    """execute_single_shard: how a run actually spreads across processes."""

    PARAMS = dict(solvers=("lif_tr", "random"), suite="structured-small",
                  trials=2, samples=8, seed=0)

    def test_per_shard_workers_then_merge_equals_monolithic(self, tmp_path):
        from repro.distrib import execute_single_shard

        mono = Session.from_workload("arena", **self.PARAMS).run()
        session = Session.from_workload("arena", **self.PARAMS)
        statuses = [
            execute_single_shard(
                session.spec, 3, k, str(tmp_path), workload=session.workload
            )
            for k in range(3)
        ]
        assert [s["complete"] for s in statuses] == [False, False, True]
        assert statuses[1]["missing_shards"] == [2]
        outcome, _ = merge_checkpoints(str(tmp_path))
        mono_best = {(e.graph_name, e.solver): e.best_weight for e in mono.records}
        worker_best = {
            (e.graph_name, e.solver): e.best_weight for e in outcome.records
        }
        assert worker_best == mono_best

    def test_rerunning_a_completed_worker_shard_is_skipped(self, tmp_path):
        from repro.distrib import execute_single_shard

        session = Session.from_workload("arena", **self.PARAMS)
        first = execute_single_shard(
            session.spec, 2, 0, str(tmp_path), workload=session.workload
        )
        again = execute_single_shard(
            session.spec, 2, 0, str(tmp_path), workload=session.workload
        )
        assert first["skipped"] is False
        assert again["skipped"] is True

    def test_out_of_range_shard_index_rejected(self, tmp_path):
        from repro.distrib import execute_single_shard

        session = Session.from_workload("arena", **self.PARAMS)
        with pytest.raises(ValidationError, match="shard_index"):
            execute_single_shard(
                session.spec, 2, 5, str(tmp_path), workload=session.workload
            )


class TestAtomicSave:
    def test_interrupted_write_leaves_previous_file_intact(self, tmp_path, monkeypatch):
        target = tmp_path / "results.json"
        save_results(target, "demo", [], config={"generation": 1})
        import repro.experiments.runner as runner_module

        real_dump = json.dump

        def torn_dump(payload, handle, **kwargs):
            handle.write('{"experiment": "demo", "resu')
            handle.flush()
            raise RuntimeError("simulated crash mid-write")

        monkeypatch.setattr(runner_module.json, "dump", torn_dump)
        with pytest.raises(RuntimeError, match="simulated crash"):
            save_results(target, "demo", [], config={"generation": 2})
        monkeypatch.setattr(runner_module.json, "dump", real_dump)
        payload = json.loads(target.read_text())
        assert payload["config"] == {"generation": 1}
        assert [p for p in os.listdir(tmp_path) if ".tmp." in p] == []


class TestGraphCache:
    def test_overwritten_suite_is_not_served_from_cache(self):
        from repro.arena.suite import GraphSuite, SUITES, register_suite
        from repro.graphs.generators import erdos_renyi
        from repro.workloads.executor import build_spec_graphs

        key = "cache-probe-suite"
        try:
            register_suite(GraphSuite(
                key, "probe", lambda seed: [erdos_renyi(8, 0.5, seed=seed, name="a8")]
            ))
            spec = WorkloadSpec(
                workload="adhoc", graphs=GraphSource.from_suite(key),
                solvers=("random",), seed=0,
            )
            assert [g.name for g in build_spec_graphs(spec)] == ["a8"]
            register_suite(GraphSuite(
                key, "probe2",
                lambda seed: [erdos_renyi(10, 0.5, seed=seed, name="b10")],
            ), overwrite=True)
            assert [g.name for g in build_spec_graphs(spec)] == ["b10"]
        finally:
            SUITES.pop(key, None)

    def test_same_suite_is_cached_as_identical_objects(self):
        from repro.workloads.executor import build_spec_graphs

        spec = WorkloadSpec(
            workload="adhoc", graphs=GraphSource.from_suite("er-small"),
            solvers=("random",), seed=123,
        )
        first = build_spec_graphs(spec)
        second = build_spec_graphs(spec)
        assert all(a is b for a, b in zip(first, second))


class TestSpecRoundTrip:
    def test_from_dict_is_inverse_of_to_dict(self):
        spec = WorkloadSpec(
            workload="arena",
            graphs=GraphSource.erdos_renyi_grid((16, 20), (0.2,), per_cell=2),
            solvers=("lif_tr", "random"),
            budget=Budget(n_trials=3, n_samples=16, max_seconds=2.5),
            policy=ExecutionPolicy(n_workers=2),
            seed=7,
            params={"suite": "er-grid", "flag": True},
        )
        rebuilt = WorkloadSpec.from_dict(spec.to_dict())
        assert rebuilt.to_dict() == spec.to_dict()
        assert fingerprint(rebuilt, 4) == fingerprint(spec, 4)

    def test_explicit_sources_are_not_persistable(self):
        from repro.graphs.generators import erdos_renyi

        spec = WorkloadSpec(
            workload="adhoc",
            graphs=GraphSource.explicit([erdos_renyi(8, 0.5, seed=0)]),
            solvers=("random",),
            seed=0,
        )
        with pytest.raises(ValidationError, match="explicit"):
            WorkloadSpec.from_dict(spec.to_dict())


class TestAdhocSpecs:
    def test_bare_spec_shards_through_generic_adapter(self):
        spec = WorkloadSpec(
            workload="adhoc-race",
            graphs=GraphSource.from_suite("structured-small"),
            solvers=("random", "trevisan"),
            budget=Budget(n_trials=3, n_samples=8),
            seed=0,
        )
        mono = Session(spec).run()
        sharded_outcome = run_sharded(spec, 5)
        mono_best = {(e.graph_name, e.solver): e.best_weight for e in mono.records}
        shard_best = {
            (e.graph_name, e.solver): e.best_weight
            for e in sharded_outcome.records
        }
        assert mono_best == shard_best
