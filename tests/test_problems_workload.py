"""Integration tests: the ``problems`` workload and ``repro solve --problem``.

Pins the PR's acceptance contract: a problem-suite workload runs through the
generic capability-routed executor (engine included), shards with
``--shards 2 --resume``, and the merged output is bit-identical to the
monolithic run; the CLI solve path runs end-to-end through the batched
engine with a passing value-preservation certificate.
"""

import dataclasses
import json
import os

import pytest

from repro.cli import main
from repro.utils.validation import ValidationError
from repro.workloads import Session, get_workload, run_workload
from repro.workloads.problems import default_problem_solvers

#: Cheap deterministic budgets shared by the tests below.
_FAST = dict(trials=2, samples=8, seed=0)


def _comparable(report):
    """Records + leaderboard with timing-dependent values stripped."""
    timing = {
        "elapsed_seconds", "samples_per_second", "engine_elapsed_seconds",
        "n_unit_blocks",
    }

    def scrub(value):
        if isinstance(value, dict):
            return {k: scrub(v) for k, v in value.items() if k not in timing}
        if isinstance(value, (list, tuple)):
            return [scrub(v) for v in value]
        return value

    records = [
        scrub({
            f.name: getattr(record, f.name)
            for f in dataclasses.fields(record)
        })
        for record in report.records
    ]
    return records, scrub(report.leaderboard)


class TestProblemsWorkload:
    def test_registered_with_defaults(self):
        workload = get_workload("problems")
        assert workload.adapter is None  # generic cell units => sharding free
        assert "problem" in workload.defaults

    def test_default_solvers_include_natives(self):
        assert "maxdicut_gw" in default_problem_solvers("maxdicut")
        assert "max2sat_gw" in default_problem_solvers("max2sat")
        assert "annealing" in default_problem_solvers("ising")
        assert "lif_gw" in default_problem_solvers("qubo")

    def test_runs_qubo_suite_with_engine_circuit(self):
        report = run_workload(
            "problems", problem="qubo", solvers=("lif_gw", "random", "annealing"),
            **_FAST,
        )
        assert len(report.records) == 9  # 3 instances x 3 solvers
        by_solver = {r.solver for r in report.records}
        assert by_solver == {"lif_gw", "random", "annealing"}
        # Batchable circuits ride the batched engine on compiled graphs too.
        assert all(r.used_engine for r in report.records if r.solver == "lif_gw")
        assert report.params["problem"] == "qubo"
        assert report.params["suite"] == "qubo-small"

    def test_kind_aliases_and_suite_mismatch(self):
        spec = get_workload("problems").build_spec({
            "problem": "2sat", "suite": "", "solvers": (), "trials": 2,
            "samples": 8, "max_seconds": None, "backend": "auto",
            "workers": 1, "seed": 0,
        })
        assert spec.graphs.label == "2sat-small"
        with pytest.raises(ValidationError, match="holds 'qubo' instances"):
            run_workload("problems", problem="dicut", suite="qubo-small", **_FAST)

    def test_incompatible_solver_rejected_at_spec_build(self):
        with pytest.raises(ValidationError, match="cannot solve a compiled"):
            run_workload(
                "problems", problem="qubo", solvers=("random", "max2sat_gw"),
                **_FAST,
            )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError, match="problem must be one of"):
            run_workload("problems", problem="tsp", **_FAST)


class TestShardedProblems:
    """Acceptance: sharded + resumed problem workloads merge bit-identically."""

    PARAMS = dict(
        problem="dicut", solvers=("random", "annealing", "maxdicut_gw"), **_FAST
    )

    @pytest.fixture(scope="class")
    def monolithic(self):
        return Session.from_workload("problems", **self.PARAMS).run()

    @pytest.mark.parametrize("shards", [2, 5])
    def test_sharded_equals_monolithic(self, shards, monolithic):
        sharded = Session.from_workload("problems", **self.PARAMS).run(shards=shards)
        assert _comparable(sharded) == _comparable(monolithic)

    def test_resume_completes_partial_checkpoints(self, tmp_path, monolithic):
        checkpoint_dir = str(tmp_path)
        first = Session.from_workload("problems", **self.PARAMS).run(
            shards=2, checkpoint_dir=checkpoint_dir
        )
        assert _comparable(first) == _comparable(monolithic)
        # Kill one shard's checkpoint; --resume re-runs only that shard.
        os.unlink(os.path.join(checkpoint_dir, "shard-0001.json"))
        resumed = Session.from_workload("problems", **self.PARAMS).run(
            shards=2, checkpoint_dir=checkpoint_dir, resume=True
        )
        assert _comparable(resumed) == _comparable(monolithic)
        assert resumed.metadata["distrib"]["resumed_shards"] == [0]


class TestSolveProblemCLI:
    def test_engine_solve_with_certificate(self, capsys):
        # The acceptance command: a problem solved end-to-end through the
        # batched engine with a passing value-preservation certificate.
        assert main([
            "solve", "--problem", "qubo", "--samples", "16", "--trials", "2",
            "--vertices", "10",
        ]) == 0
        out = capsys.readouterr().out
        assert "batched engine" in out
        assert "certificate: OK" in out
        assert "native qubo" in out

    @pytest.mark.parametrize("problem,solver", [
        ("dicut", "maxdicut_gw"), ("2sat", "max2sat_gw"), ("ising", "annealing"),
    ])
    def test_native_solvers_certify(self, problem, solver, capsys):
        assert main([
            "solve", "--problem", problem, "--solver", solver,
            "--samples", "8", "--vertices", "8",
        ]) == 0
        assert "certificate: OK" in capsys.readouterr().out

    def test_from_file_round_trip(self, tmp_path, capsys):
        from repro.problems import random_problem, save_problem

        path = tmp_path / "instance.json"
        save_problem(path, random_problem("2sat", seed=1, n_variables=6))
        out_path = tmp_path / "result.json"
        assert main([
            "--save", str(out_path), "solve", "--problem", "2sat",
            "--solver", "random", "--samples", "8", "--from", str(path),
        ]) == 0
        assert "certificate: OK" in capsys.readouterr().out
        payload = json.loads(out_path.read_text())
        assert payload["problem"]["kind"] == "max2sat"
        assert payload["certificate"]["max_abs_error"] < 1e-6

    def test_kind_mismatch_errors(self, tmp_path, capsys):
        from repro.problems import random_problem, save_problem

        path = tmp_path / "instance.json"
        save_problem(path, random_problem("qubo", seed=0, n_variables=6))
        assert main([
            "solve", "--problem", "2sat", "--from", str(path),
        ]) == 2
        assert "holds a 'qubo' instance" in capsys.readouterr().err

    def test_incompatible_solver_errors(self, capsys):
        assert main([
            "solve", "--problem", "qubo", "--solver", "maxdicut_gw",
        ]) == 2
        assert "cannot solve" in capsys.readouterr().err


class TestSolveProblemCLISharded:
    def test_run_problems_sharded_resume_cli(self, tmp_path, capsys):
        checkpoint = str(tmp_path / "ckpt")
        argv = [
            "run", "problems", "--param", "problem=2sat",
            "--param", "solvers=random,annealing", "--trials", "2",
            "--param", "samples=8", "--shards", "2",
            "--checkpoint-dir", checkpoint, "--resume",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "shards: 2" in out
        assert "Arena leaderboard" in out
        # Re-running with --resume skips every completed shard.
        assert main(argv) == 0
        assert "resumed 2 completed shard(s)" in capsys.readouterr().out
