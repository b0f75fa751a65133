"""Tests for the sharded-execution CLI surface: ``run --shards/--resume``,
``repro merge`` and ``repro bench``."""

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout

import pytest

from repro.cli import build_parser, main

#: Keys holding wall-clock measurements — never compared across runs.
_TIMING_KEYS = {
    "created_at",
    "elapsed_seconds",
    "arena_elapsed_seconds",
    "engine_elapsed_seconds",
    "shard_elapsed_seconds",
    "samples_per_second",
    "n_unit_blocks",
    "distrib",
}

_ARENA_ARGS = [
    "run", "arena", "--trials", "2", "--samples", "8",
    "--param", "solvers=lif_tr,random", "--param", "suite=structured-small",
]


_BASELINE = os.path.join(
    os.path.dirname(__file__), os.pardir, "benchmarks", "baseline.json"
)


def _scrub(value):
    if isinstance(value, dict):
        return {k: _scrub(v) for k, v in value.items() if k not in _TIMING_KEYS}
    if isinstance(value, list):
        return [_scrub(v) for v in value]
    return value


class TestRunShardFlags:
    def test_parser_exposes_shard_flags(self):
        args = build_parser().parse_args(
            ["run", "arena", "--shards", "4", "--checkpoint-dir", "d", "--resume"]
        )
        assert args.shards == 4
        assert args.checkpoint_dir == "d"
        assert args.resume is True

    def test_sharded_run_writes_checkpoints_and_matches_monolithic(
        self, tmp_path, capsys
    ):
        mono_file = tmp_path / "mono.json"
        shard_file = tmp_path / "sharded.json"
        ckpt = tmp_path / "ckpt"
        assert main(_ARENA_ARGS + ["--save", str(mono_file)]) == 0
        assert main(_ARENA_ARGS + [
            "--shards", "3", "--checkpoint-dir", str(ckpt),
            "--save", str(shard_file),
        ]) == 0
        out = capsys.readouterr().out
        assert "shards: 3" in out
        assert sorted(os.listdir(ckpt)) == [
            "manifest.json", "shard-0000.json", "shard-0001.json",
            "shard-0002.json",
        ]
        mono = json.loads(mono_file.read_text())
        sharded = json.loads(shard_file.read_text())
        assert _scrub(mono["results"]) == _scrub(sharded["results"])
        assert _scrub(mono["config"]["leaderboard"]) == \
            _scrub(sharded["config"]["leaderboard"])

    def test_resume_skips_completed_shards(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        assert main(_ARENA_ARGS + ["--shards", "3", "--checkpoint-dir", str(ckpt)]) == 0
        os.unlink(ckpt / "shard-0001.json")
        capsys.readouterr()
        assert main(_ARENA_ARGS + [
            "--shards", "3", "--checkpoint-dir", str(ckpt), "--resume",
        ]) == 0
        assert "resumed 2 completed shard(s)" in capsys.readouterr().out

    def test_shard_zero_is_friendly_error(self, capsys):
        assert main(["run", "arena", "--shards", "0"]) == 2
        assert "shards must be" in capsys.readouterr().err

    def test_worker_mode_one_shard_per_invocation_then_merge(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        worker = _ARENA_ARGS + ["--shards", "2", "--checkpoint-dir", str(ckpt)]
        assert main(worker + ["--shard-index", "0"]) == 0
        out = capsys.readouterr().out
        assert "shard 0/2 completed" in out and "waiting on shard(s) [1]" in out
        assert main(worker + ["--shard-index", "1"]) == 0
        out = capsys.readouterr().out
        assert "all 2 shards complete" in out and "repro merge" in out
        assert main(["merge", str(ckpt)]) == 0
        # A worker re-running its shard (the crash-restart case) skips it.
        assert main(worker + ["--shard-index", "0"]) == 0
        capsys.readouterr()

    def test_worker_mode_requires_checkpoint_dir(self, capsys):
        assert main(["run", "arena", "--shards", "2", "--shard-index", "0"]) == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_plan_wins_over_worker_mode_and_writes_nothing(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        assert main(_ARENA_ARGS + [
            "--plan", "--shards", "2", "--shard-index", "0",
            "--checkpoint-dir", str(ckpt),
        ]) == 0
        out = capsys.readouterr().out
        assert "workload 'arena'" in out  # the plan preview rendered
        assert not ckpt.exists()  # and nothing executed or was written

    def test_worker_mode_notes_ignored_save_flag(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        assert main(_ARENA_ARGS + [
            "--shards", "2", "--shard-index", "0",
            "--checkpoint-dir", str(ckpt), "--save", str(tmp_path / "r.json"),
        ]) == 0
        captured = capsys.readouterr()
        assert "ignored in worker mode" in captured.err
        assert not (tmp_path / "r.json").exists()


class TestMergeCommand:
    def test_merge_reproduces_the_saved_run(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        run_file = tmp_path / "run.json"
        merged_file = tmp_path / "merged.json"
        assert main(_ARENA_ARGS + [
            "--shards", "2", "--checkpoint-dir", str(ckpt),
            "--save", str(run_file),
        ]) == 0
        assert main(["merge", str(ckpt), "--save", str(merged_file)]) == 0
        out = capsys.readouterr().out
        assert "merged 2 shard(s)" in out
        run_payload = json.loads(run_file.read_text())
        merged_payload = json.loads(merged_file.read_text())
        assert _scrub(run_payload["results"]) == _scrub(merged_payload["results"])
        assert _scrub(run_payload["config"]["leaderboard"]) == \
            _scrub(merged_payload["config"]["leaderboard"])

    def test_merge_incomplete_directory_names_missing_shards(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        assert main(_ARENA_ARGS + ["--shards", "2", "--checkpoint-dir", str(ckpt)]) == 0
        os.unlink(ckpt / "shard-0000.json")
        assert main(["merge", str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert "missing shard(s) [0]" in err
        assert "--resume" in err

    @pytest.mark.parametrize("key", ["mode", "instance_batch"])
    def test_merge_rejects_removed_policy_keys(self, tmp_path, capsys, key):
        # Checkpoints written before the policy lost its execution-mode
        # knobs fail with a typed error naming the key, not a traceback.
        ckpt = tmp_path / "ckpt"
        assert main(_ARENA_ARGS + ["--shards", "2", "--checkpoint-dir", str(ckpt)]) == 0
        capsys.readouterr()
        manifest_path = ckpt / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["spec"]["policy"][key] = "auto" if key == "mode" else True
        manifest_path.write_text(json.dumps(manifest))
        assert main(["merge", str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert "cannot rebuild WorkloadSpec" in err
        assert repr(key) in err

    def test_merge_non_checkpoint_directory_fails(self, tmp_path, capsys):
        assert main(["merge", str(tmp_path)]) == 2
        assert "manifest" in capsys.readouterr().err


class TestBenchCommand:
    #: A small budget for every leg: these tests check the CLI plumbing, and
    #: CI's bench-smoke step gates the committed floors at their real shape.
    _ARGV = ["bench", "--quick", "--trials", "4", "--samples", "16"]

    @pytest.fixture(scope="class")
    def bench_run(self, tmp_path_factory):
        """One bench run with --out, the global --save and a passing --check.

        The check's baseline lists every committed scenario at floor 0, so it
        passes exactly when no committed scenario is missing from the report.
        """
        root = tmp_path_factory.mktemp("bench")
        out, extra = root / "bench.json", root / "extra.json"
        with open(_BASELINE, encoding="utf-8") as handle:
            committed = json.load(handle)["min_speedup"]
        present = root / "present.json"
        present.write_text(json.dumps({"min_speedup": dict.fromkeys(committed, 0.0)}))
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main(["--save", str(extra), *self._ARGV, "--out", str(out),
                         "--check", str(present)])
        return code, stdout.getvalue(), stderr.getvalue(), out, extra

    def test_quick_bench_writes_schema_artifact_and_bar_chart(self, bench_run):
        code, stdout, _, out, _ = bench_run
        assert code == 0
        assert "bench speedups" in stdout  # the ascii_bar_chart leaderboard
        assert "engine:lif_gw |" in stdout
        payload = json.loads(out.read_text())
        assert payload["experiment"] == "bench"
        assert payload["config"]["metadata"]["schema"] == "repro-bench/v1"
        scenarios = {r["scenario"] for r in payload["results"]}
        assert scenarios == {
            "engine:lif_gw", "engine:lif_gw:spike", "engine:lif_tr",
            "sharded:arena", "problems-compile", "engine-instance-batch",
            "scale-generate", "obs-overhead",
        }

    def test_check_passes_when_every_committed_scenario_is_reported(self, bench_run):
        code, stdout, stderr, _, _ = bench_run
        assert code == 0, stderr
        assert "baseline gate: OK (8 floor(s)" in stdout

    def test_check_fails_against_impossible_floors(self, tmp_path, capsys):
        strict = tmp_path / "strict.json"
        strict.write_text(json.dumps({"min_speedup": {"engine:lif_gw": 1e9}}))
        argv = [*self._ARGV, "--out", str(tmp_path / "B.json")]
        assert main(argv + ["--check", str(strict)]) == 1
        assert "below the baseline floor" in capsys.readouterr().err

    def test_global_save_flag_is_honored(self, bench_run):
        _, _, _, out, extra = bench_run
        assert json.loads(out.read_text())["experiment"] == "bench"
        assert json.loads(extra.read_text())["experiment"] == "bench"

    def test_check_with_unreadable_baseline_is_friendly_error(self, tmp_path, capsys):
        out = tmp_path / "B.json"
        missing = tmp_path / "nope.json"
        argv = [*self._ARGV, "--out", str(out), "--check", str(missing)]
        assert main(argv) == 2
        assert "cannot load baseline" in capsys.readouterr().err
        assert not out.exists()  # the baseline is read before any leg runs
