"""Tests for the unified `repro run` CLI: parameters, plans and reports."""

from repro.cli import main

class TestRunCommand:
    def test_unknown_workload_is_friendly_error(self, capsys):
        assert main(["run", "figure33"]) == 2
        err = capsys.readouterr().err
        assert "unknown workload" in err
        assert "did you mean 'figure3'" in err

    def test_unknown_param_is_friendly_error(self, capsys):
        assert main(["run", "arena", "--param", "bogus=1"]) == 2
        assert "no parameter 'bogus'" in capsys.readouterr().err

    def test_removed_use_engine_param_is_friendly_error(self, capsys):
        assert main(["run", "arena", "--param", "use_engine=false"]) == 2
        assert "no parameter 'use_engine'" in capsys.readouterr().err

    def test_malformed_param_is_friendly_error(self, capsys):
        assert main(["run", "arena", "--param", "trials"]) == 2
        assert "K=V" in capsys.readouterr().err

    def test_bad_optional_number_is_friendly_error(self, capsys):
        assert main(["run", "arena", "--param", "max_seconds=abc"]) == 2
        assert "number or 'none'" in capsys.readouterr().err

    def test_figure3_plan_shows_one_run_per_graph_method(self, capsys):
        # "trials" is graphs-per-cell (already in the graph source); the plan
        # must not double-count it as per-cell trials per solver.
        code = main([
            "run", "figure3", "--trials", "3", "--seed", "0",
            "--param", "sizes=12", "--plan",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "3 graph(s)" in out
        assert "trials=1" in out
        assert "trials=3" not in out
        # The circuits run on the engine; the software solvers per trial.
        routes = {
            line.split()[1]: line.split()[2]
            for line in out.splitlines()[1:] if line.strip()
        }
        assert routes["lif_gw"] == routes["lif_tr"] == "engine[auto]"
        assert routes["random"] == "sequential"
        assert routes["gw"] == "sequential"

    def test_sugar_flag_unknown_for_workload(self, capsys):
        # figure4 declares no `workers` parameter; the sugar flag must not
        # silently disappear.
        assert main(["run", "figure4", "--workers", "2"]) == 2
        assert "no parameter 'workers'" in capsys.readouterr().err

    def test_plan_previews_without_running(self, capsys):
        code = main([
            "run", "arena", "--param", "solvers=random,trevisan",
            "--trials", "2", "--samples", "8", "--seed", "0", "--plan",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "workload 'arena'" in out
        assert "once" in out          # trevisan is deterministic
        assert "sequential" in out    # random runs per-trial

    def test_workloads_listing(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("ablation", "arena", "figure3", "figure4", "table1"):
            assert name in out
        assert "repro run" in out

    def test_run_arena_prints_leaderboard(self, capsys):
        code = main([
            "run", "arena", "--param", "solvers=random,trevisan",
            "--trials", "2", "--samples", "8", "--seed", "0",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Arena leaderboard" in out
        assert "winner:" in out
