"""Tests for the command-line interface (python -m repro)."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_solve_defaults(self):
        args = build_parser().parse_args(["solve"])
        assert args.command == "solve"
        assert args.solver == "lif_gw"

    def test_unknown_solver_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "--solver", "quantum"])

    def test_figure4_graph_choices(self, capsys):
        assert main(["run", "figure4", "--param", "graphs=not-a-graph"]) == 2
        assert "not-a-graph" in capsys.readouterr().err

    def test_legacy_subcommands_removed(self):
        for legacy in ("compare", "figure3", "figure4", "table1", "ablation"):
            with pytest.raises(SystemExit) as exc:
                main([legacy])
            assert exc.value.code == 2


class TestCommands:
    def test_graphs_listing(self, capsys):
        assert main(["graphs"]) == 0
        out = capsys.readouterr().out
        assert "hamming6-2" in out
        assert "johnson16-2-4" in out

    def test_solve_random_on_er(self, capsys):
        code = main(["--seed", "1", "solve", "--solver", "random", "--er", "20", "0.3",
                     "--samples", "32"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cut weight" in out

    def test_solve_trevisan_on_registry_graph(self, capsys):
        code = main(["solve", "--solver", "trevisan", "--graph", "road-chesapeake",
                     "--samples", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "road-chesapeake" in out

    def test_solve_lif_gw_small(self, capsys):
        code = main(["--seed", "2", "solve", "--solver", "lif_gw", "--er", "14", "0.4",
                     "--samples", "32"])
        assert code == 0
        assert "lif_gw" in capsys.readouterr().out

    def test_table1_with_save(self, tmp_path, capsys):
        out_file = tmp_path / "table1.json"
        code = main([
            "--seed", "3", "--save", str(out_file),
            "run", "table1", "--param", "graphs=road-chesapeake", "--samples", "32",
        ])
        assert code == 0
        assert out_file.exists()
        payload = json.loads(out_file.read_text())
        assert payload["experiment"] == "table1"
        assert "road-chesapeake" in capsys.readouterr().out

    def test_figure3_with_plot(self, capsys):
        code = main([
            "--seed", "4",
            "run", "figure3", "--param", "sizes=12", "--param", "probabilities=0.4",
            "--trials", "1", "--samples", "16", "--plot",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "G(n=12" in out
        assert "(log x)" in out

    def test_figure4_single_graph(self, capsys):
        code = main([
            "--seed", "5",
            "run", "figure4", "--param", "graphs=eco-stmarks", "--samples", "16",
        ])
        assert code == 0
        assert "eco-stmarks" in capsys.readouterr().out

    def test_ablation_rank(self, capsys):
        code = main([
            "--seed", "6",
            "run", "ablation", "--param", "kind=rank", "--param", "vertices=16",
            "--samples", "16",
        ])
        assert code == 0
        assert "rank_4" in capsys.readouterr().out

    def test_compare_sequential_solvers(self, capsys):
        code = main([
            "--seed", "7",
            "run", "arena", "--param", "suite=er-small",
            "--param", "solvers=random,trevisan", "--samples", "16", "--trials", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Arena leaderboard" in out
        assert "winner:" in out

    def test_compare_engine_solver_with_save(self, tmp_path, capsys):
        out_file = tmp_path / "compare.json"
        code = main([
            "--seed", "8",
            "run", "arena", "--param", "suite=er-small",
            "--param", "solvers=lif_tr,random", "--samples", "16", "--trials", "2",
            "--plot", "--save", str(out_file),
        ])
        assert code == 0
        out = capsys.readouterr().out
        # The batchable circuit must have taken the engine path.
        assert "engine[" in out
        assert "mean cut ratio" in out  # --plot bar chart
        payload = json.loads(out_file.read_text())
        assert payload["experiment"] == "arena"
        assert payload["config"]["suite"] == "er-small"
        engine_flags = {r["solver"]: r["used_engine"] for r in payload["results"]}
        assert engine_flags["lif_tr"] is True
        assert engine_flags["random"] is False

    def test_compare_honors_global_save_flag(self, tmp_path, capsys):
        out_file = tmp_path / "global-save.json"
        code = main([
            "--save", str(out_file),
            "run", "arena", "--param", "suite=er-small", "--param", "solvers=random",
            "--samples", "8", "--trials", "1",
        ])
        assert code == 0
        assert out_file.exists()
        assert json.loads(out_file.read_text())["experiment"] == "arena"

    def test_compare_unknown_solver_is_friendly_error(self, capsys):
        code = main(["run", "arena", "--param", "solvers=random,quantum"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown solver" in err

    def test_compare_rejects_unknown_suite(self, capsys):
        assert main(["run", "arena", "--param", "suite=not-a-suite"]) == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_solve_from_edge_list_file(self, tmp_path, capsys):
        graph_file = tmp_path / "toy.txt"
        graph_file.write_text("0 1\n1 2\n2 0\n")
        code = main(["solve", "--solver", "random", "--graph", str(graph_file), "--samples", "8"])
        assert code == 0
        assert "toy" in capsys.readouterr().out
