"""Seeded-equivalence and behaviour tests for the batched solver engine.

The load-bearing property: on the numpy dense path a trial's cuts, cut
trajectory and membrane trace do not depend on how the trials are batched.
The reference is the same request run one trial per block
(``max_block_bytes=1``), i.e. the engine executing trials sequentially with
the same ``SeedSequence(root, spawn_key=(i,))`` seeds.  These tests sweep
that claim across both circuits, both GW read-outs, several seeds, weighted
graphs, and structural edge cases (0/1 trials, disconnected graphs, graphs
with no edges); ``tests/test_engine_goldens.py`` pins the absolute bits.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from repro.circuits.config import LIFGWConfig, LIFTrevisanConfig
from repro.circuits.lif_gw import LIFGWCircuit
from repro.circuits.lif_trevisan import LIFTrevisanCircuit
from repro.engine import (
    EarlyStopConfig,
    SolveRequest,
    solve,
    trial_seed_sequences,
)
from repro.cuts.cut import Cut
from repro.graphs.generators import erdos_renyi
from repro.graphs.graph import Graph
from repro.utils.rng import spawn_generators
from repro.utils.validation import ValidationError

#: Fast circuit configurations used throughout (small burn-in / interval).
GW_CONFIG = LIFGWConfig(burn_in_steps=25, sample_interval=4)
GW_SPIKE_CONFIG = LIFGWConfig(burn_in_steps=25, sample_interval=4, readout="spike")
TR_CONFIG = LIFTrevisanConfig(burn_in_steps=25, sample_interval=4)


def _disconnected_graph() -> Graph:
    """Two components plus an isolated vertex (degree-0 handling)."""
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (5, 6)]
    return Graph(8, edges, name="disconnected8")


def _gw(graph, config=GW_CONFIG, seed=11):
    return LIFGWCircuit(graph, config=config, seed=seed)


def _tr(graph, config=TR_CONFIG):
    return LIFTrevisanCircuit(graph, config=config)


def _one_trial_at_a_time(request):
    """*request* run one trial per block: its trials execute one after another."""
    return solve(replace(request, max_block_bytes=1))


def _weighted_er40() -> Graph:
    base = erdos_renyi(40, 0.25, seed=2024)
    weights = np.random.default_rng(5).uniform(0.1, 3.0, base.n_edges)
    edges = [(int(u), int(v), float(w)) for (u, v), w in zip(base.edges, weights)]
    return Graph(40, edges, name="weighted_er40")


def _assert_bit_identical(result, reference):
    assert result.n_rounds == reference.n_rounds
    assert np.array_equal(result.trajectories, reference.trajectories)
    assert np.array_equal(result.trial_best_weights, reference.trial_best_weights)
    assert np.array_equal(
        result.trial_best_assignments, reference.trial_best_assignments
    )
    assert result.best_cut.weight == reference.best_cut.weight
    assert np.array_equal(result.best_cut.assignment, reference.best_cut.assignment)


class TestSeededEquivalence:
    """A batched solve == the same trials run one at a time, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 1234, 2**31])
    def test_gw_membrane_matches_sequential(self, medium_er_graph, seed):
        circuit = _gw(medium_er_graph)
        request = SolveRequest(circuit=circuit, n_trials=5, n_samples=12, seed=seed)
        _assert_bit_identical(solve(request), _one_trial_at_a_time(request))

    @pytest.mark.parametrize("seed", [0, 77])
    def test_gw_spike_matches_sequential(self, medium_er_graph, seed):
        circuit = _gw(medium_er_graph, config=GW_SPIKE_CONFIG)
        request = SolveRequest(circuit=circuit, n_trials=4, n_samples=10, seed=seed)
        _assert_bit_identical(solve(request), _one_trial_at_a_time(request))

    @pytest.mark.parametrize("seed", [0, 77, 987654])
    def test_trevisan_matches_sequential(self, medium_er_graph, seed):
        circuit = _tr(medium_er_graph)
        request = SolveRequest(circuit=circuit, n_trials=4, n_samples=10, seed=seed)
        _assert_bit_identical(solve(request), _one_trial_at_a_time(request))

    @pytest.mark.parametrize("build", [_gw, _tr], ids=["lif_gw", "lif_tr"])
    def test_seeded_sweep_many_graphs(self, build):
        """Seeded sweep across graph shapes — the property-based guarantee."""
        graphs = [
            erdos_renyi(12, 0.5, seed=1, name="er12"),
            erdos_renyi(30, 0.15, seed=2, name="er30"),
            _disconnected_graph(),
        ]
        for graph_index, graph in enumerate(graphs):
            circuit = build(graph)
            request = SolveRequest(
                circuit=circuit, n_trials=3, n_samples=8, seed=graph_index
            )
            _assert_bit_identical(solve(request), _one_trial_at_a_time(request))

    def test_membrane_traces_match_sequential(
        self, medium_er_graph, subthreshold_membranes, assert_membranes_match
    ):
        """Read-out membrane rows match each trial's own subthreshold trajectory.

        The engine filters the device stream and applies the weights at the
        read-out steps; the reference integrates every neuron step by step,
        so the two agree to round-off, with equal signs.
        """
        config = GW_CONFIG
        circuit = _gw(medium_er_graph)
        n_samples = 9
        request = SolveRequest(
            circuit=circuit, n_trials=3, n_samples=n_samples, seed=99,
            record_potentials=True,
        )
        result = solve(request)
        n_steps = config.burn_in_steps + n_samples * config.sample_interval
        for i, trial_seed in enumerate(trial_seed_sequences(99, 3)):
            device_rng, _ = spawn_generators(trial_seed, 2)
            pool = circuit.build_device_pool(device_rng)
            potentials = subthreshold_membranes(
                circuit.weights, pool.sample(n_steps),
                burn_in=config.burn_in_steps, params=config.lif,
            )
            rows = potentials[config.sample_interval - 1 :: config.sample_interval]
            assert_membranes_match(result.potentials[i], rows[:n_samples])

    @pytest.mark.parametrize("build", [_gw, _tr], ids=["lif_gw", "lif_tr"])
    def test_cut_chunking_changes_nothing(self, build, monkeypatch):
        """Evaluating one round per call equals evaluating chunks of rounds."""
        import repro.engine.engine as engine_module

        request = SolveRequest(
            circuit=build(_weighted_er40()), n_trials=3, n_samples=40, seed=6,
            record_assignments=True,
        )
        chunked = solve(request)
        assert chunked.metadata["n_blocks"] == 1
        monkeypatch.setattr(engine_module, "CUT_CHUNK_ELEMENTS", 1)
        per_round = solve(request)
        _assert_bit_identical(chunked, per_round)
        assert np.array_equal(chunked.assignments, per_round.assignments)

    @pytest.mark.parametrize("build", [_gw, _tr], ids=["lif_gw", "lif_tr"])
    def test_weighted_graph_invariant_to_block_size(self, build):
        """Non-integer cut weights are summed per row, whatever the block size."""
        circuit = build(_weighted_er40())
        request = SolveRequest(circuit=circuit, n_trials=8, n_samples=100, seed=3)
        _assert_bit_identical(solve(request), _one_trial_at_a_time(request))

    def test_trial_results_independent_of_batch_size(self, small_er_graph):
        """Trial i's trajectory does not depend on how many trials run."""
        circuit = _gw(small_er_graph)
        small = solve(SolveRequest(circuit=circuit, n_trials=2, n_samples=8, seed=3))
        large = solve(SolveRequest(circuit=circuit, n_trials=6, n_samples=8, seed=3))
        assert np.array_equal(large.trajectories[:2], small.trajectories)

    def test_blocked_execution_is_identical(self, medium_er_graph):
        """A tiny memory cap (many trial blocks) changes nothing, on either circuit."""
        for circuit, config in (
            (_gw(medium_er_graph), GW_CONFIG), (_tr(medium_er_graph), TR_CONFIG),
        ):
            request = SolveRequest(circuit=circuit, n_trials=6, n_samples=10, seed=4)
            one_block = solve(request)
            n_steps = config.burn_in_steps + 10 * config.sample_interval
            n = medium_er_graph.n_vertices
            # A membrane block holds each trial's device rows and read-out
            # rows; the other read-outs hold a (steps, neurons) current buffer.
            bytes_per_trial = 8 * (
                n_steps * config.rank + 10 * n if config is GW_CONFIG else n_steps * n
            )
            many_blocks = solve(
                SolveRequest(
                    circuit=circuit, n_trials=6, n_samples=10, seed=4,
                    max_block_bytes=2 * bytes_per_trial,
                )
            )
            assert many_blocks.metadata["n_blocks"] > 1
            _assert_bit_identical(many_blocks, one_block)
            _assert_bit_identical(many_blocks, _one_trial_at_a_time(request))

    def test_circuit_method_fast_path(self, medium_er_graph):
        """``sample_cuts`` is a one-trial solve: trial *i* of the batch, bitwise."""
        circuit = _tr(medium_er_graph)
        batch = solve(SolveRequest(circuit=circuit, n_trials=3, n_samples=8, seed=21))
        for trial, seed in enumerate(trial_seed_sequences(21, 3)):
            one = circuit.sample_cuts(8, seed=seed)
            assert one.n_trials == 1
            assert np.array_equal(one.trajectories[0], batch.trajectories[trial])
            assert np.array_equal(one.learner_weights[0], batch.learner_weights[trial])
            assert one.best_weight == batch.trial_best_weights[trial]


def _telegraph(n_devices, rng):
    from repro.devices.telegraph import TelegraphNoisePool

    return TelegraphNoisePool(n_devices, switch_up=0.3, switch_down=0.2, seed=rng)


def _biased(n_devices, rng):
    from repro.devices.bernoulli import BiasedCoinPool

    return BiasedCoinPool(0.6, n_devices=n_devices, seed=rng)


class TestDeviceSpaceReadout:
    """The engine's membrane read-outs against the neuron-space recurrence.

    Each trial's recorded rows are checked against its own device stream
    integrated neuron by neuron, step by step (the ``subthreshold_membranes``
    reference), to the stated relative round-off with equal signs.
    """

    def _check(self, circuit, subthreshold_membranes, assert_membranes_match, **kwargs):
        request = SolveRequest(circuit=circuit, record_potentials=True, **kwargs)
        result = solve(request)
        config = circuit.config
        n_steps = config.burn_in_steps + request.n_samples * config.sample_interval
        seeds = trial_seed_sequences(request.seed, request.n_trials)
        for i, trial_seed in enumerate(seeds):
            device_rng, _ = spawn_generators(trial_seed, 2)
            states = circuit.build_device_pool(device_rng).sample(n_steps)
            reference = subthreshold_membranes(
                circuit.weights, states, burn_in=config.burn_in_steps, params=config.lif,
            )[config.sample_interval - 1::config.sample_interval]
            assert_membranes_match(result.potentials[i], reference[:result.n_rounds])
        return result

    @pytest.mark.parametrize(
        "config, n_samples",
        [
            (LIFGWConfig(burn_in_steps=0, sample_interval=4), 12),
            (LIFGWConfig(burn_in_steps=25, sample_interval=1), 40),
            (LIFGWConfig(burn_in_steps=25, sample_interval=4), 1),
            (LIFGWConfig(burn_in_steps=25, sample_interval=4, rank=1), 12),
            (LIFGWConfig(burn_in_steps=25, sample_interval=4, weight_scale=3.5), 12),
            (LIFGWConfig(), 24),
        ],
        ids=["burn_in_0", "interval_1", "one_sample", "rank_1", "weight_scale", "default"],
    )
    def test_config_edges(
        self, medium_er_graph, config, n_samples, subthreshold_membranes,
        assert_membranes_match,
    ):
        self._check(
            _gw(medium_er_graph, config=config), subthreshold_membranes,
            assert_membranes_match, n_trials=3, n_samples=n_samples, seed=13,
        )

    @pytest.mark.parametrize("factory", [_telegraph, _biased], ids=["telegraph", "biased"])
    def test_device_pools(
        self, medium_er_graph, factory, subthreshold_membranes, assert_membranes_match
    ):
        circuit = LIFGWCircuit(
            medium_er_graph, config=GW_CONFIG, seed=11, device_pool_factory=factory
        )
        self._check(
            circuit, subthreshold_membranes, assert_membranes_match,
            n_trials=3, n_samples=10, seed=5,
        )

    def test_early_stop_run(self, small_bipartite, subthreshold_membranes, assert_membranes_match):
        result = self._check(
            _gw(small_bipartite), subthreshold_membranes, assert_membranes_match,
            n_trials=2, n_samples=400, seed=3,
            early_stop=EarlyStopConfig(patience=4, min_rounds=5),
        )
        assert result.early_stopped and result.n_rounds < 400

    def test_membrane_solve_does_not_import_scipy_signal(self):
        """The filter is numpy only: scipy.signal alone adds ~40 MB of RSS."""
        code = (
            "import sys\n"
            "from repro.engine import SolveRequest, solve\n"
            "from repro.graphs.generators import erdos_renyi\n"
            "graph = erdos_renyi(30, 0.3, seed=1)\n"
            "result = solve(SolveRequest(circuit='lif_gw', graph=graph, n_trials=2,"
            " n_samples=8, seed=0, record_potentials=True))\n"
            "assert result.metadata['readout'] == 'membrane'\n"
            "print('scipy.signal' in sys.modules)\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
        completed = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env,
            check=True,
        )
        assert completed.stdout.strip() == "False"

    def test_deadline_run(self, medium_er_graph, subthreshold_membranes, assert_membranes_match):
        result = self._check(
            _gw(medium_er_graph), subthreshold_membranes, assert_membranes_match,
            n_trials=2, n_samples=50, seed=3, deadline_seconds=1e-9,
        )
        assert result.metadata["deadline_exceeded"] and result.n_rounds < 50


class TestEdgeCases:
    def test_zero_trials(self, small_er_graph):
        result = solve(
            SolveRequest(circuit=_gw(small_er_graph), n_trials=0, n_samples=8, seed=0)
        )
        assert result.n_trials == 0
        assert result.best_cut is None
        assert result.best_weight == 0.0
        assert result.trajectories.shape == (0, 0)
        assert result.trial_best_weights.shape == (0,)

    def test_single_trial_equals_sample_cuts(self, small_er_graph):
        circuit = _gw(small_er_graph)
        result = solve(
            SolveRequest(circuit=circuit, n_trials=1, n_samples=10, seed=8)
        )
        direct = circuit.sample_cuts(
            10, seed=np.random.SeedSequence(entropy=8, spawn_key=(0,))
        )
        assert np.array_equal(result.trajectories[0], direct.trajectories[0])
        assert result.best_cut.weight == direct.best_cut.weight
        assert np.array_equal(result.best_cut.assignment, direct.best_cut.assignment)

    def test_disconnected_graph_runs_both_circuits(self):
        graph = _disconnected_graph()
        for build in (_gw, _tr):
            request = SolveRequest(circuit=build(graph), n_trials=2, n_samples=6, seed=5)
            _assert_bit_identical(solve(request), _one_trial_at_a_time(request))

    def test_edgeless_graph_gives_zero_cuts(self):
        graph = Graph(4, [], name="no_edges")
        result = solve(
            SolveRequest(circuit=_tr(graph), n_trials=2, n_samples=5, seed=0)
        )
        assert result.best_weight == 0.0
        assert np.all(result.trajectories == 0.0)

    def test_invalid_request_parameters(self, small_er_graph):
        with pytest.raises(ValidationError):
            SolveRequest(circuit="lif_gw", graph=small_er_graph, n_trials=-1)
        with pytest.raises(ValidationError):
            SolveRequest(circuit="lif_gw", graph=small_er_graph, n_samples=0)
        with pytest.raises(ValidationError):
            SolveRequest(circuit="lif_gw")  # graph required for named circuits
        with pytest.raises(ValidationError):
            solve(SolveRequest(circuit="unknown", graph=small_er_graph))

    def test_named_circuit_construction(self, small_er_graph):
        """The engine builds circuits from names, SDP seeding included."""
        result = solve(
            SolveRequest(
                circuit="lif_gw", graph=small_er_graph, n_trials=2, n_samples=6,
                seed=13, config=GW_CONFIG,
            )
        )
        assert result.circuit_name == "lif_gw"
        assert result.n_rounds == 6
        assert result.best_weight > 0


class TestEarlyStop:
    def test_early_stop_truncates_rounds(self, medium_er_graph):
        circuit = _gw(medium_er_graph)
        request = SolveRequest(
            circuit=circuit, n_trials=4, n_samples=300, seed=5,
            early_stop=EarlyStopConfig(patience=6, min_rounds=10),
        )
        result = solve(request)
        assert result.early_stopped
        assert result.n_rounds < 300
        assert result.trajectories.shape == (4, result.n_rounds)
        assert result.metadata["early_stop_round"] == result.n_rounds - 1
        # The simulated prefix is bit-identical to an untruncated shorter run.
        reference = solve(
            SolveRequest(circuit=circuit, n_trials=4, n_samples=result.n_rounds, seed=5)
        )
        assert np.array_equal(result.trajectories, reference.trajectories)

    def test_ceiling_stops_on_perfect_cut(self, small_bipartite):
        """A bipartite graph's full cut terminates the batch immediately."""
        circuit = _tr(small_bipartite)
        request = SolveRequest(
            circuit=circuit, n_trials=2, n_samples=400, seed=1,
            early_stop=EarlyStopConfig(patience=200, min_rounds=1),
        )
        result = solve(request)
        assert result.best_weight == small_bipartite.total_weight
        assert result.early_stopped
        assert result.n_rounds < 400

    def test_no_early_stop_without_config(self, small_bipartite):
        """Without an early-stop rule, even a perfect cut never truncates."""
        circuit = _tr(small_bipartite)
        result = solve(
            SolveRequest(circuit=circuit, n_trials=1, n_samples=30, seed=1)
        )
        assert result.n_rounds == 30
        assert not result.early_stopped
        assert result.metadata["early_stop_round"] is None

    def test_early_stop_with_multiple_blocks(self, medium_er_graph):
        """Later blocks replay the truncated round count and stay rectangular."""
        circuit = _gw(medium_er_graph)
        n_samples = 300
        bytes_per_trial = (
            (GW_CONFIG.burn_in_steps + n_samples * GW_CONFIG.sample_interval)
            * medium_er_graph.n_vertices * 8
        )
        result = solve(
            SolveRequest(
                circuit=circuit, n_trials=6, n_samples=n_samples, seed=5,
                early_stop=EarlyStopConfig(patience=6, min_rounds=10),
                max_block_bytes=2 * bytes_per_trial,
            )
        )
        assert result.metadata["n_blocks"] > 1
        assert result.early_stopped
        assert result.n_rounds < n_samples
        assert result.trajectories.shape == (6, result.n_rounds)
        # Every trial — including those in post-stop blocks — produced cuts.
        assert np.all(result.trial_best_weights > 0)


class TestResultApi:
    def test_sample_cuts_returns_a_one_trial_result(self, medium_er_graph):
        circuit = _gw(medium_er_graph)
        result = circuit.sample_cuts(8, seed=2)
        assert (result.n_trials, result.n_samples, result.n_rounds) == (1, 8, 8)
        assert result.trajectories.shape == (1, 8)
        assert result.best_weight == result.trial_best_weights[0]
        assert result.best_weight == result.trajectories[0].max()
        assert {"rank", "n_devices", "sdp_objective", "readout"} <= set(result.metadata)

    def test_circuit_result_view(self, medium_er_graph):
        # Trial 1 of a batch reads from its own rows of the result.
        result = solve(SolveRequest(circuit=_gw(medium_er_graph), n_trials=3, n_samples=8, seed=2))
        assert result.trajectories[1].shape == (8,)
        assert result.trial_best_weights[1] == result.trajectories[1].max()
        cut = Cut.from_assignment(medium_er_graph, result.trial_best_assignments[1])
        assert cut.weight == result.trial_best_weights[1]
        assert {"rank", "n_devices", "sdp_objective", "readout"} <= set(result.metadata)

    def test_learner_weights_carry_each_trials_row(self, medium_er_graph):
        result = solve(SolveRequest(
            circuit=_tr(medium_er_graph), n_trials=3, n_samples=8, seed=2
        ))
        assert result.learner_weights.shape == (3, medium_er_graph.n_vertices)
        assert result.metadata["n_plasticity_updates"] == 8 * TR_CONFIG.sample_interval
        assert solve(SolveRequest(
            circuit=_gw(medium_er_graph), n_trials=1, n_samples=4, seed=2
        )).learner_weights is None

    def test_record_assignments(self, small_er_graph):
        circuit = _gw(small_er_graph)
        result = solve(
            SolveRequest(
                circuit=circuit, n_trials=2, n_samples=6, seed=2,
                record_assignments=True,
            )
        )
        assert result.assignments.shape == (2, 6, small_er_graph.n_vertices)
        assert set(np.unique(result.assignments)) <= {-1, 1}
        # Recorded assignments reproduce the recorded trajectories.
        from repro.cuts.cut import cut_weights_batch

        for t in range(2):
            weights = cut_weights_batch(small_er_graph, result.assignments[t])
            assert np.array_equal(weights, result.trajectories[t])

    def test_samples_per_second_positive(self, small_er_graph):
        result = solve(
            SolveRequest(circuit=_gw(small_er_graph), n_trials=2, n_samples=5, seed=0)
        )
        assert result.samples_per_second > 0
        assert result.elapsed_seconds > 0


class TestEngineCli:
    def test_engine_command_runs_and_saves(self, tmp_path, capsys):
        from repro.cli import main
        from repro.experiments.runner import load_results

        out = tmp_path / "engine.json"
        code = main([
            "--seed", "3", "--save", str(out),
            "engine", "--er", "20", "0.3", "--trials", "3", "--samples", "8",
        ])
        assert code == 0
        captured = capsys.readouterr().out
        assert "3 trials x 8 read-outs" in captured
        record = load_results(out)
        assert record.experiment == "engine"
        assert record.result_type() == "SolveResult"
        assert record.results[0]["n_trials"] == 3

    def test_engine_command_rejects_unknown_backend_before_solving(self, capsys):
        from repro.cli import main

        for backend in ("spare", "torch"):
            code = main(["engine", "--er", "20", "0.3", "--backend", backend])
            assert code == 2
            assert f"unknown backend spec {backend!r}" in capsys.readouterr().err

    def test_engine_command_early_stop_fires_on_short_runs(self, capsys):
        """--early-stop-patience must be able to fire below 64 samples."""
        from repro.cli import main

        code = main([
            "engine", "--circuit", "lif_tr", "--er", "12", "0.5",
            "--trials", "2", "--samples", "40", "--early-stop-patience", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "early-stopped at" in out

    def test_engine_command_compare(self, capsys):
        from repro.cli import main

        code = main([
            "engine", "--er", "16", "0.4", "--trials", "2", "--samples", "6",
            "--compare",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "per-trial bests match: True" in out


class TestRequestArguments:
    def test_named_circuit_engine_vs_sequential(self, small_er_graph):
        request = SolveRequest(
            circuit="lif_tr", graph=small_er_graph, n_trials=3, n_samples=6,
            seed=7, config=TR_CONFIG,
        )
        _assert_bit_identical(solve(request), _one_trial_at_a_time(request))

    def test_instance_needs_no_graph(self, small_er_graph):
        result = solve(SolveRequest(
            circuit=_gw(small_er_graph), n_trials=2, n_samples=5, seed=1
        ))
        assert result.n_trials == 2
        assert result.graph_name == small_er_graph.name

    def test_instance_rejects_a_foreign_graph(self, small_er_graph):
        """An instance solves its own graph; naming another one is an error."""
        circuit = _gw(small_er_graph)
        with pytest.raises(ValidationError, match="graph does not match"):
            SolveRequest(circuit=circuit, graph=erdos_renyi(10, 0.5, seed=9))
        # The instance's own graph is accepted.
        result = solve(SolveRequest(
            circuit=circuit, graph=small_er_graph, n_trials=1, n_samples=4, seed=0
        ))
        assert result.n_trials == 1

    def test_instance_rejects_a_config(self, small_er_graph):
        """An instance is configured at construction; a request config is an error."""
        circuit = _gw(small_er_graph)
        with pytest.raises(ValidationError, match="config cannot be combined"):
            SolveRequest(circuit=circuit, config=GW_CONFIG)
        with pytest.raises(ValidationError, match="config cannot be combined"):
            SolveRequest(circuit=circuit, config=circuit.config)


class TestCoalesce:
    """Explicit per-trial seeds: the seam that lets requests share a batch."""

    def test_explicit_trial_seeds_match_root_derivation(self, small_er_graph):
        circuit = _tr(small_er_graph)
        seeds = tuple(trial_seed_sequences(5, 3))
        explicit = solve(SolveRequest(
            circuit=circuit, n_trials=3, n_samples=6, trial_seeds=seeds
        ))
        derived = solve(SolveRequest(circuit=circuit, n_trials=3, n_samples=6, seed=5))
        _assert_bit_identical(explicit, derived)

    def test_trial_seeds_validation(self, small_er_graph):
        circuit = _tr(small_er_graph)
        with pytest.raises(ValidationError):
            SolveRequest(circuit=circuit, n_trials=2, trial_seeds=(np.random.SeedSequence(0),))
        with pytest.raises(ValidationError):
            SolveRequest(circuit=circuit, n_trials=1, trial_seeds=(123,))


class TestDeadline:
    """Budget.max_seconds / served timeouts as a real engine deadline."""

    def test_tight_deadline_returns_partial_valid_best(self, medium_er_graph):
        from repro.cuts.cut import cut_weight

        request = SolveRequest(
            circuit=_tr(medium_er_graph), n_trials=4, n_samples=400,
            seed=3, deadline_seconds=1e-4,
        )
        result = solve(request)
        # Truncated well short of the ask, but never below one round...
        assert 1 <= result.n_rounds < 400
        assert result.metadata["deadline_exceeded"] is True
        assert result.trajectories.shape == (4, result.n_rounds)
        # ...and the returned bests are real cuts of the graph.
        for trial in range(4):
            weight = cut_weight(medium_er_graph, result.trial_best_assignments[trial])
            assert weight == result.trial_best_weights[trial]
        assert result.best_cut.weight == result.trial_best_weights.max()

    def test_deadline_prefix_matches_unconstrained_run(self, small_er_graph):
        """Completed rounds under a deadline equal the unconstrained prefix."""
        circuit = _tr(small_er_graph)
        free = solve(SolveRequest(circuit=circuit, n_trials=2, n_samples=50, seed=9))
        capped = solve(SolveRequest(
            circuit=circuit, n_trials=2, n_samples=50, seed=9,
            deadline_seconds=1e-4,
        ))
        n = capped.n_rounds
        assert np.array_equal(capped.trajectories, free.trajectories[:, :n])

    def test_generous_deadline_changes_nothing(self, small_er_graph):
        circuit = _tr(small_er_graph)
        free = solve(SolveRequest(circuit=circuit, n_trials=2, n_samples=10, seed=1))
        capped = solve(SolveRequest(
            circuit=circuit, n_trials=2, n_samples=10, seed=1, deadline_seconds=3600.0
        ))
        _assert_bit_identical(capped, free)
        assert capped.metadata["deadline_exceeded"] is False

    def test_deadline_validation(self, small_er_graph):
        with pytest.raises(ValidationError):
            SolveRequest(
                circuit=_tr(small_er_graph), n_trials=1, deadline_seconds=0.0
            )
        with pytest.raises(ValidationError):
            SolveRequest(
                circuit=_tr(small_er_graph), n_trials=1, deadline_seconds=-1.0
            )


class TestPlasticityStop:
    """A LIF-TR run that stops early trains its learner to the stop round only.

    The plasticity read-out trains a chunk of rounds per learner call; a run
    that may stop takes one round per call, so its learner rows, guard
    counts and trajectories are bitwise an unconstrained run of the rounds
    it completed.
    """

    #: A learning rate large enough for the norm guard to fire.
    CONFIG = LIFTrevisanConfig(
        burn_in_steps=25, sample_interval=4, learning_rate=1.0,
        normalize_plasticity_inputs=False,
    )

    def _assert_learner_prefix(self, stopped, circuit, n_trials, seed, **options):
        reference = solve(SolveRequest(
            circuit=circuit, n_trials=n_trials, n_samples=stopped.n_rounds,
            seed=seed, **options,
        ))
        assert np.array_equal(stopped.trajectories, reference.trajectories)
        assert np.array_equal(stopped.learner_weights, reference.learner_weights)
        for key in ("plasticity_guard_firings", "n_plasticity_updates"):
            assert stopped.metadata[key] == reference.metadata[key]
        return reference

    @pytest.mark.parametrize("config", [TR_CONFIG, CONFIG], ids=["default", "guard"])
    @pytest.mark.parametrize("blocks", [1, 2])
    def test_plateau_stop(self, medium_er_graph, config, blocks):
        circuit = _tr(medium_er_graph, config)
        n_samples = 300
        # Two trials per block when split: the later block replays the
        # first block's stop round.
        options = dict(max_block_bytes=(
            8 * medium_er_graph.n_vertices
            * (config.burn_in_steps + n_samples * config.sample_interval)
            * (4 if blocks == 1 else 2)
        ))
        stopped = solve(SolveRequest(
            circuit=circuit, n_trials=4, n_samples=n_samples, seed=5,
            early_stop=EarlyStopConfig(patience=6, min_rounds=10), **options,
        ))
        assert stopped.early_stopped and stopped.n_rounds < n_samples
        assert stopped.metadata["n_blocks"] == blocks
        reference = self._assert_learner_prefix(stopped, circuit, 4, 5, **options)
        if config is self.CONFIG:
            assert reference.metadata["plasticity_guard_firings"] > 0

    @pytest.mark.parametrize("config", [TR_CONFIG, CONFIG], ids=["default", "guard"])
    def test_deadline_stop(self, monkeypatch, medium_er_graph, config):
        # The tracker reads the clock once per round: this clock makes the
        # deadline fire at round 20, whatever the host's speed.
        from repro.engine import tracker

        class Clock:
            calls = 0

            def perf_counter(self):
                self.calls += 1
                return math.inf if self.calls > 20 else -math.inf

        monkeypatch.setattr(tracker, "time", Clock())
        circuit = _tr(medium_er_graph, config)
        stopped = solve(SolveRequest(
            circuit=circuit, n_trials=3, n_samples=400, seed=3,
            deadline_seconds=3600.0,
        ))
        assert stopped.metadata["deadline_exceeded"] and stopped.n_rounds == 21
        monkeypatch.undo()
        self._assert_learner_prefix(stopped, circuit, 3, 3)


class TestPlasticityGuardCount:
    """The LIF-TR learner's norm guard is counted per request, never silent."""

    @pytest.mark.parametrize("n", [50, 100])
    def test_guard_never_fires_at_defaults(self, n):
        # A default 4-trial solve: 1024 read-outs, 10,240 plasticity steps.
        result = solve(SolveRequest(
            circuit="lif_tr", graph=erdos_renyi(n, 0.25, seed=0), n_trials=4,
            n_samples=1024, seed=0,
        ))
        assert result.metadata["n_plasticity_updates"] == 10240
        assert result.metadata["plasticity_guard_firings"] == 0

    def test_guard_fires_with_a_large_learning_rate(self, small_er_graph):
        config = LIFTrevisanConfig(
            burn_in_steps=25, sample_interval=4, learning_rate=1.0
        )
        request = SolveRequest(
            circuit="lif_tr", graph=small_er_graph, config=config, n_trials=3,
            n_samples=16, seed=1,
        )
        batched = solve(request)
        assert batched.metadata["plasticity_guard_firings"] > 0
        # One trial per block counts the same firings as the batch.
        one_by_one = _one_trial_at_a_time(request)
        assert np.array_equal(batched.trajectories, one_by_one.trajectories)
        assert (
            one_by_one.metadata["plasticity_guard_firings"]
            == batched.metadata["plasticity_guard_firings"]
        )
