"""Tests for the array-API seam (repro.engine.xp).

Covers spec parsing and resolution, the array-backend registry and probes,
the numpy identity adapter, the redesigned ``WeightBackend.for_graph``
selection API (including the explicit-override fix for small graphs), the
numpy path's bit-identity guarantee, and — when torch is installed — the
torch-CPU parity suite.  Torch/cupy tests skip cleanly where the optional
dependency is absent.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.circuits.config import LIFTrevisanConfig
from repro.circuits.lif_trevisan import LIFTrevisanCircuit
from repro.engine import (
    ArrayBackend,
    BackendSpec,
    DenseBackend,
    NumpyArrayBackend,
    ResolvedBackend,
    SolveRequest,
    SparseBackend,
    WeightBackend,
    get_array_backend,
    list_array_backends,
    parse_backend_spec,
    probe_array_backends,
    probe_weight_backends,
    register_array_backend,
    resolve_backend,
    solve,
    solve_instance_block,
)
from repro.engine.backends import SPARSE_MIN_VERTICES
from repro.graphs.generators import erdos_renyi
from repro.utils.validation import ValidationError
from repro.workloads.spec import ExecutionPolicy

TORCH_AVAILABLE, TORCH_REASON = get_array_backend("torch").available()
needs_torch = pytest.mark.skipif(
    not TORCH_AVAILABLE, reason=f"torch unavailable: {TORCH_REASON}"
)


class TestParseBackendSpec:
    def test_none_and_auto_mean_full_auto(self):
        for spec in (None, "auto", "", "  AUTO  "):
            parsed = parse_backend_spec(spec)
            assert parsed == BackendSpec(array="auto", weight="auto")

    def test_bare_weight_name(self):
        assert parse_backend_spec("dense") == BackendSpec(weight="dense")
        assert parse_backend_spec("sparse") == BackendSpec(weight="sparse")

    def test_bare_array_name(self):
        assert parse_backend_spec("numpy") == BackendSpec(array="numpy")
        assert parse_backend_spec("torch") == BackendSpec(array="torch")

    def test_combined_form(self):
        parsed = parse_backend_spec("torch:dense")
        assert parsed == BackendSpec(array="torch", weight="dense")

    def test_partial_combined_forms(self):
        assert parse_backend_spec(":sparse") == BackendSpec(weight="sparse")
        assert parse_backend_spec("numpy:") == BackendSpec(array="numpy")

    def test_case_insensitive(self):
        assert parse_backend_spec("Torch:Dense") == BackendSpec(
            array="torch", weight="dense"
        )

    def test_backendspec_passthrough(self):
        spec = BackendSpec(array="numpy", weight="sparse")
        assert parse_backend_spec(spec) == spec

    def test_unknown_names_raise(self):
        for bad in ("bogus", "bogus:dense", "numpy:bogus", "torch:sparse:x"):
            with pytest.raises(ValidationError):
                parse_backend_spec(bad)

    def test_non_string_raises(self):
        with pytest.raises(ValidationError):
            parse_backend_spec(123)


class TestResolveBackend:
    def test_auto_resolves_to_numpy(self):
        resolved = resolve_backend("auto")
        assert resolved.array.name == "numpy"
        assert resolved.weight == "auto"

    def test_weight_only_spec_keeps_numpy_array(self):
        resolved = resolve_backend("sparse")
        assert resolved.array.name == "numpy"
        assert resolved.weight == "sparse"

    def test_resolved_backend_passes_through(self):
        resolved = ResolvedBackend(array=get_array_backend("numpy"), weight="dense")
        assert resolve_backend(resolved) is resolved

    def test_array_backend_instance_passes_through(self):
        resolved = resolve_backend(get_array_backend("numpy"))
        assert resolved.array.name == "numpy"
        assert resolved.weight == "auto"

    @pytest.mark.skipif(TORCH_AVAILABLE, reason="torch is installed here")
    def test_unavailable_backend_fails_with_reason(self):
        with pytest.raises(ValidationError, match="unavailable"):
            resolve_backend("torch")

    def test_describe_names_both_seams(self):
        resolved = resolve_backend("numpy:dense")
        assert resolved.describe == "numpy:dense"


class TestRegistry:
    def test_builtins_registered(self):
        assert {"numpy", "torch", "cupy"} <= set(list_array_backends())

    def test_unknown_name_raises(self):
        with pytest.raises(ValidationError):
            get_array_backend("no-such-array")

    def test_register_rejects_bad_names(self):
        for bad in ("", "auto", "with:colon"):
            backend = NumpyArrayBackend()
            backend.name = bad
            with pytest.raises(ValidationError):
                register_array_backend(backend)

    def test_register_rejects_duplicates_without_overwrite(self):
        with pytest.raises(ValidationError):
            register_array_backend(NumpyArrayBackend())

    def test_probes_are_json_safe_reports(self):
        probes = {p["name"]: p for p in probe_array_backends()}
        assert probes["numpy"]["available"] is True
        assert probes["numpy"]["device"] == "cpu"
        for probe in probes.values():
            assert set(probe) == {"name", "available", "reason", "device"}
        weight_probes = {p["name"]: p for p in probe_weight_backends()}
        assert {"dense", "sparse"} <= set(weight_probes)


class TestNumpyIdentityAdapter:
    def test_asarray_is_identity_for_ndarrays(self):
        xp = get_array_backend("numpy")
        array = np.arange(6.0)
        assert xp.asarray(array) is array
        assert xp.to_numpy(array) is array

    def test_kernels_match_module_level_numpy(self):
        xp = get_array_backend("numpy")
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 5))
        b = rng.standard_normal((5, 3))
        assert np.array_equal(xp.matmul(a, b), np.matmul(a, b))
        out = np.empty((4, 3))
        assert xp.matmul(a, b, out=out) is out
        assert np.array_equal(out, np.matmul(a, b))
        mask = a > 0
        assert np.array_equal(xp.where(mask, 1, -1), np.where(mask, 1, -1))
        assert xp.astype(a, "float32").dtype == np.float32
        assert np.array_equal(xp.zeros((2, 2), "int8"), np.zeros((2, 2), np.int8))


class TestForGraph:
    def test_explicit_sparse_overrides_small_graph_heuristic(self):
        # The fix: "--backend sparse" must be honoured even on graphs the
        # auto heuristic would route dense (small and/or dense ones).
        graph = erdos_renyi(16, 0.5, seed=0)
        assert graph.n_vertices < SPARSE_MIN_VERTICES
        weights = np.eye(graph.n_vertices)
        backend = WeightBackend.for_graph(
            graph, weights, policy="sparse",
            sparse_weights=lambda: weights,
        )
        assert isinstance(backend, SparseBackend)

    def test_execution_policy_object_is_a_valid_policy(self):
        graph = erdos_renyi(16, 0.5, seed=0)
        weights = np.eye(graph.n_vertices)
        policy = ExecutionPolicy(backend="sparse")
        backend = WeightBackend.for_graph(
            graph, weights, policy=policy, sparse_weights=lambda: weights
        )
        assert isinstance(backend, SparseBackend)

    def test_auto_routes_sparse_only_for_large_low_density(self):
        small = erdos_renyi(16, 0.5, seed=0)
        dense_backend = WeightBackend.for_graph(
            small, np.eye(16), policy="auto", sparse_weights=lambda: np.eye(16)
        )
        assert isinstance(dense_backend, DenseBackend)

    def test_backend_instances_carry_their_array_backend(self):
        graph = erdos_renyi(16, 0.5, seed=0)
        backend = WeightBackend.for_graph(graph, np.eye(16), policy="dense")
        assert backend.array is not None
        assert backend.array.name == "numpy"

    def test_engine_sparse_spec_end_to_end_on_small_graph(self):
        # Same override through the full engine path: a SolveRequest naming
        # sparse must report the sparse backend even under the size floor.
        graph = erdos_renyi(24, 0.5, seed=1)
        result = solve(SolveRequest(
            circuit="lif_tr", graph=graph, n_trials=2, n_samples=4,
            seed=0, backend="sparse",
        ))
        assert result.backend_name == "sparse"

    def test_sparse_and_dense_weights_give_the_same_cuts(self):
        # LIF-TR on a low-density graph: the two weight backends agree on
        # every read-out (their round-off never flips a sign here).
        graph = erdos_renyi(256, 0.015, seed=3)
        circuit = LIFTrevisanCircuit(
            graph, config=LIFTrevisanConfig(burn_in_steps=50, sample_interval=5)
        )
        dense, sparse = (
            solve(SolveRequest(
                circuit=circuit, n_trials=8, n_samples=64, seed=4, backend=backend,
            ))
            for backend in ("dense", "sparse")
        )
        assert (dense.backend_name, sparse.backend_name) == ("dense", "sparse")
        assert np.array_equal(dense.trajectories, sparse.trajectories)


class TestNumpyBitIdentity:
    def test_numpy_spec_bit_identical_to_sequential(self):
        """The explicit numpy spec equals its trials run one at a time."""
        graph = erdos_renyi(30, 0.4, seed=2)
        request = SolveRequest(
            circuit="lif_tr", graph=graph, n_trials=3, n_samples=6,
            seed=11, backend="numpy:dense",
        )
        engine = solve(request)
        reference = solve(replace(request, max_block_bytes=1))
        assert np.array_equal(engine.trajectories, reference.trajectories)
        assert np.array_equal(
            engine.trial_best_weights, reference.trial_best_weights
        )
        assert np.array_equal(
            engine.trial_best_assignments, reference.trial_best_assignments
        )
        assert engine.metadata["array_backend"] == "numpy"
        assert engine.metadata["array_device"] == "cpu"

    def test_numpy_spec_equals_default_auto_run(self):
        graph = erdos_renyi(30, 0.4, seed=3)
        common = dict(
            circuit="lif_tr", graph=graph, n_trials=2, n_samples=5, seed=4
        )
        auto = solve(SolveRequest(backend="auto", **common))
        explicit = solve(SolveRequest(backend="numpy:dense", **common))
        assert np.array_equal(auto.trajectories, explicit.trajectories)
        assert np.array_equal(
            auto.trial_best_assignments, explicit.trial_best_assignments
        )


@needs_torch
class TestTorchParity:
    def _results(self, circuit, graph, **kwargs):
        common = dict(
            circuit=circuit, graph=graph, n_trials=3, n_samples=6, seed=9,
            **kwargs,
        )
        host = solve(SolveRequest(backend="numpy:dense", **common))
        accel = solve(SolveRequest(backend="torch:dense", **common))
        return host, accel

    @pytest.mark.parametrize("circuit", ["lif_tr", "lif_gw"])
    def test_torch_dense_allclose_to_numpy(self, circuit):
        graph = erdos_renyi(28, 0.4, seed=5)
        host, accel = self._results(circuit, graph)
        assert accel.metadata["array_backend"] == "torch"
        np.testing.assert_allclose(
            accel.trajectories, host.trajectories, rtol=1e-9, atol=1e-9
        )
        np.testing.assert_allclose(
            accel.trial_best_weights, host.trial_best_weights,
            rtol=1e-9, atol=1e-9,
        )

    def test_torch_seeds_identical_to_numpy_host_sampling(self):
        # The RNG bridge: both runs must consume the same host random
        # numbers, so the ±1 read-out assignments agree exactly unless a
        # membrane potential sits within round-off of the threshold.
        graph = erdos_renyi(20, 0.5, seed=6)
        host, accel = self._results("lif_tr", graph)
        assert np.array_equal(
            accel.trial_best_assignments, host.trial_best_assignments
        )

    def test_torch_lif_tr_group_matches_numpy_standalone(self):
        # Two LIF-TR circuits on different graphs share one torch engine
        # run; each agrees with its own numpy solve to round-off.
        graphs = [erdos_renyi(24, 0.4, seed=10 + i) for i in range(2)]
        requests = [
            SolveRequest(
                circuit="lif_tr", graph=graph, n_trials=2, n_samples=6,
                seed=20 + i, backend="torch:dense",
            )
            for i, graph in enumerate(graphs)
        ]
        for request, accel in zip(requests, solve_instance_block(requests)):
            assert accel.metadata["array_backend"] == "torch"
            assert accel.metadata["instance_block"]["segments"] == 2
            host = solve(replace(request, backend="numpy:dense"))
            np.testing.assert_allclose(
                accel.trajectories, host.trajectories, rtol=1e-9, atol=1e-9
            )
            np.testing.assert_allclose(
                accel.trial_best_weights, host.trial_best_weights,
                rtol=1e-9, atol=1e-9,
            )

    def test_torch_sparse_combination_is_rejected(self):
        graph = erdos_renyi(20, 0.5, seed=7)
        with pytest.raises(ValidationError):
            solve(SolveRequest(
                circuit="lif_tr", graph=graph, n_trials=1, n_samples=2,
                seed=0, backend="torch:sparse",
            ))
