"""Tests for the observability stack (:mod:`repro.obs`).

The load-bearing claims:

* spans nest correctly through contextvars (parent/child per thread, no
  cross-thread inheritance), and the disabled path is a shared no-op that
  records nothing;
* tracing never perturbs seeding — an engine run under an active capture is
  bit-identical to the same run untraced, and the capture carries the full
  engine span taxonomy with per-round cut-evaluation accumulators, and a
  Figure 3 graph emits one ``sdp.solve`` span under each SDP-backed method;
* the metrics registry's counters/gauges/histograms read coherently, with
  the nearest-rank percentile numerically identical to the historical serve
  implementation (empty window, single sample, window eviction);
* the Prometheus text and Chrome trace-event renderings are structurally
  valid, and ``repro profile`` works for every registered workload.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.circuits.config import LIFTrevisanConfig
from repro.cli import main
from repro.engine import SolveRequest, solve
from repro.experiments.config import Figure3Config
from repro.experiments.figure3 import run_figure3_graph
from repro.graphs.generators import erdos_renyi
from repro.obs import (
    Histogram,
    MetricsRegistry,
    SpanRecord,
    accumulate,
    capture,
    chrome_trace,
    disable_tracing,
    enable_tracing,
    merge_summaries,
    nearest_rank_percentile,
    profile_summary,
    render_profile,
    render_prometheus,
    span,
    summarize_spans,
    suspended,
    tracing_enabled,
)
from repro.workloads import list_workloads


@pytest.fixture(autouse=True)
def _no_tracing_leaks():
    """Every test starts and ends with tracing disabled."""
    disable_tracing()
    yield
    disable_tracing()


class TestSpans:
    def test_disabled_span_is_a_shared_noop(self):
        assert not tracing_enabled()
        first = span("a", x=1)
        second = span("b")
        assert first is second  # the shared no-op: zero allocation
        with first as live:
            live.set(anything=1)
            live.add("n", 2.0)
        with capture() as trace:
            pass
        assert trace.spans == []

    def test_capture_records_parent_child_nesting(self):
        with capture() as trace:
            with span("outer", a=1):
                with span("inner"):
                    pass
        assert [s.name for s in trace.spans] == ["inner", "outer"]
        inner, outer = trace.spans
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert outer.attrs == {"a": 1}

    def test_set_and_add_mutate_the_open_span(self):
        with capture() as trace:
            with span("s") as live:
                live.set(k="v")
                live.add("count", 1)
                live.add("count", 2)
        record = trace.spans[0]
        assert record.attrs == {"k": "v", "count": 3}

    def test_accumulate_targets_the_innermost_open_span(self):
        with capture() as trace:
            accumulate("orphan", 1.0)  # no open span: dropped, no error
            with span("outer"):
                with span("inner"):
                    accumulate("x", 1.5)
                    accumulate("x", 2.0)
        inner = next(s for s in trace.spans if s.name == "inner")
        outer = next(s for s in trace.spans if s.name == "outer")
        assert inner.attrs["x"] == 3.5
        assert "x" not in outer.attrs

    def test_threads_never_inherit_a_parent_span(self):
        def worker():
            with span("thread-root"):
                pass

        with capture() as trace:
            with span("main-root"):
                thread = threading.Thread(target=worker)
                thread.start()
                thread.join()
        by_name = {s.name: s for s in trace.spans}
        assert by_name["thread-root"].parent_id is None
        assert by_name["main-root"].parent_id is None
        assert by_name["thread-root"].thread != by_name["main-root"].thread

    def test_nested_capture_observes_while_outer_owns(self):
        with capture() as outer:
            with span("a"):
                pass
            with capture() as inner:
                with span("b"):
                    pass
            assert tracing_enabled()  # inner exit must not disable
            with span("c"):
                pass
        assert not tracing_enabled()
        assert [s.name for s in inner.spans] == ["b"]
        assert [s.name for s in outer.spans] == ["a", "b", "c"]

    def test_suspended_truly_records_nothing(self):
        with capture() as trace:
            with span("kept"):
                pass
            with suspended():
                assert not tracing_enabled()
                with span("dropped"):
                    pass
            assert tracing_enabled()
            with span("kept-too"):
                pass
        assert [s.name for s in trace.spans] == ["kept", "kept-too"]

    def test_span_open_across_disable_is_dropped(self):
        enable_tracing()
        live = span("orphan")
        with live:
            disable_tracing()
        assert not tracing_enabled()
        with capture() as trace:
            pass
        assert trace.spans == []


class TestSummaries:
    def test_exclusive_time_subtracts_direct_children(self):
        spans = [
            SpanRecord("child", 2, 1, 0.1, 0.4, "main"),
            SpanRecord("child", 3, 1, 0.5, 0.3, "main"),
            SpanRecord("parent", 1, None, 0.0, 1.0, "main"),
        ]
        summary = summarize_spans(spans)
        assert summary["parent"]["count"] == 1
        assert summary["parent"]["total_seconds"] == pytest.approx(1.0)
        assert summary["parent"]["self_seconds"] == pytest.approx(0.3)
        assert summary["child"]["count"] == 2
        assert summary["child"]["self_seconds"] == pytest.approx(0.7)
        json.dumps(summary)  # the block rides into reports/checkpoints

    def test_self_seconds_never_negative(self):
        # Clock jitter can make children sum past the parent; clamp at zero.
        spans = [
            SpanRecord("child", 2, 1, 0.0, 1.5, "main"),
            SpanRecord("parent", 1, None, 0.0, 1.0, "main"),
        ]
        assert summarize_spans(spans)["parent"]["self_seconds"] == 0.0

    def test_merge_summaries_sums_per_phase(self):
        first = {"a": {"count": 1, "total_seconds": 1.0, "self_seconds": 0.5}}
        second = {
            "a": {"count": 2, "total_seconds": 3.0, "self_seconds": 1.5},
            "b": {"count": 1, "total_seconds": 0.25, "self_seconds": 0.25},
        }
        merged = merge_summaries([first, second])
        assert merged["a"] == {
            "count": 3, "total_seconds": 4.0, "self_seconds": 2.0
        }
        assert merged["b"]["count"] == 1
        assert merge_summaries([]) == {}


class TestEngineIntegration:
    def test_traced_engine_run_is_bit_identical_and_fully_instrumented(self):
        graph = erdos_renyi(18, 0.3, seed=7)
        request = SolveRequest(
            circuit="lif_tr", graph=graph, n_trials=3, n_samples=12, seed=5
        )
        untraced = solve(request)
        with capture() as trace:
            traced = solve(request)
        assert np.array_equal(
            untraced.trial_best_weights, traced.trial_best_weights
        )
        assert np.array_equal(untraced.trajectories, traced.trajectories)

        names = {s.name for s in trace.spans}
        assert {
            "engine.solve", "engine.circuit_build", "engine.block",
            "engine.sample", "engine.drive", "engine.integrate",
        } <= names
        by_id = {s.span_id: s for s in trace.spans}
        block = next(s for s in trace.spans if s.name == "engine.block")
        assert by_id[block.parent_id].name == "engine.solve"
        integrate = next(s for s in trace.spans if s.name == "engine.integrate")
        assert by_id[integrate.parent_id].name == "engine.block"
        # The per-round accumulators from the cut evaluator's hot loop.
        assert integrate.attrs.get("cut_evaluations", 0) > 0
        assert integrate.attrs.get("cut_eval_seconds", 0.0) >= 0.0
        assert integrate.attrs["rounds_completed"] == 12
        # The block's plasticity steps: `interval` per round, one train call.
        interval = LIFTrevisanConfig().sample_interval
        assert integrate.attrs["plasticity_steps"] == 12 * interval
        assert integrate.attrs["plasticity_seconds"] > 0.0
        assert integrate.attrs["plasticity_guard_firings"] == 0
        solve_span = next(s for s in trace.spans if s.name == "engine.solve")
        assert solve_span.attrs["backend"] == traced.backend_name

    def test_traced_figure3_graph_spans_both_sdp_solves(self):
        config = Figure3Config(n_samples=16, n_solver_samples=4)
        with capture() as trace:
            run_figure3_graph(20, 0.3, 0, config=config)
        by_id = {s.span_id: s for s in trace.spans}
        solves = {
            by_id[s.parent_id].name: s.attrs
            for s in trace.spans if s.name == "sdp.solve"
        }
        assert sorted(solves) == ["figure3.lif_gw", "figure3.solver"]
        assert solves["figure3.lif_gw"]["rank"] == config.lif_gw.rank
        assert solves["figure3.solver"]["rank"] == 8  # ceil(sqrt(2 * 20)) + 1
        for attrs in solves.values():
            assert attrs["n_vertices"] == 20
            assert attrs["converged"] is True
            assert attrs["n_iterations"] > 0


class TestMetrics:
    def test_percentile_of_empty_window_is_zero(self):
        assert nearest_rank_percentile([], 0.50) == 0.0
        assert nearest_rank_percentile([], 0.95) == 0.0

    def test_percentile_of_single_sample_is_that_sample(self):
        for fraction in (0.0, 0.5, 0.95, 1.0):
            assert nearest_rank_percentile([7.25], fraction) == 7.25

    def test_percentile_matches_historical_serve_implementation(self):
        # The exact expression the hand-rolled SolverService._percentile used.
        rng = np.random.default_rng(3)
        for _ in range(20):
            values = rng.random(rng.integers(1, 40)).tolist()
            for fraction in (0.5, 0.95):
                ordered = sorted(values)
                index = min(
                    len(ordered) - 1, int(fraction * (len(ordered) - 1) + 0.5)
                )
                assert nearest_rank_percentile(values, fraction) == ordered[index]

    def test_histogram_window_eviction(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h_seconds", window=3)
        for value in (1.0, 2.0, 3.0, 4.0, 5.0):
            hist.observe(value)
        assert hist.window_values() == [3.0, 4.0, 5.0]
        assert hist.percentile(0.0) == 3.0  # the evicted 1.0/2.0 are gone
        assert hist.percentile(1.0) == 5.0
        # Lifetime totals are not windowed.
        assert hist.count == 5
        assert hist.sum == pytest.approx(15.0)

    def test_histogram_cumulative_buckets_end_with_inf(self):
        registry = MetricsRegistry()
        hist = registry.histogram("g_seconds", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 2.0):
            hist.observe(value)
        buckets = hist.cumulative_buckets()
        assert buckets == [(0.1, 1), (1.0, 2), (float("inf"), 3)]

    def test_counter_labels_and_monotonicity(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total")
        counter.inc()
        counter.inc(2, reason="budget")
        counter.inc(reason="budget")
        assert counter.value() == 1
        assert counter.value(reason="budget") == 3
        assert counter.as_dict("reason") == {"budget": 3}
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_callback_shadows_static_value(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g")
        gauge.set(1.0)
        gauge.set_function(lambda: 42.0)
        assert gauge.value() == 42.0
        labelled = registry.gauge("g2")
        labelled.set_function(lambda: 7.0, cache="results")
        assert labelled.value(cache="results") == 7.0

    def test_registry_get_or_create_is_idempotent_and_type_checked(self):
        registry = MetricsRegistry()
        first = registry.counter("x_total")
        assert registry.counter("x_total") is first
        with pytest.raises(ValueError):
            registry.gauge("x_total")

    def test_snapshot_is_coherent_and_json_safe(self):
        registry = MetricsRegistry()
        registry.counter("a_total").inc(3)
        registry.gauge("b").set(1.5)
        registry.histogram("c_seconds", window=4).observe(0.2)
        snap = registry.snapshot()
        assert snap["a_total"]["series"][0]["value"] == 3
        assert snap["c_seconds"]["count"] == 1
        assert snap["c_seconds"]["p50"] == pytest.approx(0.2)
        json.dumps(snap)


class TestPrometheusExposition:
    def test_renders_counters_gauges_and_histograms(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", "things").inc(4)
        registry.gauge("repro_depth", "queue").set(2.0)
        hist = registry.histogram("repro_lat_seconds", "latency", buckets=(0.5,))
        hist.observe(0.1)
        text = render_prometheus(registry)
        assert "# HELP repro_x_total things" in text
        assert "# TYPE repro_x_total counter" in text
        assert "repro_x_total 4" in text
        assert "repro_depth 2" in text
        assert 'repro_lat_seconds_bucket{le="0.5"} 1' in text
        assert 'repro_lat_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_lat_seconds_count 1" in text
        assert text.endswith("\n")

    def test_never_incremented_counter_exposes_zero(self):
        registry = MetricsRegistry()
        registry.counter("repro_quiet_total", "nothing yet")
        assert "repro_quiet_total 0" in render_prometheus(registry)

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("repro_esc_total").inc(reason='we"ird\\nope\nline')
        text = render_prometheus(registry)
        assert r'reason="we\"ird\\nope\nline"' in text


class TestTraceRenderings:
    def _spans(self):
        with capture() as trace:
            with span("outer", n=2):
                with span("inner"):
                    pass
        return trace.spans

    def test_chrome_trace_structure(self):
        payload = chrome_trace(self._spans())
        assert payload["displayTimeUnit"] == "ms"
        events = payload["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        meta = [e for e in events if e["ph"] == "M"]
        assert {e["name"] for e in complete} == {"outer", "inner"}
        assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in complete)
        outer = next(e for e in complete if e["name"] == "outer")
        assert outer["args"] == {"n": 2}
        assert meta and meta[0]["name"] == "thread_name"
        json.dumps(payload)

    def test_chrome_trace_of_nothing_is_valid(self):
        assert chrome_trace([]) == {"traceEvents": [], "displayTimeUnit": "ms"}

    def test_profile_summary_schema(self):
        payload = profile_summary(self._spans())
        assert payload["schema"] == "repro-profile/v1"
        assert payload["n_spans"] == 2
        assert set(payload["phases"]) == {"outer", "inner"}
        assert payload["wall_seconds"] >= 0.0
        assert profile_summary([])["n_spans"] == 0

    def test_render_profile_lists_every_phase(self):
        text = render_profile(self._spans(), top=5)
        assert "outer" in text and "inner" in text
        assert "incl s" in text and "self s" in text
        assert "no spans recorded" in render_profile([])


#: Cheap parameter overrides so the every-workload profile sweep stays fast.
_QUICK_PROFILE_PARAMS = {
    "ablation": ["-p", "vertices=12", "-p", "samples=8", "-p", "n_graphs=1"],
    "arena": ["-p", "solvers=random,trevisan", "-p", "trials=1",
              "-p", "samples=8"],
    "bench": ["-p", "trials=2", "-p", "samples=8", "-p", "scale_n=200",
              "-p", "engine_trials=2", "-p", "engine_samples=8",
              "-p", "instance_count=2", "-p", "instance_n=12",
              "-p", "instance_trials=1"],
    "evolving": ["-p", "steps=1", "-p", "deltas=2", "-p", "trials=1",
                 "-p", "samples=8"],
    "figure3": ["-p", "sizes=12", "-p", "probabilities=0.2", "-p", "trials=1",
                "-p", "samples=8"],
    "figure4": ["-p", "graphs=road-chesapeake", "-p", "samples=8"],
    "problems": ["-p", "trials=1", "-p", "samples=8"],
    "table1": ["-p", "graphs=road-chesapeake", "-p", "samples=8"],
}


class TestProfileCli:
    @pytest.mark.parametrize("workload", sorted(list_workloads()))
    def test_profile_works_for_every_registered_workload(
        self, workload, tmp_path, capsys
    ):
        out = tmp_path / f"{workload}-trace.json"
        argv = [
            "profile", workload, "--seed", "1", "--out", str(out),
            *_QUICK_PROFILE_PARAMS.get(workload, []),
        ]
        assert main(argv) == 0
        assert not tracing_enabled()  # the CLI must not leak the capture
        rendered = capsys.readouterr().out
        assert f"profile: workload {workload!r}" in rendered
        trace = json.loads(out.read_text(encoding="utf-8"))
        events = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
        assert events, f"{workload} produced an empty trace"
        assert {"session.validate", "session.execute"} <= {
            e["name"] for e in events
        }

    def test_summary_format_writes_the_aggregate(self, tmp_path, capsys):
        out = tmp_path / "summary.json"
        argv = [
            "profile", "figure3", "--seed", "2", "--format", "summary",
            "--out", str(out), *_QUICK_PROFILE_PARAMS["figure3"],
        ]
        assert main(argv) == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["schema"] == "repro-profile/v1"
        assert "session.execute" in payload["phases"]

    def test_sharded_profile_folds_shard_timings(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        report_path = tmp_path / "report.json"
        argv = [
            "profile", "arena", "--seed", "3", "--shards", "2",
            "--out", str(out), "--save", str(report_path),
            *_QUICK_PROFILE_PARAMS["arena"],
        ]
        assert main(argv) == 0
        report = json.loads(report_path.read_text(encoding="utf-8"))
        metadata = report["config"]["metadata"]
        distrib = metadata["distrib"]
        assert len(distrib["shard_timings"]) == 2
        assert distrib["timing"] == merge_summaries(distrib["shard_timings"])
        assert "session.execute" in metadata["timing"]

    def test_untraced_run_report_carries_no_timing_block(self):
        from repro.workloads import run_workload

        report = run_workload(
            "arena", solvers=("random",), suite="er-small", trials=1,
            samples=8, seed=0,
        )
        assert "timing" not in report.metadata
