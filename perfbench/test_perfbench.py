"""Tests of the benchmark's own helpers (run with ``python3 -m pytest perfbench``)."""

import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import harness  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# -- the p95 rule ----------------------------------------------------------

def test_p95_needs_two_hundred_samples():
    assert harness.tail_samples(0.95) == 200
    assert harness.tail_samples(0.90) == 100
    assert harness.tail_samples(0.75) == 40


@pytest.mark.parametrize("fraction", [0.75, 0.90, 0.95])
def test_tail_samples_is_the_fewest_with_ten_samples_beyond(fraction):
    least = harness.tail_samples(fraction)
    beyond = lambda n: n - math.ceil(fraction * n)  # noqa: E731
    assert beyond(least - 1) < harness.TAIL_SAMPLES_BEYOND
    # Every larger sample keeps ten beyond the same percentile, so a faster
    # program never changes which percentile is reported.
    for n in range(least, 20 * least):
        assert beyond(n) >= harness.TAIL_SAMPLES_BEYOND
        assert harness.nearest_rank(range(n), fraction) == n - 1 - beyond(n)


def test_tail_samples_rejects_fractions_outside_the_unit_interval():
    for fraction in (0.0, 1.0, 1.5):
        with pytest.raises(ValueError):
            harness.tail_samples(fraction)


def test_each_workload_has_a_fixed_tail():
    import workloads

    assert workloads.ServeWorkload.TAIL == 0.95
    for name in workloads.WORKLOADS:
        assert 0.5 < workloads.make(name, 1).TAIL < 1.0


def test_nearest_rank_percentile():
    values = list(range(1, 201))
    assert harness.nearest_rank(values, 0.95) == 190
    assert harness.nearest_rank(values, 0.50) == 100
    assert harness.nearest_rank([3.0], 0.95) == 3.0
    with pytest.raises(ValueError):
        harness.nearest_rank([], 0.5)


# -- normalisation ---------------------------------------------------------

def test_normalise_scales_by_the_mean_of_the_bracketing_probes():
    ref = harness.REFERENCE_PROBE_S
    assert harness.normalise(2.0, 2 * ref, 2 * ref) == pytest.approx(1.0)
    assert harness.normalise(1.0, ref, 3 * ref) == pytest.approx(0.5)
    # A host running at the reference speed leaves times unchanged.
    assert harness.normalise(0.3, ref, ref) == pytest.approx(0.3)


def test_normalise_rejects_non_positive_probes():
    with pytest.raises(ValueError):
        harness.normalise(1.0, 0.0, 0.0)


def test_relative_spread():
    assert harness.relative_spread([1.0]) == 0.0
    assert harness.relative_spread([1.0, 1.0, 1.0, 1.0]) == 0.0
    values = [0.9, 1.0, 1.0, 1.1]
    assert harness.relative_spread(values) > 0.0


def test_probe_returns_positive_seconds():
    assert harness.probe() > 0.0


# -- layer timing ----------------------------------------------------------

def test_generator_span_charges_only_time_inside_next():
    clock = FakeClock()
    stats = harness.LayerStats(clock=clock)

    def rounds():
        for r in range(3):
            clock.advance(2.0)  # work inside the generator
            yield r

    seen = []
    for item in harness.timed_iter(rounds(), stats, "integrate"):
        clock.advance(5.0)  # the consumer's loop body
        seen.append(item)
    assert seen == [0, 1, 2]
    assert stats.busy["integrate"] == pytest.approx(6.0)


def test_generator_span_stops_charging_when_the_consumer_breaks():
    clock = FakeClock()
    stats = harness.LayerStats(clock=clock)

    def rounds():
        while True:
            clock.advance(1.0)
            yield None

    for count, _ in enumerate(harness.timed_iter(rounds(), stats, "integrate")):
        if count == 3:
            break
    assert stats.busy["integrate"] == pytest.approx(4.0)


def test_nested_layers_give_inclusive_busy_and_self_time():
    clock = FakeClock()
    stats = harness.LayerStats(clock=clock)
    outer = stats.enter("solve")
    clock.advance(1.0)
    inner = stats.enter("eval")
    clock.advance(3.0)
    stats.exit(inner)
    assert stats.enter("solve") is None  # re-entered: not recounted
    clock.advance(2.0)
    stats.exit(outer)
    assert stats.busy == {"solve": pytest.approx(6.0), "eval": pytest.approx(3.0)}
    assert stats.self_time["solve"] == pytest.approx(3.0)
    assert stats.calls == {"solve": 1, "eval": 1}


class Target:
    clock = None

    def work(self, n):
        self.clock.advance(0.5)
        return [0] * n


def test_span_wrapper_times_calls_and_records_counts():
    clock = FakeClock()
    stats = harness.LayerStats(clock=clock)
    Target.clock = clock
    patcher = harness.Patcher()
    after = lambda s, args, result: s.add("rows", len(result))  # noqa: E731
    assert patcher.wrap(__name__, "Target.work", harness.span_wrapper(stats, "eval", after))
    assert Target().work(4) == [0, 0, 0, 0]
    assert stats.calls["eval"] == 1
    assert stats.busy["eval"] == pytest.approx(0.5)
    assert stats.counts["rows"] == 4
    patcher.restore()
    Target().work(2)
    assert stats.calls["eval"] == 1


def test_patcher_reports_missing_targets_instead_of_raising():
    patcher = harness.Patcher()
    factory = harness.span_wrapper(harness.LayerStats(), "gone")
    assert not patcher.wrap("no_such_module_here", "f", factory)
    assert not patcher.wrap("harness", "no_such_function", factory)
    assert patcher.missing == ["no_such_module_here.f", "harness.no_such_function"]
    patcher.restore()


# -- workload inputs -------------------------------------------------------

def _signature(request):
    return (request.index, request.kind, request.graph_id, request.circuit,
            request.seed, request.graph.fingerprint())


def test_one_serve_seed_yields_the_same_request_list():
    import workloads

    def first(seed, count=120):
        stream = workloads.ServeTraffic(seed).requests()
        return [_signature(next(stream)) for _ in range(count)]

    assert first(7) == first(7)
    assert first(7) != first(8)


def test_serve_traffic_mix():
    import workloads

    stream = workloads.ServeTraffic(3).requests()
    requests = [next(stream) for _ in range(400)]
    kinds = [r.kind for r in requests]
    assert 0.05 < kinds.count("repeat") / len(kinds) < 0.16
    assert 0.02 < kinds.count("novel") / len(kinds) < 0.09
    pool = [r for r in requests if r.kind == "pool"]
    assert abs(sum(r.circuit == "lif_gw" for r in pool) - len(pool) / 2) <= 1
    for r in requests:
        if r.kind == "repeat":
            source = [q for q in requests[: r.index - 15] if q.seed == r.seed]
            assert source and source[0].graph_id == r.graph_id
        assert r.payload["seed"] == r.seed and r.payload["circuit"] == r.circuit


def test_cycle_workload_inputs_come_from_the_seed():
    import workloads

    a, b = workloads.make("engine-gw", 5), workloads.make("engine-gw", 5)
    assert a.cycle == b.cycle and a.warmup_seed == b.warmup_seed
    c = workloads.make("engine-gw", 6)
    assert c.cycle != a.cycle and c.warmup_seed != a.warmup_seed
    figure3 = workloads.make("figure3", 5)
    assert figure3.config.seed == 5
    assert len(set(figure3.cycle)) == len(figure3.cycle)
    assert (100, figure3.GRAPHS) not in figure3.cycle  # the warm-up graph


def test_sdp_set_up_inputs_are_the_same_for_every_seed():
    import workloads

    a, c = workloads.make("engine-gw", 5), workloads.make("engine-gw", 6)
    assert (a.graph_seed, a.build_seed) == (c.graph_seed, c.build_seed)
    f5, f6 = workloads.make("figure3", 5), workloads.make("figure3", 6)
    assert f5.setup_config == f6.setup_config != f5.config
    t5, t6 = workloads.ServeTraffic(5), workloads.ServeTraffic(6)
    assert [t5.graphs[g].fingerprint() for g in t5.pool] == [
        t6.graphs[g].fingerprint() for g in t6.pool]
