"""Tests for the analysis subpackage: statistics, convergence, ratios, scaling."""

import numpy as np
import pytest

from repro.analysis.convergence import (
    ConvergenceCurve,
    convergence_curve,
    relative_to_reference,
    running_best,
    sample_points_log_spaced,
)
from repro.analysis.ratios import approximation_ratio, relative_cut_weight
from repro.analysis.scaling import (
    HardwareModel,
    samples_in_time,
    software_equivalent_samples,
    throughput_report,
)
from repro.analysis.statistics import (
    bootstrap_confidence_interval,
    mean_and_sem,
    summarize_samples,
)
from repro.graphs.generators import erdos_renyi
from repro.sdp.burer_monteiro import solve_maxcut_sdp
from repro.spectral.trevisan import trevisan_simple_spectral
from repro.utils.timers import time_call
from repro.utils.validation import ValidationError


class TestStatistics:
    def test_mean_and_sem(self):
        mean, sem = mean_and_sem(np.array([1.0, 2.0, 3.0, 4.0]))
        assert mean == 2.5
        assert sem == pytest.approx(np.std([1, 2, 3, 4], ddof=1) / 2.0)

    def test_single_sample_sem_zero(self):
        mean, sem = mean_and_sem(np.array([5.0]))
        assert mean == 5.0 and sem == 0.0

    def test_empty_raises(self):
        with pytest.raises(ValidationError):
            mean_and_sem(np.zeros(0))

    def test_bootstrap_contains_mean(self, rng):
        samples = rng.normal(10.0, 1.0, size=200)
        low, high = bootstrap_confidence_interval(samples, seed=1)
        assert low <= samples.mean() <= high
        assert high - low < 1.0

    def test_bootstrap_invalid_confidence(self):
        with pytest.raises(ValidationError):
            bootstrap_confidence_interval(np.ones(10), confidence=1.5)

    def test_summarize(self):
        stats = summarize_samples(np.array([1.0, 2.0, 3.0]))
        assert stats.n == 3
        assert stats.minimum == 1.0
        assert stats.maximum == 3.0
        assert stats.median == 2.0

    def test_summarize_single(self):
        stats = summarize_samples(np.array([4.0]))
        assert stats.std == 0.0


class TestConvergence:
    def test_running_best(self):
        np.testing.assert_array_equal(running_best(np.array([2.0, 1.0, 5.0])), [2, 2, 5])
        best = running_best(np.array([1.0, 3.0, 2.0, 5.0]))
        np.testing.assert_array_equal(best, [1, 3, 3, 5])
        # The best after 1, 2 and 4 samples (the figures' log-spaced counts).
        np.testing.assert_array_equal(best[np.array([1, 2, 4]) - 1], [1, 3, 5])

    def test_running_best_empty(self):
        assert running_best(np.zeros(0)).shape == (0,)

    def test_running_best_rejects_2d(self):
        with pytest.raises(ValidationError):
            running_best(np.zeros((2, 2)))

    def test_relative_to_reference(self):
        np.testing.assert_allclose(relative_to_reference(np.array([5.0, 10.0]), 10.0), [0.5, 1.0])

    def test_relative_invalid_reference(self):
        with pytest.raises(ValidationError):
            relative_to_reference(np.ones(2), 0.0)

    def test_sample_points_properties(self):
        points = sample_points_log_spaced(1000, 15)
        assert points[0] >= 1
        assert points[-1] == 1000
        assert np.all(np.diff(points) > 0)

    def test_sample_points_small_n(self):
        points = sample_points_log_spaced(3, 20)
        assert points[-1] == 3
        assert len(points) <= 3

    def test_convergence_curve(self):
        weights = np.array([1.0, 4.0, 2.0, 6.0, 3.0])
        curve = convergence_curve(weights, sample_counts=np.array([1, 3, 5]), reference=6.0)
        np.testing.assert_allclose(curve.values, [1 / 6, 4 / 6, 1.0])
        assert curve.final_value == 1.0

    def test_convergence_curve_default_counts(self):
        curve = convergence_curve(np.arange(1, 101, dtype=float))
        assert curve.sample_counts[-1] == 100

    def test_convergence_curve_invalid_counts(self):
        with pytest.raises(ValidationError):
            convergence_curve(np.ones(5), sample_counts=np.array([0]))

    def test_curve_validation(self):
        with pytest.raises(ValidationError):
            ConvergenceCurve(sample_counts=np.array([1, 2]), values=np.array([1.0]))


class TestRatios:
    def test_approximation_ratio(self):
        assert approximation_ratio(87.8, 100.0) == pytest.approx(0.878)

    def test_zero_optimum_convention(self):
        assert approximation_ratio(0.0, 0.0) == 1.0

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            approximation_ratio(-1.0, 5.0)

    def test_relative_cut_weight_can_exceed_one(self):
        assert relative_cut_weight(105.0, 100.0) == pytest.approx(1.05)

    def test_relative_zero_reference(self):
        assert relative_cut_weight(3.0, 0.0) == 1.0


class TestScaling:
    def test_hardware_model_throughput(self):
        model = HardwareModel(lif_time_constant_s=1e-9, steps_per_sample=10)
        assert model.samples_per_second == pytest.approx(1e8)

    def test_samples_in_time(self):
        model = HardwareModel(lif_time_constant_s=1e-9, steps_per_sample=10)
        assert samples_in_time(model, 1e-2) == 10**6

    def test_paper_claim_millions_during_spectral_solve(self):
        """Paper §VI: millions of hardware samples during a ~10 ms software solve."""
        model = HardwareModel()
        assert software_equivalent_samples(model, 1e-2) >= 10**6

    def test_paper_claim_billions_during_sdp_solve(self):
        model = HardwareModel()
        assert software_equivalent_samples(model, 10.0) >= 10**9

    def test_projection_from_measured_software_solves(self):
        """Paper §VI with this library's own solve times on G(200, 0.25)."""
        graph = erdos_renyi(200, 0.25, seed=0)
        # Best of five interleaved calls each: the first calls pay lazy
        # imports and cache fills, and a loaded host slows single calls.
        times = np.array([
            [
                time_call(lambda: trevisan_simple_spectral(graph))[1],
                time_call(lambda: solve_maxcut_sdp(graph, rank=4, seed=1))[1],
            ]
            for _ in range(5)
        ])
        spectral_seconds, sdp_seconds = times.min(axis=0)
        report = throughput_report(
            HardwareModel(lif_time_constant_s=1e-9, steps_per_sample=10),
            software_spectral_seconds=max(spectral_seconds, 1e-4),
            software_sdp_seconds=max(sdp_seconds, 1e-3),
        )
        # Orders of magnitude more hardware samples than needed during
        # either software solve (>= 10^4: the measured software times are
        # far below the paper's 10 ms reference).
        assert report["samples_during_spectral_solve"] >= 1e4
        assert (
            report["samples_during_sdp_solve"]
            >= report["samples_during_spectral_solve"]
        )

    def test_throughput_report_keys(self):
        report = throughput_report(HardwareModel())
        for key in (
            "hardware_samples_per_second",
            "samples_during_spectral_solve",
            "samples_during_sdp_solve",
        ):
            assert key in report

    def test_invalid_model(self):
        with pytest.raises(ValidationError):
            HardwareModel(lif_time_constant_s=0.0)
        with pytest.raises(ValidationError):
            HardwareModel(steps_per_sample=0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValidationError):
            samples_in_time(HardwareModel(), -1.0)
