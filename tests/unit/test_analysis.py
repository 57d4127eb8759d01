"""Unit tests for repro.analysis (metrics, quantiles, SLA)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.metrics import (
    delay_accuracy_report,
    loss_granularity_report,
    relative_error,
)
from repro.analysis.quantiles import empirical_quantiles, quantile_error
from repro.analysis.sla import SLASpec, check_sla
from repro.core.estimation import DelayQuantileEstimate
from repro.core.verifier import DomainPerformance
from repro.simulation.scenario import DomainGroundTruth


def make_performance(
    quantiles: dict[float, float],
    offered: int = 1000,
    lost: int = 10,
    granularity: tuple[float, ...] = (1.0, 1.2),
) -> DomainPerformance:
    estimates = {
        quantile: DelayQuantileEstimate(
            quantile=quantile,
            estimate=value,
            lower=value * 0.9,
            upper=value * 1.1,
            sample_count=500,
        )
        for quantile, value in quantiles.items()
    }
    return DomainPerformance(
        domain="X",
        delay_quantiles=estimates,
        delay_sample_count=500,
        offered_packets=offered,
        lost_packets=lost,
        loss_granularity=granularity,
    )


def make_truth(delays: list[float], lost: int = 0) -> DomainGroundTruth:
    truth = DomainGroundTruth(domain="X")
    for index, delay in enumerate(delays):
        truth.delivered[index] = (0.0, delay)
    for index in range(lost):
        truth.lost.add(10_000 + index)
    return truth


class TestRelativeError:
    def test_basic(self):
        assert relative_error(11.0, 10.0) == pytest.approx(0.1)

    def test_zero_truth(self):
        assert relative_error(0.0, 0.0) == 0.0
        assert relative_error(1.0, 0.0) == float("inf")


class TestDelayAccuracyReport:
    def test_max_error_is_worst_quantile(self):
        performance = make_performance({0.5: 5e-3, 0.9: 10e-3})
        report = delay_accuracy_report(performance, {0.5: 5e-3, 0.9: 12e-3})
        assert report.max_error == pytest.approx(2e-3)
        assert report.max_error_ms == pytest.approx(2.0)
        assert report.mean_error == pytest.approx(1e-3)
        assert report.sample_count == 500

    def test_accepts_ground_truth_object(self):
        performance = make_performance({0.5: 5e-3})
        truth = make_truth([5e-3] * 100)
        report = delay_accuracy_report(performance, truth, quantiles=(0.5,))
        assert report.max_error == pytest.approx(0.0, abs=1e-9)

    def test_plain_mapping_estimates_accepted(self):
        report = delay_accuracy_report({0.9: 4e-3}, {0.9: 6e-3})
        assert report.max_error == pytest.approx(2e-3)

    def test_empty_estimates_rejected(self):
        performance = make_performance({})
        with pytest.raises(ValueError):
            delay_accuracy_report(performance, {0.5: 1e-3})

    def test_disjoint_quantiles_rejected(self):
        with pytest.raises(ValueError):
            delay_accuracy_report({0.5: 1e-3}, {0.9: 1e-3})


class TestLossGranularityReport:
    def test_report_fields(self):
        performance = make_performance({}, offered=1000, lost=100, granularity=(1.0, 2.0))
        truth = make_truth([1e-3] * 900, lost=100)
        report = loss_granularity_report(performance, truth)
        assert report.mean_granularity_seconds == pytest.approx(1.5)
        assert report.computed_loss_rate == pytest.approx(0.1)
        assert report.true_loss_rate == pytest.approx(0.1)
        assert report.loss_rate_error == pytest.approx(0.0)


class TestQuantileHelpers:
    def test_empirical_quantiles(self):
        values = np.arange(101, dtype=float)
        result = empirical_quantiles(values, (0.5, 0.9))
        assert result[0.5] == pytest.approx(50.0)
        assert result[0.9] == pytest.approx(90.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_quantiles([], (0.5,))

    def test_quantile_error(self):
        errors = quantile_error({0.5: 1.0, 0.9: 2.0}, {0.5: 1.5, 0.9: 2.0})
        assert errors == {0.5: pytest.approx(0.5), 0.9: pytest.approx(0.0)}

    def test_quantile_error_disjoint_rejected(self):
        with pytest.raises(ValueError):
            quantile_error({0.5: 1.0}, {0.9: 1.0})


class TestSLA:
    def test_compliant_domain(self):
        performance = make_performance({0.9: 5e-3}, offered=10_000, lost=5)
        sla = SLASpec(delay_bound=50e-3, delay_quantile=0.9, loss_bound=0.001)
        verdict = check_sla(performance, sla)
        assert verdict.compliant
        assert verdict.delay_compliant and verdict.loss_compliant
        assert "ok" in str(verdict)

    def test_delay_violation(self):
        performance = make_performance({0.9: 80e-3})
        sla = SLASpec(delay_bound=50e-3, delay_quantile=0.9, loss_bound=0.5)
        verdict = check_sla(performance, sla)
        assert not verdict.delay_compliant
        assert not verdict.compliant
        assert "VIOLATED" in str(verdict)

    def test_loss_violation(self):
        performance = make_performance({0.9: 1e-3}, offered=1000, lost=100)
        sla = SLASpec(delay_bound=50e-3, loss_bound=0.01)
        verdict = check_sla(performance, sla)
        assert not verdict.loss_compliant

    def test_confidence_bound_forgives_borderline_estimate(self):
        # Point estimate slightly above the bound, lower confidence bound
        # below it: with confidence bounds the verdict is compliant, without
        # them it is a violation.
        performance = make_performance({0.9: 52e-3})
        sla = SLASpec(delay_bound=50e-3, delay_quantile=0.9, loss_bound=1.0)
        assert check_sla(performance, sla, use_confidence_bounds=True).delay_compliant
        assert not check_sla(performance, sla, use_confidence_bounds=False).delay_compliant

    def test_unknown_dimensions_count_as_compliant(self):
        performance = DomainPerformance(domain="X")
        verdict = check_sla(performance, SLASpec())
        assert verdict.delay_compliant is None
        assert verdict.loss_compliant is None
        assert verdict.compliant

    def test_sla_validation(self):
        with pytest.raises(ValueError):
            SLASpec(delay_bound=-1.0)
        with pytest.raises(ValueError):
            SLASpec(loss_bound=2.0)
