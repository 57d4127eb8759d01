"""Unit tests for repro.analysis (quantiles, SLA)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.quantiles import empirical_quantiles
from repro.analysis.sla import SLASpec, check_sla
from repro.core.estimation import DelayQuantileEstimate
from repro.core.verifier import DomainPerformance


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


class TestQuantileHelpers:
    def test_empirical_quantiles(self):
        values = np.arange(101, dtype=float)
        result = empirical_quantiles(values, (0.5, 0.9))
        assert result[0.5] == pytest.approx(50.0)
        assert result[0.9] == pytest.approx(90.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_quantiles([], (0.5,))


class TestDomainPerformanceLoss:
    """The loss numbers an SLA check reads off a domain's performance."""

    def test_loss_rate_and_mean_granularity(self):
        performance = make_performance({}, offered=1000, lost=100, granularity=(1.0, 2.0))
        assert performance.loss_rate == pytest.approx(0.1)
        assert performance.mean_loss_granularity == pytest.approx(1.5)

    def test_nothing_offered_is_no_loss(self):
        performance = make_performance({}, offered=0, lost=0)
        assert performance.loss_rate == 0.0

    def test_no_aligned_aggregates_has_zero_granularity(self):
        assert make_performance({}, granularity=()).mean_loss_granularity == 0.0


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
