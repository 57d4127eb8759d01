"""Unit tests for repro.net.link."""

from __future__ import annotations

import pytest

from repro.net.link import InterDomainLink, LinkSpec


class TestLinkSpec:
    def test_defaults_are_sane(self):
        spec = LinkSpec()
        assert spec.max_diff > 0
        assert spec.nominal_delay < spec.max_diff

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            LinkSpec(max_diff=-1.0)
        with pytest.raises(ValueError):
            LinkSpec(nominal_delay=-1.0)


class TestInterDomainLink:
    def test_healthy_link_delivers_everything(self):
        link = InterDomainLink(seed=1)
        results = [link.transfer(float(index)) for index in range(100)]
        assert all(result is not None for result in results)

    def test_healthy_link_applies_nominal_delay(self):
        link = InterDomainLink(spec=LinkSpec(nominal_delay=200e-6), seed=1)
        assert link.transfer(1.0) == pytest.approx(1.0 + 200e-6)

    def test_lossy_link_drops_roughly_at_rate(self):
        link = InterDomainLink(loss_rate=0.3, seed=2)
        outcomes = [link.transfer(0.0) for _ in range(5000)]
        drop_fraction = sum(1 for outcome in outcomes if outcome is None) / 5000
        assert drop_fraction == pytest.approx(0.3, abs=0.05)

    def test_excess_delay_added(self):
        link = InterDomainLink(
            spec=LinkSpec(nominal_delay=100e-6), excess_delay=2e-3, seed=3
        )
        assert link.transfer(0.0) == pytest.approx(100e-6 + 2e-3)

    def test_jitter_never_negative_delay(self):
        link = InterDomainLink(spec=LinkSpec(nominal_delay=50e-6), jitter_std=1e-4, seed=4)
        for index in range(200):
            arrival = link.transfer(float(index))
            assert arrival is not None
            assert arrival >= index + 50e-6

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            InterDomainLink(loss_rate=1.5)
        with pytest.raises(ValueError):
            InterDomainLink(excess_delay=-1.0)
        with pytest.raises(ValueError):
            InterDomainLink(jitter_std=-1.0)
