"""Unit tests for repro.core.estimation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.estimation import (
    DEFAULT_QUANTILES,
    DelayQuantileEstimate,
    delay_accuracy,
    estimate_delay_quantiles,
    match_sample_delays,
    quantile_confidence_bounds,
)
from repro.core.receipts import PathID, SampleReceipt, SampleRecord


@pytest.fixture()
def path_id(prefix_pair) -> PathID:
    return PathID(
        prefix_pair=prefix_pair, reporting_hop=4, previous_hop=3, next_hop=5, max_diff=1e-3
    )


def receipt(path_id, records) -> SampleReceipt:
    return SampleReceipt(
        path_id=path_id,
        samples=tuple(SampleRecord(pkt_id=pkt, time=time) for pkt, time in records),
    )


class TestQuantileEstimation:
    def test_point_estimates_match_numpy(self):
        rng = np.random.default_rng(1)
        delays = rng.exponential(5e-3, size=5000)
        estimates = estimate_delay_quantiles(delays, quantiles=(0.5, 0.9))
        assert estimates[0.5].estimate == pytest.approx(np.quantile(delays, 0.5))
        assert estimates[0.9].estimate == pytest.approx(np.quantile(delays, 0.9))

    def test_confidence_interval_contains_estimate(self):
        rng = np.random.default_rng(2)
        delays = rng.normal(10e-3, 2e-3, size=2000)
        for estimate in estimate_delay_quantiles(delays).values():
            assert estimate.lower <= estimate.estimate <= estimate.upper
            assert estimate.sample_count == 2000

    def test_interval_shrinks_with_more_samples(self):
        rng = np.random.default_rng(3)
        population = rng.exponential(5e-3, size=100_000)
        small = estimate_delay_quantiles(population[:100], quantiles=(0.9,))[0.9]
        large = estimate_delay_quantiles(population[:10_000], quantiles=(0.9,))[0.9]
        assert large.upper - large.lower < small.upper - small.lower

    def test_interval_covers_true_quantile_most_of_the_time(self):
        # Coverage check for the distribution-free bounds: in repeated
        # sampling, the 95% interval should contain the true quantile in
        # roughly 95% of trials (we assert > 80% to keep the test stable).
        rng = np.random.default_rng(4)
        population = rng.exponential(5e-3, size=200_000)
        true_q90 = np.quantile(population, 0.9)
        covered = 0
        trials = 100
        for _ in range(trials):
            sample = rng.choice(population, size=500, replace=False)
            estimate = estimate_delay_quantiles(sample, quantiles=(0.9,))[0.9]
            if estimate.lower <= true_q90 <= estimate.upper:
                covered += 1
        assert covered >= 0.8 * trials

    @pytest.mark.parametrize("count", [1, 2, 3, 7, 1000])
    def test_points_equal_one_quantile_call_each_bit_for_bit(self, count):
        # The estimates come from one vectorised np.quantile call; each must
        # be the exact float a per-quantile call returns.
        rng = np.random.default_rng(count)
        for scale in (1e-6, 5e-3, 1e3):
            delays = rng.exponential(scale, size=count)
            estimates = estimate_delay_quantiles(delays)
            sorted_delays = np.sort(delays)
            for quantile in DEFAULT_QUANTILES:
                expected = float(np.quantile(sorted_delays, quantile))
                assert estimates[quantile].estimate.hex() == expected.hex()

    def test_default_quantiles_used(self):
        estimates = estimate_delay_quantiles(np.linspace(0, 1, 100))
        assert set(estimates) == set(DEFAULT_QUANTILES)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            estimate_delay_quantiles([])

    def test_invalid_quantile_rejected(self):
        with pytest.raises(ValueError):
            estimate_delay_quantiles([1.0, 2.0], quantiles=(1.5,))

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            quantile_confidence_bounds(np.array([]), 0.5)
        with pytest.raises(ValueError):
            quantile_confidence_bounds(np.array([1.0]), 1.5)


class TestMatchSampleDelays:
    def test_matches_common_packets_only(self, path_id):
        ingress = receipt(path_id, [(1, 1.0), (2, 2.0), (3, 3.0)])
        egress = receipt(path_id, [(1, 1.010), (3, 3.020), (9, 9.0)])
        delays = match_sample_delays(ingress, egress)
        assert sorted(delays.tolist()) == pytest.approx([0.010, 0.020])

    def test_empty_overlap_gives_empty_array(self, path_id):
        ingress = receipt(path_id, [(1, 1.0)])
        egress = receipt(path_id, [(2, 2.0)])
        assert match_sample_delays(ingress, egress).size == 0

    def test_negative_delays_preserved(self, path_id):
        ingress = receipt(path_id, [(1, 1.0)])
        egress = receipt(path_id, [(1, 0.9)])
        assert match_sample_delays(ingress, egress).tolist() == pytest.approx([-0.1])


class TestDelayAccuracy:
    def test_accuracy_is_max_error(self):
        estimated = {0.5: 1.0e-3, 0.9: 5.0e-3}
        truth = {0.5: 1.5e-3, 0.9: 4.0e-3}
        assert delay_accuracy(estimated, truth) == pytest.approx(1.0e-3)

    def test_accepts_estimate_objects(self):
        estimated = {
            0.9: DelayQuantileEstimate(
                quantile=0.9, estimate=5e-3, lower=4e-3, upper=6e-3, sample_count=10
            )
        }
        assert delay_accuracy(estimated, {0.9: 7e-3}) == pytest.approx(2e-3)

    def test_disjoint_quantiles_rejected(self):
        with pytest.raises(ValueError):
            delay_accuracy({0.5: 1.0}, {0.9: 2.0})

    def test_empty_estimates_rejected(self):
        with pytest.raises(ValueError):
            delay_accuracy({}, {0.5: 1e-3})
