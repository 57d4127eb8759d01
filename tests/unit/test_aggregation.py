"""Unit tests for repro.core.aggregation (Algorithm 2 + AggTrans)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.aggregation import Aggregator, AggregatorConfig
from repro.core.receipts import PathID
from repro.net.hashing import MASK64, threshold_for_rate


@pytest.fixture()
def path_id(prefix_pair) -> PathID:
    return PathID(
        prefix_pair=prefix_pair, reporting_hop=4, previous_hop=3, next_hop=5, max_diff=1e-3
    )


def synthetic_digests(count: int, seed: int = 0) -> list[int]:
    rng = np.random.default_rng(seed)
    return [int(value) for value in rng.integers(0, MASK64, size=count, dtype=np.uint64)]


def drive(aggregator: Aggregator, digests: list[int], gap: float = 1e-5) -> None:
    for index, digest in enumerate(digests):
        aggregator.observe(digest, index * gap)


class TestAggregatorConfig:
    def test_partition_rate_inverse_of_size(self):
        config = AggregatorConfig(expected_aggregate_size=1000)
        assert config.partition_rate == pytest.approx(1e-3)
        assert config.partition_threshold == threshold_for_rate(1e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            AggregatorConfig(expected_aggregate_size=0)
        with pytest.raises(ValueError):
            AggregatorConfig(reorder_window=-1.0)


class TestAggregator:
    def test_counts_every_packet_exactly_once(self, path_id):
        aggregator = Aggregator(AggregatorConfig(expected_aggregate_size=100))
        digests = synthetic_digests(5000, seed=1)
        drive(aggregator, digests)
        aggregator.flush()
        receipts = aggregator.receipts(path_id)
        assert sum(receipt.pkt_count for receipt in receipts) == 5000

    def test_aggregate_sizes_near_expected(self, path_id):
        aggregator = Aggregator(AggregatorConfig(expected_aggregate_size=200))
        digests = synthetic_digests(40_000, seed=2)
        drive(aggregator, digests)
        aggregator.flush()
        receipts = aggregator.receipts(path_id)
        mean_size = np.mean([receipt.pkt_count for receipt in receipts])
        assert mean_size == pytest.approx(200, rel=0.3)

    def test_cutting_packet_starts_new_aggregate(self, path_id):
        aggregator = Aggregator(AggregatorConfig(expected_aggregate_size=10))
        low = 100  # never a cut for size-10 threshold
        aggregator.observe(low, 0.0)
        aggregator.observe(low + 1, 1e-5)
        cut = MASK64  # certainly a cut
        aggregator.observe(cut, 2e-5)
        aggregator.flush()
        receipts = aggregator.receipts(path_id)
        assert len(receipts) == 2
        assert receipts[0].pkt_count == 2
        assert receipts[1].first_pkt_id == cut

    def test_receipt_timestamps_and_time_sum(self, path_id):
        aggregator = Aggregator(AggregatorConfig(expected_aggregate_size=1_000_000))
        times = [0.0, 0.5, 1.0]
        for digest, time in zip((1, 2, 3), times):
            aggregator.observe(digest, time)
        aggregator.flush()
        receipt = aggregator.receipts(path_id)[0]
        assert receipt.start_time == 0.0
        assert receipt.end_time == 1.0
        assert receipt.time_sum == pytest.approx(1.5)
        assert receipt.time_sum / receipt.pkt_count == pytest.approx(0.5)

    def test_agg_trans_windows_populated(self, path_id):
        config = AggregatorConfig(expected_aggregate_size=10, reorder_window=1e-3)
        aggregator = Aggregator(config)
        # 5 low-digest packets, a cut, then 5 more low packets, all within J.
        for index in range(5):
            aggregator.observe(10 + index, index * 1e-4)
        aggregator.observe(MASK64, 5e-4)
        for index in range(5):
            aggregator.observe(20 + index, 6e-4 + index * 1e-4)
        aggregator.flush()
        receipts = aggregator.receipts(path_id)
        first = receipts[0]
        assert set(first.trans_before) == {10, 11, 12, 13, 14}
        assert MASK64 in first.trans_after
        assert {20, 21, 22, 23}.issubset(set(first.trans_after))

    def test_agg_trans_respects_window(self, path_id):
        config = AggregatorConfig(expected_aggregate_size=10, reorder_window=1e-4)
        aggregator = Aggregator(config)
        aggregator.observe(1, 0.0)        # far before the cut: outside window
        aggregator.observe(2, 0.00095)    # within J of the cut
        aggregator.observe(MASK64, 0.001) # the cut
        aggregator.observe(3, 0.0011)     # within J after
        aggregator.observe(4, 0.01)       # far after: outside window
        aggregator.flush()
        first = aggregator.receipts(path_id)[0]
        assert 1 not in first.trans_before
        assert 2 in first.trans_before
        assert 3 in first.trans_after
        assert 4 not in first.trans_after

    def test_receipts_finalized_only_after_window_elapses(self, path_id):
        config = AggregatorConfig(expected_aggregate_size=10, reorder_window=1e-3)
        aggregator = Aggregator(config)
        aggregator.observe(1, 0.0)
        aggregator.observe(MASK64, 1e-4)  # cut; closing receipt stays pending
        assert aggregator.receipts(path_id, reset=False) == []
        aggregator.observe(2, 2e-3)  # more than J later: pending finalizes
        receipts = aggregator.receipts(path_id)
        assert len(receipts) == 1
        assert receipts[0].pkt_count == 1

    def test_flush_reports_partial_aggregate(self, path_id):
        aggregator = Aggregator(AggregatorConfig(expected_aggregate_size=1_000_000))
        drive(aggregator, [1, 2, 3])
        assert aggregator.receipts(path_id, reset=False) == []
        aggregator.flush()
        receipts = aggregator.receipts(path_id)
        assert len(receipts) == 1
        assert receipts[0].pkt_count == 3

    def test_flush_idempotent_when_empty(self, path_id):
        aggregator = Aggregator()
        aggregator.flush()
        assert aggregator.receipts(path_id) == []

    def test_constant_state_per_aggregate(self):
        # The open-aggregate state must not grow with aggregate size (only the
        # J-bounded sliding window may hold per-packet state).
        config = AggregatorConfig(expected_aggregate_size=10**9, reorder_window=1e-4)
        aggregator = Aggregator(config)
        drive(aggregator, synthetic_digests(20_000, seed=3), gap=1e-5)
        # Window is 1e-4 s at 1e-5 s spacing -> at most ~11 packets retained.
        assert aggregator._max_window_occupancy <= 12

    def test_counters(self, path_id):
        aggregator = Aggregator(AggregatorConfig(expected_aggregate_size=50))
        drive(aggregator, synthetic_digests(2000, seed=4))
        assert aggregator.observed_packets == 2000
        assert aggregator._cut_count > 10

    def test_invalid_digest_rejected(self):
        with pytest.raises(ValueError):
            Aggregator().observe(-5, 0.0)

    def test_repr(self):
        assert "expected_aggregate_size" in repr(Aggregator())


class TestPartitionNesting:
    def test_lower_threshold_cuts_superset_of_points(self, path_id):
        """Section 6.2: partitions from different thresholds never partially overlap."""
        digests = synthetic_digests(30_000, seed=5)
        coarse = Aggregator(AggregatorConfig(expected_aggregate_size=2000))
        fine = Aggregator(AggregatorConfig(expected_aggregate_size=200))
        drive(coarse, digests)
        drive(fine, digests)
        coarse.flush()
        fine.flush()
        coarse_cuts = {
            receipt.first_pkt_id for receipt in coarse.receipts(path_id)[1:]
        }
        fine_cuts = {receipt.first_pkt_id for receipt in fine.receipts(path_id)[1:]}
        assert coarse_cuts <= fine_cuts
        assert len(fine_cuts) > len(coarse_cuts)

    def test_identical_thresholds_identical_partitions(self, path_id):
        digests = synthetic_digests(10_000, seed=6)
        first = Aggregator(AggregatorConfig(expected_aggregate_size=500))
        second = Aggregator(AggregatorConfig(expected_aggregate_size=500))
        drive(first, digests)
        drive(second, digests, gap=2e-5)
        first.flush()
        second.flush()
        first_counts = [receipt.pkt_count for receipt in first.receipts(path_id)]
        second_counts = [receipt.pkt_count for receipt in second.receipts(path_id)]
        assert first_counts == second_counts
