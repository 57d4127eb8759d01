"""Unit tests for repro.core.receipts."""

from __future__ import annotations

import pytest

from repro.core.receipts import (
    AGGREGATE_RECEIPT_BYTES,
    SAMPLE_RECORD_BYTES,
    AggregateReceipt,
    PathID,
    SampleReceipt,
    SampleRecord,
    combine_aggregate_receipts,
    combine_sample_receipts,
)
from tests.helpers import sampled_ids


@pytest.fixture()
def path_id(prefix_pair) -> PathID:
    return PathID(
        prefix_pair=prefix_pair,
        reporting_hop=4,
        previous_hop=3,
        next_hop=5,
        max_diff=1e-3,
    )


@pytest.fixture()
def other_path_id(prefix_pair) -> PathID:
    return PathID(
        prefix_pair=prefix_pair,
        reporting_hop=5,
        previous_hop=4,
        next_hop=6,
        max_diff=1e-3,
    )


class TestPathID:
    def test_requires_at_least_one_neighbor(self, prefix_pair):
        with pytest.raises(ValueError):
            PathID(
                prefix_pair=prefix_pair,
                reporting_hop=1,
                previous_hop=None,
                next_hop=None,
                max_diff=1e-3,
            )

    def test_negative_max_diff_rejected(self, prefix_pair):
        with pytest.raises(ValueError):
            PathID(
                prefix_pair=prefix_pair,
                reporting_hop=1,
                previous_hop=None,
                next_hop=2,
                max_diff=-1.0,
            )


class TestSampleReceipt:
    def test_sampled_ids_and_length(self, path_id):
        receipt = SampleReceipt(
            path_id=path_id,
            samples=(SampleRecord(pkt_id=10, time=1.0), SampleRecord(pkt_id=20, time=2.0)),
        )
        assert sampled_ids(receipt) == frozenset({10, 20})
        assert len(receipt) == 2

    def test_wire_bytes_grow_with_samples(self, path_id):
        small = SampleReceipt(path_id=path_id, samples=(SampleRecord(1, 1.0),))
        large = SampleReceipt(
            path_id=path_id, samples=tuple(SampleRecord(k, float(k)) for k in range(10))
        )
        assert large.wire_bytes - small.wire_bytes == 9 * SAMPLE_RECORD_BYTES

    def test_combine_unions_samples(self, path_id):
        first = SampleReceipt(path_id=path_id, samples=(SampleRecord(1, 1.0),))
        second = SampleReceipt(
            path_id=path_id, samples=(SampleRecord(2, 2.0), SampleRecord(1, 1.0))
        )
        combined = combine_sample_receipts([first, second])
        assert sampled_ids(combined) == frozenset({1, 2})
        assert len(combined) == 2

    def test_combine_preserves_threshold(self, path_id):
        receipt = SampleReceipt(
            path_id=path_id, samples=(SampleRecord(1, 1.0),), sampling_threshold=42
        )
        assert combine_sample_receipts([receipt]).sampling_threshold == 42

    def test_combine_requires_same_path_id(self, path_id, other_path_id):
        first = SampleReceipt(path_id=path_id)
        second = SampleReceipt(path_id=other_path_id)
        with pytest.raises(ValueError):
            combine_sample_receipts([first, second])

    def test_combine_empty_rejected(self):
        with pytest.raises(ValueError):
            combine_sample_receipts([])

    def test_combine_rejects_mismatched_sampling_threshold(self, path_id):
        first = SampleReceipt(
            path_id=path_id, samples=(SampleRecord(1, 1.0),), sampling_threshold=42
        )
        second = SampleReceipt(
            path_id=path_id, samples=(SampleRecord(2, 2.0),), sampling_threshold=43
        )
        with pytest.raises(ValueError, match="sampling"):
            combine_sample_receipts([first, second])
        # None (unpublished threshold) also differs from a concrete value.
        third = SampleReceipt(path_id=path_id, samples=(SampleRecord(3, 3.0),))
        with pytest.raises(ValueError, match="sampling"):
            combine_sample_receipts([first, third])
        # Matching thresholds still combine.
        fourth = SampleReceipt(
            path_id=path_id, samples=(SampleRecord(4, 4.0),), sampling_threshold=42
        )
        assert sampled_ids(combine_sample_receipts([first, fourth])) == frozenset({1, 4})


class TestAggregateReceipt:
    def test_basic_properties(self, path_id):
        receipt = AggregateReceipt(
            path_id=path_id,
            first_pkt_id=100,
            last_pkt_id=200,
            pkt_count=50,
            start_time=1.0,
            end_time=2.0,
            time_sum=75.0,
        )
        assert receipt.agg_id == (100, 200)
        assert receipt.duration == pytest.approx(1.0)

    def test_negative_count_rejected(self, path_id):
        with pytest.raises(ValueError):
            AggregateReceipt(path_id=path_id, first_pkt_id=1, last_pkt_id=2, pkt_count=-1)

    def test_end_before_start_rejected(self, path_id):
        with pytest.raises(ValueError):
            AggregateReceipt(
                path_id=path_id,
                first_pkt_id=1,
                last_pkt_id=2,
                pkt_count=1,
                start_time=2.0,
                end_time=1.0,
            )

    def test_wire_bytes_include_agg_trans(self, path_id):
        plain = AggregateReceipt(path_id=path_id, first_pkt_id=1, last_pkt_id=2, pkt_count=3)
        with_trans = AggregateReceipt(
            path_id=path_id,
            first_pkt_id=1,
            last_pkt_id=2,
            pkt_count=3,
            trans_before=(1, 2, 3),
            trans_after=(4,),
        )
        assert plain.wire_bytes == AGGREGATE_RECEIPT_BYTES
        assert with_trans.wire_bytes == AGGREGATE_RECEIPT_BYTES + 4 * 4

    def test_with_count_returns_modified_copy(self, path_id):
        receipt = AggregateReceipt(path_id=path_id, first_pkt_id=1, last_pkt_id=2, pkt_count=3)
        adjusted = receipt.with_count(7)
        assert adjusted.pkt_count == 7
        assert receipt.pkt_count == 3

    def test_combine_sums_counts_and_spans(self, path_id):
        first = AggregateReceipt(
            path_id=path_id, first_pkt_id=1, last_pkt_id=2, pkt_count=10,
            start_time=0.0, end_time=1.0, time_sum=5.0,
        )
        second = AggregateReceipt(
            path_id=path_id, first_pkt_id=3, last_pkt_id=4, pkt_count=20,
            start_time=1.0, end_time=2.0, time_sum=30.0,
            trans_before=(9,), trans_after=(11,),
        )
        combined = combine_aggregate_receipts([first, second])
        assert combined.pkt_count == 30
        assert combined.agg_id == (1, 4)
        assert combined.start_time == 0.0 and combined.end_time == 2.0
        assert combined.time_sum == 35.0
        assert combined.trans_before == (9,)

    def test_combine_rejects_out_of_order(self, path_id):
        first = AggregateReceipt(
            path_id=path_id, first_pkt_id=1, last_pkt_id=2, pkt_count=10,
            start_time=5.0, end_time=6.0,
        )
        second = AggregateReceipt(
            path_id=path_id, first_pkt_id=3, last_pkt_id=4, pkt_count=20,
            start_time=0.0, end_time=1.0,
        )
        with pytest.raises(ValueError):
            combine_aggregate_receipts([first, second])

    def test_combine_rejects_mixed_paths(self, path_id, other_path_id):
        first = AggregateReceipt(path_id=path_id, first_pkt_id=1, last_pkt_id=2, pkt_count=1)
        second = AggregateReceipt(
            path_id=other_path_id, first_pkt_id=3, last_pkt_id=4, pkt_count=1
        )
        with pytest.raises(ValueError):
            combine_aggregate_receipts([first, second])

    def test_combine_empty_rejected(self):
        with pytest.raises(ValueError):
            combine_aggregate_receipts([])
