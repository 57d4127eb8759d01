"""Property-based tests for receipt combination and estimation."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimation import estimate_delay_quantiles
from repro.core.receipts import (
    AggregateReceipt,
    PathID,
    SampleReceipt,
    SampleRecord,
    combine_aggregate_receipts,
    combine_sample_receipts,
)
from repro.net.hashing import MASK64
from repro.net.prefixes import OriginPrefix, PrefixPair
from tests.helpers import sampled_ids


PATH_ID = PathID(
    prefix_pair=PrefixPair(
        source=OriginPrefix.parse("10.1.0.0/16"),
        destination=OriginPrefix.parse("10.2.0.0/16"),
    ),
    reporting_hop=4,
    previous_hop=3,
    next_hop=5,
    max_diff=1e-3,
)


sample_records = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=MASK64),
        st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
    ),
    max_size=50,
)


def make_sample_receipt(records) -> SampleReceipt:
    return SampleReceipt(
        path_id=PATH_ID,
        samples=tuple(SampleRecord(pkt_id=pkt, time=time) for pkt, time in records),
    )


@st.composite
def consecutive_aggregates(draw):
    count = draw(st.integers(min_value=1, max_value=10))
    receipts = []
    clock = 0.0
    for index in range(count):
        span = draw(st.floats(min_value=0.001, max_value=1.0, allow_nan=False))
        packets = draw(st.integers(min_value=0, max_value=1000))
        receipts.append(
            AggregateReceipt(
                path_id=PATH_ID,
                first_pkt_id=index * 10,
                last_pkt_id=index * 10 + 5,
                pkt_count=packets,
                start_time=clock,
                end_time=clock + span,
                time_sum=packets * (clock + span / 2),
            )
        )
        clock += span
    return receipts


class TestReceiptCombination:
    @settings(max_examples=80, deadline=None)
    @given(sample_records, sample_records)
    def test_sample_combination_is_union(self, records_a, records_b):
        a = make_sample_receipt(records_a)
        b = make_sample_receipt(records_b)
        combined = combine_sample_receipts([a, b])
        assert sampled_ids(combined) == sampled_ids(a) | sampled_ids(b)

    @settings(max_examples=80, deadline=None)
    @given(sample_records)
    def test_sample_combination_idempotent(self, records):
        receipt = make_sample_receipt(records)
        assert sampled_ids(combine_sample_receipts([receipt, receipt])) == sampled_ids(receipt)

    @settings(max_examples=80, deadline=None)
    @given(consecutive_aggregates())
    def test_aggregate_combination_preserves_count_and_span(self, receipts):
        combined = combine_aggregate_receipts(receipts)
        assert combined.pkt_count == sum(receipt.pkt_count for receipt in receipts)
        assert combined.start_time == receipts[0].start_time
        assert combined.end_time == receipts[-1].end_time
        assert combined.first_pkt_id == receipts[0].first_pkt_id
        assert combined.last_pkt_id == receipts[-1].last_pkt_id

    @settings(max_examples=80, deadline=None)
    @given(consecutive_aggregates())
    def test_aggregate_combination_associative_in_count(self, receipts):
        if len(receipts) < 3:
            return
        left = combine_aggregate_receipts(
            [combine_aggregate_receipts(receipts[:2]), *receipts[2:]]
        )
        right = combine_aggregate_receipts(
            [receipts[0], combine_aggregate_receipts(receipts[1:])]
        )
        assert left.pkt_count == right.pkt_count
        assert left.agg_id == right.agg_id


class TestEstimationProperties:
    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            min_size=1,
            max_size=500,
        )
    )
    def test_quantile_estimates_within_sample_range_and_monotone(self, delays):
        estimates = estimate_delay_quantiles(delays, quantiles=(0.1, 0.5, 0.9))
        values = [estimates[q].estimate for q in (0.1, 0.5, 0.9)]
        assert min(delays) - 1e-12 <= values[0]
        assert values[-1] <= max(delays) + 1e-12
        assert values == sorted(values)
        for estimate in estimates.values():
            assert estimate.lower - 1e-12 <= estimate.estimate <= estimate.upper + 1e-12
