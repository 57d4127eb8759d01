"""Property-based tests for receipt alignment under loss, and for the traffic
models (loss/reordering) whose guarantees the protocol depends on."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregation import Aggregator, AggregatorConfig
from repro.core.partition import aligned_aggregates
from repro.core.receipts import PathID
from repro.net.hashing import MASK64
from repro.net.prefixes import OriginPrefix, PrefixPair
from repro.traffic.loss_models import GilbertElliottLossModel
from repro.traffic.reordering import WindowReordering

from tests.oracle.collectors import ReferenceAggregator
from tests.oracle.objects import reorder


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


def aggregate_stream(digests, times, expected_size):
    """The flushed receipts of one batch; the per-packet reference must agree."""
    config = AggregatorConfig(expected_aggregate_size=expected_size)
    aggregator = Aggregator(config)
    aggregator.observe_batch(np.array(digests, dtype=np.uint64), times)
    aggregator.flush()
    reference = ReferenceAggregator(config)
    reference.observe_all(digests, times)
    reference.flush()
    assert aggregator.state_digest() == reference.state_digest()
    return aggregator.receipts(PATH_ID)


class TestAlignmentUnderLoss:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=50, max_value=400),
        st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
        st.integers(min_value=5, max_value=50),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_alignment_computes_exact_loss_without_reordering(
        self, count, loss_rate, expected_size, seed
    ):
        """For any loss pattern (no reordering), the aligned aggregate counts
        account for exactly the packets dropped between the two HOPs."""
        rng = np.random.default_rng(seed)
        digests = [int(v) for v in rng.integers(0, MASK64, size=count, dtype=np.uint64)]
        times = np.arange(count) * 1e-5
        upstream = aggregate_stream(digests, times, expected_size)

        keep = rng.random(count) >= loss_rate
        downstream_digests = [d for d, kept in zip(digests, keep) if kept]
        downstream_times = times[keep] + 1e-3
        downstream = aggregate_stream(downstream_digests, downstream_times, expected_size)

        pairs = aligned_aggregates(upstream, downstream)
        if not downstream_digests:
            # Everything was lost; there is nothing to align against.
            assert len(downstream) == 0
            return
        total_up = sum(pair.upstream.pkt_count for pair in pairs)
        total_down = sum(pair.downstream.pkt_count for pair in pairs)
        assert total_up == count
        assert total_down == len(downstream_digests)
        assert sum(pair.lost_packets for pair in pairs) == count - len(downstream_digests)
        # Per-aggregate loss is never negative without reordering.
        assert all(pair.lost_packets >= 0 for pair in pairs)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=100, max_value=400),
        st.integers(min_value=5, max_value=30),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_join_never_finer_than_either_input(self, count, expected_size, seed):
        rng = np.random.default_rng(seed)
        digests = [int(v) for v in rng.integers(0, MASK64, size=count, dtype=np.uint64)]
        times = np.arange(count) * 1e-5
        upstream = aggregate_stream(digests, times, expected_size)
        keep = rng.random(count) >= 0.25
        downstream = aggregate_stream(
            [d for d, kept in zip(digests, keep) if kept], times[keep], expected_size
        )
        pairs = aligned_aggregates(upstream, downstream)
        assert len(pairs) <= len(upstream)
        assert len(pairs) <= max(len(downstream), 1)


class TestModelGuarantees:
    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=0.6, allow_nan=False),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_gilbert_elliott_long_run_rate(self, target, seed):
        model = GilbertElliottLossModel.from_target_rate(target, seed=seed)
        drops = sum(model.drops(index) for index in range(5000))
        assert abs(drops / 5000 - target) < 0.12

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=2, max_value=500),
        st.floats(min_value=1e-5, max_value=1e-3, allow_nan=False),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_window_reordering_is_permutation_with_sorted_times(
        self, count, window, probability, seed
    ):
        arrivals = np.cumsum(np.full(count, 2e-5))
        order, times = reorder(
            WindowReordering(window=window, reorder_probability=probability, seed=seed),
            arrivals,
        )
        assert sorted(order.tolist()) == list(range(count))
        assert np.all(np.diff(times) >= 0)
        # Displacement bound: a packet never moves ahead of one sent more
        # than `window` later.
        positions = np.empty(count, dtype=int)
        positions[order] = np.arange(count)
        for index in range(count):
            earlier_original = order[: positions[index]]
            if len(earlier_original):
                assert arrivals[earlier_original].max() <= arrivals[index] + window + 1e-12
