"""Property-based tests for the core sampling and aggregation algorithms.

These validate the invariants the protocol's verifiability and tunability
arguments rest on, over arbitrary digest streams and threshold choices:

* superset nesting of sampled sets across sampling rates (Section 5.2);
* insensitivity of the sampled set to local timestamps (only digests matter);
* cut-point nesting and packet-count conservation for aggregation (Section 6.2).

Every stream is fed as one batch, and the per-packet reference of
:mod:`tests.oracle.collectors` must reach the same state on it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregation import Aggregator, AggregatorConfig
from repro.core.receipts import PathID
from repro.core.sampling import DelaySampler, SamplerConfig
from repro.net.hashing import MASK64
from repro.net.prefixes import OriginPrefix, PrefixPair
from tests.helpers import sampled_ids
from tests.oracle.collectors import ReferenceAggregator, ReferenceSampler


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

digest_streams = st.lists(
    st.integers(min_value=0, max_value=MASK64), min_size=1, max_size=400
)
rates = st.floats(min_value=0.001, max_value=1.0, allow_nan=False)


def stream_times(digests, time_offset=0.0) -> np.ndarray:
    return time_offset + np.arange(len(digests)) * 1e-5


def run_sampler(digests, sampling_rate, marker_rate=0.05, time_offset=0.0):
    config = SamplerConfig(sampling_rate=sampling_rate, marker_rate=marker_rate)
    times = stream_times(digests, time_offset)
    sampler = DelaySampler(config)
    sampler.observe_batch(np.array(digests, dtype=np.uint64), times)
    reference = ReferenceSampler(config)
    reference.observe_all(digests, times)
    assert sampler.max_buffer_occupancy == reference.max_buffer_occupancy
    receipt = sampler.receipt(PATH_ID)
    assert receipt == reference.receipt(PATH_ID)
    return receipt


def run_aggregator(digests, expected_size, time_offset=0.0):
    config = AggregatorConfig(expected_aggregate_size=expected_size)
    times = stream_times(digests, time_offset)
    aggregator = Aggregator(config)
    aggregator.observe_batch(np.array(digests, dtype=np.uint64), times)
    aggregator.flush()
    reference = ReferenceAggregator(config)
    reference.observe_all(digests, times)
    reference.flush()
    assert aggregator.state_digest() == reference.state_digest()
    # The reference sums each aggregate's times packet by packet, so every
    # mean lies inside its aggregate's span exactly.
    for receipt in reference.receipts(PATH_ID):
        mean_time = receipt.time_sum / receipt.pkt_count
        assert receipt.start_time <= mean_time <= receipt.end_time
    return aggregator.receipts(PATH_ID)


class TestSamplingProperties:
    @settings(max_examples=60, deadline=None)
    @given(digest_streams, rates, rates)
    def test_sampled_sets_nest_across_rates(self, digests, rate_a, rate_b):
        """The HOP with the higher sampling rate samples a superset."""
        low, high = sorted((rate_a, rate_b))
        low_ids = sampled_ids(run_sampler(digests, low))
        high_ids = sampled_ids(run_sampler(digests, high))
        assert low_ids <= high_ids

    @settings(max_examples=60, deadline=None)
    @given(digest_streams, rates)
    def test_sampled_set_independent_of_clock(self, digests, rate):
        """Two HOPs with arbitrary clock offsets sample the same packets."""
        assert (
            sampled_ids(run_sampler(digests, rate, time_offset=0.0))
            == sampled_ids(run_sampler(digests, rate, time_offset=123.456))
        )

    @settings(max_examples=60, deadline=None)
    @given(digest_streams, rates)
    def test_markers_always_sampled(self, digests, rate):
        config = SamplerConfig(sampling_rate=rate, marker_rate=0.05)
        sampler = DelaySampler(config)
        is_marker = sampler.observe_batch(np.array(digests, dtype=np.uint64), stream_times(digests))
        markers = [digest for digest, marker in zip(digests, is_marker) if marker]
        sampled = sampled_ids(sampler.receipt(PATH_ID))
        assert set(markers) <= sampled

    @settings(max_examples=60, deadline=None)
    @given(digest_streams, rates)
    def test_reported_samples_are_observed_packets(self, digests, rate):
        sampled = sampled_ids(run_sampler(digests, rate))
        assert sampled <= set(digests)

    @settings(max_examples=40, deadline=None)
    @given(digest_streams)
    def test_buffer_never_reports_before_marker(self, digests):
        """Packets observed after the last marker are never reported."""
        config = SamplerConfig(sampling_rate=1.0, marker_rate=0.05)
        sampler = DelaySampler(config)
        sampler.observe_batch(np.array(digests, dtype=np.uint64), stream_times(digests))
        marker_threshold = config.marker_threshold
        last_marker_position = max(
            (index for index, digest in enumerate(digests) if digest > marker_threshold),
            default=-1,
        )
        reported = sampled_ids(sampler.receipt(PATH_ID))
        tail = set(digests[last_marker_position + 1 :])
        tail_only = tail - set(digests[: last_marker_position + 1])
        assert not (reported & tail_only)


class TestAggregationProperties:
    @settings(max_examples=60, deadline=None)
    @given(digest_streams, st.integers(min_value=1, max_value=1000))
    def test_counts_conserved(self, digests, expected_size):
        receipts = run_aggregator(digests, expected_size)
        assert sum(receipt.pkt_count for receipt in receipts) == len(digests)

    @settings(max_examples=60, deadline=None)
    @given(digest_streams, st.integers(min_value=1, max_value=1000))
    def test_aggregates_are_contiguous_in_time(self, digests, expected_size):
        receipts = run_aggregator(digests, expected_size)
        for earlier, later in zip(receipts, receipts[1:]):
            assert earlier.end_time <= later.start_time + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        digest_streams,
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=1, max_value=50),
    )
    def test_cut_points_nest_across_aggregate_sizes(self, digests, size_a, size_b):
        """The HOP with the smaller expected aggregate size cuts a superset."""
        small, large = sorted((size_a, size_b))
        fine = run_aggregator(digests, small)
        coarse = run_aggregator(digests, large)
        fine_cuts = {receipt.first_pkt_id for receipt in fine[1:]}
        coarse_cuts = {receipt.first_pkt_id for receipt in coarse[1:]}
        assert coarse_cuts <= fine_cuts

    @settings(max_examples=60, deadline=None)
    @given(digest_streams, st.integers(min_value=1, max_value=1000))
    def test_partition_independent_of_clock(self, digests, expected_size):
        base = run_aggregator(digests, expected_size, time_offset=0.0)
        shifted = run_aggregator(digests, expected_size, time_offset=500.0)
        assert [receipt.pkt_count for receipt in base] == [
            receipt.pkt_count for receipt in shifted
        ]

    @settings(max_examples=60, deadline=None)
    @given(digest_streams, st.integers(min_value=1, max_value=1000))
    def test_time_sum_consistent_with_span(self, digests, expected_size):
        """Each aggregate's mean time lies inside its span (on the reference,
        which ``run_aggregator`` checks; the batch path is the known failure
        below)."""
        run_aggregator(digests, expected_size)

    @pytest.mark.xfail(
        strict=True,
        reason="Aggregator.observe_batch sums an aggregate's times as differences "
        "of one batch-wide cumsum, so a one-packet aggregate's mean can leave its "
        "span; fixing it changes receipt bytes and needs a receipt format version",
    )
    def test_batch_time_sum_consistent_with_span(self):
        for receipt in run_aggregator([0, 0, 1], 1):
            mean_time = receipt.time_sum / receipt.pkt_count
            assert receipt.start_time <= mean_time <= receipt.end_time
