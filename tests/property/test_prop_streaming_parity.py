"""Property tests for chunk-size invariance of collector state and traces.

The streaming engine feeds every collector the whole-run observation stream
one chunk at a time, so it rests on two facts, each hammered here with
hypothesis-generated streams and arbitrary chunk boundaries:

* **chunked feed == whole feed** — one sampler/aggregator/collector fed a
  stream in arbitrary chunks ends up in bit-identical state
  (``state_digest``) and emits identical receipts to one fed the whole
  stream in a single call, and to the per-packet reference of
  :mod:`tests.oracle.collectors`;
* **state survives pickling at every chunk boundary** — round-tripping a
  sampler/aggregator/collector through :mod:`pickle` between chunks (what a
  mid-interval :class:`RunnerCheckpoint` does) changes nothing downstream;
* **trace chunking is invariant** — ``SyntheticTrace.iter_batches`` yields
  chunks whose concatenation equals ``packet_batch()`` for every chunk size.

``time_sum`` is covered by the ``state_digest`` comparison at its documented
10-significant-digit tolerance; every other quantity is exact.
"""

from __future__ import annotations

import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregation import Aggregator, AggregatorConfig
from repro.core.hop import HOPCollector, HOPConfig
from repro.core.receipts import PathID
from repro.core.sampling import DelaySampler, SamplerConfig
from repro.net.hashing import MASK64
from repro.net.topology import figure1_topology
from repro.traffic.trace import SyntheticTrace, TraceConfig, default_prefix_pair

from tests.oracle.collectors import ReferenceAggregator, ReferenceSampler


def _path_id() -> PathID:
    return PathID(
        prefix_pair=default_prefix_pair(),
        reporting_hop=2,
        previous_hop=1,
        next_hop=3,
        max_diff=1e-3,
    )


@st.composite
def digest_time_stream(draw, max_size=400):
    """A (digests, sorted times) stream plus chunk boundaries (>= 2 chunks)."""
    size = draw(st.integers(min_value=0, max_value=max_size))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    digests = rng.integers(0, MASK64, size=size, dtype=np.uint64)
    # Quantized times produce exact duplicates, including across split
    # boundaries — the nastiest case for stable tie-breaking.
    if draw(st.booleans()):
        times = np.sort(rng.integers(0, max(1, size // 3) + 1, size=size) * 2.5e-4)
    else:
        times = np.sort(rng.random(size) * 0.2)
    part_count = draw(st.integers(min_value=2, max_value=5))
    boundaries = sorted(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=size),
                min_size=part_count - 1,
                max_size=part_count - 1,
            )
        )
    )
    bounds = [0] + boundaries + [size]
    return digests, times, bounds


class TestSamplerChunking:
    @settings(max_examples=60, deadline=None)
    @given(digest_time_stream())
    def test_chunked_feed_equals_whole_feed(self, stream):
        digests, times, bounds = stream
        config = SamplerConfig(sampling_rate=0.4, marker_rate=0.08)
        whole = DelaySampler(config)
        whole.observe_batch(digests, times)
        reference = ReferenceSampler(config)
        reference.observe_all(digests, times)

        chunked = DelaySampler(config)
        for start, stop in zip(bounds, bounds[1:]):
            chunked.observe_batch(digests[start:stop], times[start:stop])

        assert chunked.state_digest() == whole.state_digest() == reference.state_digest()
        assert chunked.max_buffer_occupancy == reference.max_buffer_occupancy
        path_id = _path_id()
        assert chunked.receipt(path_id) == whole.receipt(path_id) == reference.receipt(path_id)


    @settings(max_examples=40, deadline=None)
    @given(digest_time_stream())
    def test_pickled_between_chunks_resumes_identically(self, stream):
        digests, times, bounds = stream
        config = SamplerConfig(sampling_rate=0.4, marker_rate=0.08)
        plain = DelaySampler(config)
        resumed = DelaySampler(config)
        for start, stop in zip(bounds, bounds[1:]):
            plain.observe_batch(digests[start:stop], times[start:stop])
            resumed.observe_batch(digests[start:stop], times[start:stop])
            resumed = pickle.loads(pickle.dumps(resumed))

        assert resumed.state_digest() == plain.state_digest()
        path_id = _path_id()
        assert resumed.receipt(path_id) == plain.receipt(path_id)


class TestAggregatorChunking:
    @settings(max_examples=60, deadline=None)
    @given(
        digest_time_stream(),
        st.sampled_from([0.0, 2.5e-4, 1e-3, 1e-2]),
        st.integers(min_value=2, max_value=40),
    )
    def test_chunked_feed_equals_whole_feed(self, stream, window, agg_size):
        digests, times, bounds = stream
        config = AggregatorConfig(expected_aggregate_size=agg_size, reorder_window=window)
        whole = Aggregator(config)
        whole.observe_batch(digests, times)
        per_packet = ReferenceAggregator(config)
        per_packet.observe_all(digests, times)

        chunked = Aggregator(config)
        for start, stop in zip(bounds, bounds[1:]):
            chunked.observe_batch(digests[start:stop], times[start:stop])

        assert chunked.state_digest() == whole.state_digest() == per_packet.state_digest()

        # Receipts (including AggTrans windows and order) must agree; time_sum
        # at its documented tolerance.
        path_id = _path_id()
        whole.flush()
        chunked.flush()
        per_packet.flush()
        whole_receipts = whole.receipts(path_id)
        chunked_receipts = chunked.receipts(path_id)
        assert len(chunked_receipts) == len(whole_receipts)
        assert [receipt.agg_id for receipt in per_packet.receipts(path_id)] == [
            receipt.agg_id for receipt in whole_receipts
        ]
        for mine, reference in zip(chunked_receipts, whole_receipts):
            assert mine.agg_id == reference.agg_id
            assert mine.pkt_count == reference.pkt_count
            assert mine.start_time == reference.start_time
            assert mine.end_time == reference.end_time
            assert mine.trans_before.tolist() == reference.trans_before.tolist()
            assert mine.trans_after.tolist() == reference.trans_after.tolist()
            assert np.isclose(mine.time_sum, reference.time_sum, rtol=1e-9, atol=1e-12)


    @settings(max_examples=40, deadline=None)
    @given(digest_time_stream(), st.sampled_from([0.0, 1e-3, 1e-2]))
    def test_pickled_between_chunks_resumes_identically(self, stream, window):
        digests, times, bounds = stream
        config = AggregatorConfig(expected_aggregate_size=7, reorder_window=window)
        plain = Aggregator(config)
        resumed = Aggregator(config)
        for start, stop in zip(bounds, bounds[1:]):
            plain.observe_batch(digests[start:stop], times[start:stop])
            resumed.observe_batch(digests[start:stop], times[start:stop])
            resumed = pickle.loads(pickle.dumps(resumed))

        assert resumed.state_digest() == plain.state_digest()
        plain.flush()
        resumed.flush()
        path_id = _path_id()
        assert resumed.receipts(path_id) == plain.receipts(path_id)


class TestCollectorChunking:
    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=2, max_value=4),
    )
    def test_collector_chunked_feed_equals_whole(self, seed, parts):
        _, path = figure1_topology()
        hop = path.hops[1]
        config = HOPConfig(
            sampler=SamplerConfig(sampling_rate=0.3, marker_rate=0.05),
            aggregator=AggregatorConfig(expected_aggregate_size=50),
        )
        trace = SyntheticTrace(config=TraceConfig(packet_count=600), seed=seed)
        batch = trace.packet_batch()

        whole = HOPCollector(hop, config)
        whole.register_path(path)
        whole.observe_batch(batch, batch.send_time)

        rng = np.random.default_rng(seed)
        boundaries = sorted(int(value) for value in rng.integers(0, 601, size=parts - 1))
        bounds = [0] + boundaries + [600]
        chunked = HOPCollector(hop, config)
        chunked.register_path(path)
        for start, stop in zip(bounds, bounds[1:]):
            span = batch.take(np.arange(start, stop))
            chunked.observe_batch(span, span.send_time)

        assert chunked.state_digest() == whole.state_digest()
        assert chunked.observed_packets == whole.observed_packets
        assert chunked.observed_bytes == whole.observed_bytes

    @settings(max_examples=10, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=2, max_value=4),
    )
    def test_collector_pickled_between_chunks_resumes_identically(self, seed, parts):
        _, path = figure1_topology()
        hop = path.hops[1]
        config = HOPConfig(
            sampler=SamplerConfig(sampling_rate=0.3, marker_rate=0.05),
            aggregator=AggregatorConfig(expected_aggregate_size=50),
        )
        batch = SyntheticTrace(config=TraceConfig(packet_count=600), seed=seed).packet_batch()
        rng = np.random.default_rng(seed)
        boundaries = sorted(int(value) for value in rng.integers(0, 601, size=parts - 1))
        bounds = [0] + boundaries + [600]

        plain = HOPCollector(hop, config)
        plain.register_path(path)
        resumed = HOPCollector(hop, config)
        resumed.register_path(path)
        for start, stop in zip(bounds, bounds[1:]):
            span = batch.take(np.arange(start, stop))
            plain.observe_batch(span, span.send_time)
            resumed.observe_batch(span, span.send_time)
            resumed = pickle.loads(pickle.dumps(resumed))

        assert resumed.state_digest() == plain.state_digest()
        assert resumed.observed_packets == plain.observed_packets
        assert resumed.observed_bytes == plain.observed_bytes


class TestTraceChunking:
    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=900),
        st.sampled_from(["poisson", "cbr", "mmpp"]),
    )
    def test_iter_batches_concat_equals_packet_batch(self, seed, chunk_size, process):
        config = TraceConfig(packet_count=800, arrival_process=process)
        full = SyntheticTrace(config=config, seed=seed).packet_batch()
        parts = list(SyntheticTrace(config=config, seed=seed).iter_batches(chunk_size))
        assert sum(len(part) for part in parts) == len(full)
        for column in (
            "src_ip", "dst_ip", "src_port", "dst_port", "protocol",
            "ip_id", "length", "uid", "send_time", "flow_id",
        ):
            concatenated = np.concatenate([getattr(part, column) for part in parts])
            assert np.array_equal(concatenated, getattr(full, column)), column
        assert np.array_equal(
            np.concatenate([part.payload for part in parts]), full.payload
        )
