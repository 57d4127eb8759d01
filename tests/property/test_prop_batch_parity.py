"""Property tests: the vectorized batch paths are bit-identical to their references.

The scalar hash kernels and the per-packet reference collectors of
:mod:`tests.oracle.collectors` are the oracles for the NumPy batch kernels and
the batch collector pipeline.  These tests drive both with random inputs —
the batch side in random chunkings, including one-packet chunks — and require
identical results: hashes, digests, marker decisions, sampled records,
cutting points and AggTrans windows are compared exactly; only an aggregate's
``time_sum`` (a float accumulation whose summation order legitimately
differs) is compared to within float tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregation import Aggregator, AggregatorConfig
from repro.core.receipts import PathID
from repro.core.sampling import DelaySampler, SamplerConfig
from repro.net.hashing import (
    MASK32,
    MASK64,
    PacketDigester,
    bob_hash,
    bob_hash_batch,
    combine64,
    combine64_batch,
    fnv1a_64,
    fnv1a_64_batch,
    splitmix64,
    splitmix64_batch,
)
from repro.net.packet import Packet, PacketHeaders
from repro.traffic.trace import default_prefix_pair

from tests.helpers import batch_from_packets
from tests.oracle.collectors import ReferenceAggregator, ReferenceSampler

uint64 = st.integers(min_value=0, max_value=MASK64)


def byte_matrix(draw, max_rows: int = 40, max_cols: int = 40) -> np.ndarray:
    rows = draw(st.integers(min_value=1, max_value=max_rows))
    cols = draw(st.integers(min_value=0, max_value=max_cols))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return np.random.default_rng(seed).integers(0, 256, size=(rows, cols), dtype=np.uint8)


class TestKernelParity:
    @given(st.data(), st.integers(min_value=0, max_value=MASK32))
    def test_bob_hash_batch_matches_scalar(self, data, initval):
        matrix = byte_matrix(data.draw)
        batch = bob_hash_batch(matrix, initval)
        scalar = np.asarray(
            [bob_hash(row.tobytes(), initval) for row in matrix], dtype=np.uint64
        )
        assert np.array_equal(batch, scalar)

    @given(st.data())
    def test_fnv_batch_matches_scalar(self, data):
        matrix = byte_matrix(data.draw)
        batch = fnv1a_64_batch(matrix)
        scalar = np.asarray([fnv1a_64(row.tobytes()) for row in matrix], dtype=np.uint64)
        assert np.array_equal(batch, scalar)

    @given(st.lists(uint64, min_size=1, max_size=100))
    def test_splitmix_batch_matches_scalar(self, values):
        array = np.asarray(values, dtype=np.uint64)
        assert np.array_equal(
            splitmix64_batch(array),
            np.asarray([splitmix64(value) for value in values], dtype=np.uint64),
        )

    @given(st.lists(st.tuples(uint64, uint64), min_size=1, max_size=100))
    def test_combine_batch_matches_scalar(self, pairs):
        first = np.asarray([pair[0] for pair in pairs], dtype=np.uint64)
        second = np.asarray([pair[1] for pair in pairs], dtype=np.uint64)
        expected = np.asarray(
            [combine64(a, b) for a, b in pairs], dtype=np.uint64
        )
        assert np.array_equal(combine64_batch(first, second), expected)


def random_packets(seed: int, count: int, payload_bytes: int) -> list[Packet]:
    rng = np.random.default_rng(seed)
    packets = []
    for index in range(count):
        packets.append(
            Packet(
                headers=PacketHeaders(
                    src_ip=int(rng.integers(0, 1 << 32)),
                    dst_ip=int(rng.integers(0, 1 << 32)),
                    src_port=int(rng.integers(0, 1 << 16)),
                    dst_port=int(rng.integers(0, 1 << 16)),
                    protocol=int(rng.integers(0, 256)),
                    ip_id=int(rng.integers(0, 1 << 16)),
                    length=int(rng.integers(20, 1501)),
                ),
                payload=rng.bytes(payload_bytes),
                uid=index,
                send_time=float(index) * 1e-5,
            )
        )
    return packets


class TestDigestParity:
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=0, max_value=24),
        st.integers(min_value=0, max_value=MASK32),
        st.integers(min_value=0, max_value=24),
    )
    @settings(max_examples=25, deadline=None)
    def test_digest_batch_matches_scalar(self, seed, count, payload_bytes, digest_seed, prefix):
        packets = random_packets(seed, count, payload_bytes)
        batch = batch_from_packets(packets)
        digester = PacketDigester(seed=digest_seed, payload_prefix=prefix)
        batch_digests = digester.digest_batch(batch)
        scalar_digests = np.asarray(
            [digester.digest(packet) for packet in packets], dtype=np.uint64
        )
        assert np.array_equal(batch_digests, scalar_digests)

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=24),
    )
    @settings(max_examples=25, deadline=None)
    def test_invariant_matrix_matches_invariant_bytes(self, seed, count, prefix):
        packets = random_packets(seed, count, payload_bytes=16)
        batch = batch_from_packets(packets)
        matrix = batch.invariant_matrix(prefix)
        for row, packet in zip(matrix, packets):
            assert row.tobytes() == packet.invariant_bytes(prefix)


def random_stream(seed: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    digests = rng.integers(0, 1 << 64, size=count, dtype=np.uint64)
    times = np.cumsum(rng.exponential(1e-5, size=count))
    return digests, times


def chunked_feed(instance, digests: np.ndarray, times: np.ndarray, rng) -> None:
    """Feed a stream through observe_batch() in random chunks, 30% of them one packet."""
    index = 0
    while index < len(digests):
        size = 1 if rng.random() < 0.3 else int(rng.integers(1, 400))
        instance.observe_batch(digests[index : index + size], times[index : index + size])
        index += size


class TestSamplerParity:
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=3000),
        st.floats(min_value=0.001, max_value=0.9),
        st.floats(min_value=0.001, max_value=0.2),
    )
    @settings(max_examples=30, deadline=None)
    def test_observe_batch_matches_reference(self, seed, count, sampling_rate, marker_rate):
        digests, times = random_stream(seed, count)
        config = SamplerConfig(sampling_rate=sampling_rate, marker_rate=marker_rate)
        reference = ReferenceSampler(config)
        batched = DelaySampler(config)
        reference.observe_all(digests, times)
        chunked_feed(batched, digests, times, np.random.default_rng(seed + 1))

        assert reference.state_digest() == batched.state_digest()
        assert reference.observed_packets == batched.observed_packets
        assert reference.max_buffer_occupancy == batched.max_buffer_occupancy


class TestAggregatorParity:
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=3000),
        st.integers(min_value=2, max_value=300),
        st.sampled_from([0.0, 1e-5, 1e-4, 1e-3]),
    )
    @settings(max_examples=30, deadline=None)
    def test_observe_batch_matches_reference(self, seed, count, aggregate_size, window):
        digests, times = random_stream(seed, count)
        config = AggregatorConfig(
            expected_aggregate_size=aggregate_size, reorder_window=window
        )
        reference = ReferenceAggregator(config)
        batched = Aggregator(config)
        reference.observe_all(digests, times)
        chunked_feed(batched, digests, times, np.random.default_rng(seed + 1))
        assert reference.state_digest() == batched.state_digest()
        reference.flush()
        batched.flush()

        path_id = PathID(
            prefix_pair=default_prefix_pair(),
            reporting_hop=1,
            previous_hop=None,
            next_hop=2,
            max_diff=1e-3,
        )
        reference_receipts = reference.receipts(path_id)
        batched_receipts = batched.receipts(path_id)
        assert len(reference_receipts) == len(batched_receipts)
        for expected, actual in zip(reference_receipts, batched_receipts):
            assert expected.first_pkt_id == actual.first_pkt_id
            assert expected.last_pkt_id == actual.last_pkt_id
            assert expected.pkt_count == actual.pkt_count
            assert expected.start_time == actual.start_time
            assert expected.end_time == actual.end_time
            assert expected.trans_before.tolist() == actual.trans_before.tolist()
            assert expected.trans_after.tolist() == actual.trans_after.tolist()
            assert np.isclose(expected.time_sum, actual.time_sum, rtol=1e-12, atol=1e-9)
        assert reference.cut_count == batched._cut_count
        assert reference.observed_packets == batched.observed_packets
        assert reference.state_digest() == batched.state_digest()

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_unsorted_times_are_refused(self, seed):
        """Out-of-order timestamps raise, naming the first, and change nothing."""
        rng = np.random.default_rng(seed)
        digests, times = random_stream(seed, 500)
        position = int(rng.integers(1, len(times)))
        times[position] = times[position - 1] - 1e-9
        for instance in (Aggregator(), DelaySampler()):
            before = instance.state_digest()
            with pytest.raises(ValueError, match=rf"times\[{position}\] = .* decreases"):
                instance.observe_batch(digests, times)
            assert instance.state_digest() == before
