"""Unit tests for repro.core.sampling (Algorithm 1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.receipts import PathID
from repro.core.sampling import DEFAULT_MARKER_RATE, DelaySampler, SamplerConfig
from repro.net.hashing import MASK64, threshold_for_rate
from tests.helpers import sampled_ids


@pytest.fixture()
def path_id(prefix_pair) -> PathID:
    return PathID(
        prefix_pair=prefix_pair, reporting_hop=4, previous_hop=3, next_hop=5, max_diff=1e-3
    )


def synthetic_digests(count: int, seed: int = 0) -> list[int]:
    rng = np.random.default_rng(seed)
    return [int(value) for value in rng.integers(0, MASK64, size=count, dtype=np.uint64)]


def drive(sampler: DelaySampler, digests: list[int], start: float = 0.0) -> None:
    for index, digest in enumerate(digests):
        sampler.observe(digest, start + index * 1e-5)


class TestSamplerConfig:
    def test_threshold_subtracts_marker_rate(self):
        config = SamplerConfig(sampling_rate=0.05, marker_rate=0.01)
        assert config.sampling_threshold == threshold_for_rate(0.04)

    def test_target_at_or_below_marker_rate_degrades_to_markers_only(self):
        config = SamplerConfig(sampling_rate=0.001, marker_rate=0.001)
        assert config.sampling_threshold == MASK64

    def test_default_marker_rate(self):
        assert SamplerConfig().marker_rate == DEFAULT_MARKER_RATE

    def test_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(sampling_rate=0.0)
        with pytest.raises(ValueError):
            SamplerConfig(marker_rate=1.5)


class TestDelaySampler:
    def test_marker_always_sampled(self, path_id):
        sampler = DelaySampler(SamplerConfig(sampling_rate=0.01, marker_rate=0.01))
        marker_digest = MASK64  # above any threshold
        assert sampler.observe(marker_digest, 1.0) is True
        receipt = sampler.receipt(path_id)
        assert marker_digest in sampled_ids(receipt)

    def test_non_marker_buffered_until_marker(self, path_id):
        sampler = DelaySampler(SamplerConfig(sampling_rate=1.0, marker_rate=0.01))
        low_digest = 123  # below the marker threshold
        assert sampler.observe(low_digest, 1.0) is False
        assert len(sampler._buffer_arrays()[0]) == 1
        # Nothing reported before a marker arrives.
        assert len(sampler.receipt(path_id, reset=False)) == 0
        sampler.observe(MASK64, 2.0)
        assert len(sampler._buffer_arrays()[0]) == 0
        receipt = sampler.receipt(path_id)
        assert low_digest in sampled_ids(receipt)

    def test_buffer_emptied_on_marker_even_if_not_sampled(self, path_id):
        # With the smallest sampling budget, buffered packets are discarded at
        # the marker rather than reported.
        sampler = DelaySampler(SamplerConfig(sampling_rate=0.001, marker_rate=0.001))
        for index in range(100):
            sampler.observe(1000 + index, index * 1e-5)
        assert len(sampler._buffer_arrays()[0]) == 100
        sampler.observe(MASK64, 1.0)
        assert len(sampler._buffer_arrays()[0]) == 0
        receipt = sampler.receipt(path_id)
        # Only the marker itself is guaranteed to be sampled.
        assert MASK64 in sampled_ids(receipt)
        assert len(receipt) <= 5

    def test_sampling_rate_approximately_respected(self, path_id):
        config = SamplerConfig(sampling_rate=0.05, marker_rate=0.005)
        sampler = DelaySampler(config)
        digests = synthetic_digests(40_000, seed=1)
        drive(sampler, digests)
        receipt = sampler.receipt(path_id)
        measured = len(receipt) / sampler.observed_packets
        assert measured == pytest.approx(0.05, rel=0.3)

    def test_sampled_set_keyed_by_marker_not_by_packet_alone(self, path_id):
        # The same packet digest can be sampled under one future marker and
        # not under another: the decision is not a function of the packet
        # alone — the essence of bias resistance.
        config = SamplerConfig(sampling_rate=0.3, marker_rate=0.01)
        probe = 424242

        def sampled_under(marker: int) -> bool:
            sampler = DelaySampler(config)
            sampler.observe(probe, 0.0)
            sampler.observe(marker, 1e-5)
            return probe in sampled_ids(sampler.receipt(path_id))

        markers = [MASK64 - offset for offset in range(0, 4000, 40)]
        outcomes = {sampled_under(marker) for marker in markers}
        assert outcomes == {True, False}

    def test_receipt_reset_behaviour(self, path_id):
        sampler = DelaySampler(SamplerConfig(sampling_rate=1.0, marker_rate=0.01))
        sampler.observe(5, 0.0)
        sampler.observe(MASK64, 1e-5)
        first = sampler.receipt(path_id, reset=True)
        assert len(first) == 2
        assert len(sampler.receipt(path_id)) == 0

    def test_receipt_carries_threshold(self, path_id):
        config = SamplerConfig(sampling_rate=0.02, marker_rate=0.005)
        sampler = DelaySampler(config)
        receipt = sampler.receipt(path_id)
        assert receipt.sampling_threshold == config.sampling_threshold

    def test_counters(self):
        sampler = DelaySampler(SamplerConfig(sampling_rate=0.5, marker_rate=0.01))
        digests = synthetic_digests(5000, seed=2)
        drive(sampler, digests)
        assert sampler.observed_packets == 5000
        assert sampler._marker_count > 0
        assert sampler.max_buffer_occupancy > 0

    def test_invalid_digest_rejected(self):
        sampler = DelaySampler()
        with pytest.raises(ValueError):
            sampler.observe(-1, 0.0)
        with pytest.raises(ValueError):
            sampler.observe(MASK64 + 1, 0.0)

    def test_repr_contains_rates(self):
        assert "sampling_rate" in repr(DelaySampler())


class TestNestingProperty:
    def test_lower_threshold_samples_superset(self, path_id):
        """Section 5.2: a HOP with a lower sigma samples a superset."""
        digests = synthetic_digests(30_000, seed=3)
        coarse = DelaySampler(SamplerConfig(sampling_rate=0.01, marker_rate=0.005))
        fine = DelaySampler(SamplerConfig(sampling_rate=0.05, marker_rate=0.005))
        drive(coarse, digests)
        drive(fine, digests)
        coarse_ids = sampled_ids(coarse.receipt(path_id))
        fine_ids = sampled_ids(fine.receipt(path_id))
        assert coarse_ids <= fine_ids
        assert len(fine_ids) > len(coarse_ids)

    def test_equal_thresholds_sample_identically(self, path_id):
        digests = synthetic_digests(20_000, seed=4)
        first = DelaySampler(SamplerConfig(sampling_rate=0.02, marker_rate=0.005))
        second = DelaySampler(SamplerConfig(sampling_rate=0.02, marker_rate=0.005))
        drive(first, digests)
        drive(second, digests, start=100.0)  # different clocks, same packets
        assert sampled_ids(first.receipt(path_id)) == sampled_ids(second.receipt(path_id))

    def test_markers_common_across_sampling_rates(self, path_id):
        digests = synthetic_digests(20_000, seed=5)
        low = DelaySampler(SamplerConfig(sampling_rate=0.001, marker_rate=0.005))
        high = DelaySampler(SamplerConfig(sampling_rate=0.1, marker_rate=0.005))
        drive(low, digests)
        drive(high, digests)
        assert low._marker_count == high._marker_count


class TestObserveBatchChunking:
    """``observe_batch`` fed in chunks against the scalar ``observe`` oracle.

    Each chunk is a pattern: ``M`` a marker, ``.`` a non-marker.  The
    one-pass batch path keys every packet against its owning marker, keys a
    carried-in buffer against the chunk's first marker and reconstructs the
    peak buffer occupancy from marker gaps; each case below stresses one of
    those rules at a chunk edge.
    """

    CONFIG = SamplerConfig(sampling_rate=0.5, marker_rate=0.05)

    @classmethod
    def stream(cls, chunks: list[str], seed: int = 0) -> list[tuple[np.ndarray, np.ndarray]]:
        rng = np.random.default_rng(seed)
        marker_threshold = np.uint64(cls.CONFIG.marker_threshold)
        parts, moment = [], 0.0
        for pattern in chunks:
            digests = rng.integers(0, marker_threshold, size=len(pattern), dtype=np.uint64)
            markers = np.array([symbol == "M" for symbol in pattern], dtype=bool)
            digests[markers] = marker_threshold + rng.integers(
                1, 2**40, size=int(markers.sum()), dtype=np.uint64
            )
            times = moment + 1e-5 * np.arange(1, len(pattern) + 1)
            moment = float(times[-1]) if len(pattern) else moment
            parts.append((digests, times))
        return parts

    @pytest.mark.parametrize(
        "chunks",
        [
            pytest.param(["", ".." + "." * 20 + "M...", ""], id="empty-batch"),
            pytest.param(["." * 30, "....", "..M.."], id="no-marker"),
            pytest.param(["." * 30, "M" + "." * 25 + "M."], id="marker-at-index-0"),
            pytest.param([".." * 15 + "M", "." * 25 + "M"], id="marker-last"),
            pytest.param(["." * 30 + "MMM" + "." * 12, "M", "MM.."], id="consecutive-markers"),
            pytest.param(["." * 60, "..", ".M", "." * 40 + "M" + "." * 5], id="carry-longer"),
        ],
    )
    def test_chunked_batches_match_scalar_observe(self, chunks):
        parts = self.stream(chunks)
        scalar = DelaySampler(self.CONFIG)
        batched = DelaySampler(self.CONFIG)
        for digests, times in parts:
            for digest, moment in zip(digests.tolist(), times.tolist()):
                scalar.observe(digest, moment)
            markers = batched.observe_batch(digests, times)
            assert markers.tolist() == [digest > self.CONFIG.marker_threshold for digest in digests]
            assert batched.state_digest() == scalar.state_digest()
            assert batched.max_buffer_occupancy == scalar.max_buffer_occupancy
        # The carried-in buffers were keyed too: some buffered packets were sampled.
        assert batched.sample_count > batched._marker_count
