"""Unit tests for repro.net.hashing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.net.hashing import (
    MASK32,
    MASK64,
    PacketDigester,
    bob_hash,
    bob_hash_batch,
    combine64,
    fnv1a_64,
    fnv1a_64_batch,
    sample_function,
    splitmix64,
    threshold_for_rate,
)
from tests.conftest import make_packet


class TestBobHash:
    def test_deterministic(self):
        assert bob_hash(b"hello world") == bob_hash(b"hello world")

    def test_initval_changes_output(self):
        assert bob_hash(b"hello", initval=0) != bob_hash(b"hello", initval=1)

    def test_different_inputs_differ(self):
        assert bob_hash(b"packet-a") != bob_hash(b"packet-b")

    def test_output_is_32_bit(self):
        for data in (b"", b"x", b"a" * 11, b"a" * 12, b"a" * 100):
            value = bob_hash(data)
            assert 0 <= value <= MASK32

    def test_empty_input_allowed(self):
        assert isinstance(bob_hash(b""), int)

    def test_length_sensitivity(self):
        # Same prefix, different length -> different hash (length is mixed in).
        assert bob_hash(b"aaaa") != bob_hash(b"aaaaa")

    def test_negative_initval_rejected(self):
        with pytest.raises(ValueError):
            bob_hash(b"data", initval=-1)

    def test_block_boundary_inputs(self):
        # Inputs straddling the 12-byte block boundary exercise both the block
        # loop and the tail handling.
        values = {bob_hash(bytes(range(n))) for n in (11, 12, 13, 23, 24, 25)}
        assert len(values) == 6


class TestBatchKernelsAtEveryWidth:
    """The uint32/uint64-lane batch kernels against the scalar oracles.

    Row widths 0-40 cover three whole 12-byte lookup2 blocks and every tail
    length after each of them; all-0xFF rows drive every lane add to wrap.
    """

    WIDTHS = range(41)

    @staticmethod
    def rows(width: int) -> np.ndarray:
        random_rows = np.random.default_rng(width).integers(
            0, 256, size=(6, width), dtype=np.uint8
        )
        edge_rows = np.array([[0x00] * width, [0xFF] * width], dtype=np.uint8).reshape(2, width)
        return np.vstack([random_rows, edge_rows])

    @pytest.mark.parametrize("initval", [0, MASK32])
    @pytest.mark.parametrize("width", WIDTHS)
    def test_bob_hash_batch_matches_scalar(self, width, initval):
        matrix = self.rows(width)
        hashed = bob_hash_batch(matrix, initval)
        assert hashed.dtype == np.uint64
        assert hashed.tolist() == [bob_hash(row.tobytes(), initval) for row in matrix]

    @pytest.mark.parametrize("width", WIDTHS)
    def test_fnv1a_64_batch_matches_scalar(self, width):
        matrix = self.rows(width)
        hashed = fnv1a_64_batch(matrix)
        assert hashed.dtype == np.uint64
        assert hashed.tolist() == [fnv1a_64(row.tobytes()) for row in matrix]

    def test_batch_kernels_leave_their_input_untouched(self):
        matrix = self.rows(25)
        before = matrix.copy()
        bob_hash_batch(matrix, MASK32)
        fnv1a_64_batch(matrix)
        assert np.array_equal(matrix, before)


class TestAuxiliaryHashes:
    def test_fnv_is_64_bit_and_deterministic(self):
        value = fnv1a_64(b"some header bytes")
        assert 0 <= value <= MASK64
        assert value == fnv1a_64(b"some header bytes")

    def test_fnv_differs_on_input(self):
        assert fnv1a_64(b"a") != fnv1a_64(b"b")

    def test_splitmix_is_64_bit(self):
        assert 0 <= splitmix64(12345) <= MASK64

    def test_splitmix_bijective_behaviour_on_small_set(self):
        outputs = {splitmix64(value) for value in range(1000)}
        assert len(outputs) == 1000

    def test_combine64_order_sensitive(self):
        assert combine64(1, 2) != combine64(2, 1)

    def test_sample_function_uses_both_inputs(self):
        assert sample_function(10, 20) != sample_function(10, 21)
        assert sample_function(10, 20) != sample_function(11, 20)

    def test_sample_function_range(self):
        assert 0 <= sample_function(123456789, 987654321) <= MASK64


class TestThresholds:
    def test_rate_one_means_everything_passes(self):
        assert threshold_for_rate(1.0) == 0

    def test_rate_zero_means_nothing_passes(self):
        assert threshold_for_rate(0.0) == MASK64

    def test_round_trip(self):
        for rate in (0.001, 0.01, 0.1, 0.5, 0.9):
            assert 1.0 - threshold_for_rate(rate) / MASK64 == pytest.approx(rate, rel=1e-9)

    def test_monotone(self):
        assert threshold_for_rate(0.01) > threshold_for_rate(0.1)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            threshold_for_rate(1.5)
        with pytest.raises(ValueError):
            threshold_for_rate(-0.1)

    def test_empirical_exceedance_rate_close_to_nominal(self):
        # Digests drawn via splitmix64 should exceed the threshold at roughly
        # the configured rate.
        rate = 0.05
        threshold = threshold_for_rate(rate)
        count = sum(1 for value in range(20000) if splitmix64(value) > threshold)
        assert count == pytest.approx(rate * 20000, rel=0.2)


class TestPacketDigester:
    def test_same_packet_same_digest(self):
        digester = PacketDigester()
        packet = make_packet(uid=1)
        clone = make_packet(uid=99)  # same headers/payload, different uid
        assert digester.digest(packet) == digester.digest(clone)

    def test_uid_not_part_of_digest(self):
        digester = PacketDigester()
        assert digester.digest(make_packet(uid=1)) == digester.digest(make_packet(uid=2))

    def test_header_change_changes_digest(self):
        digester = PacketDigester()
        assert digester.digest(make_packet(src_port=1000)) != digester.digest(
            make_packet(src_port=1001)
        )

    def test_payload_prefix_included(self):
        digester = PacketDigester(payload_prefix=8)
        a = make_packet(payload=b"AAAAAAAA-tail")
        b = make_packet(payload=b"BBBBBBBB-tail")
        assert digester.digest(a) != digester.digest(b)

    def test_payload_beyond_prefix_ignored(self):
        digester = PacketDigester(payload_prefix=4)
        a = make_packet(payload=b"SAMEtail1")
        b = make_packet(payload=b"SAMEtail2")
        assert digester.digest(a) == digester.digest(b)

    def test_seed_changes_digest(self):
        packet = make_packet()
        assert PacketDigester(seed=0).digest(packet) != PacketDigester(seed=1).digest(packet)

    def test_digest_is_64_bit(self):
        value = PacketDigester().digest(make_packet())
        assert 0 <= value <= MASK64

    def test_digest_memoization_consistent(self):
        digester = PacketDigester()
        packet = make_packet()
        first = digester.digest(packet)
        second = digester.digest(packet)
        assert first == second

    def test_callable_interface(self):
        digester = PacketDigester()
        packet = make_packet()
        assert digester(packet) == digester.digest(packet)
