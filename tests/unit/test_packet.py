"""Unit tests for repro.net.packet."""

from __future__ import annotations

import pytest

from repro.net.packet import PacketHeaders
from tests.conftest import make_packet


class TestPacketHeaders:
    def test_pack_is_deterministic_and_fixed_length(self):
        headers = make_packet().headers
        assert headers.pack() == headers.pack()
        assert len(headers.pack()) == 17

    def test_pack_changes_with_fields(self):
        a = make_packet(src_port=1).headers.pack()
        b = make_packet(src_port=2).headers.pack()
        assert a != b

    def test_protocol_name(self):
        assert make_packet(protocol=6).headers.protocol_name == "TCP"
        assert make_packet(protocol=17).headers.protocol_name == "UDP"
        assert make_packet(protocol=47).headers.protocol_name == "47"

    @pytest.mark.parametrize(
        "field, value",
        [
            ("src_ip", 2**32),
            ("dst_ip", -1),
            ("src_port", 70000),
            ("dst_port", -2),
            ("ip_id", 2**16),
            ("protocol", 256),
            ("length", 10),
            ("length", 70000),
        ],
    )
    def test_field_validation(self, field, value):
        kwargs = dict(
            src_ip=1, dst_ip=2, src_port=3, dst_port=4, protocol=6, ip_id=5, length=100
        )
        kwargs[field] = value
        with pytest.raises(ValueError):
            PacketHeaders(**kwargs)


class TestPacket:
    def test_size_comes_from_length_field(self):
        assert make_packet(length=1500).size == 1500

    def test_invariant_bytes_include_payload_prefix(self):
        packet = make_packet(payload=b"0123456789abcdef")
        assert packet.invariant_bytes(4).endswith(b"0123")
        assert packet.invariant_bytes(0) == packet.headers.pack()

    def test_invariant_bytes_cached_per_prefix(self):
        packet = make_packet()
        first = packet.invariant_bytes(8)
        second = packet.invariant_bytes(8)
        assert first is second  # memoized

    def test_invariant_bytes_rejects_negative_prefix(self):
        with pytest.raises(ValueError):
            make_packet().invariant_bytes(-1)

    def test_str_mentions_protocol_and_size(self):
        text = str(make_packet(length=400, protocol=17))
        assert "UDP" in text
        assert "400B" in text
