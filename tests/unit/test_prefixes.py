"""Unit tests for repro.net.prefixes."""

from __future__ import annotations

import pytest

from repro.net.prefixes import (
    OriginPrefix,
    PrefixPair,
    int_to_ip,
    ip_to_int,
)


class TestIPConversion:
    def test_round_trip(self):
        for address in ("0.0.0.0", "10.1.2.3", "192.168.0.1", "255.255.255.255"):
            assert int_to_ip(ip_to_int(address)) == address

    def test_known_value(self):
        assert ip_to_int("10.0.0.1") == 167772161

    def test_rejects_bad_octet(self):
        with pytest.raises(ValueError):
            ip_to_int("10.0.0.256")

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            ip_to_int("10.0.0")

    def test_rejects_out_of_range_int(self):
        with pytest.raises(ValueError):
            int_to_ip(2**32)


class TestOriginPrefix:
    def test_parse_and_str_round_trip(self):
        prefix = OriginPrefix.parse("10.1.0.0/16")
        assert str(prefix) == "10.1.0.0/16"
        assert prefix.length == 16

    def test_contains_inside_and_outside(self):
        prefix = OriginPrefix.parse("10.1.0.0/16")
        assert prefix.contains("10.1.200.7")
        assert not prefix.contains("10.2.0.1")

    def test_host_generation_stays_inside(self):
        prefix = OriginPrefix.parse("10.1.0.0/16")
        for index in (0, 1, 65535, 65536, 12345678):
            assert prefix.contains(prefix.host(index))

    def test_rejects_host_bits_set(self):
        with pytest.raises(ValueError):
            OriginPrefix(network=ip_to_int("10.1.0.1"), length=16)

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            OriginPrefix(network=0, length=33)

    def test_rejects_malformed_parse(self):
        with pytest.raises(ValueError):
            OriginPrefix.parse("10.1.0.0")

    def test_zero_length_prefix_contains_everything(self):
        prefix = OriginPrefix(network=0, length=0)
        assert prefix.contains("1.2.3.4")
        assert prefix.contains("255.0.0.1")

    def test_ordering_is_total(self):
        prefixes = sorted(
            [OriginPrefix.parse("10.2.0.0/16"), OriginPrefix.parse("10.1.0.0/16")]
        )
        assert str(prefixes[0]) == "10.1.0.0/16"


class TestPrefixPair:
    def test_matches_both_sides(self):
        pair = PrefixPair(
            source=OriginPrefix.parse("10.1.0.0/16"),
            destination=OriginPrefix.parse("10.2.0.0/16"),
        )
        assert pair.matches(ip_to_int("10.1.0.5"), ip_to_int("10.2.3.4"))
        assert not pair.matches(ip_to_int("10.2.0.5"), ip_to_int("10.1.3.4"))

    def test_str_is_readable(self):
        pair = PrefixPair(
            source=OriginPrefix.parse("10.1.0.0/16"),
            destination=OriginPrefix.parse("10.2.0.0/16"),
        )
        assert str(pair) == "10.1.0.0/16->10.2.0.0/16"
