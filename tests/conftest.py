"""Shared fixtures for the VPM reproduction test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.net.batch import PacketBatch
from repro.net.hashing import PacketDigester
from repro.net.packet import Packet, PacketHeaders
from repro.net.prefixes import OriginPrefix, PrefixPair
from repro.net.topology import HOPPath, Topology, figure1_topology
from repro.traffic.flows import FlowGeneratorConfig
from repro.traffic.trace import SyntheticTrace, TraceConfig


@pytest.fixture(scope="session")
def prefix_pair() -> PrefixPair:
    """The default (source, destination) origin-prefix pair."""
    return PrefixPair(
        source=OriginPrefix.parse("10.1.0.0/16"),
        destination=OriginPrefix.parse("10.2.0.0/16"),
    )


@pytest.fixture(scope="session")
def figure1():
    """The Figure-1 topology and its HOP path."""
    return figure1_topology()


@pytest.fixture(scope="session")
def path(figure1) -> HOPPath:
    return figure1[1]


@pytest.fixture(scope="session")
def topology(figure1) -> Topology:
    return figure1[0]


@pytest.fixture(scope="session")
def digester() -> PacketDigester:
    """The protocol-wide packet digester."""
    return PacketDigester()


@pytest.fixture(scope="session")
def small_trace_batch(prefix_pair) -> PacketBatch:
    """A small (2000-packet) synthetic trace, shared across tests."""
    config = TraceConfig(
        packet_count=2000,
        packets_per_second=100_000.0,
        flow_config=FlowGeneratorConfig(),
    )
    return SyntheticTrace(config=config, prefix_pair=prefix_pair, seed=7).packet_batch()


@pytest.fixture(scope="session")
def small_trace_packets(small_trace_batch) -> list[Packet]:
    """The small trace as packet objects."""
    return small_trace_batch.to_packets()


@pytest.fixture(scope="session")
def digest_stream(small_trace_packets, digester) -> list[tuple[int, float]]:
    """(digest, time) pairs of the small trace, for driving core algorithms."""
    return [
        (digester.digest(packet), packet.send_time) for packet in small_trace_packets
    ]


@pytest.fixture()
def rng() -> np.random.Generator:
    """A fresh deterministic RNG per test."""
    return np.random.default_rng(12345)


def make_packet(
    uid: int = 0,
    src_ip: int = 0x0A010001,
    dst_ip: int = 0x0A020001,
    src_port: int = 1234,
    dst_port: int = 80,
    protocol: int = 6,
    ip_id: int = 0,
    length: int = 400,
    send_time: float = 0.0,
    payload: bytes = b"payload-bytes",
) -> Packet:
    """Convenience constructor used throughout the unit tests."""
    headers = PacketHeaders(
        src_ip=src_ip,
        dst_ip=dst_ip,
        src_port=src_port,
        dst_port=dst_port,
        protocol=protocol,
        ip_id=ip_id,
        length=length,
    )
    return Packet(headers=headers, payload=payload, uid=uid, send_time=send_time)


@pytest.fixture(scope="session")
def packet_factory():
    """Expose :func:`make_packet` as a fixture."""
    return make_packet
