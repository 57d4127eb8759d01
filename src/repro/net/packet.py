"""Packet model.

A :class:`Packet` carries the header fields the VPM prototype hashes (IP and
transport headers) plus simulation-only bookkeeping: a globally unique
``uid`` assigned by the traffic generator (used *only* as ground truth for
evaluating the protocol — the protocol itself never sees it) and the send
timestamp at the traffic source.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

__all__ = ["PacketHeaders", "Packet", "HEADER_PACK_BYTES", "pack_header_columns"]

_PROTO_NAMES = {6: "TCP", 17: "UDP", 1: "ICMP"}

# Byte length of PacketHeaders.pack() (">IIHHBHH"): the header part of the
# digest material.  The columnar fast path sizes its matrices with this.
HEADER_PACK_BYTES = 17


def pack_header_columns(
    src_ip: np.ndarray,
    dst_ip: np.ndarray,
    src_port: np.ndarray,
    dst_port: np.ndarray,
    protocol: np.ndarray,
    ip_id: np.ndarray,
    length: np.ndarray,
) -> np.ndarray:
    """Columnar twin of :meth:`PacketHeaders.pack`.

    Packs per-field arrays into a ``(n, HEADER_PACK_BYTES)`` uint8 matrix whose
    rows are bit-for-bit equal to ``PacketHeaders(...).pack()`` — the same
    big-endian ``>IIHHBHH`` layout, one row per packet.
    """
    count = len(src_ip)
    matrix = np.empty((count, HEADER_PACK_BYTES), dtype=np.uint8)
    matrix[:, 0:4] = np.ascontiguousarray(src_ip, dtype=">u4").view(np.uint8).reshape(count, 4)
    matrix[:, 4:8] = np.ascontiguousarray(dst_ip, dtype=">u4").view(np.uint8).reshape(count, 4)
    matrix[:, 8:10] = np.ascontiguousarray(src_port, dtype=">u2").view(np.uint8).reshape(count, 2)
    matrix[:, 10:12] = np.ascontiguousarray(dst_port, dtype=">u2").view(np.uint8).reshape(count, 2)
    matrix[:, 12] = np.asarray(protocol, dtype=np.uint8)
    matrix[:, 13:15] = np.ascontiguousarray(ip_id, dtype=">u2").view(np.uint8).reshape(count, 2)
    matrix[:, 15:17] = np.ascontiguousarray(length, dtype=">u2").view(np.uint8).reshape(count, 2)
    return matrix


@dataclass(frozen=True)
class PacketHeaders:
    """The invariant IP/transport header fields covered by ``Digest(p)``.

    Mutable-in-flight fields (TTL, checksum) are intentionally not modelled:
    every HOP must compute the same digest for the same packet, so only
    end-to-end-invariant fields participate.
    """

    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    protocol: int
    ip_id: int
    length: int

    def __post_init__(self) -> None:
        for name in ("src_ip", "dst_ip"):
            value = getattr(self, name)
            if not 0 <= value <= 0xFFFFFFFF:
                raise ValueError(f"{name} must be a 32-bit value, got {value}")
        for name in ("src_port", "dst_port", "ip_id"):
            value = getattr(self, name)
            if not 0 <= value <= 0xFFFF:
                raise ValueError(f"{name} must be a 16-bit value, got {value}")
        if not 0 <= self.protocol <= 0xFF:
            raise ValueError(f"protocol must be an 8-bit value, got {self.protocol}")
        if not 20 <= self.length <= 65535:
            raise ValueError(f"length must be in [20, 65535], got {self.length}")

    @property
    def protocol_name(self) -> str:
        """Human-readable transport protocol name (``TCP``/``UDP``/...)."""
        return _PROTO_NAMES.get(self.protocol, str(self.protocol))

    def pack(self) -> bytes:
        """Serialize the invariant header fields into a canonical byte string."""
        return struct.pack(
            ">IIHHBHH",
            self.src_ip,
            self.dst_ip,
            self.src_port,
            self.dst_port,
            self.protocol,
            self.ip_id,
            self.length,
        )


@dataclass(frozen=True)
class Packet:
    """A simulated packet.

    Attributes
    ----------
    headers:
        The invariant IP/transport header fields.
    payload:
        The first bytes of the payload (only a small prefix is ever needed,
        since digests cover at most a few payload bytes).
    uid:
        Simulation-only unique identifier, assigned by the traffic generator.
        Ground truth for evaluation; never consulted by the protocol.
    send_time:
        Time (seconds, virtual clock) at which the traffic source emitted the
        packet.
    flow_id:
        Simulation-only identifier of the flow that produced the packet.
    """

    headers: PacketHeaders
    payload: bytes = b""
    uid: int = 0
    send_time: float = 0.0
    flow_id: int = 0

    # Cache of invariant bytes, keyed by payload-prefix length.  ``field`` with
    # ``compare=False`` keeps equality semantics based on the real content.
    _invariant_cache: dict = field(
        default_factory=dict, compare=False, repr=False, hash=False
    )

    @property
    def size(self) -> int:
        """Total packet size in bytes (from the IP length field)."""
        return self.headers.length

    def invariant_bytes(self, payload_prefix: int = 8) -> bytes:
        """Bytes covered by the digest: packed headers plus a payload prefix."""
        if payload_prefix < 0:
            raise ValueError(f"payload_prefix must be >= 0, got {payload_prefix}")
        cached = self._invariant_cache.get(payload_prefix)
        if cached is None:
            cached = self.headers.pack() + self.payload[:payload_prefix]
            self._invariant_cache[payload_prefix] = cached
        return cached

    def __str__(self) -> str:
        return (
            f"Packet(uid={self.uid}, {self.headers.protocol_name} "
            f"{self.headers.src_ip:#010x}:{self.headers.src_port} -> "
            f"{self.headers.dst_ip:#010x}:{self.headers.dst_port}, "
            f"{self.size}B @ {self.send_time:.6f}s)"
        )
