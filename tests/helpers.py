"""Test-only helpers shared by several test modules."""

from __future__ import annotations

import socket
import urllib.parse
from typing import Sequence

import numpy as np

from repro.core.receipts import SampleReceipt
from repro.net.batch import PacketBatch
from repro.net.clock import Clock
from repro.net.packet import Packet
from repro.util.rng import make_rng
from repro.util.validation import check_non_negative


def sampled_ids(receipt: SampleReceipt) -> frozenset[int]:
    """The set of packet identifiers a sample receipt reports."""
    return frozenset(record.pkt_id for record in receipt.samples)


def raw_http_exchange(url: str, request: bytes, timeout: float = 3.0) -> bytes | None:
    """Send ``request`` verbatim to the server at ``url``; its reply, or None.

    The connection stays open while waiting, so a server that reads the body
    until the client hangs up cannot answer; None means no reply came within
    ``timeout`` seconds.
    """
    parts = urllib.parse.urlsplit(url)
    with socket.create_connection((parts.hostname, parts.port), timeout=timeout) as sock:
        sock.sendall(request)
        chunks = []
        try:
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        except TimeoutError:
            if not chunks:
                return None
    return b"".join(chunks)


def batch_from_packets(packets: Sequence[Packet]) -> PacketBatch:
    """The columnar batch of ``packets``, which share one payload length."""
    count = len(packets)
    width = len(packets[0].payload) if packets else 0
    payload = np.zeros((count, width), dtype=np.uint8)
    for index, packet in enumerate(packets):
        if width:
            payload[index] = np.frombuffer(packet.payload, dtype=np.uint8)
    return PacketBatch(
        src_ip=np.fromiter((p.headers.src_ip for p in packets), np.uint32, count),
        dst_ip=np.fromiter((p.headers.dst_ip for p in packets), np.uint32, count),
        src_port=np.fromiter((p.headers.src_port for p in packets), np.uint16, count),
        dst_port=np.fromiter((p.headers.dst_port for p in packets), np.uint16, count),
        protocol=np.fromiter((p.headers.protocol for p in packets), np.uint8, count),
        ip_id=np.fromiter((p.headers.ip_id for p in packets), np.uint16, count),
        length=np.fromiter((p.headers.length for p in packets), np.uint16, count),
        payload=payload,
        uid=np.fromiter((p.uid for p in packets), np.int64, count),
        send_time=np.fromiter((p.send_time for p in packets), np.float64, count),
        flow_id=np.fromiter((p.flow_id for p in packets), np.int64, count),
    )


class ClockModel(Clock):
    """A HOP clock with constant offset, linear drift and per-read jitter.

    ``offset`` is in seconds, ``drift_ppm`` in parts per million, and
    ``jitter_std`` the standard deviation (seconds) of independent per-read
    noise drawn from ``seed``.  It exercises collectors whose clock is neither
    synchronized nor deterministic.
    """

    def __init__(
        self,
        offset: float = 0.0,
        drift_ppm: float = 0.0,
        jitter_std: float = 0.0,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        self.offset = float(offset)
        self.drift_ppm = float(drift_ppm)
        self.jitter_std = check_non_negative("jitter_std", float(jitter_std))
        self._rng = make_rng(seed)

    def read(self, true_time: float) -> float:
        local = true_time + self.offset + true_time * self.drift_ppm * 1e-6
        if self.jitter_std > 0.0:
            local += float(self._rng.normal(0.0, self.jitter_std))
        return local

    def read_batch(self, true_times: np.ndarray) -> np.ndarray:
        times = np.asarray(true_times, dtype=np.float64)
        # Same operation order as the scalar read, for bit-identical floats.
        local = times + self.offset + times * self.drift_ppm * 1e-6
        if self.jitter_std > 0.0:
            # Generator.normal draws the same stream whether requested one at
            # a time or as an array, so this matches repeated scalar reads.
            local = local + self._rng.normal(0.0, self.jitter_std, size=times.shape)
        return local

    def __repr__(self) -> str:
        return (
            f"ClockModel(offset={self.offset!r}, drift_ppm={self.drift_ppm!r}, "
            f"jitter_std={self.jitter_std!r})"
        )
