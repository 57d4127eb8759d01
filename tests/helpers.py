"""Test-only helpers shared by several test modules."""

from __future__ import annotations

import json
import socket
import urllib.parse
from typing import Sequence

import numpy as np

from repro.core.receipts import SampleReceipt
from repro.net.batch import PacketBatch
from repro.net.packet import Packet
from repro.store import stable_json


#: The forms a test hands an AggTrans window to ``AggregateReceipt`` in: a
#: tuple, a fresh ``uint64`` array, a read-only non-contiguous view (which the
#: receipt keeps as it is) and a writable non-contiguous view (which it copies).
WINDOW_FORMS = ("tuple", "array", "view", "writable view")


def window_as(ids: Sequence[int], form: str):
    """The AggTrans window ``ids`` in one of :data:`WINDOW_FORMS`."""
    if form == "tuple":
        return tuple(ids)
    if form == "array":
        return np.array(ids, dtype=np.uint64)
    # Every other element of a larger buffer whose gaps hold a decoy id.
    backing = np.full(2 * len(ids) + 1, 3, dtype=np.uint64)
    backing[1::2] = ids
    view = backing[1::2]
    view.flags.writeable = form == "writable view"
    return view


def observe_one(collector, digest: int, time: float) -> bool:
    """Feed one packet to a sampler or aggregator as a 1-packet batch.

    Returns whether it was a marker (sampler) or a cutting point (aggregator).
    """
    return bool(collector.observe_batch([digest], [time])[0])


def sampled_ids(receipt: SampleReceipt) -> frozenset[int]:
    """The set of packet identifiers a sample receipt reports."""
    return frozenset(receipt.samples["pkt_id"].tolist())


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


def rewrite_record_version(store, version: int) -> None:
    """Rewrite every committed record of ``store`` as record version ``version``.

    What a store written by a build of another record version looks like.
    """
    lines = store.records_path.read_bytes().decode("utf-8").splitlines()
    rewritten = [stable_json({**json.loads(line), "version": version}) for line in lines]
    store.records_path.write_bytes("".join(line + "\n" for line in rewritten).encode("utf-8"))


def stage_record(staging, interval: int, record) -> bool:
    """Stage ``record`` in a :class:`~repro.dist.StagingArea` as its store line."""
    return staging.stage_line(interval, (stable_json(dict(record)) + "\n").encode("utf-8"))


def feed_agent(agent, observation) -> None:
    """Feed each of the agent's HOPs its observed ``(batch, times)`` pair.

    ``observation`` is a :class:`~repro.simulation.scenario.BatchPathObservation`.
    This is the one-pass feed :class:`~repro.engine.streaming.StreamingRunner`
    makes, for tests that feed several agents from one propagated run.
    """
    for hop_id in agent.hop_ids:
        agent.collector(hop_id).observe_batch(*observation.at_hop(hop_id))


def feed_session(session, observation) -> dict:
    """Feed every agent of ``session`` (see :func:`feed_agent`); the reports."""
    for agent in session.agents.values():
        feed_agent(agent, observation)
    return session.collect_reports()


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
