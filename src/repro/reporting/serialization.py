"""Receipt serialization.

The paper assumes receipts are disseminated over an authenticated channel
(e.g. HTTPS from an administrative web site) but leaves the wire format open.
This module provides two interchangeable encodings so the dissemination layer
can actually ship receipts between implementations:

* a **JSON** encoding — human-readable, convenient for web-style dissemination
  and debugging;
* a **compact binary** encoding (``VPM1``) — fixed-width big-endian fields:
  full 8-byte packet ids and 8-byte microsecond timestamps, so a sample record
  takes 16 bytes and each AggTrans id 8 bytes.  These are *not* the Section
  7.1 widths (a 4-byte digest plus a 3-byte timestamp per sample record); the
  paper's accounting model is ``wire_bytes`` on the receipt classes
  (:mod:`repro.core.receipts`), which this encoding does not reproduce.

Both encodings round-trip every receipt type exactly (up to the documented
timestamp quantization of the binary format), and both are covered by unit and
property-based tests.
"""

from __future__ import annotations

import hashlib
import json
import struct
from operator import attrgetter
from typing import Any, Mapping

from repro.core.hop import HOPReport
from repro.core.receipts import AggregateReceipt, PathID, SampleReceipt, SampleRecord
from repro.net.prefixes import OriginPrefix, PrefixPair

__all__ = [
    "receipt_to_dict",
    "receipt_from_dict",
    "report_to_json",
    "report_from_json",
    "encode_report",
    "decode_report",
    "canonical_receipts",
    "receipts_digest",
    "BinaryFormatError",
]

_MAGIC = b"VPM1"
_SAMPLE_KIND = 1
_AGGREGATE_KIND = 2
# Binary timestamps are microseconds in an unsigned 64-bit field.
_TIME_SCALE = 1e6


class BinaryFormatError(ValueError):
    """Raised when a binary receipt blob cannot be decoded."""


# ---------------------------------------------------------------------------
# JSON encoding
# ---------------------------------------------------------------------------


def _path_id_to_dict(path_id: PathID) -> dict[str, Any]:
    return {
        "source_prefix": str(path_id.prefix_pair.source),
        "destination_prefix": str(path_id.prefix_pair.destination),
        "reporting_hop": path_id.reporting_hop,
        "previous_hop": path_id.previous_hop,
        "next_hop": path_id.next_hop,
        "max_diff": path_id.max_diff,
    }


def _path_id_from_dict(payload: dict[str, Any]) -> PathID:
    prefix_pair = PrefixPair(
        source=OriginPrefix.parse(payload["source_prefix"]),
        destination=OriginPrefix.parse(payload["destination_prefix"]),
    )
    return PathID(
        prefix_pair=prefix_pair,
        reporting_hop=int(payload["reporting_hop"]),
        previous_hop=payload["previous_hop"],
        next_hop=payload["next_hop"],
        max_diff=float(payload["max_diff"]),
    )


def receipt_to_dict(receipt: SampleReceipt | AggregateReceipt) -> dict[str, Any]:
    """Convert a receipt into a JSON-serializable dictionary."""
    if isinstance(receipt, SampleReceipt):
        return {
            "kind": "samples",
            "path_id": _path_id_to_dict(receipt.path_id),
            "sampling_threshold": receipt.sampling_threshold,
            "samples": [[record.pkt_id, record.time] for record in receipt.samples],
        }
    if isinstance(receipt, AggregateReceipt):
        return {
            "kind": "aggregate",
            "path_id": _path_id_to_dict(receipt.path_id),
            "first_pkt_id": receipt.first_pkt_id,
            "last_pkt_id": receipt.last_pkt_id,
            "pkt_count": receipt.pkt_count,
            "start_time": receipt.start_time,
            "end_time": receipt.end_time,
            "time_sum": receipt.time_sum,
            "trans_before": list(receipt.trans_before),
            "trans_after": list(receipt.trans_after),
        }
    raise TypeError(f"not a receipt: {receipt!r}")


def receipt_from_dict(payload: dict[str, Any]) -> SampleReceipt | AggregateReceipt:
    """Inverse of :func:`receipt_to_dict`."""
    kind = payload.get("kind")
    path_id = _path_id_from_dict(payload["path_id"])
    if kind == "samples":
        return SampleReceipt(
            path_id=path_id,
            samples=tuple(
                SampleRecord(pkt_id=int(pkt_id), time=float(time))
                for pkt_id, time in payload["samples"]
            ),
            sampling_threshold=payload.get("sampling_threshold"),
        )
    if kind == "aggregate":
        return AggregateReceipt(
            path_id=path_id,
            first_pkt_id=int(payload["first_pkt_id"]),
            last_pkt_id=int(payload["last_pkt_id"]),
            pkt_count=int(payload["pkt_count"]),
            start_time=float(payload["start_time"]),
            end_time=float(payload["end_time"]),
            time_sum=float(payload["time_sum"]),
            trans_before=tuple(int(value) for value in payload["trans_before"]),
            trans_after=tuple(int(value) for value in payload["trans_after"]),
        )
    raise ValueError(f"unknown receipt kind {kind!r}")


def report_to_json(report: HOPReport, indent: int | None = None) -> str:
    """Serialize a full HOP report to JSON."""
    payload = {
        "hop_id": report.hop_id,
        "sample_receipts": [receipt_to_dict(receipt) for receipt in report.sample_receipts],
        "aggregate_receipts": [
            receipt_to_dict(receipt) for receipt in report.aggregate_receipts
        ],
    }
    return json.dumps(payload, indent=indent, sort_keys=True)


def report_from_json(text: str) -> HOPReport:
    """Inverse of :func:`report_to_json`."""
    payload = json.loads(text)
    return HOPReport(
        hop_id=int(payload["hop_id"]),
        sample_receipts=tuple(
            receipt_from_dict(entry) for entry in payload["sample_receipts"]
        ),
        aggregate_receipts=tuple(
            receipt_from_dict(entry) for entry in payload["aggregate_receipts"]
        ),
    )


# ---------------------------------------------------------------------------
# Compact binary encoding
# ---------------------------------------------------------------------------


def _encode_time(value: float) -> int:
    if value < 0:
        raise BinaryFormatError(f"binary format cannot encode negative time {value}")
    return int(round(value * _TIME_SCALE))


def _encode_path_id(path_id: PathID) -> bytes:
    def hop_field(value: int | None) -> int:
        return 0xFFFFFFFF if value is None else value

    return struct.pack(
        ">IBIBIIIQ",
        path_id.prefix_pair.source.network,
        path_id.prefix_pair.source.length,
        path_id.prefix_pair.destination.network,
        path_id.prefix_pair.destination.length,
        path_id.reporting_hop,
        hop_field(path_id.previous_hop),
        hop_field(path_id.next_hop),
        _encode_time(path_id.max_diff),
    )


_PATH_ID_STRUCT = struct.Struct(">IBIBIIIQ")


def _decode_path_id(blob: bytes, offset: int) -> tuple[PathID, int]:
    try:
        (
            source_network,
            source_length,
            destination_network,
            destination_length,
            reporting_hop,
            previous_hop,
            next_hop,
            max_diff_us,
        ) = _PATH_ID_STRUCT.unpack_from(blob, offset)
    except struct.error as exc:
        raise BinaryFormatError(f"truncated PathID at offset {offset}") from exc
    prefix_pair = PrefixPair(
        source=OriginPrefix(network=source_network, length=source_length),
        destination=OriginPrefix(network=destination_network, length=destination_length),
    )
    path_id = PathID(
        prefix_pair=prefix_pair,
        reporting_hop=reporting_hop,
        previous_hop=None if previous_hop == 0xFFFFFFFF else previous_hop,
        next_hop=None if next_hop == 0xFFFFFFFF else next_hop,
        max_diff=max_diff_us / _TIME_SCALE,
    )
    return path_id, offset + _PATH_ID_STRUCT.size


def encode_report(report: HOPReport) -> bytes:
    """Encode a HOP report into the compact binary format."""
    chunks: list[bytes] = [_MAGIC, struct.pack(">IHH", report.hop_id,
                                               len(report.sample_receipts),
                                               len(report.aggregate_receipts))]
    for receipt in report.sample_receipts:
        chunks.append(struct.pack(">B", _SAMPLE_KIND))
        chunks.append(_encode_path_id(receipt.path_id))
        threshold = receipt.sampling_threshold
        chunks.append(struct.pack(">BQ", threshold is not None, threshold or 0))
        chunks.append(struct.pack(">I", len(receipt.samples)))
        for record in receipt.samples:
            chunks.append(struct.pack(">QQ", record.pkt_id, _encode_time(record.time)))
    for receipt in report.aggregate_receipts:
        chunks.append(struct.pack(">B", _AGGREGATE_KIND))
        chunks.append(_encode_path_id(receipt.path_id))
        chunks.append(
            struct.pack(
                ">QQIQQQ",
                receipt.first_pkt_id,
                receipt.last_pkt_id,
                receipt.pkt_count,
                _encode_time(receipt.start_time),
                _encode_time(receipt.end_time),
                _encode_time(receipt.time_sum),
            )
        )
        chunks.append(struct.pack(">II", len(receipt.trans_before), len(receipt.trans_after)))
        for value in receipt.trans_before + receipt.trans_after:
            chunks.append(struct.pack(">Q", value))
    return b"".join(chunks)


def decode_report(blob: bytes) -> HOPReport:
    """Decode a blob produced by :func:`encode_report`."""
    if blob[:4] != _MAGIC:
        raise BinaryFormatError("missing VPM magic header")
    try:
        hop_id, sample_count, aggregate_count = struct.unpack_from(">IHH", blob, 4)
    except struct.error as exc:
        raise BinaryFormatError("truncated report header") from exc
    offset = 4 + 8

    sample_receipts: list[SampleReceipt] = []
    aggregate_receipts: list[AggregateReceipt] = []
    total = sample_count + aggregate_count
    for _ in range(total):
        try:
            (kind,) = struct.unpack_from(">B", blob, offset)
        except struct.error as exc:
            raise BinaryFormatError(f"truncated receipt at offset {offset}") from exc
        offset += 1
        path_id, offset = _decode_path_id(blob, offset)
        if kind == _SAMPLE_KIND:
            has_threshold, threshold = struct.unpack_from(">BQ", blob, offset)
            offset += 9
            (count,) = struct.unpack_from(">I", blob, offset)
            offset += 4
            records = []
            for _ in range(count):
                pkt_id, time_us = struct.unpack_from(">QQ", blob, offset)
                offset += 16
                records.append(SampleRecord(pkt_id=pkt_id, time=time_us / _TIME_SCALE))
            sample_receipts.append(
                SampleReceipt(
                    path_id=path_id,
                    samples=tuple(records),
                    sampling_threshold=threshold if has_threshold else None,
                )
            )
        elif kind == _AGGREGATE_KIND:
            (
                first_pkt_id,
                last_pkt_id,
                pkt_count,
                start_us,
                end_us,
                sum_us,
            ) = struct.unpack_from(">QQIQQQ", blob, offset)
            offset += struct.calcsize(">QQIQQQ")
            before_count, after_count = struct.unpack_from(">II", blob, offset)
            offset += 8
            trans = []
            for _ in range(before_count + after_count):
                (value,) = struct.unpack_from(">Q", blob, offset)
                offset += 8
                trans.append(value)
            aggregate_receipts.append(
                AggregateReceipt(
                    path_id=path_id,
                    first_pkt_id=first_pkt_id,
                    last_pkt_id=last_pkt_id,
                    pkt_count=pkt_count,
                    start_time=start_us / _TIME_SCALE,
                    end_time=end_us / _TIME_SCALE,
                    time_sum=sum_us / _TIME_SCALE,
                    trans_before=tuple(trans[:before_count]),
                    trans_after=tuple(trans[before_count:]),
                )
            )
        else:
            raise BinaryFormatError(f"unknown receipt kind {kind} at offset {offset}")

    return HOPReport(
        hop_id=hop_id,
        sample_receipts=tuple(sample_receipts),
        aggregate_receipts=tuple(aggregate_receipts),
    )


# ---------------------------------------------------------------------------
# Canonical (engine-comparable) form
# ---------------------------------------------------------------------------


def canonical_receipts(reports: Mapping[int, HOPReport]) -> dict[str, Any]:
    """Receipts of every HOP in a canonical, JSON-stable form.

    Timestamps are rendered as exact float hex so the form is bit-faithful;
    ``time_sum`` is rounded to its documented 10-significant-digit tolerance —
    the one field whose float accumulation order legitimately differs between
    the scalar, batch and streaming engines (and between chunk sizes).
    Everything else — sample sets and order, thresholds, aggregate boundaries,
    packet counts, AggTrans windows — is engine-invariant, so two engines (or
    an interrupted-and-resumed campaign interval and an uninterrupted one)
    agree on this form byte-for-byte.

    This is the specification of :func:`receipts_digest`, which streams the
    same bytes into its hash without building this form: the digest equals
    BLAKE2b-128 over ``json.dumps(canonical_receipts(reports),
    sort_keys=True, separators=(",", ":"))``.  The conformance suite and the
    digest tests compare against it; no run path calls it.
    """
    canonical: dict[str, Any] = {}
    for hop_id in sorted(reports):
        report = reports[hop_id]
        canonical[str(hop_id)] = {
            "samples": [
                {
                    "path": str(receipt.path_id.prefix_pair),
                    "reporting_hop": receipt.path_id.reporting_hop,
                    "threshold": receipt.sampling_threshold,
                    "records": [
                        [record.pkt_id, record.time.hex()] for record in receipt.samples
                    ],
                }
                for receipt in report.sample_receipts
            ],
            "aggregates": [
                {
                    "first_pkt_id": receipt.first_pkt_id,
                    "last_pkt_id": receipt.last_pkt_id,
                    "pkt_count": receipt.pkt_count,
                    "start_time": receipt.start_time.hex(),
                    "end_time": receipt.end_time.hex(),
                    "time_sum": f"{receipt.time_sum:.9e}",
                    "trans_before": list(receipt.trans_before),
                    "trans_after": list(receipt.trans_after),
                }
                for receipt in report.aggregate_receipts
            ],
        }
    return canonical


# One sample record in canonical JSON: ``[pkt_id,"<time as float hex>"]``.
_RECORD = '[{},"{}"]'
_PKT_ID = attrgetter("pkt_id")
_TIME = attrgetter("time")


class _IntSpellings(dict):
    """Memo of the JSON spelling of integers (``int.__repr__``, as ``json`` uses)."""

    def __missing__(self, value: int) -> str:
        text = self[value] = int.__repr__(value)
        return text


def receipts_digest(reports: Mapping[int, HOPReport]) -> str:
    """Stable hex digest of every HOP's receipts in canonical form.

    Equal digests mean equal receipts up to the documented ``time_sum``
    tolerance — the auditable per-interval fingerprint a campaign run store
    records so a customer can later prove which receipts a verdict rests on.

    The digest is BLAKE2b-128 over the canonical JSON of
    :func:`canonical_receipts` (sorted keys, so HOP ids in string order;
    compact separators), but that JSON is streamed into the hash piecewise —
    each aggregate header, AggTrans window, sample receipt's records and the
    HOP framing go to ``hasher.update`` as they are spelled, so neither the
    canonical dict nor any HOP's document is ever built.  Spellings are
    memoised for one call: integers as text (an interval's AggTrans windows
    repeat a few thousand distinct packet IDs hundreds of thousands of
    times), and each distinct window as its encoded bytes (a window recurs at
    both ends of an inter-domain link).
    """
    ids = _IntSpellings()
    windows: dict[tuple[int, ...], bytes] = {}

    def window(values) -> bytes:
        values = tuple(values)
        encoded = windows.get(values)
        if encoded is None:
            encoded = windows[values] = ",".join(map(ids.__getitem__, values)).encode("ascii")
        return encoded

    hasher = hashlib.blake2b(digest_size=16)
    update = hasher.update
    update(b"{")
    for position, (key, hop_id) in enumerate(sorted((str(hop_id), hop_id) for hop_id in reports)):
        report = reports[hop_id]
        update(f'{"," if position else ""}{json.dumps(key)}:{{"aggregates":['.encode("ascii"))
        separator = ""
        for receipt in report.aggregate_receipts:
            update(
                f'{separator}{{"end_time":"{receipt.end_time.hex()}",'
                f'"first_pkt_id":{ids[receipt.first_pkt_id]},'
                f'"last_pkt_id":{ids[receipt.last_pkt_id]},'
                f'"pkt_count":{ids[receipt.pkt_count]},'
                f'"start_time":"{receipt.start_time.hex()}",'
                f'"time_sum":"{receipt.time_sum:.9e}",'
                f'"trans_after":['.encode("ascii")
            )
            update(window(receipt.trans_after))
            update(b'],"trans_before":[')
            update(window(receipt.trans_before))
            update(b"]}")
            separator = ","
        update(b'],"samples":[')
        separator = ""
        for receipt in report.sample_receipts:
            update(
                f'{separator}{{"path":{json.dumps(str(receipt.path_id.prefix_pair))},'
                f'"records":['.encode("ascii")
            )
            samples = receipt.samples
            update(
                ",".join(
                    map(
                        _RECORD.format,
                        map(ids.__getitem__, map(_PKT_ID, samples)),
                        map(float.hex, map(_TIME, samples)),
                    )
                ).encode("ascii")
            )
            update(
                f'],"reporting_hop":{json.dumps(receipt.path_id.reporting_hop)},'
                f'"threshold":{json.dumps(receipt.sampling_threshold)}}}'.encode("ascii")
            )
            separator = ","
        update(b"]}")
    update(b"}")
    return hasher.hexdigest()
