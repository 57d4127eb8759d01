"""The canonical form of an interval's receipts and its digest.

A campaign run store records one digest per interval, :func:`receipts_digest`,
so a customer can later prove which receipts a verdict rests on; the digest is
BLAKE2b-128 over the canonical JSON that :func:`canonical_receipts` specifies.
Receipts have no other wire encoding here: the paper leaves the format open,
and its Section 7.1 byte accounting is the ``wire_bytes`` model on the receipt
classes (:mod:`repro.core.receipts`), not an encoder.
"""

from __future__ import annotations

import hashlib
import json
from operator import attrgetter
from typing import Any, Iterator, Mapping

import numpy as np

from repro.core.hop import HOPReport

__all__ = ["canonical_receipts", "receipts_digest"]


def canonical_receipts(reports: Mapping[int, HOPReport]) -> dict[str, Any]:
    """Receipts of every HOP in a canonical, JSON-stable form.

    Timestamps are rendered as exact float hex so the form is bit-faithful;
    ``time_sum`` is rounded to its documented 10-significant-digit tolerance —
    the one field whose float accumulation order legitimately differs between
    the batch and streaming engines (and between chunk sizes).
    Everything else — sample sets and order, thresholds, aggregate boundaries,
    packet counts, AggTrans windows — is engine-invariant, so two engines (or
    an interrupted-and-resumed campaign interval and an uninterrupted one)
    agree on this form byte-for-byte.

    This is the specification of :func:`receipts_digest`, which streams the
    same bytes into its hash without building this form: the digest equals
    BLAKE2b-128 over ``json.dumps(canonical_receipts(reports),
    sort_keys=True, separators=(",", ":"))``.  The conformance suite and the
    digest tests compare against it, and the receipts-digest benchmark sizes
    the hashed bytes with it; no run path calls it.
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
                    "trans_before": receipt.trans_before.tolist(),
                    "trans_after": receipt.trans_after.tolist(),
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


def _window_texts(windows: list[np.ndarray]) -> Iterator[bytes]:
    """The canonical JSON body of each AggTrans window, in the given order.

    Equal windows are spelled once (the memo is keyed by the window's bytes),
    and all their IDs together: one ``np.unique`` finds the distinct IDs, each
    is spelled once with ``str``, and each distinct window's text is one
    ``",".join`` over the spellings of its IDs.  A window is joined where it
    first occurs, so the hash reads its text while it is still in cache.
    """
    slots: dict[bytes, int] = {}
    distinct: list[np.ndarray] = []
    order = []
    for window in windows:
        slot = slots.setdefault(window.tobytes(), len(distinct))
        if slot == len(distinct):
            distinct.append(window)
        order.append(slot)
    if not distinct:
        return
    values, positions = np.unique(np.concatenate(distinct), return_inverse=True)
    words = np.array(list(map(str, values.tolist())), dtype=object)[positions].tolist()
    bounds = np.cumsum([0, *map(len, distinct)]).tolist()
    texts: list[bytes | None] = [None] * len(distinct)
    for slot in order:
        text = texts[slot]
        if text is None:
            text = texts[slot] = ",".join(words[bounds[slot] : bounds[slot + 1]]).encode("ascii")
        yield text


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
    memoised for one call: integers as text, and each distinct AggTrans
    window as its encoded bytes, keyed by the window's array bytes (a window
    recurs at both ends of an inter-domain link).  An interval's windows
    repeat a few thousand distinct packet IDs hundreds of thousands of
    times, so :func:`_window_texts` spells every distinct ID of them once.
    """
    ids = _IntSpellings()
    hops = sorted((str(hop_id), hop_id) for hop_id in reports)
    # Every window's text, in the order the loop below writes the windows.
    windows = _window_texts(
        [
            window
            for _, hop_id in hops
            for receipt in reports[hop_id].aggregate_receipts
            for window in (receipt.trans_after, receipt.trans_before)
        ]
    )

    hasher = hashlib.blake2b(digest_size=16)
    update = hasher.update
    update(b"{")
    for position, (key, hop_id) in enumerate(hops):
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
            update(next(windows))
            update(b'],"trans_before":[')
            update(next(windows))
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
