"""The receipts digest: ``VPM2``, one versioned binary encoding of an interval's receipts.

A campaign run store records one digest per interval, :func:`receipts_digest`,
so a customer can later prove which receipts a verdict rests on; the digest is
BLAKE2b-128 over the ``VPM2`` bytes of every HOP's receipts.  ``VPM2`` is a
fingerprint encoding at full 64-bit width, not a wire format: the paper
leaves the wire format open, and its Section 7.1 byte accounting is the
``wire_bytes`` model on the receipt classes (:mod:`repro.core.receipts`).

Layout.  Every field is little-endian and fixed-width — ``u1``/``u8`` are 1- and
8-byte unsigned integers, ``i8`` an 8-byte signed integer, ``f8`` the bits of
an IEEE-754 double (so ``-0.0``, ``0.0`` and each subnormal differ) — and every
variable-length part is preceded by its length:

1. The magic ``b"VPM2"``, then the HOP count (``u8``).
2. Per HOP, in ascending numeric id: the id (``i8``), then its aggregate
   receipt count (``u8``).
3. One header row per aggregate receipt, HOP by HOP in the order of part 2
   and in report order within a HOP, 64 bytes each: ``first_pkt_id``,
   ``last_pkt_id``, ``pkt_count`` (``u8`` each), ``start_time``,
   ``end_time`` (``f8`` each), ``time_sum`` as the ``f8`` of
   ``float(f"{time_sum:.9e}")``, then ``len(trans_after)`` and
   ``len(trans_before)`` (``u8`` each).  ``time_sum`` is rounded to 10
   significant digits because it is the one field whose float accumulation
   order legitimately differs between the batch and streaming engines (and
   between chunk sizes); every other field is engine-invariant.
4. Each aggregate's ``trans_after`` then ``trans_before`` window, in the
   order of part 3, as ``u8`` packet IDs.
5. Per HOP, in the order of part 2: its sample-receipt count (``u8``), then
   per sample receipt, in report order:

   - the length (``u8``) and UTF-8 bytes of the path's prefix pair as
     ``str(prefix_pair)``;
   - ``reporting_hop`` (``i8``);
   - a presence byte (``u1``, 1 when there is a ``sampling_threshold``)
     and the threshold (``u8``, 0 when absent);
   - the record count ``n`` (``u8``), then the ``n`` ``pkt_id`` values
     (``u8``), then the ``n`` times (``f8``).

So two report sets encode equal exactly when they hold the same HOP ids and,
per HOP, the same receipts field for field, ``time_sum`` up to its tolerance.
Fields of the ``PathID`` other than the prefix pair and the reporting HOP
are not bound: they are fixed by the path, which the spec hash binds.  A
value its field cannot hold raises :class:`ValueError` naming the field.
"""

from __future__ import annotations

import hashlib
import struct
from operator import attrgetter, index
from typing import Any, Iterable, Mapping

import numpy as np

from repro.core.hop import HOPReport

__all__ = ["receipts_digest"]

# Part 3: one row per aggregate receipt.
_HEADER = np.dtype(
    [
        ("first_pkt_id", "<u8"),
        ("last_pkt_id", "<u8"),
        ("pkt_count", "<u8"),
        ("start_time", "<f8"),
        ("end_time", "<f8"),
        ("time_sum", "<f8"),
        ("trans_after", "<u8"),
        ("trans_before", "<u8"),
    ]
)


def _pack(field: str, layout: str, value: Any) -> bytes:
    try:
        return struct.pack(layout, value)
    except struct.error:
        raise ValueError(f"{field} {value!r} does not fit its VPM2 field") from None


def _integers(field: str, values: Iterable[Any], count: int) -> np.ndarray:
    """``count`` integers as one ``u8`` column; a non-integer or out-of-range value raises."""
    try:
        return np.fromiter(map(index, values), dtype="<u8", count=count)
    except (OverflowError, TypeError):
        raise ValueError(f"{field} holds a value that is not an integer in [0, 2**64)") from None


def receipts_digest(reports: Mapping[int, HOPReport]) -> str:
    """BLAKE2b-128 hex digest of every HOP's receipts in the ``VPM2`` encoding.

    Equal digests mean equal receipts up to the documented ``time_sum``
    tolerance — the auditable per-interval fingerprint a campaign run store
    records.  The bytes of the module docstring's layout are streamed into
    the hash straight from the receipts' arrays: the header rows as one
    structured array, all AggTrans windows as one ``u8`` buffer, and each
    sample receipt's IDs and times as one buffer each.
    """
    hops = sorted(reports)
    hasher = hashlib.blake2b(digest_size=16)
    update = hasher.update
    update(b"VPM2" + struct.pack("<Q", len(hops)))
    for hop in hops:
        aggregate_count = len(reports[hop].aggregate_receipts)
        update(_pack("HOP id", "<q", hop) + struct.pack("<Q", aggregate_count))

    aggregates = [receipt for hop in hops for receipt in reports[hop].aggregate_receipts]
    count = len(aggregates)
    header = np.empty(count, dtype=_HEADER)
    for field in ("first_pkt_id", "last_pkt_id", "pkt_count"):
        header[field] = _integers(field, map(attrgetter(field), aggregates), count)
    header["start_time"] = [receipt.start_time for receipt in aggregates]
    header["end_time"] = [receipt.end_time for receipt in aggregates]
    header["time_sum"] = [float(f"{receipt.time_sum:.9e}") for receipt in aggregates]
    windows = [
        window for receipt in aggregates for window in (receipt.trans_after, receipt.trans_before)
    ]
    header["trans_after"] = [len(window) for window in windows[0::2]]
    header["trans_before"] = [len(window) for window in windows[1::2]]
    update(header.tobytes())
    if windows:
        update(np.concatenate(windows).astype("<u8", copy=False))

    for hop in hops:
        sample_receipts = reports[hop].sample_receipts
        update(struct.pack("<Q", len(sample_receipts)))
        for receipt in sample_receipts:
            path = str(receipt.path_id.prefix_pair).encode("utf-8")
            threshold = receipt.sampling_threshold
            samples = receipt.samples
            update(struct.pack("<Q", len(path)) + path)
            update(_pack("reporting_hop", "<q", receipt.path_id.reporting_hop))
            update(struct.pack("<B", threshold is not None))
            update(_pack("sampling_threshold", "<Q", threshold or 0))
            update(struct.pack("<Q", len(samples)))
            update(samples["pkt_id"].tobytes())
            update(samples["time"].tobytes())
    return hasher.hexdigest()
