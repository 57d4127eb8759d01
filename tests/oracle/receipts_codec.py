"""An independent ``VPM2`` encoder: the receipts digest's reference.

Written from the layout in the :mod:`repro.reporting.serialization` module
docstring, field by field, with one :func:`struct.pack` per part and no
numpy, so it shares no code with the encoder it checks.  The digest tests
assert ``receipts_digest(reports) == oracle_digest(reports)``.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Mapping

from repro.core.hop import HOPReport

__all__ = ["encode_receipts", "oracle_digest"]


def encode_receipts(reports: Mapping[int, HOPReport]) -> bytes:
    """The ``VPM2`` bytes of ``reports``."""
    hops = sorted(reports)
    out = bytearray(b"VPM2")
    out += struct.pack("<Q", len(hops))
    for hop in hops:
        out += struct.pack("<qQ", hop, len(reports[hop].aggregate_receipts))
    aggregates = [receipt for hop in hops for receipt in reports[hop].aggregate_receipts]
    for receipt in aggregates:
        out += struct.pack(
            "<3Q3d2Q",
            receipt.first_pkt_id,
            receipt.last_pkt_id,
            receipt.pkt_count,
            receipt.start_time,
            receipt.end_time,
            float(f"{receipt.time_sum:.9e}"),
            len(receipt.trans_after),
            len(receipt.trans_before),
        )
    for receipt in aggregates:
        for window in (receipt.trans_after, receipt.trans_before):
            out += struct.pack(f"<{len(window)}Q", *(int(pkt_id) for pkt_id in window))
    for hop in hops:
        sample_receipts = reports[hop].sample_receipts
        out += struct.pack("<Q", len(sample_receipts))
        for receipt in sample_receipts:
            path = str(receipt.path_id.prefix_pair).encode("utf-8")
            out += struct.pack("<Q", len(path)) + path
            out += struct.pack("<q", receipt.path_id.reporting_hop)
            threshold = receipt.sampling_threshold
            out += struct.pack("<B", 0 if threshold is None else 1)
            out += struct.pack("<Q", 0 if threshold is None else threshold)
            records = receipt.samples.tolist()
            count = len(records)
            out += struct.pack("<Q", count)
            out += struct.pack(f"<{count}Q", *(pkt_id for pkt_id, _ in records))
            out += struct.pack(f"<{count}d", *(time for _, time in records))
    return bytes(out)


def oracle_digest(reports: Mapping[int, HOPReport]) -> str:
    """BLAKE2b-128 hex digest of :func:`encode_receipts`."""
    return hashlib.blake2b(encode_receipts(reports), digest_size=16).hexdigest()
