"""Dict-based reference readings of the three sample-receipt operations.

:mod:`repro.core` combines, cross-checks and matches sample receipts by
array operations on their ``(pkt_id, time)`` columns.  The functions here
read the same operations the way the paper states them: a receipt's records
go into a dict keyed by packet ID (so a repeated ID keeps the position of
its first record and the time of its last), and everything else is a loop
over that dict.  They share no code with the array forms; equal outputs on
hostile inputs (repeated IDs, time ties, signed zeros, subnormals, empty
receipts) are the evidence that the array forms are right.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.consistency import Inconsistency
from repro.core.receipts import SampleReceipt

__all__ = [
    "reference_check_sample_consistency",
    "reference_combine_sample_receipts",
    "reference_match_sample_delays",
]


def _records(receipt: SampleReceipt) -> dict[int, float]:
    return dict(receipt.samples.tolist())


def reference_combine_sample_receipts(receipts: Sequence[SampleReceipt]) -> SampleReceipt:
    """The union of the receipts' records, the last record of an ID winning,
    sorted by ``(time, pkt_id)``."""
    if not receipts:
        raise ValueError("cannot combine an empty sequence of sample receipts")
    path_id = receipts[0].path_id
    threshold = receipts[0].sampling_threshold
    for receipt in receipts[1:]:
        if receipt.path_id != path_id:
            raise ValueError("sample receipts to combine must share the same PathID")
        if receipt.sampling_threshold != threshold:
            raise ValueError("sample receipts to combine must share the same sampling threshold")
    merged: dict[int, float] = {}
    for receipt in receipts:
        merged.update(receipt.samples.tolist())
    samples = sorted(merged.items(), key=lambda record: (record[1], record[0]))
    return SampleReceipt(path_id=path_id, samples=samples, sampling_threshold=threshold)


def reference_check_sample_consistency(
    upstream: SampleReceipt, downstream: SampleReceipt
) -> list[Inconsistency]:
    """Section 4's sample-receipt consistency rules, one dict entry at a time."""
    findings: list[Inconsistency] = []
    up_hop = upstream.path_id.reporting_hop
    down_hop = downstream.path_id.reporting_hop
    if upstream.path_id.max_diff != downstream.path_id.max_diff:
        findings.append(
            Inconsistency(
                kind="max-diff-mismatch",
                upstream_hop=up_hop,
                downstream_hop=down_hop,
                detail=(
                    f"MaxDiff disagreement: {upstream.path_id.max_diff} (upstream) vs "
                    f"{downstream.path_id.max_diff} (downstream)"
                ),
            )
        )
    max_diff = max(upstream.path_id.max_diff, downstream.path_id.max_diff)
    upstream_times = _records(upstream)
    downstream_times = _records(downstream)
    unknown = upstream.sampling_threshold is None or downstream.sampling_threshold is None
    downstream_superset = unknown or downstream.sampling_threshold <= upstream.sampling_threshold
    upstream_superset = unknown or upstream.sampling_threshold <= downstream.sampling_threshold

    for pkt_id, up_time in upstream_times.items():
        if pkt_id not in downstream_times:
            if downstream_superset:
                findings.append(
                    Inconsistency(
                        kind="missing-downstream",
                        upstream_hop=up_hop,
                        downstream_hop=down_hop,
                        pkt_id=pkt_id,
                        detail="upstream HOP reports delivering a sampled packet the "
                        "downstream HOP does not report receiving",
                    )
                )
            continue
        difference = downstream_times[pkt_id] - up_time
        if difference > max_diff or difference < 0:
            findings.append(
                Inconsistency(
                    kind="delay-bound-violation",
                    upstream_hop=up_hop,
                    downstream_hop=down_hop,
                    pkt_id=pkt_id,
                    detail=(
                        f"timestamp difference {difference * 1e3:.3f} ms outside "
                        f"[0, MaxDiff={max_diff * 1e3:.3f} ms]"
                    ),
                )
            )
    for pkt_id in downstream_times:
        if pkt_id not in upstream_times and upstream_superset:
            findings.append(
                Inconsistency(
                    kind="missing-upstream",
                    upstream_hop=up_hop,
                    downstream_hop=down_hop,
                    pkt_id=pkt_id,
                    detail="downstream HOP reports receiving a sampled packet the "
                    "upstream HOP does not report delivering",
                )
            )
    return findings


def reference_match_sample_delays(ingress: SampleReceipt, egress: SampleReceipt) -> np.ndarray:
    """Egress minus ingress time for each egress record whose ID the ingress sampled."""
    ingress_times = _records(ingress)
    delays = [
        time - ingress_times[pkt_id]
        for pkt_id, time in egress.samples.tolist()
        if pkt_id in ingress_times
    ]
    return np.asarray(delays, dtype=float)
