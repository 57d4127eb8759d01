"""Receipt alignment: the join of Section 6.1 and the patch-up of Section 6.3.

Section 6.1 (with Table 1) defines a HOP's aggregates as a partition of the
packet stream and the *join* of two partitions as the finest partition
coarser than both: its cutting points are the ones common to every input.
:func:`aligned_aggregates` computes that join from two HOPs' aggregate
receipts alone, matching aggregates by their cutting-point packet IDs and
combining the receipts between consecutive common cutting points.  It then
applies the ``AggTrans`` reordering patch-up of Section 6.3, migrating packets
across boundaries the two HOPs saw them on different sides of.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.receipts import AggregateReceipt, combine_aggregate_receipts

__all__ = ["aligned_aggregates", "AlignedAggregates"]


@dataclass(frozen=True)
class AlignedAggregates:
    """A matched pair of combined aggregate receipts from two HOPs.

    ``upstream``/``downstream`` cover the same span of the packet stream
    (between two consecutive common cutting points); ``migrated_packets`` is
    the net count migrated into the downstream receipt by the reordering
    patch-up (positive: moved into this aggregate from the next one).
    """

    upstream: AggregateReceipt
    downstream: AggregateReceipt
    migrated_packets: int = 0

    @property
    def lost_packets(self) -> int:
        """Packets lost between the two HOPs over this span."""
        return self.upstream.pkt_count - self.downstream.pkt_count

    @property
    def duration(self) -> float:
        """Time span of the aggregate at the upstream HOP (seconds)."""
        return self.upstream.duration


def _boundary_ids(receipts: Sequence[AggregateReceipt]) -> list[int]:
    """The cutting-point packet IDs between consecutive receipts.

    The boundary between receipt ``k`` and ``k+1`` is identified by the first
    packet ID of receipt ``k+1`` (that packet was the cutting point).
    """
    return [receipt.first_pkt_id for receipt in receipts[1:]]


def _group_by_boundaries(
    receipts: Sequence[AggregateReceipt], common_boundaries: Sequence[int]
) -> list[list[AggregateReceipt]]:
    """Split ``receipts`` into groups separated by the common boundaries."""
    groups: list[list[AggregateReceipt]] = [[]]
    boundary_set = list(common_boundaries)
    next_boundary = 0
    for index, receipt in enumerate(receipts):
        if (
            index > 0
            and next_boundary < len(boundary_set)
            and receipt.first_pkt_id == boundary_set[next_boundary]
        ):
            groups.append([])
            next_boundary += 1
        groups[-1].append(receipt)
    return groups


def _distinct(window: np.ndarray) -> np.ndarray:
    """The distinct IDs of an AggTrans window, sorted."""
    ordered = np.sort(window)
    if ordered.size > 1:
        ordered = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    return ordered


def _common_ids(first: np.ndarray, second: np.ndarray) -> int:
    """How many distinct IDs two AggTrans windows share (Section 6.3's sets).

    Deduplicating by sort first lets ``np.intersect1d`` skip its own,
    slower, deduplication.
    """
    return np.intersect1d(_distinct(first), _distinct(second), assume_unique=True).size


def _combined(group: Sequence[AggregateReceipt]) -> AggregateReceipt:
    """One receipt for a group: a single receipt as it is, else their ``⊎``."""
    return group[0] if len(group) == 1 else combine_aggregate_receipts(group)


def aligned_aggregates(
    upstream: Sequence[AggregateReceipt],
    downstream: Sequence[AggregateReceipt],
    apply_reordering_patch: bool = True,
) -> list[AlignedAggregates]:
    """Align two HOPs' aggregate receipts over the finest common partition.

    The two receipt sequences cover the same packet stream (possibly with loss
    and bounded reordering between the HOPs).  Aggregates are matched on the
    cutting-point packet IDs present at *both* HOPs — the join of Section 6.1
    computed from receipts alone — and, when ``apply_reordering_patch`` is
    set, the downstream counts are corrected using the ``AggTrans`` windows
    (Section 6.3) so packets observed on different sides of a boundary at the
    two HOPs are attributed to the same aggregate.

    Returns one :class:`AlignedAggregates` (a pair of combined receipts) per
    joined aggregate.  An upstream with receipts against an empty downstream
    is one pair, every upstream packet lost; an empty upstream gives none.
    """
    if not upstream:
        return []
    if not downstream:
        combined = _combined(upstream)
        return [AlignedAggregates(upstream=combined, downstream=combined.with_count(0))]

    upstream_boundaries = _boundary_ids(upstream)
    downstream_boundary_set = set(_boundary_ids(downstream))
    # Common boundaries, in upstream (i.e. original stream) order.
    common = [
        boundary for boundary in upstream_boundaries if boundary in downstream_boundary_set
    ]

    upstream_groups = _group_by_boundaries(upstream, common)
    downstream_groups = _group_by_boundaries(downstream, common)
    if len(upstream_groups) != len(downstream_groups):
        # A common boundary appeared in a different order downstream (extreme
        # reordering).  Fall back to the coarsest join: everything combined.
        upstream_groups = [list(upstream)]
        downstream_groups = [list(downstream)]
        common = []

    combined_up = [_combined(group) for group in upstream_groups]
    combined_down = [_combined(group) for group in downstream_groups]
    migrations = [0] * len(combined_down)

    if apply_reordering_patch and common:
        # For each common boundary, compare the AggTrans windows of the two
        # receipts that end at that boundary and migrate packets that the two
        # HOPs observed on different sides of it.
        for boundary_index in range(len(common)):
            up_receipt = combined_up[boundary_index]
            down_receipt = combined_down[boundary_index]
            if np.array_equal(up_receipt.trans_before, down_receipt.trans_before) and (
                np.array_equal(up_receipt.trans_after, down_receipt.trans_after)
            ):
                # Both counts below are then |before ∩ after| of one window
                # pair, so they cancel: nothing migrates across this cut.
                continue
            # Packets upstream counted before the cut but downstream after it:
            # migrate them into the earlier downstream aggregate.
            to_earlier = _common_ids(up_receipt.trans_before, down_receipt.trans_after)
            # Packets upstream counted after the cut but downstream before it:
            # migrate them into the later downstream aggregate.
            to_later = _common_ids(up_receipt.trans_after, down_receipt.trans_before)
            delta = to_earlier - to_later
            migrations[boundary_index] += delta
            migrations[boundary_index + 1] -= delta

    results: list[AlignedAggregates] = []
    for index, (up_receipt, down_receipt) in enumerate(zip(combined_up, combined_down)):
        adjusted = down_receipt.with_count(down_receipt.pkt_count + migrations[index])
        results.append(
            AlignedAggregates(
                upstream=up_receipt,
                downstream=adjusted,
                migrated_packets=migrations[index],
            )
        )
    return results
