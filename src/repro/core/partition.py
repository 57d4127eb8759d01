"""The partition algebra of Section 6.1 and receipt alignment of Section 6.3.

Two layers live here:

* An abstract layer over ordered packet sets — :class:`PartitionSet`,
  :func:`is_coarser` and :func:`join_partitions` — implementing the
  set-theoretic definitions (partition, "coarser than", join) that Section 6.1
  introduces with Table 1.  This layer is used by the property-based tests to
  validate the algebraic claims the protocol relies on.
* A concrete layer over aggregate *receipts* —
  :func:`align_aggregate_receipts` — which computes the join of two HOPs'
  aggregate sets from their receipts alone (matching aggregates by their
  cutting-point packet IDs), and applies the ``AggTrans`` reordering patch-up
  of Section 6.3 by migrating packets across misaligned boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

from repro.core.receipts import AggregateReceipt, combine_aggregate_receipts

__all__ = [
    "PartitionSet",
    "is_coarser",
    "join_partitions",
    "align_aggregate_receipts",
    "AlignedAggregates",
]


# ---------------------------------------------------------------------------
# Abstract partition algebra (Section 6.1, Table 1)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartitionSet:
    """A partition of an ordered packet set into consecutive aggregates.

    ``aggregates`` is a tuple of tuples; concatenating them yields the
    underlying ordered packet set.  Aggregates must be non-empty.
    """

    aggregates: tuple[tuple[Hashable, ...], ...]

    def __post_init__(self) -> None:
        if any(len(aggregate) == 0 for aggregate in self.aggregates):
            raise ValueError("aggregates must be non-empty")

    @classmethod
    def from_lists(cls, aggregates: Iterable[Iterable[Hashable]]) -> "PartitionSet":
        """Build a partition from any iterable of iterables."""
        return cls(tuple(tuple(aggregate) for aggregate in aggregates))

    @classmethod
    def from_cut_indices(
        cls, items: Sequence[Hashable], cut_indices: Iterable[int]
    ) -> "PartitionSet":
        """Partition ``items`` at the given cut indices.

        A cut index ``k`` means item ``k`` starts a new aggregate.  Index 0 is
        implicitly always a cut (the first item starts the first aggregate).
        """
        cuts = sorted(set(cut_indices) | {0})
        if any(not 0 <= cut < len(items) for cut in cuts):
            raise ValueError("cut indices must be valid positions into items")
        boundaries = cuts + [len(items)]
        aggregates = tuple(
            tuple(items[start:end]) for start, end in zip(boundaries, boundaries[1:])
        )
        return cls(aggregates)

    @property
    def items(self) -> tuple[Hashable, ...]:
        """The underlying ordered packet set."""
        return tuple(item for aggregate in self.aggregates for item in aggregate)

    @property
    def cutting_points(self) -> tuple[Hashable, ...]:
        """The first packet of each aggregate (the cutting points)."""
        return tuple(aggregate[0] for aggregate in self.aggregates)

    @property
    def cut_indices(self) -> tuple[int, ...]:
        """Positions (into the underlying set) where aggregates start."""
        indices = []
        position = 0
        for aggregate in self.aggregates:
            indices.append(position)
            position += len(aggregate)
        return tuple(indices)

    def __len__(self) -> int:
        return len(self.aggregates)

    def __iter__(self):
        return iter(self.aggregates)


def is_coarser(coarse: PartitionSet, fine: PartitionSet) -> bool:
    """Return whether ``coarse >= fine`` (every coarse aggregate is a union of
    fine aggregates).

    Both partitions must be over the same underlying ordered packet set;
    otherwise the relation is undefined and ``ValueError`` is raised.
    """
    if coarse.items != fine.items:
        raise ValueError("partitions are over different packet sets")
    return set(coarse.cut_indices).issubset(set(fine.cut_indices))


def join_partitions(*partitions: PartitionSet) -> PartitionSet:
    """Return ``Join(A1, ..., AN)``: the finest partition coarser than all inputs.

    For partitions of an ordered set into consecutive aggregates, the join's
    cutting points are exactly the cutting points common to every input.
    """
    if not partitions:
        raise ValueError("join requires at least one partition")
    items = partitions[0].items
    for partition in partitions[1:]:
        if partition.items != items:
            raise ValueError("partitions are over different packet sets")
    common_cuts = set(partitions[0].cut_indices)
    for partition in partitions[1:]:
        common_cuts &= set(partition.cut_indices)
    return PartitionSet.from_cut_indices(items, common_cuts)


# ---------------------------------------------------------------------------
# Receipt alignment (Sections 6.1-6.3)
# ---------------------------------------------------------------------------


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


def _combined(group: Sequence[AggregateReceipt]) -> AggregateReceipt:
    """One receipt for a group: a single receipt as it is, else their ``⊎``."""
    return group[0] if len(group) == 1 else combine_aggregate_receipts(group)


def align_aggregate_receipts(
    upstream: Sequence[AggregateReceipt],
    downstream: Sequence[AggregateReceipt],
    apply_reordering_patch: bool = True,
) -> list[tuple[AggregateReceipt, AggregateReceipt]]:
    """Align two HOPs' aggregate receipts over the finest common partition.

    The two receipt sequences cover the same packet stream (possibly with loss
    and bounded reordering between the HOPs).  Aggregates are matched on the
    cutting-point packet IDs present at *both* HOPs — the join of Section 6.1
    computed from receipts alone — and, when ``apply_reordering_patch`` is
    set, the downstream counts are corrected using the ``AggTrans`` windows
    (Section 6.3) so packets observed on different sides of a boundary at the
    two HOPs are attributed to the same aggregate.

    Returns a list of (upstream, downstream) combined-receipt pairs, one per
    joined aggregate; see :func:`aligned_aggregates` for a richer return type.
    """
    pairs = aligned_aggregates(upstream, downstream, apply_reordering_patch)
    return [(pair.upstream, pair.downstream) for pair in pairs]


def aligned_aggregates(
    upstream: Sequence[AggregateReceipt],
    downstream: Sequence[AggregateReceipt],
    apply_reordering_patch: bool = True,
) -> list[AlignedAggregates]:
    """Like :func:`align_aggregate_receipts` but returns :class:`AlignedAggregates`."""
    if not upstream or not downstream:
        return []

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
            if (
                up_receipt.trans_before == down_receipt.trans_before
                and up_receipt.trans_after == down_receipt.trans_after
            ):
                # Both counts below are then |before ∩ after| of one window
                # pair, so they cancel: nothing migrates across this cut.
                continue
            # Packets upstream counted before the cut but downstream after it:
            # migrate them into the earlier downstream aggregate.
            to_earlier = len(set(up_receipt.trans_before).intersection(down_receipt.trans_after))
            # Packets upstream counted after the cut but downstream before it:
            # migrate them into the later downstream aggregate.
            to_later = len(set(up_receipt.trans_after).intersection(down_receipt.trans_before))
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
