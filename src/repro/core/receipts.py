"""Traffic receipts (Section 4 of the paper).

Each VPM HOP generates two kinds of receipts for the traffic it observes:

* a **sample receipt** ``R = <PathID, Samples>`` where ``Samples`` is a
  sequence of ``<PktID, Time>`` records for the delay-sampled packets;
* an **aggregate receipt** ``R = <PathID, AggID, PktCnt>`` (extended with
  ``AggTrans`` in Section 6.3) for a packet aggregate.

``PathID = <HeaderSpec, PreviousHOP, NextHOP, MaxDiff>`` identifies the HOP
path the traffic belongs to and carries the ``MaxDiff`` bound agreed with the
neighboring HOP across the adjacent inter-domain link.

Implementation extensions (documented, content-preserving):

* Aggregate receipts additionally carry the aggregate's first/last observation
  timestamps and the sum of observation timestamps.  The timestamp sum is the
  Lossy-Difference-Aggregator state that lets a verifier compute *average*
  delay over loss-free aggregates; the first/last timestamps let the verifier
  express loss granularity in seconds (Figure 3's y-axis).  Neither reveals
  more than the per-packet timestamps the strawman already reports.
* ``AggTrans`` is stored as two tuples, ``trans_before`` and ``trans_after``
  (packet IDs observed within ``J`` before/after the cutting point); the paper
  stores one ordered sequence of 2``J`` worth of IDs, from which the same two
  sets are recoverable given the cutting packet's ID.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Sequence

from repro.net.prefixes import PrefixPair
from repro.util.validation import check_non_negative

__all__ = [
    "PathID",
    "SampleRecord",
    "SampleReceipt",
    "AggregateReceipt",
    "combine_sample_receipts",
    "combine_aggregate_receipts",
    "SAMPLE_RECORD_BYTES",
    "AGGREGATE_RECEIPT_BYTES",
]

# Wire-size accounting used by the overhead model (Section 7.1): a sample
# record is a 4-byte packet digest plus a 3-byte timestamp; an aggregate
# receipt is roughly 22 bytes (PathID reference, AggID = two digests, PktCnt).
SAMPLE_RECORD_BYTES = 7
AGGREGATE_RECEIPT_BYTES = 22


@dataclass(frozen=True)
class PathID:
    """Identifies the HOP path a receipt refers to.

    Attributes
    ----------
    prefix_pair:
        The ``HeaderSpec``: the (source, destination) origin-prefix pair that
        names the path.
    reporting_hop:
        The HOP that produced the receipt (integer HOP id).
    previous_hop, next_hop:
        The previous and next HOPs on the path (``None`` at the path's edges).
    max_diff:
        The ``MaxDiff`` bound (seconds) agreed with the HOP at the other end
        of the reporting HOP's adjacent *inter-domain* link — the downstream
        link for an egress HOP, the upstream link for an ingress HOP.
    """

    prefix_pair: PrefixPair
    reporting_hop: int
    previous_hop: int | None
    next_hop: int | None
    max_diff: float

    def __post_init__(self) -> None:
        check_non_negative("max_diff", self.max_diff)
        if self.previous_hop is None and self.next_hop is None:
            raise ValueError("a PathID needs at least one of previous_hop/next_hop")


@dataclass(frozen=True, order=True)
class SampleRecord:
    """One sampled measurement: ``<PktID, Time>``."""

    pkt_id: int
    time: float

    @property
    def wire_bytes(self) -> int:
        """Bytes this record contributes to a disseminated receipt."""
        return SAMPLE_RECORD_BYTES


@dataclass(frozen=True)
class SampleReceipt:
    """A receipt for a set of delay-sampled packets: ``<PathID, Samples>``.

    ``sampling_threshold`` is the reporting HOP's (public) sampling threshold
    ``σ``; the verifier uses it to distinguish "this HOP legitimately chose not
    to sample that packet" (its threshold is higher than the neighbor's) from
    "this HOP claims not to have received that packet".  Publishing the
    threshold reveals only the HOP's resource/quality trade-off, which the
    paper already treats as externally observable.
    """

    path_id: PathID
    samples: tuple[SampleRecord, ...] = ()
    sampling_threshold: int | None = None

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def wire_bytes(self) -> int:
        """Approximate dissemination size of this receipt in bytes."""
        return 8 + len(self.samples) * SAMPLE_RECORD_BYTES


@dataclass(frozen=True)
class AggregateReceipt:
    """A receipt for a packet aggregate.

    ``<PathID, AggID, PktCnt, AggTrans>`` per Sections 4 and 6.3, where
    ``AggID`` is the pair (first packet ID, last packet ID) of the aggregate.
    See the module docstring for the documented extensions (timestamps and the
    split representation of ``AggTrans``).
    """

    path_id: PathID
    first_pkt_id: int
    last_pkt_id: int
    pkt_count: int
    start_time: float = 0.0
    end_time: float = 0.0
    time_sum: float = 0.0
    trans_before: tuple[int, ...] = ()
    trans_after: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.pkt_count < 0:
            raise ValueError(f"pkt_count must be >= 0, got {self.pkt_count}")
        if self.end_time < self.start_time:
            raise ValueError(
                f"end_time {self.end_time} precedes start_time {self.start_time}"
            )

    @property
    def agg_id(self) -> tuple[int, int]:
        """The aggregate identifier: (first packet ID, last packet ID)."""
        return (self.first_pkt_id, self.last_pkt_id)

    @property
    def duration(self) -> float:
        """Observation-time span of the aggregate (seconds)."""
        return self.end_time - self.start_time

    @property
    def wire_bytes(self) -> int:
        """Approximate dissemination size of this receipt in bytes."""
        return AGGREGATE_RECEIPT_BYTES + 4 * (len(self.trans_before) + len(self.trans_after))

    def with_count(self, pkt_count: int) -> "AggregateReceipt":
        """Return a copy with a different packet count (verifier alignment)."""
        return replace(self, pkt_count=pkt_count)


def combine_sample_receipts(receipts: Sequence[SampleReceipt]) -> SampleReceipt:
    """Combine sample receipts from the same HOP and path (``⊎`` in the paper).

    The combination is simply the union of the sample sets, sorted by
    observation time for determinism.
    """
    if not receipts:
        raise ValueError("cannot combine an empty sequence of sample receipts")
    path_id = receipts[0].path_id
    threshold = receipts[0].sampling_threshold
    for receipt in receipts[1:]:
        if receipt.path_id != path_id:
            raise ValueError("sample receipts to combine must share the same PathID")
        if receipt.sampling_threshold != threshold:
            raise ValueError(
                "sample receipts to combine must share the same sampling "
                f"threshold (sampling-function identity); got "
                f"{threshold!r} vs {receipt.sampling_threshold!r}"
            )
    merged: dict[int, SampleRecord] = {}
    for receipt in receipts:
        for record in receipt.samples:
            merged[record.pkt_id] = record
    samples = tuple(sorted(merged.values(), key=attrgetter("time", "pkt_id")))
    return SampleReceipt(
        path_id=path_id,
        samples=samples,
        sampling_threshold=receipts[0].sampling_threshold,
    )


def combine_aggregate_receipts(
    receipts: Sequence[AggregateReceipt],
) -> AggregateReceipt:
    """Combine *consecutive* aggregate receipts from the same HOP and path.

    The combined receipt covers the union of the aggregates: its ``AggID`` is
    (first ID of the first aggregate, last ID of the last aggregate) and its
    packet count is the sum of the counts, exactly the paper's ``⊎`` for
    aggregate receipts.  Receipts must be passed in observation order.
    """
    if not receipts:
        raise ValueError("cannot combine an empty sequence of aggregate receipts")
    path_id = receipts[0].path_id
    previous_end = None
    for receipt in receipts:
        if receipt.path_id != path_id:
            raise ValueError("aggregate receipts to combine must share the same PathID")
        if previous_end is not None and receipt.start_time < previous_end - 1e-12:
            raise ValueError(
                "aggregate receipts must be consecutive and in observation order"
            )
        previous_end = receipt.end_time
    return AggregateReceipt(
        path_id=path_id,
        first_pkt_id=receipts[0].first_pkt_id,
        last_pkt_id=receipts[-1].last_pkt_id,
        pkt_count=sum(receipt.pkt_count for receipt in receipts),
        start_time=receipts[0].start_time,
        end_time=receipts[-1].end_time,
        time_sum=sum(receipt.time_sum for receipt in receipts),
        trans_before=receipts[-1].trans_before,
        trans_after=receipts[-1].trans_after,
    )
