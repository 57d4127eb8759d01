"""Traffic receipts (Section 4 of the paper).

Each VPM HOP generates two kinds of receipts for the traffic it observes:

* a **sample receipt** ``R = <PathID, Samples>`` where ``Samples`` is a
  sequence of ``<PktID, Time>`` records for the delay-sampled packets;
* an **aggregate receipt** ``R = <PathID, AggID, PktCnt>`` (extended with
  ``AggTrans`` in Section 6.3) for a packet aggregate.

``PathID = <HeaderSpec, PreviousHOP, NextHOP, MaxDiff>`` identifies the HOP
path the traffic belongs to and carries the ``MaxDiff`` bound agreed with the
neighboring HOP across the adjacent inter-domain link.

Receipts hold their ID sequences as read-only NumPy arrays, converted once
on construction: an array of the right dtype that is already read-only is
taken as it is, a writable one is copied (so a receipt never shares a buffer
its caller can still write), and any other sequence is converted, or
rejected with a ``ValueError`` naming the field.  ``Samples`` is one 1-D
structured array of :data:`SAMPLE_DTYPE` records ``(pkt_id, time)`` in
report order; a time must be finite.  Receipts compare by value and are not
hashable.

Implementation extensions (documented, content-preserving):

* Aggregate receipts additionally carry the aggregate's first/last observation
  timestamps and the sum of observation timestamps.  The timestamp sum is the
  Lossy-Difference-Aggregator state that lets a verifier compute *average*
  delay over loss-free aggregates; the first/last timestamps let the verifier
  express loss granularity in seconds (Figure 3's y-axis).  Neither reveals
  more than the per-packet timestamps the strawman already reports.
* ``AggTrans`` is stored as two read-only 1-D ``uint64`` arrays,
  ``trans_before`` and ``trans_after`` (packet IDs observed within ``J``
  before/after the cutting point, in observation order); the paper stores one
  ordered sequence of 2``J`` worth of IDs, from which the same two sets are
  recoverable given the cutting packet's ID.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real
from operator import index
from typing import Sequence

import numpy as np

from repro.net.prefixes import PrefixPair
from repro.util.validation import check_non_negative

__all__ = [
    "PathID",
    "SAMPLE_DTYPE",
    "SampleReceipt",
    "AggregateReceipt",
    "sample_array",
    "distinct_samples",
    "locate_ids",
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

#: One ``<PktID, Time>`` sample record; ``SampleReceipt.samples`` is a 1-D array of these.
SAMPLE_DTYPE = np.dtype([("pkt_id", "<u8"), ("time", "<f8")])


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


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array`` itself when it is read-only, else a read-only copy."""
    if array.flags.writeable:
        array = array.copy()
        array.flags.writeable = False
    return array


def sample_array(ids, times) -> np.ndarray:
    """A read-only :data:`SAMPLE_DTYPE` array from an ID column and a time column."""
    samples = np.empty(len(ids), dtype=SAMPLE_DTYPE)
    samples["pkt_id"] = ids
    samples["time"] = times
    samples.flags.writeable = False
    return samples


def distinct_samples(samples: np.ndarray) -> np.ndarray:
    """The records ``dict(samples.tolist())`` would hold, in its order.

    Each ID appears once, at the position of its first record and with the
    time of its last.  Without repeated IDs, ``samples`` is returned as it is.
    """
    ids = samples["pkt_id"]
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    starts = np.flatnonzero(np.append(True, sorted_ids[1:] != sorted_ids[:-1]))
    if len(starts) >= len(ids):
        return samples
    first = order[starts]
    last = order[np.append(starts[1:], len(ids)) - 1]
    keep = np.argsort(first)
    return sample_array(ids[first[keep]], samples["time"][last[keep]])


def locate_ids(ids: np.ndarray, table_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each of ``ids``: whether the distinct ``table_ids`` hold it, and at which index."""
    if not len(table_ids):
        return np.zeros(len(ids), dtype=bool), np.zeros(len(ids), dtype=np.intp)
    order = np.argsort(table_ids)
    sorted_ids = table_ids[order]
    positions = np.searchsorted(sorted_ids, ids).clip(max=len(order) - 1)
    return sorted_ids[positions] == ids, order[positions]


def _sample_records(value) -> np.ndarray:
    """``value`` as a read-only 1-D :data:`SAMPLE_DTYPE` array (see the module docstring)."""
    if isinstance(value, np.ndarray) and value.dtype == SAMPLE_DTYPE:
        if value.ndim != 1:
            raise ValueError(f"samples must be 1-D, got shape {value.shape}")
        return _read_only(value)
    try:
        pairs = [(pkt_id, time) for pkt_id, time in value]
    except (TypeError, ValueError):
        raise ValueError("samples must be a 1-D sequence of (pkt_id, time) pairs") from None
    try:
        ids = np.fromiter((index(pkt_id) for pkt_id, _ in pairs), np.uint64, len(pairs))
    except (OverflowError, TypeError):
        raise ValueError("samples hold a pkt_id that is not an integer in [0, 2**64)") from None
    if not all(isinstance(time, Real) for _, time in pairs):
        raise ValueError("samples hold a time that is not a real number")
    try:
        return sample_array(ids, [time for _, time in pairs])
    except OverflowError:
        raise ValueError("samples hold a time outside the float64 range") from None


@dataclass(frozen=True, eq=False)
class SampleReceipt:
    """A receipt for a set of delay-sampled packets: ``<PathID, Samples>``.

    ``samples`` accepts any sequence of ``(pkt_id, time)`` pairs and holds a
    read-only :data:`SAMPLE_DTYPE` array (see the module docstring).

    ``sampling_threshold`` is the reporting HOP's (public) sampling threshold
    ``σ``; the verifier uses it to distinguish "this HOP legitimately chose not
    to sample that packet" (its threshold is higher than the neighbor's) from
    "this HOP claims not to have received that packet".  Publishing the
    threshold reveals only the HOP's resource/quality trade-off, which the
    paper already treats as externally observable.
    """

    path_id: PathID
    samples: np.ndarray = ()
    sampling_threshold: int | None = None

    def __post_init__(self) -> None:
        samples = _sample_records(self.samples)
        times = samples["time"]
        if not np.isfinite(times).all():
            bad = int(np.argmin(np.isfinite(times)))
            raise ValueError(f"samples[{bad}] has time {float(times[bad])!r}; must be finite")
        object.__setattr__(self, "samples", samples)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.path_id == other.path_id
            and self.sampling_threshold == other.sampling_threshold
            and np.array_equal(self.samples, other.samples)
        )

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def wire_bytes(self) -> int:
        """Approximate dissemination size of this receipt in bytes."""
        return 8 + len(self.samples) * SAMPLE_RECORD_BYTES


def _window(name: str, value) -> np.ndarray:
    """``value`` as a read-only 1-D ``uint64`` AggTrans window (see the module docstring)."""
    if isinstance(value, np.ndarray) and value.dtype == np.uint64 and value.ndim == 1:
        return _read_only(value)
    try:
        ids = value.tolist() if isinstance(value, np.ndarray) else value
        window = np.fromiter(map(index, ids), dtype=np.uint64)
    except OverflowError:
        raise ValueError(f"{name} holds a packet ID outside [0, 2**64)") from None
    except TypeError:
        raise ValueError(f"{name} must be a 1-D sequence of integer packet IDs") from None
    window.flags.writeable = False
    return window


@dataclass(frozen=True, eq=False)
class AggregateReceipt:
    """A receipt for a packet aggregate.

    ``<PathID, AggID, PktCnt, AggTrans>`` per Sections 4 and 6.3, where
    ``AggID`` is the pair (first packet ID, last packet ID) of the aggregate.
    See the module docstring for the documented extensions (timestamps and the
    split representation of ``AggTrans``).  ``trans_before``/``trans_after``
    accept any sequence of IDs and hold read-only ``uint64`` arrays.
    """

    path_id: PathID
    first_pkt_id: int
    last_pkt_id: int
    pkt_count: int
    start_time: float = 0.0
    end_time: float = 0.0
    time_sum: float = 0.0
    trans_before: np.ndarray = ()
    trans_after: np.ndarray = ()

    def __post_init__(self) -> None:
        if self.pkt_count < 0:
            raise ValueError(f"pkt_count must be >= 0, got {self.pkt_count}")
        for name in ("start_time", "end_time", "time_sum"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.end_time < self.start_time:
            raise ValueError(
                f"end_time {self.end_time} precedes start_time {self.start_time}"
            )
        object.__setattr__(self, "trans_before", _window("trans_before", self.trans_before))
        object.__setattr__(self, "trans_after", _window("trans_after", self.trans_after))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self._scalars() == other._scalars()
            and np.array_equal(self.trans_before, other.trans_before)
            and np.array_equal(self.trans_after, other.trans_after)
        )

    def _scalars(self) -> tuple:
        return (
            self.path_id,
            self.first_pkt_id,
            self.last_pkt_id,
            self.pkt_count,
            self.start_time,
            self.end_time,
            self.time_sum,
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
        """Return a copy with a different packet count (verifier alignment).

        Every other field of ``self`` is already valid, so only the new count
        is checked; the copy shares the read-only windows.
        """
        if pkt_count < 0:
            raise ValueError(f"pkt_count must be >= 0, got {pkt_count}")
        copy = object.__new__(self.__class__)
        copy.__dict__.update(self.__dict__, pkt_count=pkt_count)
        return copy


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
    # The last record of each ID wins, then (time, pkt_id) order.
    merged = distinct_samples(np.concatenate([receipt.samples for receipt in receipts]))
    merged = merged[np.lexsort((merged["pkt_id"], merged["time"]))]
    return SampleReceipt(path_id=path_id, samples=merged, sampling_threshold=threshold)


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
