"""Tunable aggregation — Algorithm 2 plus the AggTrans patch-up (Section 6).

Each HOP breaks the packet stream of a path into **aggregates** at
hash-selected cutting points: a packet whose digest exceeds the partition
threshold ``δ`` closes the current aggregate and starts a new one.  Because a
HOP with a lower ``δ`` cuts at (at least) all the points a HOP with a higher
``δ`` cuts at, independently tuned HOPs "never produce partially overlapping
aggregate sets" (Section 6.2), which keeps their receipts joinable.

To survive bounded reordering (Section 6.3), every closed aggregate's receipt
also carries ``AggTrans``: the packet IDs observed within the safety window
``J`` on either side of the cutting point.  A verifier uses these windows to
migrate packets across misaligned boundaries (see
:func:`repro.core.partition.aligned_aggregates`).

:class:`Aggregator` keeps constant state per open aggregate plus a sliding
window of the last ``J`` seconds of packet IDs; per-packet work is constant.
It takes a path's packets as array batches whose timestamps never decrease,
and between :meth:`Aggregator.observe_batch` calls its state stays in arrays: the
window is a ``uint64`` id array and a ``float64`` time array, and each pending
receipt's AggTrans windows are ``uint64`` slices.  Draining receipts joins each
post-cut window's slices into one array and hands both windows to the receipt
as read-only arrays; no packet ID is boxed into a Python object on the way.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.core.receipts import AggregateReceipt, PathID
from repro.net.hashing import as_digest_array, threshold_for_rate
from repro.util.validation import (
    check_non_negative,
    check_observation_times,
    check_positive,
)

__all__ = ["AggregatorConfig", "Aggregator"]


@dataclass(frozen=True)
class AggregatorConfig:
    """Configuration of a HOP's aggregator.

    Attributes
    ----------
    expected_aggregate_size:
        Target number of packets per aggregate.  The partition threshold ``δ``
        is set so a packet becomes a cutting point with probability
        ``1 / expected_aggregate_size`` (the paper's evaluation uses one
        aggregate per 100,000 packets).
    reorder_window:
        The safety inter-arrival threshold ``J`` (seconds): packets observed
        more than ``J`` apart are assumed never to be reordered.  The paper
        conservatively suggests 10 ms.
    """

    expected_aggregate_size: int = 100_000
    reorder_window: float = 0.01

    def __post_init__(self) -> None:
        check_positive("expected_aggregate_size", self.expected_aggregate_size)
        check_non_negative("reorder_window", self.reorder_window)

    @property
    def partition_rate(self) -> float:
        """Probability that a packet is a cutting point."""
        return 1.0 / self.expected_aggregate_size

    @property
    def partition_threshold(self) -> int:
        """The 64-bit threshold ``δ`` for the configured aggregate size."""
        return threshold_for_rate(self.partition_rate)


@dataclass
class _OpenAggregate:
    """Mutable state of the aggregate currently being filled."""

    first_pkt_id: int
    last_pkt_id: int
    pkt_count: int = 0
    start_time: float = 0.0
    end_time: float = 0.0
    time_sum: float = 0.0


@dataclass
class _PendingReceipt:
    """A closed aggregate waiting for its post-cut AggTrans window to fill.

    ``trans_after`` holds its ids as ``uint64`` slices, one per batch that
    fed the window.
    """

    aggregate: _OpenAggregate
    cut_time: float
    trans_before: np.ndarray
    trans_after: list[np.ndarray] = field(default_factory=list)

    def trans(self) -> tuple[np.ndarray, np.ndarray]:
        """The AggTrans windows as the receipt's read-only ``uint64`` arrays."""
        before = self.trans_before
        after = (
            np.concatenate(self.trans_after)
            if self.trans_after
            else np.empty(0, dtype=np.uint64)
        )
        before.flags.writeable = False
        after.flags.writeable = False
        return before, after


class Aggregator:
    """Per-path implementation of Algorithm 2 (``Partition``) with AggTrans.

    Call :meth:`observe_batch` with the path's packets in observation order
    (their digests and the HOP's timestamps), then :meth:`receipts` to drain
    the finalized aggregate receipts, and :meth:`flush` at the end of a
    reporting period to close the open aggregate.
    """

    def __init__(self, config: AggregatorConfig | None = None) -> None:
        self.config = config or AggregatorConfig()
        self._partition_threshold = self.config.partition_threshold
        self._window = self.config.reorder_window
        self._open: _OpenAggregate | None = None
        # The sliding window of the last J seconds of ids and times.  It
        # always ends with the last packet observed.
        self._recent_ids = np.empty(0, dtype=np.uint64)
        self._recent_times = np.empty(0, dtype=np.float64)
        self._pending: list[_PendingReceipt] = []
        self._finalized: list[_PendingReceipt] = []
        self._observed_packets = 0
        self._cut_count = 0

    # -- observation ---------------------------------------------------------

    def observe_batch(self, digests, times) -> np.ndarray:
        """Process a batch of packets: their digests and observation times.

        ``times`` must be finite and non-decreasing, within the batch and
        from the previous batch on — which is how a HOP observes traffic;
        otherwise ``ValueError`` names the first bad index, and the
        aggregator is left as it was.

        Cutting points are found with one array comparison; the packets of
        each aggregate are folded into the open-aggregate state with array
        reductions, and the AggTrans windows around each cutting point are
        sliced out of the carried window and the batch with binary searches.
        Python-level work is proportional to the number of cutting points,
        not packets.  The carry stays in arrays: the next window is a slice
        of carry plus batch, and pending AggTrans windows are ``uint64``
        slices.  How a stream is cut into batches changes nothing but an
        aggregate's ``time_sum``, in its last few ulps (it is accumulated
        from per-batch prefix sums).

        Returns the boolean cutting-point mask for the batch.
        """
        digest_array = as_digest_array(digests)
        time_array = np.asarray(times, dtype=np.float64)
        if digest_array.shape != time_array.shape:
            raise ValueError(
                f"digests and times must align, got {digest_array.shape} vs {time_array.shape}"
            )
        check_observation_times(time_array, self.last_time)
        carry_digests, carry_times = self._recent_ids, self._recent_times
        count = len(digest_array)
        cut_mask = digest_array > np.uint64(self._partition_threshold)
        if count == 0:
            return cut_mask

        # The window carried in from earlier observations plus this batch,
        # for the pre-cut AggTrans windows.
        all_times = np.concatenate([carry_times, time_array])
        all_digests = np.concatenate([carry_digests, digest_array])
        offset = len(carry_digests)

        window = self._window
        self._observed_packets += count
        last_time = float(time_array[-1])

        # 1. Feed and finalize carry-in pending receipts (their cuts precede
        #    every cut in this batch, so they finalize first).
        still_pending: list[_PendingReceipt] = []
        for pending in self._pending:
            deadline = pending.cut_time + window
            covered = int(np.searchsorted(time_array, deadline, side="right"))
            if covered:
                pending.trans_after.append(digest_array[:covered].copy())
            if last_time > deadline:
                self._finalized.append(pending)
            else:
                still_pending.append(pending)
        self._pending = still_pending

        prefix_sums = np.concatenate([[0.0], np.cumsum(time_array)])

        def add_span(lo: int, hi: int) -> None:
            """Fold packets [lo, hi) of the batch into the open aggregate."""
            if hi <= lo:
                return
            if self._open is None:
                self._open = _OpenAggregate(
                    first_pkt_id=int(digest_array[lo]), last_pkt_id=int(digest_array[lo])
                )
            aggregate = self._open
            if aggregate.pkt_count == 0:
                aggregate.start_time = float(time_array[lo])
            aggregate.last_pkt_id = int(digest_array[hi - 1])
            aggregate.pkt_count += hi - lo
            aggregate.end_time = float(time_array[hi - 1])
            aggregate.time_sum += float(prefix_sums[hi] - prefix_sums[lo])

        # 2. Walk the cutting points; everything between two cuts is folded in
        #    with array reductions.
        segment_start = 0
        for position in np.flatnonzero(cut_mask).tolist():
            add_span(segment_start, position)
            if self._open is not None:
                self._cut_count += 1
                cut_time = float(time_array[position])
                lo = int(np.searchsorted(all_times, cut_time - window, side="left"))
                hi = int(np.searchsorted(time_array, cut_time + window, side="right"))
                pending = _PendingReceipt(
                    aggregate=self._open,
                    cut_time=cut_time,
                    trans_before=all_digests[lo : offset + position].copy(),
                    trans_after=[digest_array[position:hi].copy()],
                )
                if last_time > cut_time + window:
                    self._finalized.append(pending)
                else:
                    self._pending.append(pending)
                self._open = _OpenAggregate(
                    first_pkt_id=int(digest_array[position]),
                    last_pkt_id=int(digest_array[position]),
                )
            add_span(position, position + 1)
            segment_start = position + 1
        add_span(segment_start, count)

        # 3. The window of the last J seconds, kept for the next call.
        keep_from = int(np.searchsorted(all_times, last_time - window, side="left"))
        self._recent_ids = all_digests[keep_from:].copy()
        self._recent_times = all_times[keep_from:].copy()
        return cut_mask

    def state_digest(self) -> str:
        """A stable hex digest of the aggregator's complete observable state.

        ``time_sum`` enters rounded to 10 significant digits — it is the one
        field whose summation order depends on how the stream was batched
        (documented float tolerance); everything else hashes exact bit
        patterns.
        """

        def aggregate_state(aggregate: _OpenAggregate | None):
            if aggregate is None or aggregate.pkt_count == 0:
                return None
            return (
                aggregate.first_pkt_id,
                aggregate.last_pkt_id,
                aggregate.pkt_count,
                aggregate.start_time.hex(),
                aggregate.end_time.hex(),
                f"{aggregate.time_sum:.9e}",
            )

        def receipt_state(pending: _PendingReceipt):
            before, after = pending.trans()
            return (
                aggregate_state(pending.aggregate),
                pending.cut_time.hex(),
                tuple(before.tolist()),
                tuple(after.tolist()),
            )

        recent = zip(self._recent_ids.tolist(), self._recent_times.tolist())
        hasher = hashlib.blake2b(digest_size=16)
        hasher.update(
            repr(
                (
                    self.config.expected_aggregate_size,
                    self.config.reorder_window,
                    aggregate_state(self._open),
                    [(digest, seen.hex()) for digest, seen in recent],
                    [receipt_state(pending) for pending in self._pending],
                    [receipt_state(pending) for pending in self._finalized],
                    self._observed_packets,
                    self._cut_count,
                )
            ).encode()
        )
        return hasher.hexdigest()

    # -- reporting -------------------------------------------------------------

    def flush(self) -> None:
        """Close the open aggregate and finalize all pending receipts.

        Called at the end of a reporting period (or of the simulation); the
        final, possibly partial aggregate is reported like any other.
        """
        self._finalized.extend(self._pending)
        self._pending = []
        if self._open is not None:
            self._finalized.append(
                _PendingReceipt(
                    aggregate=self._open,
                    cut_time=self._open.end_time,
                    trans_before=self._recent_ids,
                )
            )
            self._open = None

    def receipts(self, path_id: PathID, reset: bool = True) -> list[AggregateReceipt]:
        """Return the finalized aggregate receipts accumulated so far."""
        receipts = []
        for pending in self._finalized:
            trans_before, trans_after = pending.trans()
            receipts.append(
                AggregateReceipt(
                    path_id=path_id,
                    first_pkt_id=pending.aggregate.first_pkt_id,
                    last_pkt_id=pending.aggregate.last_pkt_id,
                    pkt_count=pending.aggregate.pkt_count,
                    start_time=pending.aggregate.start_time,
                    end_time=pending.aggregate.end_time,
                    time_sum=pending.aggregate.time_sum,
                    trans_before=trans_before,
                    trans_after=trans_after,
                )
            )
        if reset:
            self._finalized = []
        return receipts

    # -- introspection ----------------------------------------------------------

    @property
    def last_time(self) -> float:
        """The last observation time (``-inf`` before the first packet)."""
        return float(self._recent_times[-1]) if len(self._recent_times) else -np.inf

    @property
    def observed_packets(self) -> int:
        """Total packets observed."""
        return self._observed_packets

    def __repr__(self) -> str:
        return (
            f"Aggregator(expected_aggregate_size={self.config.expected_aggregate_size}, "
            f"reorder_window={self.config.reorder_window}, "
            f"observed={self._observed_packets}, cuts={self._cut_count})"
        )
