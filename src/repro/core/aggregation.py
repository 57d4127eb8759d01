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
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.core.receipts import AggregateReceipt, PathID
from repro.net.hashing import MASK64, as_digest_array, threshold_for_rate
from repro.util.validation import check_non_negative, check_positive

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

    def add(self, digest: int, time: float) -> None:
        if self.pkt_count == 0:
            self.start_time = time
        self.last_pkt_id = digest
        self.pkt_count += 1
        self.end_time = time
        self.time_sum += time


@dataclass
class _PendingReceipt:
    """A closed aggregate waiting for its post-cut AggTrans window to fill."""

    aggregate: _OpenAggregate
    cut_time: float
    trans_before: tuple[int, ...]
    trans_after: list[int] = field(default_factory=list)


class Aggregator:
    """Per-path implementation of Algorithm 2 (``Partition``) with AggTrans.

    Call :meth:`observe` for every packet of the path in observation order
    (passing the packet digest and the HOP's local timestamp), then
    :meth:`receipts` to drain the finalized aggregate receipts, and
    :meth:`flush` at the end of a reporting period to close the open
    aggregate.
    """

    def __init__(self, config: AggregatorConfig | None = None) -> None:
        self.config = config or AggregatorConfig()
        self._partition_threshold = self.config.partition_threshold
        self._window = self.config.reorder_window
        self._open: _OpenAggregate | None = None
        self._recent: deque[tuple[int, float]] = deque()
        self._pending: list[_PendingReceipt] = []
        self._finalized: list[_PendingReceipt] = []
        self._observed_packets = 0
        self._cut_count = 0
        self._max_window_occupancy = 0

    # -- observation ---------------------------------------------------------

    def observe(self, digest: int, time: float) -> bool:
        """Process one observed packet.

        Returns ``True`` if the packet was a cutting point (started a new
        aggregate).
        """
        if not 0 <= digest <= MASK64:
            raise ValueError(f"digest must be a 64-bit value, got {digest!r}")
        is_cut = digest > self._partition_threshold
        self._observed_packets += 1
        self._finalize_pending(time)
        if is_cut and self._open is not None and self._open.pkt_count > 0:
            self._cut_count += 1
            trans_before = tuple(
                pkt_id for pkt_id, seen in self._recent if seen >= time - self._window
            )
            self._pending.append(
                _PendingReceipt(
                    aggregate=self._open, cut_time=time, trans_before=trans_before
                )
            )
            self._open = _OpenAggregate(first_pkt_id=digest, last_pkt_id=digest)
        elif self._open is None:
            self._open = _OpenAggregate(first_pkt_id=digest, last_pkt_id=digest)

        self._open.add(digest, time)

        # Feed the post-cut window of any aggregate closed less than J ago.
        for pending in self._pending:
            if time <= pending.cut_time + self._window:
                pending.trans_after.append(digest)

        # Maintain the sliding window of the last J seconds of packet IDs.
        self._recent.append((digest, time))
        while self._recent and self._recent[0][1] < time - self._window:
            self._recent.popleft()
        if len(self._recent) > self._max_window_occupancy:
            self._max_window_occupancy = len(self._recent)
        return is_cut

    def observe_batch(self, digests, times) -> np.ndarray:
        """Vectorized :meth:`observe` over arrays of digests and timestamps.

        Cutting points are found with one array comparison; the packets of
        each aggregate are folded into the open-aggregate state with array
        reductions, and the AggTrans windows around each cutting point are
        extracted with binary searches.  Python-level work is proportional to
        the number of cutting points, not packets.

        The fast path requires observation timestamps that are non-decreasing
        (within the batch and relative to earlier observations) — which is how
        HOPs observe traffic.  Batches that violate this fall back to the
        scalar loop.  Either way the resulting state matches repeated scalar
        :meth:`observe` calls exactly — same aggregates, cutting points,
        AggTrans windows and counters — except that an aggregate's
        ``time_sum`` may differ in the last few ulps on the fast path (it is
        accumulated via prefix sums rather than one packet at a time).  Both
        paths interleave freely on one instance.

        Returns the boolean cutting-point mask for the batch.
        """
        digest_array = as_digest_array(digests)
        time_array = np.asarray(times, dtype=np.float64)
        if digest_array.shape != time_array.shape:
            raise ValueError(
                f"digests and times must align, got {digest_array.shape} vs {time_array.shape}"
            )
        count = len(digest_array)
        cut_mask = digest_array > np.uint64(self._partition_threshold)
        if count == 0:
            return cut_mask

        recent_times = [entry[1] for entry in self._recent]
        sorted_within = bool(np.all(time_array[1:] >= time_array[:-1]))
        sorted_carry = all(
            earlier <= later for earlier, later in zip(recent_times, recent_times[1:])
        ) and (not recent_times or recent_times[-1] <= time_array[0])
        if not (sorted_within and sorted_carry):
            for index in range(count):
                self.observe(int(digest_array[index]), float(time_array[index]))
            return cut_mask

        window = self._window
        self._observed_packets += count
        last_time = float(time_array[-1])

        # 1. Feed and finalize carry-in pending receipts (their cuts precede
        #    every cut in this batch, so they finalize first — same order as
        #    the scalar loop).
        still_pending: list[_PendingReceipt] = []
        for pending in self._pending:
            deadline = pending.cut_time + window
            covered = int(np.searchsorted(time_array, deadline, side="right"))
            if covered:
                pending.trans_after.extend(digest_array[:covered].tolist())
            if last_time > deadline:
                self._finalized.append(pending)
            else:
                still_pending.append(pending)
        self._pending = still_pending

        # Concatenated view of the sliding window carried in from earlier
        # observations plus this batch, for the pre-cut AggTrans windows.
        carry_digests = np.fromiter(
            (entry[0] for entry in self._recent), dtype=np.uint64, count=len(self._recent)
        )
        carry_times = np.asarray(recent_times, dtype=np.float64)
        all_digests = np.concatenate([carry_digests, digest_array])
        all_times = np.concatenate([carry_times, time_array])
        offset = len(carry_digests)

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
        for position in np.flatnonzero(cut_mask):
            position = int(position)
            add_span(segment_start, position)
            if self._open is not None and self._open.pkt_count > 0:
                self._cut_count += 1
                cut_time = float(time_array[position])
                lo = int(np.searchsorted(all_times, cut_time - window, side="left"))
                trans_before = tuple(all_digests[lo : offset + position].tolist())
                hi = int(np.searchsorted(time_array, cut_time + window, side="right"))
                pending = _PendingReceipt(
                    aggregate=self._open,
                    cut_time=cut_time,
                    trans_before=trans_before,
                    trans_after=digest_array[position:hi].tolist(),
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

        # 3. Rebuild the sliding window of the last J seconds and the peak
        #    occupancy statistic (occupancy after packet i = packets since the
        #    first one within J of it, including carried-in entries).
        window_starts = np.searchsorted(all_times, time_array - window, side="left")
        occupancies = np.arange(offset + 1, offset + count + 1) - window_starts
        peak = int(occupancies.max())
        if peak > self._max_window_occupancy:
            self._max_window_occupancy = peak
        keep_from = int(window_starts[-1])
        self._recent = deque(
            zip(all_digests[keep_from:].tolist(), all_times[keep_from:].tolist())
        )
        return cut_mask

    def state_digest(self) -> str:
        """A stable hex digest of the aggregator's complete observable state.

        ``time_sum`` enters rounded to 10 significant digits — it is the one
        field accumulated in different orders by the scalar, batch and
        streaming paths (documented float tolerance); everything else hashes
        exact bit patterns.
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
            return (
                aggregate_state(pending.aggregate),
                pending.cut_time.hex(),
                pending.trans_before,
                tuple(pending.trans_after),
            )

        hasher = hashlib.blake2b(digest_size=16)
        hasher.update(
            repr(
                (
                    self.config.expected_aggregate_size,
                    self.config.reorder_window,
                    aggregate_state(self._open),
                    [(digest, seen.hex()) for digest, seen in self._recent],
                    [receipt_state(pending) for pending in self._pending],
                    [receipt_state(pending) for pending in self._finalized],
                    self._observed_packets,
                    self._cut_count,
                    self._max_window_occupancy,
                )
            ).encode()
        )
        return hasher.hexdigest()

    def _finalize_pending(self, now: float) -> None:
        """Move pending receipts whose post-cut window has elapsed to finalized."""
        still_pending: list[_PendingReceipt] = []
        for pending in self._pending:
            if now > pending.cut_time + self._window:
                self._finalized.append(pending)
            else:
                still_pending.append(pending)
        self._pending = still_pending

    # -- reporting -------------------------------------------------------------

    def flush(self) -> None:
        """Close the open aggregate and finalize all pending receipts.

        Called at the end of a reporting period (or of the simulation); the
        final, possibly partial aggregate is reported like any other.
        """
        if self._open is not None and self._open.pkt_count > 0:
            trans_before = tuple(pkt_id for pkt_id, _ in self._recent)
            self._finalized.extend(self._pending)
            self._pending = []
            self._finalized.append(
                _PendingReceipt(
                    aggregate=self._open,
                    cut_time=self._open.end_time,
                    trans_before=trans_before,
                )
            )
            self._open = None
        else:
            self._finalized.extend(self._pending)
            self._pending = []

    def receipts(self, path_id: PathID, reset: bool = True) -> list[AggregateReceipt]:
        """Return the finalized aggregate receipts accumulated so far."""
        receipts = [
            AggregateReceipt(
                path_id=path_id,
                first_pkt_id=pending.aggregate.first_pkt_id,
                last_pkt_id=pending.aggregate.last_pkt_id,
                pkt_count=pending.aggregate.pkt_count,
                start_time=pending.aggregate.start_time,
                end_time=pending.aggregate.end_time,
                time_sum=pending.aggregate.time_sum,
                trans_before=pending.trans_before,
                trans_after=tuple(pending.trans_after),
            )
            for pending in self._finalized
        ]
        if reset:
            self._finalized = []
        return receipts

    # -- introspection ----------------------------------------------------------

    @property
    def observed_packets(self) -> int:
        """Total packets observed."""
        return self._observed_packets

    @property
    def cut_count(self) -> int:
        """Number of cutting points observed (closed aggregates)."""
        return self._cut_count

    @property
    def open_aggregate_size(self) -> int:
        """Packets in the currently open aggregate."""
        return self._open.pkt_count if self._open is not None else 0

    @property
    def max_window_occupancy(self) -> int:
        """Largest sliding-window occupancy seen (packets within J seconds)."""
        return self._max_window_occupancy

    def __repr__(self) -> str:
        return (
            f"Aggregator(expected_aggregate_size={self.config.expected_aggregate_size}, "
            f"reorder_window={self.config.reorder_window}, "
            f"observed={self._observed_packets}, cuts={self._cut_count})"
        )
