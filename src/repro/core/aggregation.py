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
Between :meth:`Aggregator.observe_batch` calls that state stays in arrays: the
window is a ``uint64`` id array and a ``float64`` time array, and each pending
receipt's AggTrans windows are ``uint64`` slices.  They are boxed into the
receipt's ``tuple[int, ...]`` fields once, when receipts are drained.
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
    """A closed aggregate waiting for its post-cut AggTrans window to fill.

    ``trans_after`` holds its ids as they arrive: ``uint64`` slices from
    :meth:`Aggregator.observe_batch`, single ids from
    :meth:`Aggregator.observe`.
    """

    aggregate: _OpenAggregate
    cut_time: float
    trans_before: np.ndarray
    trans_after: list[np.ndarray | int] = field(default_factory=list)

    def trans(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The AggTrans windows in the receipt's boxed form."""
        after: list[int] = []
        for part in self.trans_after:
            if isinstance(part, np.ndarray):
                after.extend(part.tolist())
            else:
                after.append(part)
        return tuple(self.trans_before.tolist()), tuple(after)


#: Every this many batch packets, :func:`_peak_occupancy` measures the window
#: exactly to seed its search with a lower bound.
_PEAK_STRIDE = 64


def _peak_occupancy(
    times: np.ndarray, thresholds: np.ndarray, offset: int, floor: int
) -> int:
    """The largest J-window occupancy after any batch packet, if above ``floor``.

    ``times`` is the sorted carried-in window (its first ``offset`` entries)
    followed by the batch, and ``thresholds[i]`` is batch packet ``i``'s time
    minus ``J``.  After packet ``i`` the window holds every packet from the
    first one whose time is ``>= thresholds[i]``, so it holds more than ``k``
    packets iff ``times[offset + i - k] >= thresholds[i]``: the comparison
    ``searchsorted(times, thresholds, side="left")`` makes, ties and ``J = 0``
    included.  Testing one ``k`` is one vector compare over the batch.  The
    stored peak is tested first (in steady state that is the only test); past
    it, a strided sample of exact occupancies gives a lower bound, and a
    gallop and a binary search find the peak.  Returns ``floor`` when no
    packet's window holds more than ``floor`` packets.
    """
    size = len(times)

    def exceeds(k: int) -> bool:
        """Some batch packet's window holds more than ``k`` packets."""
        if k >= size:
            return False
        first = max(0, k - offset)
        return bool(np.any(times[offset + first - k : size - k] >= thresholds[first:]))

    if floor and not exceeds(floor):
        return floor
    sample = np.arange(0, len(thresholds), _PEAK_STRIDE)
    starts = np.searchsorted(times, thresholds[sample], side="left")
    known = max(floor, int((offset + 1 + sample - starts).max()) - 1)
    step = 1
    while exceeds(known + step):
        known += step
        step *= 2
    beyond = known + step
    while beyond - known > 1:
        middle = (known + beyond) // 2
        if exceeds(middle):
            known = middle
        else:
            beyond = middle
    return known + 1


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
        # The sliding window of the last J seconds: id and time arrays while
        # observe_batch() feeds it, a deque of (id, time) pairs while observe()
        # does (``None`` when the arrays are current).  Each converts the
        # other's form once, on entry.
        self._recent_ids = np.empty(0, dtype=np.uint64)
        self._recent_times = np.empty(0, dtype=np.float64)
        self._recent_pairs: deque[tuple[int, float]] | None = None
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
        recent = self._window_pairs()
        if is_cut and self._open is not None and self._open.pkt_count > 0:
            self._cut_count += 1
            trans_before = np.array(
                [pkt_id for pkt_id, seen in recent if seen >= time - self._window],
                dtype=np.uint64,
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
        recent.append((digest, time))
        while recent and recent[0][1] < time - self._window:
            recent.popleft()
        if len(recent) > self._max_window_occupancy:
            self._max_window_occupancy = len(recent)
        return is_cut

    def observe_batch(self, digests, times) -> np.ndarray:
        """Vectorized :meth:`observe` over arrays of digests and timestamps.

        Cutting points are found with one array comparison; the packets of
        each aggregate are folded into the open-aggregate state with array
        reductions, and the AggTrans windows around each cutting point are
        sliced out of the carried window and the batch with binary searches.
        Python-level work is proportional to the number of cutting points,
        not packets.  The carry stays in arrays: the next window is a slice
        of carry plus batch, pending AggTrans windows are ``uint64`` slices,
        and the peak window occupancy comes from an exact lag test
        (:func:`_peak_occupancy`) rather than a search per packet.

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

        # The window carried in from earlier observations plus this batch,
        # for the pre-cut AggTrans windows and the occupancy statistic.
        carry_digests, carry_times = self._window_arrays()
        all_times = np.concatenate([carry_times, time_array])
        if not np.all(all_times[1:] >= all_times[:-1]):
            for index in range(count):
                self.observe(int(digest_array[index]), float(time_array[index]))
            return cut_mask
        all_digests = np.concatenate([carry_digests, digest_array])
        offset = len(carry_digests)

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
            if self._open is not None and self._open.pkt_count > 0:
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

        # 3. The peak occupancy statistic, and the window of the last J
        #    seconds kept for the next call.
        thresholds = time_array - window
        self._max_window_occupancy = _peak_occupancy(
            all_times, thresholds, offset, self._max_window_occupancy
        )
        keep_from = int(np.searchsorted(all_times, thresholds[-1], side="left"))
        self._recent_ids = all_digests[keep_from:].copy()
        self._recent_times = all_times[keep_from:].copy()
        return cut_mask

    def _window_pairs(self) -> deque[tuple[int, float]]:
        """The sliding window as :meth:`observe`'s deque of pairs."""
        if self._recent_pairs is None:
            self._recent_pairs = deque(
                zip(self._recent_ids.tolist(), self._recent_times.tolist())
            )
        return self._recent_pairs

    def _window_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The sliding window as :meth:`observe_batch`'s id and time arrays."""
        pairs = self._recent_pairs
        if pairs is not None:
            self._recent_ids = np.fromiter(
                (pkt_id for pkt_id, _ in pairs), dtype=np.uint64, count=len(pairs)
            )
            self._recent_times = np.fromiter(
                (seen for _, seen in pairs), dtype=np.float64, count=len(pairs)
            )
            self._recent_pairs = None
        return self._recent_ids, self._recent_times

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
                *pending.trans(),
            )

        recent = self._recent_pairs
        if recent is None:
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
            trans_before, _ = self._window_arrays()
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
    def observed_packets(self) -> int:
        """Total packets observed."""
        return self._observed_packets

    def __repr__(self) -> str:
        return (
            f"Aggregator(expected_aggregate_size={self.config.expected_aggregate_size}, "
            f"reorder_window={self.config.reorder_window}, "
            f"observed={self._observed_packets}, cuts={self._cut_count})"
        )
