"""Per-packet reference collectors: Algorithms 1 and 2 one packet at a time.

:class:`ReferenceSampler`, :class:`ReferenceAggregator` and
:class:`ReferenceCollector` read the paper's pseudocode literally: each
packet updates a list or deque of ``(digest, time)`` pairs, and every
AggTrans window is built one id at a time.  They share no observation code
with :mod:`repro.core`, whose collectors take sorted array batches; a batch
run that ends in the same state as these (equal ``state_digest()``, equal
receipts after ``flush()``, equal counters) is evidence that the vectorised
pass is right.

The state digests are spelled exactly like their :mod:`repro.core` twins, so
a reference and a batch instance can be compared with one string equality.
:class:`ReferenceCollector` mirrors a :class:`~repro.core.hop.HOPCollector`'s
paths and duck-types what :class:`~repro.core.hop.HOPProcessor` and the
session overhead read, so it can stand in for one inside a
:class:`~repro.core.domain.DomainAgent`.
"""

from __future__ import annotations

import hashlib
import itertools
import struct
from collections import deque
from dataclasses import dataclass, field

from repro.core.aggregation import AggregatorConfig
from repro.core.hop import HOPCollector
from repro.core.receipts import AggregateReceipt, PathID, SampleReceipt
from repro.core.sampling import SamplerConfig
from repro.net.hashing import MASK64, combine64
from repro.net.packet import Packet

__all__ = [
    "ReferenceAggregator",
    "ReferenceCollector",
    "ReferenceSampler",
    "sample_function",
]


def sample_function(buffered_digest: int, marker_digest: int) -> int:
    """``SampleFcn(Digest(q), Digest(p))`` from Algorithm 1, one pair at a time.

    ``buffered_digest`` is the digest of a packet ``q`` held in the temporary
    buffer; ``marker_digest`` is the digest of the marker packet ``p`` observed
    later on the same path.
    """
    return combine64(buffered_digest & MASK64, marker_digest & MASK64)


def _check_digest(digest: int) -> None:
    if not 0 <= digest <= MASK64:
        raise ValueError(f"digest must be a 64-bit value, got {digest!r}")


class ReferenceSampler:
    """Algorithm 1 (``DelaySample``) over a list-of-pairs TempBuffer."""

    def __init__(self, config: SamplerConfig | None = None) -> None:
        self.config = config or SamplerConfig()
        self._marker_threshold = self.config.marker_threshold
        self._sampling_threshold = self.config.sampling_threshold
        self.buffer: list[tuple[int, float]] = []
        self.samples: list[tuple[int, float]] = []
        self.observed_packets = 0
        self.max_buffer_occupancy = 0

    def observe(self, digest: int, time: float) -> bool:
        """Process one packet; ``True`` if it was a marker (and so sampled)."""
        _check_digest(digest)
        self.observed_packets += 1
        if digest > self._marker_threshold:
            for buffered_digest, buffered_time in self.buffer:
                if sample_function(buffered_digest, digest) > self._sampling_threshold:
                    self.samples.append((buffered_digest, buffered_time))
            self.buffer.clear()
            self.samples.append((digest, time))
            return True
        self.buffer.append((digest, time))
        self.max_buffer_occupancy = max(self.max_buffer_occupancy, len(self.buffer))
        return False

    def observe_all(self, digests, times) -> None:
        """:meth:`observe` each ``(digest, time)`` pair in order."""
        for digest, time in zip(digests, times):
            self.observe(int(digest), float(time))

    def receipt(self, path_id: PathID, reset: bool = True) -> SampleReceipt:
        receipt = SampleReceipt(
            path_id=path_id,
            samples=self.samples,
            sampling_threshold=self._sampling_threshold,
        )
        if reset:
            self.samples = []
        return receipt

    def state_digest(self) -> str:
        """Spelled like :meth:`repro.core.sampling.DelaySampler.state_digest`."""
        hasher = hashlib.blake2b(digest_size=16)
        hasher.update(
            repr(
                (
                    self.config.sampling_rate,
                    self.config.marker_rate,
                    len(self.samples),
                    len(self.buffer),
                    self.observed_packets,
                    self.max_buffer_occupancy,
                )
            ).encode()
        )
        records = self.samples + self.buffer
        hasher.update(struct.pack("<" + "Qd" * len(records), *itertools.chain(*records)))
        return hasher.hexdigest()


@dataclass
class _Aggregate:
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
class _Pending:
    aggregate: _Aggregate
    cut_time: float
    trans_before: list[int]
    trans_after: list[int] = field(default_factory=list)


class ReferenceAggregator:
    """Algorithm 2 (``Partition``) with AggTrans over a deque of pairs."""

    def __init__(self, config: AggregatorConfig | None = None) -> None:
        self.config = config or AggregatorConfig()
        self._partition_threshold = self.config.partition_threshold
        self._window = self.config.reorder_window
        self._open: _Aggregate | None = None
        self.recent: deque[tuple[int, float]] = deque()
        self._pending: list[_Pending] = []
        self._finalized: list[_Pending] = []
        self.observed_packets = 0
        self.cut_count = 0

    def observe(self, digest: int, time: float) -> bool:
        """Process one packet; ``True`` if it was a cutting point."""
        _check_digest(digest)
        is_cut = digest > self._partition_threshold
        self.observed_packets += 1
        still_pending = []
        for pending in self._pending:
            if time > pending.cut_time + self._window:
                self._finalized.append(pending)
            else:
                still_pending.append(pending)
        self._pending = still_pending
        if is_cut and self._open is not None and self._open.pkt_count > 0:
            self.cut_count += 1
            trans_before = [
                pkt_id for pkt_id, seen in self.recent if seen >= time - self._window
            ]
            self._pending.append(_Pending(self._open, time, trans_before))
            self._open = _Aggregate(first_pkt_id=digest, last_pkt_id=digest)
        elif self._open is None:
            self._open = _Aggregate(first_pkt_id=digest, last_pkt_id=digest)
        self._open.add(digest, time)

        # Feed the post-cut window of any aggregate closed less than J ago.
        for pending in self._pending:
            if time <= pending.cut_time + self._window:
                pending.trans_after.append(digest)

        # The sliding window of the last J seconds of packet IDs.
        self.recent.append((digest, time))
        while self.recent and self.recent[0][1] < time - self._window:
            self.recent.popleft()
        return is_cut

    def observe_all(self, digests, times) -> None:
        """:meth:`observe` each ``(digest, time)`` pair in order."""
        for digest, time in zip(digests, times):
            self.observe(int(digest), float(time))

    def flush(self) -> None:
        """Close the open aggregate and finalize every pending receipt."""
        self._finalized.extend(self._pending)
        self._pending = []
        if self._open is not None and self._open.pkt_count > 0:
            self._finalized.append(
                _Pending(
                    self._open,
                    self._open.end_time,
                    [pkt_id for pkt_id, _ in self.recent],
                )
            )
            self._open = None

    def receipts(self, path_id: PathID, reset: bool = True) -> list[AggregateReceipt]:
        receipts = [
            AggregateReceipt(
                path_id=path_id,
                first_pkt_id=pending.aggregate.first_pkt_id,
                last_pkt_id=pending.aggregate.last_pkt_id,
                pkt_count=pending.aggregate.pkt_count,
                start_time=pending.aggregate.start_time,
                end_time=pending.aggregate.end_time,
                time_sum=pending.aggregate.time_sum,
                trans_before=tuple(pending.trans_before),
                trans_after=tuple(pending.trans_after),
            )
            for pending in self._finalized
        ]
        if reset:
            self._finalized = []
        return receipts

    def state_digest(self) -> str:
        """Spelled like :meth:`repro.core.aggregation.Aggregator.state_digest`."""

        def aggregate_state(aggregate: _Aggregate | None):
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

        def receipt_state(pending: _Pending):
            return (
                aggregate_state(pending.aggregate),
                pending.cut_time.hex(),
                tuple(pending.trans_before),
                tuple(pending.trans_after),
            )

        hasher = hashlib.blake2b(digest_size=16)
        hasher.update(
            repr(
                (
                    self.config.expected_aggregate_size,
                    self.config.reorder_window,
                    aggregate_state(self._open),
                    [(digest, seen.hex()) for digest, seen in self.recent],
                    [receipt_state(pending) for pending in self._pending],
                    [receipt_state(pending) for pending in self._finalized],
                    self.observed_packets,
                    self.cut_count,
                )
            ).encode()
        )
        return hasher.hexdigest()


@dataclass
class ReferencePathState:
    """One registered path's reference state (the twin of the collector's)."""

    path_id: PathID
    sampler: ReferenceSampler
    aggregator: ReferenceAggregator
    observed_packets: int = 0
    observed_bytes: int = 0


class ReferenceCollector:
    """A HOP collector fed one :class:`~repro.net.packet.Packet` at a time.

    Built from a :class:`~repro.core.hop.HOPCollector`: it takes that
    collector's HOP, configuration and registered paths (in registration
    order, which decides classification), with empty state.
    """

    def __init__(self, like: HOPCollector) -> None:
        self.hop = like.hop
        self.config = like.config
        self._paths = {
            state.path_id.prefix_pair: ReferencePathState(
                path_id=state.path_id,
                sampler=ReferenceSampler(like.config.sampler),
                aggregator=ReferenceAggregator(like.config.aggregator),
            )
            for state in like.states()
        }

    def observe(self, packet: Packet, time: float) -> None:
        """Classify, digest and feed one packet observed at ``time``.

        A packet that matches no registered path is ignored; the first
        registered prefix pair that matches claims it.
        """
        for prefix_pair, state in self._paths.items():
            if prefix_pair.matches(packet.headers.src_ip, packet.headers.dst_ip):
                break
        else:
            return
        digest = self.config.digester.digest(packet)
        state.sampler.observe(digest, time)
        state.aggregator.observe(digest, time)
        state.observed_packets += 1
        state.observed_bytes += packet.size

    def observe_sequence(self, observations) -> None:
        """:meth:`observe` each ``(packet, time)`` pair in order."""
        for packet, time in observations:
            self.observe(packet, time)

    def states(self) -> list[ReferencePathState]:
        return list(self._paths.values())

    def path_state(self, path) -> ReferencePathState:
        return self._paths[path.prefix_pair]

    @property
    def observed_packets(self) -> int:
        return sum(state.observed_packets for state in self._paths.values())

    @property
    def observed_bytes(self) -> int:
        return sum(state.observed_bytes for state in self._paths.values())

    @property
    def max_temp_buffer_occupancy(self) -> int:
        return max(
            (state.sampler.max_buffer_occupancy for state in self._paths.values()),
            default=0,
        )

    def state_digest(self) -> str:
        """Spelled like :meth:`repro.core.hop.HOPCollector.state_digest`."""
        hasher = hashlib.blake2b(digest_size=16)
        hasher.update(repr(self.hop.hop_id).encode())
        for prefix_pair in sorted(self._paths, key=str):
            state = self._paths[prefix_pair]
            hasher.update(
                repr(
                    (
                        str(prefix_pair),
                        state.observed_packets,
                        state.observed_bytes,
                        state.sampler.state_digest(),
                        state.aggregator.state_digest(),
                    )
                ).encode()
            )
        return hasher.hexdigest()
