"""Bias-resistant, tunable delay sampling — Algorithm 1 (Section 5).

Each HOP buffers per-packet state (digest and timestamp) only until the next
**marker** packet arrives on the same path.  The marker's digest keys the
sampling function, so which of the buffered packets end up sampled is decided
by traffic the domain has *already forwarded* — a domain cannot treat the
sampled packets preferentially because it does not yet know which they are.

Two thresholds control the mechanism:

* the **marker threshold** ``µ`` is a system-wide constant (every HOP on a
  path must recognize the same markers);
* the **sampling threshold** ``σ`` is a local, per-HOP choice; because a
  packet is sampled when ``SampleFcn(Digest(q), Digest(marker)) > σ``, a HOP
  with a lower ``σ`` samples a *superset* of a HOP with a higher ``σ``
  (Section 5.2's tunability argument).

:class:`DelaySampler` implements the per-path state machine; a HOP holds one
instance per active path (see :class:`repro.core.hop.HOPCollector`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.core.receipts import PathID, SampleReceipt, SampleRecord
from repro.net.hashing import (
    MASK64,
    as_digest_array,
    sample_function,
    splitmix64_batch,
    threshold_for_rate,
)
from repro.util.validation import check_fraction

__all__ = ["SamplerConfig", "DelaySampler", "DEFAULT_MARKER_RATE"]

# The marker rate is a protocol-wide constant chosen at design time.  One
# marker per ~1000 packets keeps the temporary buffer at "ten milliseconds or
# so" of traffic for the paper's 100k packets-per-second sequence.
DEFAULT_MARKER_RATE = 0.001


@dataclass(frozen=True)
class SamplerConfig:
    """Configuration of a HOP's delay sampler.

    Attributes
    ----------
    sampling_rate:
        Target fraction of packets sampled overall (the paper sweeps 5%, 1%,
        0.5%, 0.1%).  Because marker packets are always sampled, the local
        threshold ``σ`` is set so that buffered packets are sampled at
        ``sampling_rate - marker_rate``; the total then matches the target.
        Targets at or below the marker rate degrade to "markers only".
    marker_rate:
        Fraction of packets that act as markers; protocol-wide constant ``µ``.
    """

    sampling_rate: float = 0.01
    marker_rate: float = DEFAULT_MARKER_RATE

    def __post_init__(self) -> None:
        check_fraction("sampling_rate", self.sampling_rate)
        check_fraction("marker_rate", self.marker_rate)

    @property
    def sampling_threshold(self) -> int:
        """The 64-bit threshold ``σ`` corresponding to ``sampling_rate``."""
        return threshold_for_rate(max(0.0, self.sampling_rate - self.marker_rate))

    @property
    def marker_threshold(self) -> int:
        """The 64-bit threshold ``µ`` corresponding to ``marker_rate``."""
        return threshold_for_rate(self.marker_rate)


class DelaySampler:
    """Per-path implementation of Algorithm 1 (``DelaySample``).

    Usage: call :meth:`observe` for every packet of the path in observation
    order, then :meth:`receipt` (typically at each reporting period) to obtain
    the sample receipt accumulated so far.

    The sampler never inspects packet contents itself — callers pass the
    64-bit digest (computed once per packet by the HOP collector) and the
    local observation timestamp.
    """

    def __init__(self, config: SamplerConfig | None = None) -> None:
        self.config = config or SamplerConfig()
        self._marker_threshold = self.config.marker_threshold
        self._sampling_threshold = self.config.sampling_threshold
        # TempBuffer of Algorithm 1: per-packet (digest, local time) pairs
        # held only until the next marker.  observe_batch() holds it as id and
        # time arrays, observe() as a list of pairs (``None`` when the arrays
        # are current); each converts the other's form once, on entry.
        self._buffer_ids = np.empty(0, dtype=np.uint64)
        self._buffer_times = np.empty(0, dtype=np.float64)
        self._buffer_pairs: list[tuple[int, float]] | None = None
        self._samples: list[SampleRecord] = []
        # Bookkeeping for the overhead model (Section 7.1).
        self._observed_packets = 0
        self._marker_count = 0
        self._max_buffer_occupancy = 0

    # -- observation --------------------------------------------------------

    def observe(self, digest: int, time: float) -> bool:
        """Process one observed packet.

        Parameters
        ----------
        digest:
            The packet's 64-bit digest ``Digest(p)``.
        time:
            The HOP's local observation timestamp (seconds).

        Returns
        -------
        bool
            ``True`` if the packet was a marker (and therefore itself
            sampled), ``False`` otherwise.
        """
        if not 0 <= digest <= MASK64:
            raise ValueError(f"digest must be a 64-bit value, got {digest!r}")
        self._observed_packets += 1
        buffer = self._buffer_list()
        if digest > self._marker_threshold:
            self._marker_count += 1
            for buffered_digest, buffered_time in buffer:
                if sample_function(buffered_digest, digest) > self._sampling_threshold:
                    self._samples.append(
                        SampleRecord(pkt_id=buffered_digest, time=buffered_time)
                    )
            buffer.clear()
            self._samples.append(SampleRecord(pkt_id=digest, time=time))
            return True
        buffer.append((digest, time))
        if len(buffer) > self._max_buffer_occupancy:
            self._max_buffer_occupancy = len(buffer)
        return False

    def observe_batch(self, digests, times) -> np.ndarray:
        """Vectorized :meth:`observe` over arrays of digests and timestamps.

        One pass per batch, whatever its marker count: each packet up to the
        batch's last marker is keyed against its owning marker (the first
        marker at or after it) by a single ``SampleFcn`` evaluation over the
        whole prefix, and the samples are the keyed packets above ``σ`` plus
        every marker, in observation order.  Packets carried in the temporary
        buffer from earlier calls belong to the batch's first marker; the
        buffer is carried as id and time arrays (the batch's tail after its
        last marker) and keyed in the same pass.  Python-level work is
        proportional to the number of samples, not to the number of markers
        or packets.  The resulting sampler state (samples, temporary buffer,
        counters) is exactly what the same sequence of scalar :meth:`observe`
        calls would produce, and the two paths can be freely interleaved.

        Returns the boolean marker mask for the batch.
        """
        digest_array = as_digest_array(digests)
        time_array = np.asarray(times, dtype=np.float64)
        if digest_array.shape != time_array.shape:
            raise ValueError(
                f"digests and times must align, got {digest_array.shape} vs {time_array.shape}"
            )
        count = len(digest_array)
        marker_mask = digest_array > np.uint64(self._marker_threshold)
        if count == 0:
            return marker_mask
        self._observed_packets += count
        carry_ids, carry_times = self._buffer_arrays()
        marker_positions = np.flatnonzero(marker_mask)
        if not marker_positions.size:
            self._buffer_ids = np.concatenate([carry_ids, digest_array])
            self._buffer_times = np.concatenate([carry_times, time_array])
            self._max_buffer_occupancy = max(
                self._max_buffer_occupancy, len(self._buffer_ids)
            )
            return marker_mask
        self._marker_count += len(marker_positions)

        # Everything up to the last marker, carried buffer first:
        # SampleFcn(q, owning marker) > σ, or q is itself a marker.  Each
        # marker owns the run of packets ending at it (the first run also
        # holds the carried buffer), so repeating its key over that run keys
        # every packet.
        carry = len(carry_ids)
        last = int(marker_positions[-1])
        ids = np.concatenate([carry_ids, digest_array[: last + 1]])
        runs = np.diff(marker_positions, prepend=-1)
        runs[0] += carry
        owner_keys = np.repeat(splitmix64_batch(digest_array[marker_positions]), runs)
        selected = splitmix64_batch(ids ^ owner_keys) > np.uint64(self._sampling_threshold)
        selected[carry + marker_positions] = True
        picked = np.flatnonzero(selected)
        times = np.concatenate([carry_times, time_array[: last + 1]])
        self._samples.extend(
            map(SampleRecord, ids[picked].tolist(), times[picked].tolist())
        )

        # Buffer occupancy peaks just before each marker (each run minus its
        # marker) and at the new tail.
        self._max_buffer_occupancy = max(
            self._max_buffer_occupancy, int(runs.max()) - 1, count - last - 1
        )
        self._buffer_ids = digest_array[last + 1 :].copy()
        self._buffer_times = time_array[last + 1 :].copy()
        return marker_mask

    def _buffer_list(self) -> list[tuple[int, float]]:
        """The TempBuffer as :meth:`observe`'s list of pairs."""
        if self._buffer_pairs is None:
            self._buffer_pairs = list(
                zip(self._buffer_ids.tolist(), self._buffer_times.tolist())
            )
        return self._buffer_pairs

    def _buffer_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The TempBuffer as :meth:`observe_batch`'s id and time arrays."""
        pairs = self._buffer_pairs
        if pairs is not None:
            self._buffer_ids = np.fromiter(
                (pkt_id for pkt_id, _ in pairs), dtype=np.uint64, count=len(pairs)
            )
            self._buffer_times = np.fromiter(
                (seen for _, seen in pairs), dtype=np.float64, count=len(pairs)
            )
            self._buffer_pairs = None
        return self._buffer_ids, self._buffer_times

    def state_digest(self) -> str:
        """A stable hex digest of the sampler's complete observable state.

        Two samplers with equal digests hold bit-identical samples, buffers
        and counters — the cheap way for tests to assert that feeding a
        stream in chunks reproduced a whole-stream run.
        """
        buffer = self._buffer_pairs
        if buffer is None:
            buffer = zip(self._buffer_ids.tolist(), self._buffer_times.tolist())
        hasher = hashlib.blake2b(digest_size=16)
        hasher.update(
            repr(
                (
                    self.config.sampling_rate,
                    self.config.marker_rate,
                    [(record.pkt_id, record.time.hex()) for record in self._samples],
                    [(digest, time.hex()) for digest, time in buffer],
                    self._observed_packets,
                    self._marker_count,
                    self._max_buffer_occupancy,
                )
            ).encode()
        )
        return hasher.hexdigest()

    # -- reporting -----------------------------------------------------------

    def receipt(self, path_id: PathID, reset: bool = True) -> SampleReceipt:
        """Produce the sample receipt for everything sampled so far.

        Packets still sitting in the temporary buffer are *not* reported: their
        fate (sampled or discarded) is not yet known — it will be decided by
        the next marker.  ``reset`` clears the accumulated samples (the normal
        periodic-reporting behaviour); pass ``False`` to peek.
        """
        receipt = SampleReceipt(
            path_id=path_id,
            samples=tuple(self._samples),
            sampling_threshold=self._sampling_threshold,
        )
        if reset:
            self._samples = []
        return receipt

    # -- introspection --------------------------------------------------------

    @property
    def max_buffer_occupancy(self) -> int:
        """Largest temporary-buffer occupancy seen (packets)."""
        return self._max_buffer_occupancy

    @property
    def observed_packets(self) -> int:
        """Total packets observed."""
        return self._observed_packets

    @property
    def sample_count(self) -> int:
        """Number of samples accumulated since the last receipt."""
        return len(self._samples)

    def __repr__(self) -> str:
        return (
            f"DelaySampler(sampling_rate={self.config.sampling_rate}, "
            f"marker_rate={self.config.marker_rate}, "
            f"observed={self._observed_packets}, samples={len(self._samples)})"
        )
