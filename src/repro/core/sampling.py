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
instance per active path (see :class:`repro.core.hop.HOPCollector`).  It
takes the path's packets as array batches in observation order, so its
timestamps never decrease; the per-packet reading of Algorithm 1 that the
batch pass is checked against is ``tests/oracle/collectors.py``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.core.receipts import PathID, SampleReceipt, sample_array
from repro.net.hashing import as_digest_array, splitmix64_batch, threshold_for_rate
from repro.util.validation import check_fraction, check_observation_times

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

    Usage: call :meth:`observe_batch` with the path's packets in observation
    order, as many times as the stream has batches, then :meth:`receipt`
    (typically at each reporting period) to obtain the sample receipt
    accumulated so far.

    The sampler never inspects packet contents itself — callers pass the
    64-bit digests (computed once per packet by the HOP collector) and the
    HOP's observation timestamps.
    """

    def __init__(self, config: SamplerConfig | None = None) -> None:
        self.config = config or SamplerConfig()
        self._marker_threshold = self.config.marker_threshold
        self._sampling_threshold = self.config.sampling_threshold
        # TempBuffer of Algorithm 1: the digests and times of the packets
        # after the last marker, held only until the next one.
        self._buffer_ids = np.empty(0, dtype=np.uint64)
        self._buffer_times = np.empty(0, dtype=np.float64)
        # The samples since the last receipt, one record array per batch.
        self._samples: list[np.ndarray] = []
        # Bookkeeping for the overhead model (Section 7.1).
        self._observed_packets = 0
        self._max_buffer_occupancy = 0

    # -- observation --------------------------------------------------------

    def observe_batch(self, digests, times) -> np.ndarray:
        """Process a batch of packets: their digests and observation times.

        ``times`` must be finite and non-decreasing, within the batch and
        from the buffered packets on (the order of packets already keyed
        against a marker no longer matters to the sampler); otherwise
        ``ValueError`` names the first bad index, and the sampler is left as
        it was.

        One pass per batch, whatever its marker count: each packet up to the
        batch's last marker is keyed against its owning marker (the first
        marker at or after it) by a single ``SampleFcn`` evaluation over the
        whole prefix, and the samples are the keyed packets above ``σ`` plus
        every marker, in observation order.  Packets carried in the temporary
        buffer from earlier calls belong to the batch's first marker; the
        buffer is carried as id and time arrays (the batch's tail after its
        last marker) and keyed in the same pass.  Python-level work is
        proportional to the number of samples, not to the number of markers
        or packets, and how a stream is cut into batches does not change the
        resulting state.

        Returns the boolean marker mask for the batch.
        """
        digest_array = as_digest_array(digests)
        time_array = np.asarray(times, dtype=np.float64)
        if digest_array.shape != time_array.shape:
            raise ValueError(
                f"digests and times must align, got {digest_array.shape} vs {time_array.shape}"
            )
        carry_ids, carry_times = self._buffer_ids, self._buffer_times
        check_observation_times(
            time_array, float(carry_times[-1]) if len(carry_times) else -np.inf
        )
        count = len(digest_array)
        marker_mask = digest_array > np.uint64(self._marker_threshold)
        if count == 0:
            return marker_mask
        self._observed_packets += count
        marker_positions = np.flatnonzero(marker_mask)
        if not marker_positions.size:
            self._buffer_ids = np.concatenate([carry_ids, digest_array])
            self._buffer_times = np.concatenate([carry_times, time_array])
            self._max_buffer_occupancy = max(
                self._max_buffer_occupancy, len(self._buffer_ids)
            )
            return marker_mask

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
        self._samples.append(sample_array(ids[picked], times[picked]))

        # Buffer occupancy peaks just before each marker (each run minus its
        # marker) and at the new tail.
        self._max_buffer_occupancy = max(
            self._max_buffer_occupancy, int(runs.max()) - 1, count - last - 1
        )
        self._buffer_ids = digest_array[last + 1 :].copy()
        self._buffer_times = time_array[last + 1 :].copy()
        return marker_mask

    def state_digest(self) -> str:
        """A stable hex digest of the sampler's complete observable state.

        Two samplers with equal digests hold bit-identical samples, buffers
        and counters — the cheap way for tests to assert that feeding a
        stream in chunks reproduced a whole-stream run.
        """
        samples = self._sample_array()
        buffer = sample_array(self._buffer_ids, self._buffer_times)
        hasher = hashlib.blake2b(digest_size=16)
        hasher.update(
            repr(
                (
                    self.config.sampling_rate,
                    self.config.marker_rate,
                    len(samples),
                    len(buffer),
                    self._observed_packets,
                    self._max_buffer_occupancy,
                )
            ).encode()
        )
        hasher.update(samples.tobytes() + buffer.tobytes())
        return hasher.hexdigest()

    def _sample_array(self) -> np.ndarray:
        """The samples since the last receipt, as one read-only array."""
        samples = np.concatenate([sample_array((), ()), *self._samples])
        samples.flags.writeable = False
        return samples

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
            samples=self._sample_array(),
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
        return sum(map(len, self._samples))

    def __repr__(self) -> str:
        return (
            f"DelaySampler(sampling_rate={self.config.sampling_rate}, "
            f"marker_rate={self.config.marker_rate}, "
            f"observed={self._observed_packets}, samples={self.sample_count})"
        )
