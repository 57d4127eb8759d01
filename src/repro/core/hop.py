"""The HOP collector and processor modules (Section 7's implementation model).

The paper implements HOP functionality "as part of a NetFlow-like monitoring
platform that operates partly in the router's data-plane and partly in its
control plane":

* the **collector** module (:class:`HOPCollector`) handles per-packet
  operations — path classification, digest computation, the delay sampler's
  temporary buffer and the aggregator's per-aggregate state — and corresponds
  to the data-plane/monitoring-cache half.  It takes the HOP's traffic as
  columnar batches in observation order, stamped with the HOP's own
  timestamps: VPM needs no clock synchronization, only adjacent HOPs within
  ``MaxDiff`` of each other;
* the **processor** module (:class:`HOPProcessor`) periodically reads the
  collector's state and turns it into disseminable receipts — the
  control-plane half.

Resource counters (packets processed, buffer occupancies, receipt bytes) are
exposed so the overhead model of Section 7.1 can be evaluated against the
running implementation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.core.aggregation import Aggregator, AggregatorConfig
from repro.core.receipts import AggregateReceipt, PathID, SampleReceipt
from repro.core.sampling import DelaySampler, SamplerConfig
from repro.net.batch import PacketBatch
from repro.net.hashing import PacketDigester
from repro.net.topology import HOP, HOPPath
from repro.util.validation import check_observation_times

__all__ = ["HOPConfig", "HOPReport", "HOPCollector", "HOPProcessor"]


@dataclass(frozen=True)
class HOPConfig:
    """Per-HOP configuration: the locally tunable knobs of the protocol.

    Every field except ``digester`` and ``sampler.marker_rate`` is a local
    choice; the digest parameters and the marker rate are protocol-wide
    constants that all HOPs of a path must share.
    """

    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    aggregator: AggregatorConfig = field(default_factory=AggregatorConfig)
    digester: PacketDigester = field(default_factory=PacketDigester)


@dataclass
class _PathState:
    """Collector state for one active path."""

    path_id: PathID
    sampler: DelaySampler
    aggregator: Aggregator
    observed_packets: int = 0
    observed_bytes: int = 0


@dataclass(frozen=True)
class HOPReport:
    """All receipts produced by one HOP for one reporting period."""

    hop_id: int
    sample_receipts: tuple[SampleReceipt, ...] = ()
    aggregate_receipts: tuple[AggregateReceipt, ...] = ()

    @property
    def wire_bytes(self) -> int:
        """Total dissemination size of the report."""
        return sum(receipt.wire_bytes for receipt in self.sample_receipts) + sum(
            receipt.wire_bytes for receipt in self.aggregate_receipts
        )


class HOPCollector:
    """The data-plane half of a HOP: per-packet processing and state.

    Parameters
    ----------
    hop:
        The topological HOP this collector runs at (provides the HOP id
        written into PathIDs).
    config:
        The HOP's sampling/aggregation configuration.
    """

    def __init__(self, hop: HOP, config: HOPConfig | None = None) -> None:
        self.hop = hop
        self.config = config or HOPConfig()
        self._paths: dict[object, _PathState] = {}

    # -- path registration -----------------------------------------------------

    def register_path(self, path: HOPPath, max_diff: float = 1e-3) -> PathID:
        """Register an active path crossing this HOP.

        ``max_diff`` is the MaxDiff agreed for this HOP's adjacent
        inter-domain link (the upstream link for an ingress HOP, the
        downstream link for an egress HOP).
        """
        position = None
        for index, hop in enumerate(path.hops):
            if hop == self.hop:
                position = index
                break
        if position is None:
            raise ValueError(f"{self.hop} is not on path {path}")
        previous_hop = path.hops[position - 1].hop_id if position > 0 else None
        next_hop = (
            path.hops[position + 1].hop_id if position + 1 < len(path.hops) else None
        )
        path_id = PathID(
            prefix_pair=path.prefix_pair,
            reporting_hop=self.hop.hop_id,
            previous_hop=previous_hop,
            next_hop=next_hop,
            max_diff=max_diff,
        )
        self._paths[path.prefix_pair] = _PathState(
            path_id=path_id,
            sampler=DelaySampler(self.config.sampler),
            aggregator=Aggregator(self.config.aggregator),
        )
        return path_id

    # -- packet processing --------------------------------------------------------

    def observe_batch(self, batch: PacketBatch, times=None) -> int:
        """Process a columnar batch of packets observed at this HOP.

        Classification, digest computation, marker decisions and cutting-point
        selection all run as array operations; the per-path samplers and
        aggregators are fed index-selected sub-arrays in observation order.

        Parameters
        ----------
        batch:
            The packets observed at this HOP, in observation order.
        times:
            The HOP's observation timestamps; defaults to the batch's send
            times (the right choice for a source-edge HOP).  Each path's
            times must be finite and non-decreasing, also across batches;
            otherwise ``ValueError`` names the first bad index before any
            path's state changes.

        Returns the number of packets that matched a registered path.
        """
        if times is None:
            time_array = batch.send_time
        else:
            time_array = np.asarray(times, dtype=np.float64)
            if time_array.shape != (len(batch),):
                raise ValueError(
                    f"times must have shape ({len(batch)},), got {time_array.shape}"
                )
        if len(batch) == 0:
            return 0

        # Vectorized path classification: the first registered prefix pair
        # that matches claims the packet.
        unclaimed = np.ones(len(batch), dtype=bool)
        path_members: list[tuple[_PathState, np.ndarray | None, np.ndarray]] = []
        for prefix_pair, state in self._paths.items():
            selected = np.flatnonzero(
                prefix_pair.matches(batch.src_ip, batch.dst_ip) & unclaimed
            )
            if not len(selected):
                continue
            unclaimed[selected] = False
            if len(selected) == len(batch):
                # One path claimed every packet: its sub-arrays are the whole
                # arrays, so skip the gathers.
                path_members.append((state, None, time_array))
                break
            path_times = time_array[selected]
            path_members.append((state, selected, path_times))
            if not unclaimed.any():
                break
        if not path_members:
            return 0
        # Every path's times are checked before any path is fed.
        for state, _, path_times in path_members:
            check_observation_times(path_times, state.aggregator.last_time)

        digests = self.config.digester.digest_batch(batch)
        classified = 0
        for state, selected, path_times in path_members:
            if selected is None:
                path_digests, path_lengths = digests, batch.length
            else:
                path_digests, path_lengths = digests[selected], batch.length[selected]
            state.sampler.observe_batch(path_digests, path_times)
            state.aggregator.observe_batch(path_digests, path_times)
            classified += len(path_digests)
            state.observed_packets += len(path_digests)
            state.observed_bytes += int(path_lengths.sum(dtype=np.int64))
        return classified

    def state_digest(self) -> str:
        """A stable hex digest of all per-path collector state.

        Equal digests mean bit-identical samplers, aggregators and counters;
        used by the parity tests to assert that a collector fed in chunks
        ends up in the state of one fed the whole stream.
        """
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

    # -- state access ---------------------------------------------------------------

    def path_state(self, path: HOPPath | PathID) -> _PathState:
        """Return the internal state for a registered path (mainly for tests)."""
        prefix_pair = (
            path.prefix_pair if isinstance(path, (HOPPath, PathID)) else path
        )
        return self._paths[prefix_pair]

    @property
    def active_paths(self) -> int:
        """Number of registered (active) paths."""
        return len(self._paths)

    @property
    def observed_packets(self) -> int:
        """Total packets observed across all registered paths."""
        return sum(state.observed_packets for state in self._paths.values())

    @property
    def observed_bytes(self) -> int:
        """Total bytes observed across all registered paths."""
        return sum(state.observed_bytes for state in self._paths.values())

    @property
    def max_temp_buffer_occupancy(self) -> int:
        """Largest delay-sampling temporary-buffer occupancy (packets)."""
        return max(
            (state.sampler.max_buffer_occupancy for state in self._paths.values()),
            default=0,
        )

    def states(self) -> list[_PathState]:
        """All per-path states (used by the processor)."""
        return list(self._paths.values())


class HOPProcessor:
    """The control-plane half of a HOP: turns collector state into receipts."""

    def __init__(self, collector: HOPCollector) -> None:
        self.collector = collector

    def generate_report(self, flush: bool = False) -> HOPReport:
        """Read the collector's state and produce this period's receipts.

        ``flush`` closes every open aggregate first; use it at the end of a
        simulation or measurement interval so the final partial aggregate is
        reported too.
        """
        sample_receipts: list[SampleReceipt] = []
        aggregate_receipts: list[AggregateReceipt] = []
        for state in self.collector.states():
            if flush:
                state.aggregator.flush()
            sample_receipt = state.sampler.receipt(state.path_id)
            if len(sample_receipt.samples):
                sample_receipts.append(sample_receipt)
            aggregate_receipts.extend(state.aggregator.receipts(state.path_id))
        return HOPReport(
            hop_id=self.collector.hop.hop_id,
            sample_receipts=tuple(sample_receipts),
            aggregate_receipts=tuple(aggregate_receipts),
        )
