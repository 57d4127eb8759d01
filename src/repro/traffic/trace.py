"""Synthetic packet traces.

This module is the substitution for the CAIDA Tier-1 traces the paper uses.
A :class:`SyntheticTrace` produces the packet sequence observed on one HOP
path — i.e. "all packets that carry a given source and destination
origin-prefix pair", which is exactly what the paper extracts from its
traces — with:

* a configurable aggregate packet rate (the paper's headline sequence runs at
  100,000 packets per second);
* many interleaved five-tuple flows with heavy-tailed sizes;
* the three-mode packet-size distribution averaging ~400 bytes;
* strictly increasing send timestamps with Poisson-like spacing.

The VPM algorithms consume only header bytes, observation order and
timestamps, so this synthetic sequence exercises the same code paths as a real
backbone trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.net.batch import PacketBatch
from repro.net.prefixes import OriginPrefix, PrefixPair
from repro.traffic.flows import FlowGenerator, FlowGeneratorConfig
from repro.util.rng import make_rng
from repro.util.validation import check_positive

__all__ = ["TraceConfig", "SyntheticTrace", "default_prefix_pair"]


def default_prefix_pair() -> PrefixPair:
    """The prefix pair used by examples and benchmarks unless overridden."""
    return PrefixPair(
        source=OriginPrefix.parse("10.1.0.0/16"),
        destination=OriginPrefix.parse("10.2.0.0/16"),
    )


@dataclass(frozen=True)
class TraceConfig:
    """Configuration of a synthetic trace.

    Attributes
    ----------
    packet_count:
        Number of packets in the sequence.
    packets_per_second:
        Aggregate packet rate of the sequence (100,000/s in the paper's
        evaluation sequence).
    arrival_process:
        ``"poisson"`` for exponential inter-arrivals, ``"cbr"`` for constant
        spacing, or ``"mmpp"`` for a two-state modulated Poisson process that
        adds burstiness.
    payload_bytes:
        Number of payload bytes attached to each packet (only a prefix is ever
        hashed; 16 keeps memory bounded).
    """

    packet_count: int = 100_000
    packets_per_second: float = 100_000.0
    arrival_process: str = "poisson"
    payload_bytes: int = 16
    flow_config: FlowGeneratorConfig = FlowGeneratorConfig()

    def __post_init__(self) -> None:
        check_positive("packet_count", self.packet_count)
        check_positive("packets_per_second", self.packets_per_second)
        if self.arrival_process not in ("poisson", "cbr", "mmpp"):
            raise ValueError(
                "arrival_process must be 'poisson', 'cbr' or 'mmpp'; "
                f"got {self.arrival_process!r}"
            )
        if self.payload_bytes < 0:
            raise ValueError(f"payload_bytes must be >= 0, got {self.payload_bytes}")

    @property
    def duration(self) -> float:
        """Nominal duration of the trace in seconds."""
        return self.packet_count / self.packets_per_second


class SyntheticTrace:
    """Generates the packet sequence of one HOP path.

    Parameters
    ----------
    config:
        Trace parameters; see :class:`TraceConfig`.
    prefix_pair:
        The (source, destination) origin prefixes the packets carry.
    seed:
        Seed for all randomness in the trace.
    """

    def __init__(
        self,
        config: TraceConfig | None = None,
        prefix_pair: PrefixPair | None = None,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        self.config = config or TraceConfig()
        self.prefix_pair = prefix_pair or default_prefix_pair()
        self._rng = make_rng(seed)

    # -- timestamp synthesis ----------------------------------------------

    def _interarrival_times(self, count: int) -> np.ndarray:
        config = self.config
        mean_gap = 1.0 / config.packets_per_second
        rng = self._rng
        if config.arrival_process == "cbr":
            return np.full(count, mean_gap)
        if config.arrival_process == "poisson":
            return rng.exponential(mean_gap, size=count)
        # MMPP(2): alternate between a calm state (0.5x rate) and a bursty
        # state (3x rate); dwell times are geometric in packets.
        gaps = np.empty(count, dtype=float)
        index = 0
        bursty = False
        while index < count:
            dwell = int(rng.geometric(0.002))
            dwell = min(dwell, count - index)
            rate_multiplier = 3.0 if bursty else 0.5
            gaps[index : index + dwell] = rng.exponential(
                mean_gap / rate_multiplier, size=dwell
            )
            index += dwell
            bursty = not bursty
        # Normalize so the overall mean rate matches the configured rate.
        gaps *= mean_gap / gaps.mean()
        return gaps

    # -- packet synthesis ---------------------------------------------------

    def _draw_plan(self) -> "_TracePlan":
        """Draw *all* of the trace's randomness, in one fixed order.

        The plan holds the full per-packet draw columns (flow assignment,
        timestamps, sizes, payload words) plus the per-flow lookup tables.
        Materializing packets from the plan is a pure function of (plan,
        range), so chunked materialization (:meth:`iter_batches`) is
        bit-identical to one full materialization (:meth:`packet_batch`)
        regardless of the chunk size.  The RNG draw order here is the
        historical ``packet_batch()`` order, so seeds reproduce the same
        traffic they always have.

        The flows arrive as columns, never as :class:`Flow` objects.  On the
        default PCG64 generator they are read from raw 64-bit words: two
        double words per flow, then its five bounded 32-bit draws served low
        half first with the high half buffered, so a flow spans 5 or 4 words
        depending on the buffer it inherits.  A batch that any bounded draw
        would reject, or another bit generator, falls back to the per-flow
        scalar loop (:meth:`FlowGenerator.generate` documents both).
        """
        config = self.config
        rng = self._rng
        count = config.packet_count

        flow_generator = FlowGenerator(
            self.prefix_pair, config=config.flow_config, seed=rng
        )
        flows = flow_generator.generate(count)

        # Assign each packet slot to a flow proportionally to flow size, then
        # interleave flows by drawing a random permutation of slots — this
        # approximates the natural interleaving of concurrent flows without a
        # per-flow arrival process (which the protocol is insensitive to).
        flow_ids = np.repeat(flows.flow_id, flows.packet_count)[:count]
        rng.shuffle(flow_ids)

        send_times = np.cumsum(self._interarrival_times(count))
        sizes = flow_generator.draw_packet_sizes(count).astype(np.uint16)

        payload_words = rng.integers(0, 1 << 32, size=count, dtype=np.uint64)

        return _TracePlan(
            count=count,
            payload_bytes=config.payload_bytes,
            # Flow ids are sequential small ints; stored narrow (40% of the
            # plan's footprint at 10M packets) and widened per chunk.
            flow_ids=flow_ids.astype(np.int32),
            send_times=send_times,
            sizes=sizes,
            # Values are < 2**32; stored narrow and widened per chunk.
            payload_words=payload_words.astype(np.uint32),
            flow_src_ip=flows.src_ip.astype(np.uint32),
            flow_dst_ip=flows.dst_ip.astype(np.uint32),
            flow_src_port=flows.src_port.astype(np.uint16),
            flow_dst_port=flows.dst_port.astype(np.uint16),
            flow_protocol=flows.protocol.astype(np.uint8),
            flow_counts=np.zeros(len(flows.flow_id), dtype=np.int64),
        )

    def _materialize(self, plan: "_TracePlan", start: int, stop: int) -> PacketBatch:
        """Materialize packets ``[start, stop)`` of the plan as a batch.

        Consumes no randomness; advances the plan's per-flow sequence
        counters, so ranges must be materialized consecutively from 0.
        """
        flow_ids = plan.flow_ids[start:stop].astype(np.int64)
        count = len(flow_ids)

        # Flow ids are the flows' positions in the plan's per-flow columns.
        src_ip = plan.flow_src_ip[flow_ids]
        dst_ip = plan.flow_dst_ip[flow_ids]
        src_port = plan.flow_src_port[flow_ids]
        dst_port = plan.flow_dst_port[flow_ids]
        protocol = plan.flow_protocol[flow_ids]

        # Per-flow sequence counters feed ip_id so repeated packets of a flow
        # still have distinct digests.  Vectorized rank-within-group: sort by
        # flow id (stable, so observation order is preserved within a flow)
        # and number each packet within its run of equal ids, then offset by
        # how many packets of the flow earlier ranges already produced.
        stable = np.argsort(flow_ids, kind="stable")
        sorted_ids = flow_ids[stable]
        is_start = np.empty(count, dtype=bool)
        if count:
            is_start[0] = True
            is_start[1:] = sorted_ids[1:] != sorted_ids[:-1]
        run_starts = np.flatnonzero(is_start)
        ranks = np.arange(count) - np.repeat(
            run_starts, np.diff(np.append(run_starts, count))
        )
        sequence = np.empty(count, dtype=np.int64)
        sequence[stable] = ranks
        sequence += plan.flow_counts[flow_ids]
        plan.flow_counts += np.bincount(flow_ids, minlength=len(plan.flow_counts))
        ip_id = ((flow_ids * 7919 + sequence) & 0xFFFF).astype(np.uint16)

        # Payload: an 8-byte big-endian random word, zero-padded/truncated to
        # the configured payload size (the digest reads at most a prefix).
        payload = np.zeros((count, plan.payload_bytes), dtype=np.uint8)
        word_bytes = (
            plan.payload_words[start:stop]
            .astype(np.uint64)
            .astype(">u8")
            .view(np.uint8)
            .reshape(count, 8)
        )
        payload[:, : min(8, plan.payload_bytes)] = word_bytes[:, : plan.payload_bytes]

        return PacketBatch(
            src_ip=src_ip,
            dst_ip=dst_ip,
            src_port=src_port,
            dst_port=dst_port,
            protocol=protocol,
            ip_id=ip_id,
            length=plan.sizes[start:stop],
            payload=payload,
            uid=np.arange(start, stop, dtype=np.int64),
            send_time=plan.send_times[start:stop],
            flow_id=flow_ids,
        )

    def packet_batch(self) -> PacketBatch:
        """Generate the full packet sequence as a columnar batch.

        This is the fast path for driving millions of packets per run: the
        whole sequence is synthesized with array operations and never
        materializes per-packet objects (``packet_batch().to_packets()`` does,
        value-identically).
        """
        plan = self._draw_plan()
        return self._materialize(plan, 0, plan.count)

    def iter_batches(self, chunk_size: int, start_chunk: int = 0) -> Iterator[PacketBatch]:
        """Yield the trace as consecutive chunks of at most ``chunk_size``.

        The concatenation of the yielded chunks is **bit-identical** to
        :meth:`packet_batch` for every chunk size: all randomness is drawn up
        front (in the same order as a full materialization) and each chunk is
        a pure slice of that plan.  This is what lets the streaming engine
        drive a scenario in bounded memory while reproducing the batch
        engine's results exactly.

        ``start_chunk`` seeks to a chunk boundary: the iterator yields chunk
        ``start_chunk`` onward, bit-identical to the tail of a full pass.
        Seeking only fast-forwards the plan's per-flow sequence counters
        (a vectorized count over the skipped flow-id prefix) — it never
        materializes the skipped packets, so a run resuming deep into a
        long trace pays a small fraction of the replay it would otherwise.

        Like :meth:`packet_batch`, this consumes the trace's RNG — use a
        fresh :class:`SyntheticTrace` (same seed) per generation pass.
        """
        if chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        if start_chunk < 0:
            raise ValueError(f"start_chunk must be >= 0, got {start_chunk}")
        plan = self._draw_plan()
        start = min(start_chunk * chunk_size, plan.count)
        self._advance_flow_counts(plan, start)
        for chunk_start in range(start, plan.count, chunk_size):
            yield self._materialize(
                plan, chunk_start, min(chunk_start + chunk_size, plan.count)
            )

    @staticmethod
    def _advance_flow_counts(plan: "_TracePlan", stop: int) -> None:
        """Advance ``plan.flow_counts`` past packets ``[0, stop)`` unmaterialized.

        Equivalent to the counter updates ``_materialize`` would perform over
        that prefix, at the cost of one bincount per span.  Spans are bounded
        so the transient index arrays stay small on multi-million packet
        plans.
        """
        span = 1 << 20
        for start in range(0, stop, span):
            plan.flow_counts += np.bincount(
                plan.flow_ids[start : min(start + span, stop)],
                minlength=len(plan.flow_counts),
            )

    def __repr__(self) -> str:
        return (
            f"SyntheticTrace(packets={self.config.packet_count}, "
            f"rate={self.config.packets_per_second}/s, pair={self.prefix_pair})"
        )


@dataclass
class _TracePlan:
    """The fully drawn randomness of one trace (see ``_draw_plan``)."""

    count: int
    payload_bytes: int
    flow_ids: np.ndarray
    send_times: np.ndarray
    sizes: np.ndarray
    payload_words: np.ndarray
    flow_src_ip: np.ndarray
    flow_dst_ip: np.ndarray
    flow_src_port: np.ndarray
    flow_dst_port: np.ndarray
    flow_protocol: np.ndarray
    flow_counts: np.ndarray
