"""Flow-level traffic synthesis.

The paper drives its evaluation from CAIDA Tier-1 backbone traces; since those
traces are not redistributable, we synthesize traffic with the statistical
properties the VPM mechanisms are sensitive to:

* many concurrent five-tuples (so digests are diverse and hash-selected
  markers / cutting points are spread uniformly across the stream);
* heavy-tailed flow sizes (a few elephants, many mice), matching backbone
  flow-size distributions;
* a realistic packet-size mix (small ACK-sized, medium, and MTU-sized modes
  averaging roughly 400 bytes, the figure Section 7.1 assumes).

:class:`FlowGenerator` produces a flow population, one array per
:class:`Flow` field; the trace module expands it into interleaved packet
sequences.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from repro.net.prefixes import PrefixPair
from repro.util.rng import make_rng
from repro.util.validation import check_positive, check_probability

__all__ = ["Flow", "FlowGeneratorConfig", "FlowGenerator", "PACKET_SIZE_MODES"]

# (size in bytes, probability) — a three-mode approximation of the classic
# Internet packet-size distribution: TCP ACKs, default-MSS segments and
# MTU-sized segments.  The mean is ~400 bytes, matching Section 7.1.
PACKET_SIZE_MODES: tuple[tuple[int, float], ...] = (
    (40, 0.50),
    (576, 0.25),
    (1500, 0.25),
)


@dataclass(frozen=True, slots=True)
class Flow:
    """A single five-tuple flow.

    Attributes
    ----------
    flow_id:
        Simulation-unique identifier.
    src_ip, dst_ip, src_port, dst_port, protocol:
        The five-tuple; addresses are drawn from the path's prefix pair.
    packet_count:
        Number of packets the flow contributes.
    start_time:
        Time (seconds) of the flow's first packet.
    mean_interarrival:
        Mean spacing between this flow's packets (seconds).
    """

    flow_id: int
    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    protocol: int
    packet_count: int
    start_time: float
    mean_interarrival: float

    def __post_init__(self) -> None:
        if self.packet_count <= 0:
            raise ValueError(f"packet_count must be positive, got {self.packet_count}")
        if self.mean_interarrival <= 0:
            raise ValueError(
                f"mean_interarrival must be positive, got {self.mean_interarrival}"
            )


@dataclass(frozen=True)
class FlowGeneratorConfig:
    """Configuration of the flow synthesizer.

    Attributes
    ----------
    mean_flow_size:
        Mean packets per flow.  Flow sizes follow a bounded Pareto whose mean
        is calibrated to this value, producing the heavy tail observed in
        backbone traffic.
    pareto_alpha:
        Tail index of the bounded-Pareto flow-size distribution (1 < α < 2
        gives the classic heavy tail).
    max_flow_size:
        Upper bound on the number of packets in one flow.
    tcp_fraction:
        Fraction of flows carried over TCP (the rest are UDP).
    duration:
        Time span (seconds) over which flows start.
    """

    mean_flow_size: float = 20.0
    pareto_alpha: float = 1.3
    max_flow_size: int = 10_000
    tcp_fraction: float = 0.85
    duration: float = 1.0

    def __post_init__(self) -> None:
        check_positive("mean_flow_size", self.mean_flow_size)
        check_positive("pareto_alpha", self.pareto_alpha)
        check_positive("max_flow_size", self.max_flow_size)
        check_probability("tcp_fraction", self.tcp_fraction)
        check_positive("duration", self.duration)


class FlowGenerator:
    """Synthesizes a population of flows for one (source, destination) prefix pair."""

    def __init__(
        self,
        prefix_pair: PrefixPair,
        config: FlowGeneratorConfig | None = None,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        self.prefix_pair = prefix_pair
        self.config = config or FlowGeneratorConfig()
        self._rng = make_rng(seed)
        self._next_flow_id = 0

    def _flow_sizes(self, count: int) -> np.ndarray:
        """Draw heavy-tailed flow sizes (packets per flow)."""
        config = self.config
        # Bounded Pareto with minimum 1 packet; scale so the mean approximates
        # mean_flow_size, then clip at max_flow_size.
        alpha = config.pareto_alpha
        raw = (self._rng.pareto(alpha, size=count) + 1.0)
        if alpha > 1.0:
            theoretical_mean = alpha / (alpha - 1.0)
        else:
            theoretical_mean = 10.0
        sizes = raw * (config.mean_flow_size / theoretical_mean)
        sizes = np.clip(np.round(sizes), 1, config.max_flow_size)
        return sizes.astype(int)

    def generate(self, total_packets: int) -> "_FlowColumns":
        """Flows whose sizes sum to ``total_packets``, one array per field.

        Flow sizes come from :meth:`_flow_sizes` in pareto batches; each flow
        then draws, in order, a TCP/UDP coin and a start time (two doubles)
        and five bounded integers (two host offsets, the source port, a
        random destination port and the destination-port choice).  On a
        PCG64 generator a batch's flows are synthesized columnar from one
        raw-word block that consumes exactly that stream (see
        :meth:`_columnar_flows`); :meth:`_make_flow`, one flow at a time,
        is the exactness fallback and the oracle the columnar path is
        tested against.  No :class:`Flow` objects are built on the columnar
        path.
        """
        if total_packets <= 0:
            raise ValueError(f"total_packets must be positive, got {total_packets}")
        batches: list[_FlowColumns] = []
        generated = 0
        expected_flows = max(4, int(total_packets / self.config.mean_flow_size))
        while generated < total_packets:
            batch = max(4, expected_flows // 4)
            sizes = self._flow_sizes(batch)
            # The batch feeds flows until the total is reached; the last one
            # is clipped to the packets still missing.
            remaining = total_packets - generated
            before = np.cumsum(sizes) - sizes
            used = int(np.searchsorted(before, remaining))
            sizes = np.minimum(sizes[:used], remaining - before[:used])
            columns = self._columnar_flows(sizes)
            if columns is None:
                columns = self._scalar_flows(sizes)
            batches.append(columns)
            generated += int(sizes.sum())
        return _FlowColumns.concatenate(batches)

    def _scalar_flows(self, sizes: np.ndarray) -> "_FlowColumns":
        return _FlowColumns.of([self._make_flow(int(size)) for size in sizes])

    def _columnar_flows(self, sizes: np.ndarray) -> "_FlowColumns | None":
        """Draw one batch of flows as :meth:`_make_flow` would, columnar.

        PCG64 serves a double from one 64-bit word (``word >> 11``) and a
        32-bit draw from the low half of a fresh word, buffering the high
        half for the next 32-bit draw.  A flow therefore reads two double
        words, then 2 or 3 integer words depending on whether a 32-bit draw
        was buffered when it started; the buffer carries across flows.  The
        integers are numpy's bounded Lemire draws.  Returns ``None`` —
        leaving the generator untouched — when the generator is not PCG64
        or when some bounded draw of the batch would be rejected and redraw,
        so the caller falls back to the scalar loop.
        """
        bit_generator = self._rng.bit_generator
        if type(bit_generator) is not np.random.PCG64:
            return None
        config = self.config
        flows = len(sizes)
        entry = bit_generator.state
        buffered = entry["has_uint32"]
        # Flow i starts with a buffered draw iff (buffered + i) is odd.
        int_words = 3 - (buffered + np.arange(flows)) % 2
        words = 2 + int_words
        starts = np.cumsum(words) - words
        raw = bit_generator.random_raw(int(words.sum()))
        is_int = np.ones(len(raw), dtype=bool)
        is_int[starts] = False
        is_int[starts + 1] = False
        stream = raw[is_int].astype("<u8").view("<u4")
        if buffered:
            stream = np.concatenate([np.asarray([entry["uinteger"]], np.uint32), stream])
        draws = stream[: 5 * flows].reshape(flows, 5).astype(np.uint64)
        bounds = np.asarray([1 << 16, 1 << 16, 64512, 64512, 6], dtype=np.uint64)
        scaled = draws * bounds
        thresholds = ((1 << 32) - bounds) % bounds
        if ((scaled & 0xFFFFFFFF) < thresholds).any():
            bit_generator.state = entry
            return None
        values = (scaled >> np.uint64(32)).astype(np.int64)
        final = bit_generator.state
        # Whether or not the last high half is still buffered, it is the
        # generator's (possibly stale) ``uinteger``.
        final["has_uint32"] = len(stream) - 5 * flows
        final["uinteger"] = int(stream[-1])
        bit_generator.state = final

        # numpy's double: the top 53 bits of a word, times 2**-53.
        tcp_coin = (raw[starts] >> np.uint64(11)) * (1.0 / 9007199254740992.0)
        start_unit = (raw[starts + 1] >> np.uint64(11)) * (1.0 / 9007199254740992.0)
        choice = values[:, 4]
        fixed_ports = np.asarray([80, 443, 53, 25, 8080, 0])
        # Mirror _make_flow's scalar arithmetic operation by operation.
        flow_span = np.minimum(config.duration, 0.01 + 0.002 * sizes)
        first_id = self._next_flow_id
        self._next_flow_id += flows
        return _FlowColumns(
            flow_id=np.arange(first_id, first_id + flows, dtype=np.int64),
            src_ip=self.prefix_pair.source.host(values[:, 0]),
            dst_ip=self.prefix_pair.destination.host(values[:, 1]),
            src_port=1024 + values[:, 2],
            dst_port=np.where(choice == 5, 1024 + values[:, 3], fixed_ports[choice]),
            protocol=np.where(tcp_coin < config.tcp_fraction, 6, 17),
            packet_count=sizes.astype(np.int64),
            start_time=0.0 + config.duration * start_unit,
            mean_interarrival=np.maximum(flow_span / sizes, 1e-6),
        )

    def _make_flow(self, packet_count: int) -> Flow:
        """Draw one flow, draw by draw: the oracle of :meth:`_columnar_flows`."""
        config = self.config
        rng = self._rng
        flow_id = self._next_flow_id
        self._next_flow_id += 1
        protocol = 6 if rng.random() < config.tcp_fraction else 17
        start_time = float(rng.uniform(0.0, config.duration))
        # Spread the flow's packets over a window proportional to its size so
        # elephants persist and mice are short-lived.
        flow_span = min(config.duration, 0.01 + 0.002 * packet_count)
        mean_interarrival = max(flow_span / packet_count, 1e-6)
        return Flow(
            flow_id=flow_id,
            src_ip=self.prefix_pair.source.host(int(rng.integers(0, 1 << 16))),
            dst_ip=self.prefix_pair.destination.host(int(rng.integers(0, 1 << 16))),
            src_port=int(rng.integers(1024, 65536)),
            dst_port=int(rng.choice([80, 443, 53, 25, 8080, int(rng.integers(1024, 65536))])),
            protocol=protocol,
            packet_count=packet_count,
            start_time=start_time,
            mean_interarrival=mean_interarrival,
        )

    def draw_packet_sizes(self, count: int) -> np.ndarray:
        """Draw packet sizes from the three-mode Internet size distribution."""
        sizes = np.array([mode for mode, _ in PACKET_SIZE_MODES])
        probabilities = np.array([weight for _, weight in PACKET_SIZE_MODES])
        return self._rng.choice(sizes, size=count, p=probabilities)


@dataclass(frozen=True)
class _FlowColumns:
    """A flow population as one array per :class:`Flow` field."""

    flow_id: np.ndarray
    src_ip: np.ndarray
    dst_ip: np.ndarray
    src_port: np.ndarray
    dst_port: np.ndarray
    protocol: np.ndarray
    packet_count: np.ndarray
    start_time: np.ndarray
    mean_interarrival: np.ndarray

    @classmethod
    def of(cls, flows: list[Flow]) -> "_FlowColumns":
        return cls(
            *(
                np.asarray([getattr(flow, field.name) for flow in flows])
                for field in fields(Flow)
            )
        )

    @classmethod
    def concatenate(cls, parts: list["_FlowColumns"]) -> "_FlowColumns":
        return cls(
            *(
                np.concatenate([getattr(part, field.name) for part in parts])
                for field in fields(cls)
            )
        )
