"""The Section 7.1 resource-overhead model.

The paper argues, with back-of-the-envelope calculations, that VPM's memory,
processing and bandwidth requirements "are well within the capabilities of
modern networks".  This module reproduces those calculations as explicit,
testable models so the numbers in the paper can be regenerated
(``benchmarks/bench_overhead_memory.py`` and
``bench_overhead_bandwidth.py``) and so users can plug in their own link
speeds, path mixes and tuning choices.

The paper's reference numbers:

* **Monitoring cache** — ~20 bytes of per-path state (one open aggregate
  receipt); 100,000 active paths → a 2 MB monitoring cache.
* **Temporary packet buffer** — 7 bytes per packet (4-byte digest + 3-byte
  timestamp) held for at most ``J`` = 10 ms; a 10 Gbps interface at 400-byte
  average packets (3.125 Mpps) needs ~436 KB, or ~2.8 MB for worst-case
  minimum-size packets (20 Mpps).
* **Per-packet processing** — three memory accesses, one hash and one
  timestamp per packet, plus one extra access per packet when a marker
  arrives.
* **Receipt bandwidth** — a 10-domain path with 1000-packet aggregates and 1%
  sampling produces ~0.2 receipt bytes per packet, a 0.046% overhead over
  400-byte packets.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.receipts import AGGREGATE_RECEIPT_BYTES, SAMPLE_RECORD_BYTES
from repro.util.units import gbps_to_pps
from repro.util.validation import check_fraction, check_non_negative, check_positive

__all__ = [
    "CollectorMemoryModel",
    "PerPacketProcessingModel",
    "BandwidthOverheadModel",
]

# Per-path collector state: an open aggregate receipt (PathID reference,
# AggID, PktCnt) — "roughly 20 bytes" in the paper.
PER_PATH_STATE_BYTES = 20
# Temporary-buffer entry: 4-byte packet digest + 3-byte timestamp.
TEMP_BUFFER_ENTRY_BYTES = SAMPLE_RECORD_BYTES


@dataclass(frozen=True)
class CollectorMemoryModel:
    """Memory footprint of the collector module (data plane).

    Attributes
    ----------
    active_paths:
        Number of source/destination origin-prefix pairs concurrently sending
        traffic through the HOP.
    interface_gbps:
        Line rate of the monitored interface.
    mean_packet_size:
        Average packet size in bytes (400 in the paper's typical case, 40 for
        the worst case of all-minimum-size packets).
    reorder_window:
        The safety threshold ``J`` (seconds) during which per-packet state is
        buffered.
    directions:
        Number of monitored directions per interface (2 for a full-duplex
        interface, matching the paper's per-interface buffer numbers).
    """

    active_paths: int = 100_000
    interface_gbps: float = 10.0
    mean_packet_size: int = 400
    reorder_window: float = 0.01
    directions: int = 2

    def __post_init__(self) -> None:
        check_positive("active_paths", self.active_paths)
        check_positive("interface_gbps", self.interface_gbps)
        check_positive("mean_packet_size", self.mean_packet_size)
        check_positive("reorder_window", self.reorder_window)
        check_positive("directions", self.directions)

    @property
    def monitoring_cache_bytes(self) -> int:
        """Bytes of per-path state (one open aggregate receipt per path)."""
        return self.active_paths * PER_PATH_STATE_BYTES

    @property
    def packets_per_second(self) -> float:
        """Packets per second per direction at the configured packet size."""
        return gbps_to_pps(self.interface_gbps, self.mean_packet_size)

    @property
    def temp_buffer_bytes(self) -> int:
        """Bytes of temporary per-packet state held for one reorder window.

        Counts both directions of the interface, matching the paper's
        "436 KB temporary buffer for each 10 Gbps interface" figure
        (3.125 Mpps per direction x 10 ms x 7 bytes x 2 directions).
        """
        per_direction = int(round(self.packets_per_second * self.reorder_window))
        return per_direction * TEMP_BUFFER_ENTRY_BYTES * self.directions

    @property
    def total_bytes(self) -> int:
        """Total collector memory (monitoring cache + temporary buffer)."""
        return self.monitoring_cache_bytes + self.temp_buffer_bytes

    def fits_in_sram_chip(self, chip_bytes: int = 32 * 1024 * 1024) -> bool:
        """Whether the temporary buffer fits a single (32 MB) SRAM chip."""
        return self.temp_buffer_bytes <= chip_bytes


@dataclass(frozen=True)
class PerPacketProcessingModel:
    """Per-packet operation counts of the collector module.

    The paper's accounting: per packet, the collector (1) looks up the
    packet's PathID, (2) updates the aggregate's packet count and (3) stores
    the digest/timestamp into the temporary buffer — three memory accesses —
    plus one hash computation and one timestamp read.  When a marker packet
    arrives, the buffered entries are scanned once more, adding one access per
    packet amortized over the marker period.
    """

    memory_accesses_per_packet: int = 3
    hashes_per_packet: int = 1
    timestamps_per_packet: int = 1
    marker_scan_accesses_per_packet: int = 1

    @property
    def total_memory_accesses_per_packet(self) -> int:
        """Memory accesses per packet including the amortized marker scan."""
        return self.memory_accesses_per_packet + self.marker_scan_accesses_per_packet

    def accesses_per_second(self, packets_per_second: float) -> float:
        """Memory accesses per second at a given packet rate."""
        check_non_negative("packets_per_second", packets_per_second)
        return packets_per_second * self.total_memory_accesses_per_packet


@dataclass(frozen=True)
class BandwidthOverheadModel:
    """Receipt-dissemination bandwidth overhead of one path.

    Attributes
    ----------
    hops_on_path:
        Number of reporting units producing receipts for the path.  The
        paper's calculation uses a conservative 10-domain path and counts ten
        reporting units; the Internet average is 3-4 domains (4-6 HOPs).
    packets_per_aggregate:
        Aggregation granularity (an "ambitious" 1000 packets per aggregate in
        the paper's calculation).
    sampling_rate:
        Fraction of packets delay-sampled by each HOP.
    mean_packet_size:
        Average data-packet size in bytes.
    aggregate_receipt_bytes / sample_record_bytes:
        Receipt wire sizes; default to the paper's 22 and 7 bytes.
    """

    hops_on_path: int = 10
    packets_per_aggregate: int = 1000
    sampling_rate: float = 0.01
    mean_packet_size: int = 400
    aggregate_receipt_bytes: int = AGGREGATE_RECEIPT_BYTES
    sample_record_bytes: int = SAMPLE_RECORD_BYTES

    def __post_init__(self) -> None:
        check_positive("hops_on_path", self.hops_on_path)
        check_positive("packets_per_aggregate", self.packets_per_aggregate)
        check_fraction("sampling_rate", self.sampling_rate)
        check_positive("mean_packet_size", self.mean_packet_size)

    @property
    def receipt_bytes_per_packet_per_hop(self) -> float:
        """Receipt bytes one HOP produces per observed data packet."""
        aggregate_share = self.aggregate_receipt_bytes / self.packets_per_aggregate
        sample_share = self.sampling_rate * self.sample_record_bytes
        return aggregate_share + sample_share

    @property
    def receipt_bytes_per_packet(self) -> float:
        """Receipt bytes per data packet across all HOPs of the path."""
        return self.hops_on_path * self.receipt_bytes_per_packet_per_hop

    @property
    def bandwidth_overhead(self) -> float:
        """Receipt bytes relative to data bytes."""
        return self.receipt_bytes_per_packet / self.mean_packet_size

    @property
    def aggregate_only_bytes_per_packet(self) -> float:
        """Receipt bytes per packet counting aggregate receipts only.

        This is the arithmetic behind the paper's "0.2 bytes per packet /
        0.046% overhead" figure, which does not charge the per-sample records
        to the bandwidth budget; the full accounting (including sample
        records) is :attr:`receipt_bytes_per_packet`.
        """
        return self.hops_on_path * self.aggregate_receipt_bytes / self.packets_per_aggregate

    @property
    def aggregate_only_bandwidth_overhead(self) -> float:
        """Aggregate-only receipt bytes relative to data bytes (the 0.046%)."""
        return self.aggregate_only_bytes_per_packet / self.mean_packet_size

