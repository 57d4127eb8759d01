"""Shared machinery for the benchmark harness.

Every benchmark module regenerates one table or figure of the paper's
evaluation (its module docstring names which).  The experiments run
on a synthetic packet sequence whose size is controlled by the
``REPRO_BENCH_PACKETS`` environment variable (default 30,000 packets at the
paper's 100,000 packets-per-second rate — about 0.3 s of traffic).  Set it to
100000 to run at the paper's full per-second scale; the shapes of the results
do not change, only their statistical smoothness.

All experiment sweeps are wrapped in ``benchmark.pedantic(..., rounds=1)`` so
that ``pytest benchmarks/ --benchmark-only`` both times them and prints the
regenerated table exactly once.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.core.aggregation import AggregatorConfig
from repro.core.hop import HOPConfig
from repro.core.sampling import SamplerConfig
from repro.net.topology import figure1_topology
from repro.traffic.flows import FlowGeneratorConfig
from repro.traffic.trace import SyntheticTrace, TraceConfig, default_prefix_pair


DEFAULT_BENCH_PACKETS = 30_000
PACKETS_PER_SECOND = 100_000.0
# Seed of the shared benchmark trace; experiment_lib's declarative cells
# regenerate the identical sequence from this seed.
BENCH_TRACE_SEED = 7777


def bench_packet_count() -> int:
    """Number of packets in the benchmark sequence (env-overridable)."""
    return int(os.environ.get("REPRO_BENCH_PACKETS", DEFAULT_BENCH_PACKETS))


@pytest.fixture(scope="session")
def path():
    """The Figure-1 HOP path used by benchmarks that need explicit HOPs."""
    _, hop_path = figure1_topology()
    return hop_path


@pytest.fixture(scope="session")
def bench_packets():
    """The benchmark packet sequence (generated once per session)."""
    config = TraceConfig(
        packet_count=bench_packet_count(),
        packets_per_second=PACKETS_PER_SECOND,
        flow_config=FlowGeneratorConfig(),
    )
    return SyntheticTrace(
        config=config, prefix_pair=default_prefix_pair(), seed=BENCH_TRACE_SEED
    ).packets()


def make_hop_config(
    sampling_rate: float = 0.01,
    aggregate_size: int = 5000,
    marker_rate: float = 0.001,
    reorder_window: float = 0.002,
) -> HOPConfig:
    """Build a HOP configuration for a benchmark cell."""
    return HOPConfig(
        sampler=SamplerConfig(sampling_rate=sampling_rate, marker_rate=marker_rate),
        aggregator=AggregatorConfig(
            expected_aggregate_size=aggregate_size, reorder_window=reorder_window
        ),
    )


def print_table(title: str, headers: list[str], rows: list[list[object]]) -> None:
    """Print a fixed-width results table to stdout (shown with pytest -s or on
    the benchmark summary)."""
    widths = [
        max(len(str(header)), *(len(str(row[index])) for row in rows)) if rows else len(str(header))
        for index, header in enumerate(headers)
    ]
    line = "  ".join(str(header).ljust(width) for header, width in zip(headers, widths))
    separator = "-" * len(line)
    print(f"\n=== {title} ===")
    print(line)
    print(separator)
    for row in rows:
        print("  ".join(str(cell).ljust(width) for cell, width in zip(row, widths)))
    print(separator)
