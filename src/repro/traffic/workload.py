"""Named workloads used by the examples and the benchmark harness.

The benchmarks and the examples name one of these workload specifications,
so they share a single definition of "the paper's packet sequence" instead of
re-deriving parameters in several places.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.traffic.flows import FlowGeneratorConfig
from repro.traffic.trace import SyntheticTrace, TraceConfig, default_prefix_pair
from repro.util.validation import check_positive

__all__ = ["WorkloadSpec", "make_workload", "WORKLOADS"]


@dataclass(frozen=True)
class WorkloadSpec:
    """A named traffic workload.

    ``packet_count`` and ``packets_per_second`` determine the sequence; the
    paper's headline sequence is 100,000 packets per second.  Benchmarks use a
    scaled-down ``packet_count`` by default (``REPRO_BENCH_PACKETS``, see
    ``benchmarks/conftest.py``) because generating the full sequence is slow;
    the scaling factor does not change the shape of any result because all
    quantities of interest are rates or per-packet statistics.
    """

    name: str
    packet_count: int
    packets_per_second: float
    arrival_process: str = "poisson"
    description: str = ""

    def __post_init__(self) -> None:
        check_positive("packet_count", self.packet_count)
        check_positive("packets_per_second", self.packets_per_second)

    def trace_config(self) -> TraceConfig:
        """Materialize the :class:`TraceConfig` for this workload."""
        return TraceConfig(
            packet_count=self.packet_count,
            packets_per_second=self.packets_per_second,
            arrival_process=self.arrival_process,
            flow_config=FlowGeneratorConfig(),
        )


WORKLOADS: dict[str, WorkloadSpec] = {
    "paper-sequence": WorkloadSpec(
        name="paper-sequence",
        packet_count=100_000,
        packets_per_second=100_000.0,
        description="The paper's evaluation sequence: 100k packets at 100k pkt/s.",
    ),
    "bench-sequence": WorkloadSpec(
        name="bench-sequence",
        packet_count=30_000,
        packets_per_second=100_000.0,
        description="Scaled-down sequence for the pytest-benchmark harness.",
    ),
    "smoke-sequence": WorkloadSpec(
        name="smoke-sequence",
        packet_count=3_000,
        packets_per_second=100_000.0,
        description="Tiny sequence for unit and integration tests.",
    ),
    "bursty-sequence": WorkloadSpec(
        name="bursty-sequence",
        packet_count=30_000,
        packets_per_second=100_000.0,
        arrival_process="mmpp",
        description="Bursty (MMPP) arrivals for robustness experiments.",
    ),
}


def make_workload(name: str, seed: int | None = 0) -> SyntheticTrace:
    """Return a :class:`SyntheticTrace` for a named workload.

    Raises ``KeyError`` with the list of known workloads when the name is
    unknown.
    """
    try:
        spec = WORKLOADS[name]
    except KeyError:
        known = ", ".join(sorted(WORKLOADS))
        raise KeyError(f"unknown workload {name!r}; known workloads: {known}") from None
    return SyntheticTrace(
        config=spec.trace_config(), prefix_pair=default_prefix_pair(), seed=seed
    )
