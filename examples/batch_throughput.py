#!/usr/bin/env python3
"""Drive millions of packets through the VPM pipeline with the batch fast path.

The paper's Section 7.1 argument is that per-packet HOP work is cheap enough
to run at line rate.  The scalar (object-per-packet) reproduction pays full
interpreter overhead per packet; this example runs
:class:`repro.engine.streaming.StreamingRunner` as one whole-trace pass over
the columnar :class:`repro.net.batch.PacketBatch` representation, pushing a
multi-million-packet sequence through traffic synthesis, path propagation and
the vectorized collectors, then estimates and verifies from the receipts — in
seconds, with results identical to the scalar path.

Run:  python examples/batch_throughput.py [packet_count]
"""

from __future__ import annotations

import sys
import time

from repro.core.aggregation import AggregatorConfig
from repro.core.hop import HOPConfig
from repro.core.protocol import VPMSession
from repro.core.sampling import SamplerConfig
from repro.engine.streaming import StreamingCell, StreamingRunner
from repro.simulation.scenario import PathScenario, SegmentCondition
from repro.traffic.delay_models import CongestionDelayModel
from repro.traffic.loss_models import GilbertElliottLossModel
from repro.traffic.trace import SyntheticTrace, TraceConfig


def main() -> None:
    packet_count = int(sys.argv[1]) if len(sys.argv) > 1 else 2_000_000

    started = time.perf_counter()
    trace = SyntheticTrace(
        config=TraceConfig(packet_count=packet_count, packets_per_second=100_000.0),
        seed=1,
    )

    scenario = PathScenario(seed=2)
    scenario.configure_domain(
        "X",
        SegmentCondition(
            delay_model=CongestionDelayModel(scenario="udp-burst", seed=3),
            loss_model=GilbertElliottLossModel.from_target_rate(0.05, seed=4),
        ),
    )
    config = HOPConfig(
        sampler=SamplerConfig(sampling_rate=0.01),
        aggregator=AggregatorConfig(expected_aggregate_size=100_000),
    )
    session = VPMSession(
        scenario.path, configs={d.name: config for d in scenario.path.domains}
    )
    # One whole-trace pass: synthesis, propagation and the collectors.
    result = StreamingRunner(
        StreamingCell((scenario,), (trace,), session), chunk_size=None
    ).run()
    collected = time.perf_counter()
    overhead = session.overhead()
    rate = overhead.observed_packets / (collected - started)
    print(
        f"Synthesized {packet_count:,} packets ({trace.config.duration:.1f} s of "
        f"traffic), propagated them across {len(scenario.path.hops)} HOPs and "
        f"collected receipts for {overhead.observed_packets:,} HOP observations "
        f"in {collected - started:.2f} s ({rate:,.0f} HOP observations/s)"
    )

    performance = session.estimate("L", "X")
    verification = session.verify("L", "X")
    truth = result.truth_for("X")
    print(
        f"Domain X: loss {performance.loss_rate * 100:.2f}% estimated vs "
        f"{truth.loss_rate * 100:.2f}% true; receipts consistent: {verification.accepted}"
    )
    print(
        f"Receipt bandwidth overhead: {overhead.bandwidth_overhead * 100:.4f}% "
        f"({overhead.receipt_bytes_per_packet:.3f} B/packet)"
    )
    print(f"Total wall time: {time.perf_counter() - started:.2f} s")


if __name__ == "__main__":
    main()
