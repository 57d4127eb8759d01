#!/usr/bin/env python3
"""Quickstart: estimate and verify a congested domain's performance with VPM.

This walks the full pipeline on the paper's running example (Figure 1):

1. synthesize a packet sequence between a source and destination prefix;
2. drive it across the path S -> L -> X -> N -> D, with domain X congested by
   a bursty UDP flow and losing ~10% of the traffic;
3. let every domain run VPM at its hand-off points and publish receipts;
4. as domain L (X's upstream neighbor), estimate X's delay quantiles and loss
   from the receipts, verify them for consistency, and compare against the
   simulation's ground truth.

This walkthrough wires the engine layer by hand to show every moving part;
``examples/declarative_sweep.py`` runs the same kind of cell in a few lines
through the declarative ``repro.api`` front door.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.core.aggregation import AggregatorConfig
from repro.core.hop import HOPConfig
from repro.core.protocol import VPMSession
from repro.core.sampling import SamplerConfig
from repro.engine.streaming import StreamingCell, StreamingRunner
from repro.simulation.scenario import PathScenario, SegmentCondition
from repro.traffic.delay_models import CongestionDelayModel
from repro.traffic.loss_models import GilbertElliottLossModel
from repro.traffic.workload import make_workload


def main() -> None:
    # 1. Traffic: ~0.3 s of a 100k packet-per-second path (scaled down from
    #    the paper's trace; see DESIGN.md for the substitution rationale).
    #    The runner synthesizes it as one columnar batch and drives the
    #    vectorized fast path end to end; see examples/batch_throughput.py for
    #    the same pipeline at millions of packets per run.
    trace = make_workload("bench-sequence", seed=1)
    print(f"Generated {trace.config.packet_count} packets "
          f"({trace.config.duration:.2f} s of traffic)")

    # 2. The Figure-1 path with domain X congested.
    scenario = PathScenario(seed=2)
    scenario.configure_domain(
        "X",
        SegmentCondition(
            delay_model=CongestionDelayModel(scenario="udp-burst", seed=3),
            loss_model=GilbertElliottLossModel.from_target_rate(0.10, seed=4),
        ),
    )

    # 3. Every domain deploys VPM: 1% delay sampling, 5000-packet aggregates.
    #    (A single HOPConfig applies to every domain on the path; pass a
    #    {domain: config} mapping for per-domain knobs or partial deployment.)
    config = HOPConfig(
        sampler=SamplerConfig(sampling_rate=0.01),
        aggregator=AggregatorConfig(expected_aggregate_size=5000),
    )
    session = VPMSession(scenario.path, configs=config)
    # One whole-trace pass (chunk_size=None): the runner propagates the trace
    # and feeds every HOP's observations to that HOP's collector.
    result = StreamingRunner(
        StreamingCell((scenario,), (trace,), session), chunk_size=None
    ).run()
    truth = result.truth_for("X")

    # 4. Domain L estimates and verifies X.
    performance = session.estimate("L", "X")
    verification = session.verify("L", "X")

    print("\n--- Domain X, as estimated by domain L from receipts ---")
    for quantile, estimate in sorted(performance.delay_quantiles.items()):
        true_value = truth.delay_quantiles([quantile])[quantile]
        print(
            f"  delay p{int(quantile * 100):2d}: "
            f"{estimate.estimate * 1e3:6.2f} ms "
            f"[{estimate.lower * 1e3:6.2f}, {estimate.upper * 1e3:6.2f}]   "
            f"(true {true_value * 1e3:6.2f} ms)"
        )
    print(f"  matched delay samples: {performance.delay_sample_count}")
    print(
        f"  loss: {performance.loss_rate * 100:.2f}% computed vs "
        f"{truth.loss_rate * 100:.2f}% true, over "
        f"{performance.mean_loss_granularity * 1e3:.0f} ms granules"
    )
    print(f"  receipts consistent: {verification.accepted}")

    overhead = session.overhead()
    print("\n--- Resource overhead of this measurement interval ---")
    print(f"  receipt bytes per observed packet: {overhead.receipt_bytes_per_packet:.3f}")
    print(f"  bandwidth overhead: {overhead.bandwidth_overhead * 100:.4f}%")
    print(f"  peak temporary-buffer occupancy: {overhead.max_temp_buffer_packets} packets")


if __name__ == "__main__":
    main()
