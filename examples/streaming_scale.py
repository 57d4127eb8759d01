#!/usr/bin/env python3
"""Drive a 10M-packet VPM run in bounded memory with the streaming engine.

The batch engine materializes every HOP's whole observation stream — at ten
million packets that is multiple gigabytes.  The streaming engine
(``Experiment.run(engine="streaming")``) drives the identical simulation
chunk-by-chunk: memory stays bounded by the chunk size plus the packets in
flight inside delay/reorder holdback windows (plus the ground-truth delay
record, one float per delivered packet per domain), and the results are
byte-identical to the batch engine.  The engine runs in one process; more
cores come from dispatching a campaign's intervals to workers
(``repro dispatch --workers N``).

Run:  python examples/streaming_scale.py [--packets N] [--chunk-size N]
      [--profile-out FILE] [--verify]

``--verify`` additionally runs the batch engine on a 200k-packet slice of
the same scenario and asserts byte-identical results from the streaming
engine at two chunk sizes (the conformance suite does this exhaustively on
small scenarios; here it is a smoke check at scale).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import time

from repro.api import ExperimentSpec
from repro.api.runner import run_cell
from repro.api.spec import ConditionSpec, HOPSpec, PathSpec, ProtocolSpec, TrafficSpec


def max_rss_mb() -> float:
    """Peak resident set size of this process, in MB (Linux ru_maxrss is KB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1e3


def scale_spec(packet_count: int) -> ExperimentSpec:
    """The scenario: jittery delay plus bursty loss in X, paper-scale knobs.

    Aggregates of 100k packets (the paper's evaluation choice) and 0.5%
    sampling keep receipt state proportional to the *receipts*, not the
    packets, which is what lets collector state stay small at 10M packets.
    """
    return ExperimentSpec(
        name="streaming-scale",
        seed=7,
        traffic=TrafficSpec(
            workload=None, packet_count=packet_count, payload_bytes=8
        ),
        path=PathSpec(
            conditions={
                "X": ConditionSpec(
                    delay="jitter",
                    delay_params={"base_delay": 1.0e-3, "jitter_std": 0.5e-3},
                    loss="gilbert-elliott-rate",
                    loss_params={"target_rate": 0.02},
                )
            }
        ),
        protocol=ProtocolSpec(
            default=HOPSpec(sampling_rate=0.005, aggregate_size=100_000)
        ),
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--packets", type=int, default=10_000_000)
    parser.add_argument("--chunk-size", type=int, default=1 << 17)
    parser.add_argument("--profile-out", type=str, default=None,
                        help="write a JSON memory/throughput profile here")
    parser.add_argument("--verify", action="store_true",
                        help="cross-check engines on a 200k-packet slice first")
    args = parser.parse_args()

    profile: dict = {
        "packets": args.packets,
        "chunk_size": args.chunk_size,
        "cpu_count": os.cpu_count(),
        "baseline_rss_mb": max_rss_mb(),
    }

    if args.verify:
        small = scale_spec(200_000)
        reference = run_cell(small, engine="batch").to_json()
        for chunk_size in (50_000, 8_192):
            streamed = run_cell(
                small, engine="streaming", chunk_size=chunk_size
            ).to_json()
            assert streamed == reference, f"engine mismatch at chunk_size={chunk_size}"
        print("verify: batch == streaming(chunk 50000) == streaming(chunk 8192) "
              "on 200k packets (byte-identical results)")

    spec = scale_spec(args.packets)
    print(f"\nStreaming {args.packets:,} packets "
          f"(chunk={args.chunk_size:,}, single process) ...")
    started = time.perf_counter()
    result = run_cell(spec, engine="streaming", chunk_size=args.chunk_size)
    elapsed = time.perf_counter() - started
    rss = max_rss_mb()
    throughput = args.packets / elapsed
    print(f"  {elapsed:.1f} s  ->  {throughput/1e3:,.0f}k packets/s, "
          f"peak RSS {rss:.0f} MB")
    profile["streaming"] = {
        "seconds": elapsed, "packets_per_second": throughput, "peak_rss_mb": rss
    }

    target = result.target("X")
    print(f"  X loss: estimated {target.estimate.loss_rate:.4f} "
          f"vs true {target.truth.loss_rate:.4f}; "
          f"median delay estimated {target.estimate.delay_quantile(0.5)*1e3:.3f} ms "
          f"vs true {target.truth.delay_quantile(0.5)*1e3:.3f} ms; "
          f"verification accepted: {target.verification.accepted}")

    if args.profile_out:
        with open(args.profile_out, "w") as handle:
            json.dump(profile, handle, indent=2, sort_keys=True)
        print(f"\nProfile written to {args.profile_out}")


if __name__ == "__main__":
    main()
