#!/usr/bin/env python3
"""Perf-regression guard: measure engine throughput against checked-in floors.

Runs five quick probes:

* the **batch** engine on a fixed 300k-packet cell (jitter delay + bursty
  loss in X, paper-scale aggregation knobs),
* the **streaming** engine (same cell, chunked execution),
* the **mesh** runner on a 4-path star mesh (60k packets per path, shared
  transit core, per-path verification + triangulation) — throughput counted
  over the total packets of all paths, and
* the **campaign** runner on a 4-interval checkpointed campaign (60k packets
  per interval into a scratch run store — per-interval stats folding,
  receipt digests and atomic checkpoint writes included in the measurement),
* the **sketch memory** probe: a 200-interval campaign in sketch estimation
  mode plus a variant carrying 8x the samples per interval — the committed
  record bytes must stay under ``max_sketch_record_bytes`` *and* must not
  grow with the per-interval sample count (ratio ceiling
  ``max_sketch_record_scale_ratio``), which is the O(sketch)-bytes-per-
  interval contract sketch mode exists for (the exact-mode bytes at the
  same scale are measured alongside for contrast, unenforced);

then compares packets/second against ``benchmarks/perf_thresholds.json``.
A probe fails when it runs more than ``regression_tolerance`` (25%) below its
threshold — i.e. the thresholds are floors already discounted for CI-runner
variance, and the tolerance is the maximum further regression we accept
before failing the build.

Exit status 1 on regression.  ``--json FILE`` writes the measurements (for
the CI artifact); ``--calibrate`` prints suggested thresholds (60% of the
local measurement) instead of checking.

Usage:  PYTHONPATH=src python scripts/check_perf.py [--json FILE] [--calibrate]
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api import ExperimentSpec  # noqa: E402
from repro.api.runner import run_cell, run_mesh_cell  # noqa: E402
from repro.api.spec import (  # noqa: E402
    CampaignSpec,
    ConditionSpec,
    HOPSpec,
    MeshSpec,
    PathSpec,
    ProtocolSpec,
    SLATargetSpec,
    TopologySpec,
    TrafficSpec,
)
from repro.engine.campaign import CampaignRunner  # noqa: E402
from repro.store import RunStore  # noqa: E402

THRESHOLDS_PATH = REPO_ROOT / "benchmarks" / "perf_thresholds.json"
PACKETS = 300_000
MESH_PATHS = 4
MESH_PACKETS_PER_PATH = 60_000
CAMPAIGN_INTERVALS = 4
CAMPAIGN_PACKETS_PER_INTERVAL = 60_000
STREAMING_CHUNK = 1 << 16
ENGINES = ("batch", "streaming", "mesh", "campaign")
SKETCH_INTERVALS = 200
SKETCH_PACKETS_PER_INTERVAL = 600
SKETCH_SCALE_FACTOR = 8
SKETCH_SCALE_INTERVALS = 20


def probe_spec() -> ExperimentSpec:
    return ExperimentSpec(
        name="perf-probe",
        seed=99,
        traffic=TrafficSpec(workload=None, packet_count=PACKETS, payload_bytes=8),
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


def mesh_probe_spec() -> MeshSpec:
    return MeshSpec(
        name="mesh-perf-probe",
        seed=99,
        topology=TopologySpec(kind="star", params={"path_count": MESH_PATHS}, seed=0),
        traffic=TrafficSpec(
            workload=None, packet_count=MESH_PACKETS_PER_PATH, payload_bytes=8
        ),
        conditions={
            "X": ConditionSpec(
                delay="jitter",
                delay_params={"base_delay": 1.0e-3, "jitter_std": 0.5e-3},
                loss="gilbert-elliott-rate",
                loss_params={"target_rate": 0.02},
            )
        },
        protocol=ProtocolSpec(
            default=HOPSpec(sampling_rate=0.005, aggregate_size=50_000)
        ),
    )


def campaign_probe_spec() -> CampaignSpec:
    cell = probe_spec()
    # Same conditions as the single-cell probe, scaled to the per-interval
    # packet budget; the campaign probe therefore measures the checkpointing
    # machinery (record building, receipt digests, atomic store writes, the
    # mergeable pooled-quantile fold) on top of known engine throughput.
    cell = cell.with_overrides(
        {"name": "campaign-perf-probe", "traffic.packet_count": CAMPAIGN_PACKETS_PER_INTERVAL}
    )
    return CampaignSpec(
        name="campaign-perf-probe",
        intervals=CAMPAIGN_INTERVALS,
        cell=cell,
        sla=SLATargetSpec(delay_bound=10e-3, delay_quantile=0.9, loss_bound=0.1),
    )


def sketch_probe_spec(intervals: int, packets: int, mode: str) -> CampaignSpec:
    # Dense sampling so every interval pools a meaningful number of matched
    # delays (the record-size probe is about sample volume, not throughput).
    cell = probe_spec().with_overrides(
        {
            "name": f"sketch-perf-probe-{mode}",
            "traffic.packet_count": packets,
            "protocol.default.sampling_rate": 0.5,
            "protocol.default.aggregate_size": 200,
        }
    )
    if mode == "sketch":
        cell = cell.with_overrides({"estimation.mode": "sketch"})
    return CampaignSpec(
        name=f"sketch-perf-probe-{mode}",
        intervals=intervals,
        cell=cell,
        sla=SLATargetSpec(delay_bound=10e-3, delay_quantile=0.9, loss_bound=0.1),
    )


def _record_bytes(intervals: int, packets: int, mode: str) -> tuple[int, float]:
    """(max, mean) committed record-line bytes of one campaign run."""
    with tempfile.TemporaryDirectory(prefix="repro-perf-sketch-") as scratch:
        spec = sketch_probe_spec(intervals, packets, mode)
        store = RunStore.create(Path(scratch) / "run", spec)
        CampaignRunner(spec, store).run()
        lines = (store.path / "records.jsonl").read_bytes().splitlines()
    assert len(lines) == intervals
    sizes = [len(line) for line in lines]
    return max(sizes), sum(sizes) / len(sizes)


def measure() -> dict[str, float]:
    spec = probe_spec()
    measurements: dict[str, float] = {}
    for engine in ("batch", "streaming"):
        started = time.perf_counter()
        run_cell(spec, engine=engine, chunk_size=STREAMING_CHUNK if engine == "streaming" else None)
        elapsed = time.perf_counter() - started
        measurements[f"{engine}_packets_per_second"] = PACKETS / elapsed
        measurements[f"{engine}_seconds"] = elapsed

    started = time.perf_counter()
    run_mesh_cell(mesh_probe_spec(), engine="batch")
    elapsed = time.perf_counter() - started
    measurements["mesh_packets_per_second"] = (
        MESH_PATHS * MESH_PACKETS_PER_PATH / elapsed
    )
    measurements["mesh_seconds"] = elapsed

    with tempfile.TemporaryDirectory(prefix="repro-perf-campaign-") as scratch:
        store = RunStore.create(Path(scratch) / "run", campaign_probe_spec())
        started = time.perf_counter()
        CampaignRunner(campaign_probe_spec(), store).run()
        elapsed = time.perf_counter() - started
    measurements["campaign_packets_per_second"] = (
        CAMPAIGN_INTERVALS * CAMPAIGN_PACKETS_PER_INTERVAL / elapsed
    )
    measurements["campaign_seconds"] = elapsed

    # Sketch memory probe: committed bytes per interval must not scale with
    # the per-interval sample count.  Record sizes are deterministic, so no
    # variance tolerance applies.
    started = time.perf_counter()
    sketch_max, sketch_mean = _record_bytes(
        SKETCH_INTERVALS, SKETCH_PACKETS_PER_INTERVAL, "sketch"
    )
    scaled_max, _ = _record_bytes(
        SKETCH_SCALE_INTERVALS,
        SKETCH_PACKETS_PER_INTERVAL * SKETCH_SCALE_FACTOR,
        "sketch",
    )
    exact_scaled_max, _ = _record_bytes(
        SKETCH_SCALE_INTERVALS,
        SKETCH_PACKETS_PER_INTERVAL * SKETCH_SCALE_FACTOR,
        "exact",
    )
    measurements["sketch_probe_seconds"] = time.perf_counter() - started
    measurements["sketch_record_bytes_max"] = float(sketch_max)
    measurements["sketch_record_bytes_mean"] = sketch_mean
    measurements["sketch_scaled_record_bytes_max"] = float(scaled_max)
    measurements["sketch_record_scale_ratio"] = scaled_max / sketch_max
    measurements["exact_scaled_record_bytes_max"] = float(exact_scaled_max)
    return measurements


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", type=str, default=None)
    parser.add_argument("--calibrate", action="store_true")
    args = parser.parse_args()

    measurements = measure()
    for key, value in sorted(measurements.items()):
        if key.endswith("packets_per_second"):
            print(f"{key}: {value/1e3:,.0f}k pkts/s")

    if args.json:
        Path(args.json).write_text(json.dumps(measurements, indent=2, sort_keys=True))

    if args.calibrate:
        suggested = {
            "regression_tolerance": 0.25,
            "thresholds_packets_per_second": {
                engine: round(measurements[f"{engine}_packets_per_second"] * 0.6)
                for engine in ENGINES
            },
            "max_sketch_record_bytes": round(
                measurements["sketch_record_bytes_max"] * 1.5
            ),
            "max_sketch_record_scale_ratio": 1.25,
        }
        print("suggested thresholds:")
        print(json.dumps(suggested, indent=2, sort_keys=True))
        return 0

    config = json.loads(THRESHOLDS_PATH.read_text())
    tolerance = float(config["regression_tolerance"])
    failed = False
    for engine, floor in config["thresholds_packets_per_second"].items():
        measured = measurements[f"{engine}_packets_per_second"]
        minimum = floor * (1.0 - tolerance)
        status = "ok" if measured >= minimum else "REGRESSION"
        print(
            f"{engine}: measured {measured/1e3:,.0f}k pkts/s, "
            f"floor {floor/1e3:,.0f}k (fail under {minimum/1e3:,.0f}k) -> {status}"
        )
        failed |= measured < minimum

    byte_ceiling = float(config.get("max_sketch_record_bytes", 0.0))
    if byte_ceiling:
        worst = max(
            measurements["sketch_record_bytes_max"],
            measurements["sketch_scaled_record_bytes_max"],
        )
        status = "ok" if worst <= byte_ceiling else "REGRESSION"
        print(
            f"sketch record bytes: max {worst:,.0f} over "
            f"{SKETCH_INTERVALS}-interval + {SKETCH_SCALE_FACTOR}x-sample "
            f"probes (ceiling {byte_ceiling:,.0f}, exact-mode at the same "
            f"scale {measurements['exact_scaled_record_bytes_max']:,.0f}) "
            f"-> {status}"
        )
        failed |= worst > byte_ceiling
    ratio_ceiling = float(config.get("max_sketch_record_scale_ratio", 0.0))
    if ratio_ceiling:
        ratio = measurements["sketch_record_scale_ratio"]
        status = "ok" if ratio <= ratio_ceiling else "REGRESSION"
        print(
            f"sketch record scaling: {SKETCH_SCALE_FACTOR}x samples/interval "
            f"-> {ratio:.2f}x record bytes (ceiling {ratio_ceiling:.2f}x) "
            f"-> {status}"
        )
        failed |= ratio > ratio_ceiling
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
