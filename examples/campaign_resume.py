#!/usr/bin/env python3
"""Checkpointable campaigns: kill a long-horizon run, resume it, lose nothing.

SLAs are contracted over long horizons ("a certain level of packet loss per
month") while receipts arrive per reporting interval — so a campaign must
survive process restarts without perturbing a single byte of its audit trail.
This example:

1. declares a 6-interval :class:`~repro.api.CampaignSpec` (per-interval
   traffic/conditions derived by BLAKE2b seed-spacing) with an SLA target;
2. runs it to completion into one :class:`~repro.store.RunStore`;
3. runs the same spec again but "crashes" after interval 3, then *resumes*
   from the store — on a different engine (streaming) for good measure;
4. verifies the two stores are byte-identical and prints the campaign
   SLA verdict table.

The same flow is available from the shell::

    repro run spec.json            # checkpointing after every interval
    repro resume runs/<id>         # continue after a kill; byte-identical
    repro report runs/<id>         # the campaign SLA verdict table

Run:  python examples/campaign_resume.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.api import (
    CampaignSpec,
    ConditionSpec,
    EstimationSpec,
    ExperimentSpec,
    HOPSpec,
    PathSpec,
    ProtocolSpec,
    SLATargetSpec,
    TrafficSpec,
)
from repro.engine.campaign import CampaignRunner
from repro.store import RunStore

SPEC = CampaignSpec(
    name="resume-demo",
    intervals=6,
    cell=ExperimentSpec(
        name="resume-demo-cell",
        seed=42,
        traffic=TrafficSpec(workload=None, packet_count=2500),
        path=PathSpec(
            conditions={
                "X": ConditionSpec(
                    delay="jitter",
                    delay_params={"base_delay": 1.2e-3, "jitter_std": 0.4e-3},
                    loss="gilbert-elliott-rate",
                    loss_params={"target_rate": 0.02},
                ),
            }
        ),
        protocol=ProtocolSpec(
            default=HOPSpec(sampling_rate=0.05, marker_rate=0.005, aggregate_size=800)
        ),
        estimation=EstimationSpec(observer="S", targets=("X",)),
    ),
    sla=SLATargetSpec(
        delay_bound=5e-3, delay_quantile=0.9, loss_bound=0.05, name="monthly-gold"
    ),
)


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-campaign-") as workdir:
        demo(Path(workdir))


def demo(workdir: Path) -> None:

    # --- the reference: one uninterrupted run -------------------------------
    uninterrupted = RunStore.create(workdir / "uninterrupted", SPEC)
    CampaignRunner(SPEC, uninterrupted).run()
    print(f"uninterrupted run: {uninterrupted.record_count} intervals, "
          f"store digest {uninterrupted.digest()[:16]}")

    # --- the crash: stop after 3 intervals ----------------------------------
    crashed = RunStore.create(workdir / "crashed", SPEC)
    CampaignRunner(SPEC, crashed).run(max_intervals=3)
    print(f"'crashed' after {crashed.record_count} intervals "
          f"(store survives the process)")

    # --- the resume: different process would reopen the store exactly here;
    # we also switch engines, which the byte-identical contract permits ------
    resumed = CampaignRunner.resume(crashed, engine="streaming", chunk_size=640)
    outcome = resumed.run()
    print(f"resumed on the streaming engine: +{outcome.intervals_run} intervals, "
          f"complete={outcome.completed}")

    assert uninterrupted.digest() == crashed.digest(), (
        "resumed store must be byte-identical to the uninterrupted run"
    )
    print("stores byte-identical: resume lost (and perturbed) nothing\n")

    # --- the verdict table, as `repro report` would print it ----------------
    summary = outcome.summary
    sla = SPEC.sla
    print(f"campaign {SPEC.name!r} over {summary['intervals']} intervals, "
          f"SLA {sla.name!r} (delay <= {sla.delay_bound * 1e3:g} ms at "
          f"q={sla.delay_quantile:g}, loss <= {sla.loss_bound * 100:g} %):")
    for domain, entry in sorted(summary["domains"].items()):
        quantile_key = repr(float(sla.delay_quantile))
        pooled = entry["pooled_quantiles"].get(quantile_key)
        delay_text = f"{pooled['estimate'] * 1e3:.3f} ms" if pooled else "n/a"
        verdict = "COMPLIANT" if entry["sla_compliant"] else "IN VIOLATION"
        print(f"  {domain}: pooled p{sla.delay_quantile * 100:g} delay {delay_text}, "
              f"loss {entry['loss_rate'] * 100:.3f}%, "
              f"receipts accepted {entry['acceptance_rate'] * 100:.0f}% "
              f"-> {verdict}")


if __name__ == "__main__":
    main()
