#!/usr/bin/env python3
"""A multi-interval measurement campaign with fault localization.

SLAs are written over long horizons ("loss below 0.1% per month"), while VPM
receipts are produced per reporting period.  This example runs a campaign of
several measurement intervals against a provider path, accumulates the
receipts into campaign-level statistics, checks the campaign against the SLA,
and uses the localization helper to name the offending provider and any link
whose receipts disagreed.

The path conditions, protocol knobs and measurement question live in one
declarative ``repro.api`` spec, wrapped in a
:class:`~repro.api.CampaignSpec` with an SLA target.  A
:class:`~repro.engine.campaign.CampaignRunner` executes it in memory:
interval ``i`` is a pure function of ``(spec, i)``, ``runner.records()`` is
the per-interval audit trail and ``runner.summary()`` the campaign-level
statistics folded from those records.

Run:  python examples/measurement_campaign.py
"""

from __future__ import annotations

from repro.analysis.localization import localize_performance
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
    run_cell_full,
)
from repro.engine.campaign import CampaignRunner

SPEC = ExperimentSpec(
    name="monthly-campaign",
    seed=42,
    traffic=TrafficSpec(workload=None, packet_count=8000, packets_per_second=100_000.0),
    path=PathSpec(
        conditions={
            # Provider X is congested and lossy; L and N are healthy.
            "L": ConditionSpec(
                delay="jitter", delay_params={"base_delay": 0.5e-3, "jitter_std": 0.1e-3}
            ),
            "X": ConditionSpec(
                delay="congestion",
                delay_params={"scenario": "udp-burst"},
                loss="gilbert-elliott-rate",
                loss_params={"target_rate": 0.02},
            ),
            "N": ConditionSpec(
                delay="jitter", delay_params={"base_delay": 1e-3, "jitter_std": 0.2e-3}
            ),
        }
    ),
    protocol=ProtocolSpec(default=HOPSpec(sampling_rate=0.02, aggregate_size=2000)),
    estimation=EstimationSpec(observer="S", targets=("X",)),
)

SLA = SLATargetSpec(delay_bound=15e-3, delay_quantile=0.9, loss_bound=0.005)

CAMPAIGN = CampaignSpec(intervals=4, cell=SPEC, sla=SLA)


def main() -> None:
    runner = CampaignRunner(CAMPAIGN)
    runner.run()
    summary = runner.summary()
    target = summary["domains"]["X"]
    p90 = target["pooled_quantiles"]["0.9"]["estimate"]

    print(f"Campaign over {summary['intervals']} intervals "
          f"({target['offered_packets']} packets offered to X)")
    print(f"  pooled p90 delay: {p90 * 1e3:.2f} ms")
    print(f"  campaign loss:    {target['loss_rate'] * 100:.3f}%")
    print(f"  receipts accepted in {target['acceptance_rate'] * 100:.0f}% of intervals")
    print(f"  SLA {SLA.name!r}: {'COMPLIANT' if target['sla_compliant'] else 'IN VIOLATION'}")

    print("\nPer-interval history:")
    for record in runner.records():
        estimate = record["estimates"]["X"]
        quantiles = estimate["quantiles"]
        q90 = quantiles["0.9"]["estimate"] * 1e3 if quantiles else float("nan")
        accepted = record["verdicts"]["X"]["accepted"]
        print(
            f"  interval {record['interval']}: p90 {q90:6.2f} ms, "
            f"loss {estimate['loss_rate'] * 100:5.2f}%, "
            f"{'ok' if accepted else 'INCONSISTENT'}"
        )

    # Localize: one diagnostic run of the cell, read through the observer's
    # verifier.
    session = run_cell_full(SPEC).session
    diagnosis = localize_performance(session.verifier_for("S"), sla=SLA.build())
    print("\nLocalization (diagnostic run):")
    for entry in diagnosis.domains:
        marker = " <-- violating" if entry.violating else ""
        print(
            f"  {entry.domain}: delay share {entry.delay_share * 100:5.1f}%, "
            f"loss share {entry.loss_share * 100:5.1f}%{marker}"
        )
    if diagnosis.suspects:
        for suspect in diagnosis.suspects:
            print(f"  suspect link: {suspect.upstream_domain} -> {suspect.downstream_domain} "
                  f"({', '.join(suspect.finding_kinds)})")
    else:
        print("  no inconsistent links — all receipts mutually consistent")


if __name__ == "__main__":
    main()
