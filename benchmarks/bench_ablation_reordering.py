"""Ablation A2 — the AggTrans reordering patch-up (Section 6.3).

Domain X reorders packets within a bounded window but loses nothing.  Without
the patch-up, packets that cross a cutting point show up as spurious loss (or
negative loss) in the per-aggregate comparison; with it, the verifier migrates
them back and computes exactly zero loss.  The sweep varies the reordering
window relative to the protocol's safety threshold ``J``.
"""

from __future__ import annotations

from benchmarks.conftest import feed_session, make_hop_config, print_table
from repro.core.partition import aligned_aggregates
from repro.core.protocol import VPMSession
from repro.simulation.scenario import PathScenario, SegmentCondition
from repro.traffic.delay_models import ConstantDelayModel
from repro.traffic.reordering import WindowReordering

REORDER_WINDOWS_MS = (0.2, 0.5, 1.0)
AGGREGATE_SIZE = 1000
SAFETY_WINDOW = 0.002  # J = 2 ms >= every tested reordering window


def _run_sweep(packets):
    results = []
    for index, window_ms in enumerate(REORDER_WINDOWS_MS):
        scenario = PathScenario(seed=900 + index)
        scenario.configure_domain(
            "X",
            SegmentCondition(
                delay_model=ConstantDelayModel(1e-3),
                reordering=WindowReordering(
                    window=window_ms * 1e-3, reorder_probability=0.3, seed=910 + index
                ),
            ),
        )
        observation = scenario.run_batch(packets)
        config = make_hop_config(
            sampling_rate=0.01,
            aggregate_size=AGGREGATE_SIZE,
            reorder_window=SAFETY_WINDOW,
        )
        session = VPMSession(
            observation.path,
            configs={"S": None, "L": None, "X": config, "N": None, "D": None},
        )
        feed_session(session, observation)
        verifier = session.verifier_for("X")
        ingress = verifier.aggregate_receipts_for(4)
        egress = verifier.aggregate_receipts_for(5)
        with_patch = aligned_aggregates(ingress, egress, apply_reordering_patch=True)
        without_patch = aligned_aggregates(ingress, egress, apply_reordering_patch=False)
        results.append(
            {
                "window_ms": window_ms,
                "aggregates": len(ingress),
                "spurious_with_patch": sum(abs(p.lost_packets) for p in with_patch),
                "spurious_without_patch": sum(abs(p.lost_packets) for p in without_patch),
                "migrations": sum(abs(p.migrated_packets) for p in with_patch),
            }
        )
    return results


def test_ablation_reordering_patch_up(benchmark, bench_packets):
    """Spurious loss with and without the AggTrans patch-up."""
    results = benchmark.pedantic(_run_sweep, args=(bench_packets,), rounds=1, iterations=1)
    rows = [
        [
            f"{cell['window_ms']:g} ms",
            cell["aggregates"],
            cell["spurious_without_patch"],
            cell["spurious_with_patch"],
            cell["migrations"],
        ]
        for cell in results
    ]
    print_table(
        "A2: spurious loss under reordering (true loss is zero in every row)",
        ["reorder window", "aggregates", "spurious loss w/o patch", "with patch", "migrated pkts"],
        rows,
    )

    # The patch-up removes all spurious loss whenever the reordering window is
    # within the protocol's safety threshold J.
    for cell in results:
        assert cell["spurious_with_patch"] == 0
    # And it actually has work to do: at the larger windows the unpatched
    # comparison misattributes packets.
    assert any(cell["spurious_without_patch"] > 0 for cell in results)
