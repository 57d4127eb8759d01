"""The receipt path of one small-aggregate interval: digest and alignment.

With 800-packet aggregates and J = 10 ms, an interval's AggTrans windows are
most of its receipt volume (Section 6.3): every cut carries the packet IDs
seen within J on either side of it, at every HOP.  Two steps walk all of
them once per interval: the run store's
:func:`~repro.reporting.serialization.receipts_digest` hashes every window
as raw ``u8`` packet IDs in its ``VPM2`` encoding, and
:func:`~repro.core.partition.aligned_aggregates` compares and intersects the
windows of neighbouring HOPs.  This benchmark times both over one interval
shaped like perfbench's ``fine_batch`` workload (8 HOPs on the Figure-1 path,
10,000 packets, 5% sampling, aggregate 800, J = 10 ms, three lossy domains
and a lying one), best of 3, and prints the cost per AggTrans ID, the
``VPM2`` bytes hashed, and, for scale, the size of the same receipts as the
canonical JSON the conformance goldens spell.
"""

from __future__ import annotations

import json
import time

from benchmarks.conftest import print_table
from repro.api import run_cell_full
from repro.api.spec import (
    AdversarySpec,
    ConditionSpec,
    EstimationSpec,
    ExperimentSpec,
    HOPSpec,
    PathSpec,
    ProtocolSpec,
    TrafficSpec,
)
from repro.core.partition import aligned_aggregates
from repro.reporting.serialization import receipts_digest
from tests.conformance.canon import canonical_receipts
from tests.oracle.receipts_codec import encode_receipts


def _jitter(base: float, std: float, loss: str, **loss_params) -> ConditionSpec:
    return ConditionSpec(
        delay="jitter",
        delay_params={"base_delay": base, "jitter_std": std},
        loss=loss,
        loss_params=loss_params,
    )


FINE_INTERVAL = ExperimentSpec(
    name="receipts-digest-bench",
    seed=2025,
    engine="batch",
    traffic=TrafficSpec(workload=None, packet_count=10_000, payload_bytes=8),
    path=PathSpec(
        conditions={
            "L": _jitter(0.5e-3, 0.1e-3, "bernoulli", loss_rate=0.005),
            "X": _jitter(1.2e-3, 0.4e-3, "gilbert-elliott-rate", target_rate=0.02),
            "N": _jitter(0.8e-3, 0.2e-3, "bernoulli", loss_rate=0.01),
        }
    ),
    protocol=ProtocolSpec(
        default=HOPSpec(sampling_rate=0.05, aggregate_size=800, reorder_window=0.01)
    ),
    adversaries=(AdversarySpec(kind="lying", domain="N", params={"claimed_delay": 0.2e-3}),),
    estimation=EstimationSpec(observer="L", targets=("X", "N")),
)


def _best_of_3(run) -> float:
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best


def test_receipts_digest_and_alignment(benchmark):
    """Time ``receipts_digest`` and neighbour alignment over one interval."""
    reports = run_cell_full(FINE_INTERVAL).reports
    hops = sorted(reports)
    receipts = [reports[hop].aggregate_receipts for hop in hops]
    window_ids = sum(
        len(receipt.trans_before) + len(receipt.trans_after)
        for per_hop in receipts
        for receipt in per_hop
    )
    hashed_bytes = len(encode_receipts(reports))
    canonical = json.dumps(canonical_receipts(reports), sort_keys=True, separators=(",", ":"))
    json_bytes = len(canonical.encode("ascii"))

    def align_neighbours() -> None:
        for upstream, downstream in zip(receipts, receipts[1:]):
            aligned_aggregates(upstream, downstream)

    def time_both() -> tuple[float, float]:
        return _best_of_3(lambda: receipts_digest(reports)), _best_of_3(align_neighbours)

    digest_s, align_s = benchmark.pedantic(time_both, rounds=1, iterations=1)
    assert window_ids > 0
    print_table(
        "Receipt path of one fine_batch-shaped interval (8 HOPs, aggregate 800, J = 10 ms)",
        ["step", "aggregates", "AggTrans ids", "MB hashed", "MB as JSON", "ms", "ns/AggTrans id"],
        [
            [
                name,
                sum(map(len, receipts)),
                window_ids,
                f"{hashed_bytes / 1e6:.2f}" if name == "receipts_digest" else "-",
                f"{json_bytes / 1e6:.2f}" if name == "receipts_digest" else "-",
                f"{1e3 * elapsed:.1f}",
                f"{1e9 * elapsed / window_ids:.1f}",
            ]
            for name, elapsed in (("receipts_digest", digest_s), ("aligned_aggregates", align_s))
        ],
    )
