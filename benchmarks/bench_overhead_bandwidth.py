"""Experiment E4 — Section 7.1: receipt-dissemination bandwidth overhead.

Regenerates the paper's bandwidth calculation: a conservative 10-domain path
with 1000-packet aggregates and 1% sampling incurs ~0.2 receipt bytes per
packet (aggregate receipts only), a ~0.05% overhead on 400-byte packets, and
stays "less than 0.1%" under the aggregate-only accounting the paper uses.
The full accounting (including per-sample records) is also reported, and the
analytic model is cross-checked against the receipt bytes actually produced by
a running VPM session.
"""

from __future__ import annotations

from benchmarks.conftest import feed_session, make_hop_config, print_table
from benchmarks.experiment_lib import build_congested_scenario
from repro.core.protocol import VPMSession
from repro.reporting.overhead import BandwidthOverheadModel


def _run_models():
    return {
        "paper (10 domains, 1000/agg, 1%)": BandwidthOverheadModel(
            hops_on_path=10, packets_per_aggregate=1000, sampling_rate=0.01
        ),
        "typical path (4 domains)": BandwidthOverheadModel(
            hops_on_path=4, packets_per_aggregate=1000, sampling_rate=0.01
        ),
        "coarse tuning (100k/agg, 0.1%)": BandwidthOverheadModel(
            hops_on_path=10, packets_per_aggregate=100_000, sampling_rate=0.001
        ),
        "aggressive tuning (100/agg, 5%)": BandwidthOverheadModel(
            hops_on_path=10, packets_per_aggregate=100, sampling_rate=0.05
        ),
    }


def test_overhead_bandwidth_model(benchmark):
    """Regenerate the Section 7.1 bandwidth numbers."""
    models = benchmark.pedantic(_run_models, rounds=1, iterations=1)
    rows = [
        [
            name,
            f"{model.aggregate_only_bytes_per_packet:.3f} B/pkt",
            f"{model.aggregate_only_bandwidth_overhead * 100:.4f} %",
            f"{model.receipt_bytes_per_packet:.3f} B/pkt",
            f"{model.bandwidth_overhead * 100:.4f} %",
        ]
        for name, model in models.items()
    ]
    print_table(
        "Section 7.1: receipt bandwidth overhead",
        ["scenario", "agg-only B/pkt", "agg-only overhead", "full B/pkt", "full overhead"],
        rows,
    )

    paper = models["paper (10 domains, 1000/agg, 1%)"]
    # The paper's arithmetic: ~0.2 B/pkt and ~0.05% (aggregate receipts only).
    assert 0.15 < paper.aggregate_only_bytes_per_packet < 0.3
    assert paper.aggregate_only_bandwidth_overhead < 0.001
    # Even with sample records charged, the overhead stays below 0.25%.
    assert paper.bandwidth_overhead < 0.0025
    # At the paper's preferred coarse operating point, the full accounting
    # stays below the 0.1% figure quoted in Section 2.1.
    assert models["coarse tuning (100k/agg, 0.1%)"].bandwidth_overhead < 0.001


def test_overhead_bandwidth_measured_session(benchmark, bench_packets, path):
    """Cross-check against the receipt bytes a real session produces."""

    def run_session():
        scenario = build_congested_scenario(loss_rate=0.0, seed=9117)
        observation = scenario.run_batch(bench_packets)
        config = make_hop_config(sampling_rate=0.01, aggregate_size=5000)
        session = VPMSession(
            path, configs={domain.name: config for domain in path.domains}
        )
        feed_session(session, observation)
        return session.overhead()

    overhead = benchmark.pedantic(run_session, rounds=1, iterations=1)
    print_table(
        "Measured session receipt overhead (8 HOPs, 1% sampling, 5000-pkt aggregates)",
        ["metric", "value"],
        [
            ["observed packets (all HOPs)", overhead.observed_packets],
            ["receipt bytes", overhead.receipt_bytes],
            ["receipt bytes / packet", f"{overhead.receipt_bytes_per_packet:.3f}"],
            ["bandwidth overhead", f"{overhead.bandwidth_overhead * 100:.4f} %"],
        ],
    )
    # With 5000-packet aggregates the AggTrans windows dominate; the overhead
    # still stays below 1% of the observed traffic.
    assert overhead.bandwidth_overhead < 0.01
