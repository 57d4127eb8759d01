"""Experiment A4 — the Section 3 design-space comparison.

Runs the strawman, Trajectory Sampling ++, Difference Aggregator ++ and VPM
over the *same* congested-domain observations and tabulates, for each
protocol, what it can compute (loss, average delay, delay quantiles), how much
receipt state it ships, and whether its measured set is predictable (the
precondition for the bias attack).  This regenerates, quantitatively, the
qualitative recap of Section 3.4.
"""

from __future__ import annotations

from benchmarks.conftest import digest_observations, print_table
from benchmarks.experiment_lib import build_congested_scenario
from repro.baselines.difference_aggregator import DifferenceAggregatorPlusPlus
from repro.baselines.strawman import StrawmanProtocol
from repro.baselines.trajectory_sampling import TrajectorySamplingPlusPlus
from repro.baselines.vpm_adapter import VPMProtocolAdapter
from repro.net.hashing import PacketDigester

LOSS_RATE = 0.25
SAMPLING_RATE = 0.01
AGGREGATE_SIZE = 1000


def _run_comparison(packets):
    digester = PacketDigester()
    scenario = build_congested_scenario(loss_rate=LOSS_RATE, seed=1100)
    observation = scenario.run_batch(packets)
    truth = observation.truth_for("X")
    ingress = digest_observations(digester, observation, 4)
    egress = digest_observations(digester, observation, 5)

    protocols = [
        StrawmanProtocol(),
        TrajectorySamplingPlusPlus(sampling_rate=SAMPLING_RATE),
        DifferenceAggregatorPlusPlus(expected_aggregate_size=AGGREGATE_SIZE),
        VPMProtocolAdapter(sampling_rate=SAMPLING_RATE, expected_aggregate_size=AGGREGATE_SIZE),
    ]
    estimates = {protocol.name: protocol.run(ingress, egress) for protocol in protocols}
    truth_summary = {
        "loss_rate": truth.loss_rate,
        "q90_ms": truth.delay_quantiles([0.9])[0.9] * 1e3,
    }
    predictability = {protocol.name: protocol.sampling_predictable for protocol in protocols}
    return estimates, truth_summary, predictability


def test_baseline_comparison(benchmark, bench_packets):
    """Regenerate the Section 3 comparison table."""
    estimates, truth, predictability = benchmark.pedantic(
        _run_comparison, args=(bench_packets,), rounds=1, iterations=1
    )

    rows = []
    for name, estimate in estimates.items():
        rows.append(
            [
                name,
                "-" if estimate.loss_rate is None else f"{estimate.loss_rate * 100:.2f}%",
                "-" if estimate.mean_delay is None else f"{estimate.mean_delay * 1e3:.2f} ms",
                "-"
                if estimate.delay_quantiles is None
                else f"{estimate.delay_quantiles[0.9] * 1e3:.2f} ms",
                f"{estimate.receipt_bytes_per_packet:.3f}",
                "yes" if predictability[name] else "no",
            ]
        )
    rows.append(
        ["(ground truth)", f"{truth['loss_rate'] * 100:.2f}%", "-", f"{truth['q90_ms']:.2f} ms", "-", "-"]
    )
    print_table(
        f"A4: Section 3 comparison ({LOSS_RATE * 100:g}% loss, UDP-burst congestion)",
        ["protocol", "loss", "mean delay", "q90 delay", "receipt B/pkt", "biasable (predictable)"],
        rows,
    )

    strawman = estimates["strawman"]
    ts = estimates["trajectory-sampling++"]
    lda = estimates["difference-aggregator++"]
    vpm = estimates["vpm"]

    # Computability: strawman, TS++ and VPM produce quantiles; LDA does not.
    assert strawman.delay_quantiles and ts.delay_quantiles and vpm.delay_quantiles
    assert lda.delay_quantiles is None
    # Loss: the strawman and VPM compute it (near-)exactly, TS++ estimates it
    # from samples; DA++ reports loss but silently under-counts whenever a lost
    # cutting point merges aggregates (the Section 3.3 failure), so it is only
    # required to be in the right ballpark.
    assert abs(strawman.loss_rate - truth["loss_rate"]) < 0.01
    assert abs(vpm.loss_rate - truth["loss_rate"]) < 0.02
    assert abs(ts.loss_rate - truth["loss_rate"]) < 0.05
    assert lda.loss_rate is not None
    assert abs(lda.loss_rate - truth["loss_rate"]) < 0.15
    # Tunability / cost ordering: strawman is by far the most expensive;
    # VPM sits between the aggregate-only LDA and the strawman.
    assert strawman.receipt_bytes_per_packet > 5 * vpm.receipt_bytes_per_packet
    assert lda.receipt_bytes_per_packet < vpm.receipt_bytes_per_packet
    # Verifiability precondition: only TS++ has a predictable measured set.
    assert predictability["trajectory-sampling++"] is True
    assert predictability["vpm"] is False
