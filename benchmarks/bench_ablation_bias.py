"""Ablation A1 — bias resistance (Sections 3.2 and 5.1).

A congested domain fast-paths the packets it expects to be measured.  Against
Trajectory Sampling ++ (hash-sampling computable from the packet alone) the
attack makes the measured delay collapse to the fast-path delay; against VPM's
delay-keyed sampling the attacker can only guess, and the measured delay stays
on the true population value.  This is the design choice that motivates the
marker/future-keyed sampling function.
"""

from __future__ import annotations

from benchmarks.conftest import (
    digest_observations,
    feed_session,
    make_hop_config,
    print_table,
)
from repro.adversary.bias import BiasedTreatmentAttack
from repro.baselines.trajectory_sampling import TrajectorySamplingPlusPlus
from repro.core.protocol import VPMSession
from repro.net.hashing import PacketDigester
from repro.simulation.scenario import PathScenario, SegmentCondition
from repro.traffic.delay_models import CongestionDelayModel

SAMPLING_RATE = 0.01
FAST_PATH_DELAY = 0.2e-3


def _run_attack_comparison(packets):
    digester = PacketDigester()
    attack = BiasedTreatmentAttack(digester=digester, guess_rate=SAMPLING_RATE)
    ts_protocol = TrajectorySamplingPlusPlus(sampling_rate=SAMPLING_RATE)
    results = {}

    for label, predicate in (
        ("ts++ (predictable, biased)", attack.predicate_against(ts_protocol)),
        ("vpm (unpredictable, best-effort bias)", attack.blind_guess_predicate()),
    ):
        scenario = PathScenario()
        scenario.configure_domain(
            "X",
            SegmentCondition(
                delay_model=CongestionDelayModel(scenario="udp-burst", seed=811),
                preferential_predicate=predicate,
                preferential_delay=FAST_PATH_DELAY,
            ),
        )
        observation = scenario.run_batch(packets)
        truth = observation.truth_for("X")
        true_q90 = truth.delay_quantiles([0.9])[0.9]

        if label.startswith("ts++"):
            protocol = TrajectorySamplingPlusPlus(sampling_rate=SAMPLING_RATE)
            estimate = protocol.run(
                digest_observations(digester, observation, 4),
                digest_observations(digester, observation, 5),
            )
            measured_q90 = estimate.delay_quantiles[0.9]
        else:
            config = make_hop_config(sampling_rate=SAMPLING_RATE, aggregate_size=5000)
            session = VPMSession(
                observation.path,
                configs={"S": None, "L": config, "X": config, "N": config, "D": None},
            )
            feed_session(session, observation)
            measured_q90 = session.estimate("L", "X").delay_quantile(0.9)

        results[label] = {
            "true_q90_ms": true_q90 * 1e3,
            "measured_q90_ms": measured_q90 * 1e3,
            "underestimation_factor": true_q90 / measured_q90 if measured_q90 else float("inf"),
        }
    return results


def test_ablation_bias_resistance(benchmark, bench_packets):
    """Compare the bias attack's effect on TS++ vs on VPM."""
    results = benchmark.pedantic(
        _run_attack_comparison, args=(bench_packets,), rounds=1, iterations=1
    )
    rows = [
        [
            label,
            f"{cell['true_q90_ms']:.2f} ms",
            f"{cell['measured_q90_ms']:.2f} ms",
            f"{cell['underestimation_factor']:.1f}x",
        ]
        for label, cell in results.items()
    ]
    print_table(
        "A1: preferential-treatment attack — true vs measured 90th-percentile delay",
        ["protocol under attack", "true q90", "measured q90", "underestimation"],
        rows,
    )

    ts_cell = results["ts++ (predictable, biased)"]
    vpm_cell = results["vpm (unpredictable, best-effort bias)"]
    # TS++ is fooled: it underestimates the population delay by a large factor.
    assert ts_cell["underestimation_factor"] > 5.0
    # VPM is not: the measured q90 stays within ~30% of the truth.
    assert vpm_cell["underestimation_factor"] < 1.4
