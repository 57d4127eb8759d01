"""Ablation A3 — the marker-dropping attack (Section 5.3).

An under-performing domain drops every marker packet so its downstream
neighbor keys its sampling on the wrong packets.  The paper's argument: the
attack is self-exposing, because markers are always sampled and reported by
every HOP that sees them — each dropped marker is therefore a packet the
upstream neighbor vouches for and the attacker cannot account for.  The
benchmark measures (a) the exposure rate and (b) how much the attack actually
costs the verifier in matched delay samples.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import feed_session, make_hop_config, print_table
from repro.adversary.marker_drop import MarkerDropAttack, marker_exposure_rate
from repro.core.protocol import VPMSession
from repro.net.hashing import PacketDigester
from repro.simulation.scenario import PathScenario, SegmentCondition
from repro.traffic.delay_models import CongestionDelayModel

MARKER_RATE = 0.001
SAMPLING_RATE = 0.01


def _run_attack(packets):
    digester = PacketDigester()
    results = {}
    for label, attack_enabled in (("honest X", False), ("X drops all markers", True)):
        attack = MarkerDropAttack(digester=digester, marker_rate=MARKER_RATE)
        scenario = PathScenario(seed=1000 if attack_enabled else 1001)
        scenario.configure_domain(
            "X",
            SegmentCondition(
                delay_model=CongestionDelayModel(scenario="udp-burst", seed=1002),
                drop_predicate=attack.drop_predicate() if attack_enabled else None,
            ),
        )
        observation = scenario.run_batch(packets)
        config = make_hop_config(
            sampling_rate=SAMPLING_RATE, aggregate_size=5000, marker_rate=MARKER_RATE
        )
        session = VPMSession(
            observation.path,
            configs={"S": None, "L": config, "X": config, "N": config, "D": None},
        )
        feed_session(session, observation)
        performance = session.estimate("L", "X")
        ingress, egress = observation.at_hop(4)[0], observation.at_hop(5)[0]
        markers = ingress.uid[attack.marker_mask(ingress)]
        results[label] = {
            "markers_dropped": int(np.sum(~np.isin(markers, egress.uid))),
            "exposure_rate": marker_exposure_rate(observation, "X", attack)
            if attack_enabled
            else None,
            "x_loss_rate": performance.loss_rate,
            "matched_delay_samples": performance.delay_sample_count,
            "consistent": not session.verifier_for("L").check_consistency(),
        }
    return results


def test_ablation_marker_dropping(benchmark, bench_packets):
    """Marker dropping is fully exposed and hurts the attacker's own report."""
    results = benchmark.pedantic(_run_attack, args=(bench_packets,), rounds=1, iterations=1)
    rows = [
        [
            label,
            cell["markers_dropped"],
            "-" if cell["exposure_rate"] is None else f"{cell['exposure_rate'] * 100:.0f}%",
            f"{cell['x_loss_rate'] * 100:.2f}%",
            cell["matched_delay_samples"],
            "yes" if cell["consistent"] else "no",
        ]
        for label, cell in results.items()
    ]
    print_table(
        "A3: marker-dropping attack",
        ["scenario", "markers dropped", "exposure", "X loss (from receipts)", "delay samples", "receipts consistent"],
        rows,
    )

    honest = results["honest X"]
    attacked = results["X drops all markers"]
    # The attack drops markers and every one of them is exposed.
    assert attacked["markers_dropped"] > 0
    assert attacked["exposure_rate"] == 1.0
    # The dropped markers appear as loss in X's own (honest-about-counts)
    # receipts — the attacker damages its own reported performance.
    assert attacked["x_loss_rate"] > honest["x_loss_rate"]
    # Receipts remain mutually consistent (no one is lying about observations),
    # so the "attack" buys nothing except admitting loss.
    assert attacked["consistent"]
