"""End-to-end integration tests: the honest VPM pipeline.

These tests run the full chain the paper's evaluation runs — synthetic trace,
congested domain X, receipt generation at every HOP, verification by domain L
— and check the computability property: the receipt-based estimates track the
ground truth.
"""

from __future__ import annotations

import pytest

from repro.analysis.sla import SLASpec, check_sla
from repro.core.estimation import delay_accuracy
from repro.core.protocol import VPMSession
from repro.simulation.scenario import PathScenario, SegmentCondition
from repro.traffic.delay_models import CongestionDelayModel
from repro.traffic.loss_models import GilbertElliottLossModel

from tests.helpers import feed_session


@pytest.fixture(scope="module")
def congested_run(path, integration_batch, default_hop_config):
    """One full run with X congested (UDP burst) and losing ~10% of traffic."""
    scenario = PathScenario(seed=201)
    scenario.configure_domain(
        "X",
        SegmentCondition(
            delay_model=CongestionDelayModel(scenario="udp-burst", seed=202),
            loss_model=GilbertElliottLossModel.from_target_rate(0.10, seed=203),
        ),
    )
    observation = scenario.run_batch(integration_batch)
    session = VPMSession(
        path, configs={domain.name: default_hop_config for domain in path.domains}
    )
    feed_session(session, observation)
    return observation, session


class TestComputability:
    def test_delay_quantiles_track_ground_truth(self, congested_run):
        observation, session = congested_run
        truth = observation.truth_for("X")
        performance = session.estimate("L", "X")
        estimated = performance.delay_quantiles
        accuracy = delay_accuracy(estimated, truth.delay_quantiles(sorted(estimated)))
        # The paper reports ~2 ms accuracy at 1% sampling and 25% loss; at 5%
        # sampling and 10% loss the error must comfortably stay below 5 ms.
        assert accuracy * 1e3 < 5.0
        assert performance.delay_sample_count > 100

    def test_loss_rate_exact(self, congested_run):
        observation, session = congested_run
        truth = observation.truth_for("X")
        performance = session.estimate("L", "X")
        assert performance.lost_packets == truth.lost_packets
        assert performance.loss_rate == pytest.approx(truth.loss_rate, abs=1e-12)

    def test_loss_granularity_reported_in_seconds(self, congested_run):
        _, session = congested_run
        performance = session.estimate("L", "X")
        # 1000-packet aggregates at 100k packets/s -> ~10 ms granularity,
        # somewhat coarsened by lost cutting points.
        assert 0.005 < performance.mean_loss_granularity < 0.1

    def test_healthy_domains_measured_clean(self, congested_run):
        observation, session = congested_run
        for domain in ("L", "N"):
            performance = session.estimate("S", domain)
            assert performance.lost_packets == 0
            assert performance.delay_quantile(0.9) < 2e-3

    def test_every_on_path_domain_can_verify(self, congested_run, path):
        _, session = congested_run
        for observer in ("S", "L", "N", "D"):
            performance = session.estimate(observer, "X")
            assert performance.offered_packets > 0


class TestVerifiability:
    def test_honest_receipts_pass_consistency(self, congested_run):
        _, session = congested_run
        assert session.verifier_for("L").check_consistency() == []

    def test_honest_domain_accepted(self, congested_run):
        _, session = congested_run
        result = session.verify("L", "X")
        assert result.accepted
        assert result.independent is not None
        # The neighbor-derived estimate brackets the claimed one (it adds two
        # healthy inter-domain links).
        assert result.independent.delay_quantile(0.9) >= result.claimed.delay_quantile(
            0.9
        ) - 1e-4

    def test_independent_estimate_close_to_claimed(self, congested_run):
        _, session = congested_run
        result = session.verify("L", "X")
        claimed = result.claimed.delay_quantile(0.9)
        independent = result.independent.delay_quantile(0.9)
        assert independent == pytest.approx(claimed, rel=0.25)


class TestSLAWorkflow:
    def test_sla_violation_detected_for_congested_domain(self, congested_run):
        _, session = congested_run
        performance = session.estimate("L", "X")
        strict_sla = SLASpec(delay_bound=2e-3, delay_quantile=0.9, loss_bound=0.001)
        verdict = check_sla(performance, strict_sla)
        assert not verdict.compliant

    def test_sla_compliance_for_healthy_domain(self, congested_run):
        _, session = congested_run
        performance = session.estimate("S", "L")
        relaxed_sla = SLASpec(delay_bound=50e-3, delay_quantile=0.9, loss_bound=0.01)
        assert check_sla(performance, relaxed_sla).compliant


class TestOverhead:
    def test_receipt_overhead_small_fraction_of_traffic(self, congested_run):
        # This run is tuned far more aggressively than the paper's operating
        # point (5% sampling, 1000-packet aggregates over a 0.12 s trace, so
        # the AggTrans windows are a large fraction of each aggregate); even
        # so the receipt volume stays a small fraction of the traffic.  The
        # paper's own operating point (1% sampling, 100k-packet aggregates) is
        # checked against its published numbers in the overhead unit tests and
        # the E4 benchmark.
        _, session = congested_run
        overhead = session.overhead()
        assert overhead.bandwidth_overhead < 0.03
        assert overhead.receipt_bytes_per_packet < 10.0

    def test_temp_buffer_bounded_by_marker_spacing(self, congested_run):
        _, session = congested_run
        overhead = session.overhead()
        # Markers arrive every ~200 packets at marker_rate=0.005; the buffer
        # should stay within a small multiple of that.
        assert overhead.max_temp_buffer_packets < 5000
