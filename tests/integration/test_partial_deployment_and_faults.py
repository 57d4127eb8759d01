"""Integration tests: partial deployment (Section 8) and faulty-link handling."""

from __future__ import annotations

import pytest

from repro.core.protocol import VPMSession
from repro.net.link import InterDomainLink, LinkSpec
from repro.simulation.scenario import PathScenario, SegmentCondition
from repro.traffic.delay_models import ConstantDelayModel
from repro.traffic.loss_models import BernoulliLossModel

from tests.helpers import feed_session


class TestPartialDeployment:
    @pytest.fixture(scope="class")
    def lossy_x_observation(self, integration_batch):
        scenario = PathScenario(seed=601)
        scenario.configure_domain(
            "X",
            SegmentCondition(
                delay_model=ConstantDelayModel(8e-3),
                loss_model=BernoulliLossModel(0.15, seed=602),
            ),
        )
        return scenario.run_batch(integration_batch)

    def test_non_deployed_domain_cannot_be_measured_but_others_can(
        self, path, lossy_x_observation, default_hop_config
    ):
        configs = {d.name: default_hop_config for d in path.domains}
        configs["X"] = None  # X has not deployed VPM
        session = VPMSession(path, configs=configs)
        feed_session(session, lossy_x_observation)
        verifier = session.verifier_for("L")
        # X produces no receipts...
        x_performance = verifier.estimate_domain("X")
        assert x_performance.offered_packets == 0
        assert x_performance.delay_sample_count == 0
        # ...but its neighbors' receipts still bound what happened across it:
        # the neighbor-based estimate attributes the loss and delay to the
        # segment containing X, so X cannot hide behind non-deployment.
        independent = verifier.estimate_domain_via_neighbors("X")
        truth = lossy_x_observation.truth_for("X")
        assert independent.delay_quantile(0.9) == pytest.approx(
            truth.delay_quantiles([0.9])[0.9], rel=0.3
        )
        assert independent.loss_rate == pytest.approx(truth.loss_rate, abs=0.03)

    def test_single_deployed_domain_still_produces_verifiable_receipts(
        self, path, lossy_x_observation, default_hop_config
    ):
        configs = {d.name: None for d in path.domains}
        configs["L"] = default_hop_config  # only L deploys
        session = VPMSession(path, configs=configs)
        reports = feed_session(session, lossy_x_observation)
        assert set(reports) == {2, 3}
        verifier = session.verifier_for("S")
        performance = verifier.estimate_domain("L")
        assert performance.offered_packets > 0
        assert performance.loss_rate == 0.0
        # No consistency findings: there is nothing to cross-check against.
        assert verifier.check_consistency() == []


class TestFaultyLink:
    def test_lossy_interdomain_link_flagged_for_both_neighbors(
        self, path, integration_batch, default_hop_config
    ):
        scenario = PathScenario(seed=611)
        topology = scenario.topology
        topology.add_link(
            topology.hop(5),
            topology.hop(6),
            InterDomainLink(spec=LinkSpec(), loss_rate=0.05, seed=612),
        )
        observation = scenario.run_batch(integration_batch)
        session = VPMSession(
            path, configs={d.name: default_hop_config for d in path.domains}
        )
        feed_session(session, observation)
        findings = session.verifier_for("L").check_consistency()
        assert findings
        assert {(finding.upstream_hop, finding.downstream_hop) for finding in findings} == {
            (5, 6)
        }
        # The ambiguity is intentional: the verifier cannot tell a faulty link
        # from a lie; both X and N are notified (verify_domain flags both).
        assert not session.verify("L", "X").accepted
        assert not session.verify("L", "N").accepted

    def test_slow_interdomain_link_violates_max_diff(
        self, path, integration_batch, default_hop_config
    ):
        scenario = PathScenario(seed=621)
        topology = scenario.topology
        topology.add_link(
            topology.hop(5),
            topology.hop(6),
            InterDomainLink(
                spec=LinkSpec(max_diff=1e-3, nominal_delay=100e-6),
                excess_delay=5e-3,  # pushes the link beyond its MaxDiff
                seed=622,
            ),
        )
        observation = scenario.run_batch(integration_batch)
        session = VPMSession(
            path, configs={d.name: default_hop_config for d in path.domains}
        )
        feed_session(session, observation)
        findings = session.verifier_for("L").check_consistency()
        assert any(finding.kind == "delay-bound-violation" for finding in findings)

    def test_healthy_links_raise_nothing(self, path, integration_batch, default_hop_config):
        scenario = PathScenario(seed=631)
        observation = scenario.run_batch(integration_batch)
        session = VPMSession(
            path, configs={d.name: default_hop_config for d in path.domains}
        )
        feed_session(session, observation)
        assert session.verifier_for("L").check_consistency() == []
