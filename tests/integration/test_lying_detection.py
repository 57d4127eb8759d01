"""Integration tests: lying and colluding domains are exposed.

These reproduce the paper's verifiability arguments (Sections 3.1 and 4): a
domain that fabricates receipts to hide loss or delay becomes inconsistent
with its downstream neighbor; a colluding neighbor can cover the lie only by
absorbing the blame itself.
"""

from __future__ import annotations

import pytest

from repro.adversary.collusion import ColludingDomainAgent
from repro.adversary.lying import LyingDomainAgent
from repro.core.protocol import VPMSession
from repro.simulation.scenario import PathScenario, SegmentCondition
from repro.traffic.delay_models import ConstantDelayModel
from repro.traffic.loss_models import BernoulliLossModel

from tests.helpers import feed_session


@pytest.fixture(scope="module")
def lossy_observation(integration_batch):
    """X drops 20% of the traffic and delays the rest by 15 ms."""
    scenario = PathScenario()
    scenario.configure_domain(
        "X",
        SegmentCondition(
            delay_model=ConstantDelayModel(15e-3),
            loss_model=BernoulliLossModel(0.2, seed=302),
        ),
    )
    return scenario.run_batch(integration_batch)


def run_session(path, observation, config, agents=None):
    session = VPMSession(
        path,
        configs={domain.name: config for domain in path.domains},
        agents=agents or {},
    )
    feed_session(session, observation)
    return session


class TestLyingDomainExposed:
    def test_lie_creates_inconsistencies_on_downstream_link(
        self, path, lossy_observation, default_hop_config
    ):
        liar = LyingDomainAgent("X", path, config=default_hop_config, claimed_delay=0.5e-3)
        session = run_session(path, lossy_observation, default_hop_config, {"X": liar})
        findings = session.verifier_for("L").check_consistency()
        assert findings, "the fabricated receipts must trip the consistency check"
        # Every finding implicates the X->N link (HOP 5 upstream, HOP 6 downstream).
        assert {(finding.upstream_hop, finding.downstream_hop) for finding in findings} == {
            (5, 6)
        }
        kinds = {finding.kind for finding in findings}
        assert "count-mismatch" in kinds or "missing-downstream" in kinds

    def test_verify_domain_rejects_liar(self, path, lossy_observation, default_hop_config):
        liar = LyingDomainAgent("X", path, config=default_hop_config)
        session = run_session(path, lossy_observation, default_hop_config, {"X": liar})
        result = session.verify("L", "X")
        assert not result.accepted

    def test_liars_claimed_performance_is_flattering(
        self, path, lossy_observation, default_hop_config
    ):
        liar = LyingDomainAgent("X", path, config=default_hop_config, claimed_delay=0.5e-3)
        session = run_session(path, lossy_observation, default_hop_config, {"X": liar})
        claimed = session.estimate("L", "X")
        truth = lossy_observation.truth_for("X")
        # The claim hides both the 20% loss and the 15 ms delay...
        assert claimed.loss_rate < 0.01
        assert claimed.delay_quantile(0.9) < 2e-3
        assert truth.loss_rate > 0.15
        # ...but the independent, neighbor-based estimate still exposes the
        # true delay, so the lie buys nothing against a careful verifier.
        independent = session.verifier_for("L").estimate_domain_via_neighbors("X")
        assert independent.delay_quantile(0.9) > 10e-3

    def test_honest_run_has_no_findings(self, path, lossy_observation, default_hop_config):
        session = run_session(path, lossy_observation, default_hop_config)
        assert session.verifier_for("L").check_consistency() == []
        assert session.verify("L", "X").accepted


class TestCollusion:
    def test_colluder_covers_the_link_but_takes_the_blame(
        self, path, lossy_observation, default_hop_config
    ):
        liar = LyingDomainAgent("X", path, config=default_hop_config, claimed_delay=0.5e-3)
        colluder = ColludingDomainAgent(
            "N", path, colluding_with=liar, config=default_hop_config
        )
        session = run_session(
            path, lossy_observation, default_hop_config, {"X": liar, "N": colluder}
        )
        verifier = session.verifier_for("L")
        findings = verifier.check_consistency()
        # The X->N link is now clean (N confirms X's claims)...
        assert not any(
            (finding.upstream_hop, finding.downstream_hop) == (5, 6) for finding in findings
        )
        # ...but the packets X dropped now appear to be lost inside N: the
        # colluder absorbed the liar's loss.
        n_performance = verifier.estimate_domain("N")
        x_performance = verifier.estimate_domain("X")
        truth = lossy_observation.truth_for("X")
        assert x_performance.loss_rate < 0.01
        assert n_performance.loss_rate == pytest.approx(truth.loss_rate, rel=0.2)

    def test_collusion_does_not_reduce_total_observed_loss(
        self, path, lossy_observation, default_hop_config
    ):
        # Sanity check of the zero-sum property: honest vs colluding runs
        # attribute the same total loss to the X+N segment.
        honest_session = run_session(path, lossy_observation, default_hop_config)
        liar = LyingDomainAgent("X", path, config=default_hop_config)
        colluder = ColludingDomainAgent(
            "N", path, colluding_with=liar, config=default_hop_config
        )
        dishonest_session = run_session(
            path, lossy_observation, default_hop_config, {"X": liar, "N": colluder}
        )
        honest_total = (
            honest_session.estimate("L", "X").lost_packets
            + honest_session.estimate("L", "N").lost_packets
        )
        dishonest_total = (
            dishonest_session.estimate("L", "X").lost_packets
            + dishonest_session.estimate("L", "N").lost_packets
        )
        assert dishonest_total == pytest.approx(honest_total, rel=0.05)
