"""Integration tests for the two headline robustness mechanisms:

* the AggTrans patch-up that keeps loss computation exact under bounded
  reordering (Section 6.3), and
* the delay-keyed sampling that resists preferential treatment of the sampled
  packets (Section 5.1 / the Section 3.2 attack).
"""

from __future__ import annotations

import pytest

from repro.adversary.bias import BiasedTreatmentAttack
from repro.baselines.trajectory_sampling import TrajectorySamplingPlusPlus
from repro.core.aggregation import AggregatorConfig
from repro.core.hop import HOPConfig
from repro.core.partition import aligned_aggregates
from repro.core.protocol import VPMSession
from repro.core.sampling import SamplerConfig
from repro.simulation.scenario import PathScenario, SegmentCondition
from repro.traffic.delay_models import CongestionDelayModel, ConstantDelayModel
from repro.traffic.loss_models import BernoulliLossModel
from repro.traffic.reordering import WindowReordering
from tests.helpers import feed_session, sampled_ids


def make_config(sampling_rate: float = 0.05, aggregate_size: int = 1000) -> HOPConfig:
    return HOPConfig(
        sampler=SamplerConfig(sampling_rate=sampling_rate, marker_rate=0.005),
        aggregator=AggregatorConfig(expected_aggregate_size=aggregate_size, reorder_window=0.002),
    )


class TestReorderingPatchUp:
    @pytest.fixture(scope="class")
    def reordered_run(self, path, integration_batch):
        """X reorders packets (within 1 ms) but loses nothing."""
        scenario = PathScenario()
        scenario.configure_domain(
            "X",
            SegmentCondition(
                delay_model=ConstantDelayModel(1e-3),
                reordering=WindowReordering(window=1e-3, reorder_probability=0.3, seed=502),
            ),
        )
        observation = scenario.run_batch(integration_batch)
        session = VPMSession(
            path, configs={d.name: make_config(aggregate_size=400) for d in path.domains}
        )
        feed_session(session, observation)
        return observation, session

    def test_loss_exact_despite_reordering(self, reordered_run):
        observation, session = reordered_run
        performance = session.estimate("L", "X")
        assert performance.lost_packets == 0
        assert performance.loss_rate == 0.0

    def test_patch_up_is_what_makes_it_exact(self, reordered_run, path):
        observation, session = reordered_run
        verifier = session.verifier_for("L")
        ingress_aggs = verifier.aggregate_receipts_for(4)
        egress_aggs = verifier.aggregate_receipts_for(5)
        with_patch = aligned_aggregates(ingress_aggs, egress_aggs, apply_reordering_patch=True)
        without_patch = aligned_aggregates(
            ingress_aggs, egress_aggs, apply_reordering_patch=False
        )
        spurious_with = sum(abs(pair.lost_packets) for pair in with_patch)
        spurious_without = sum(abs(pair.lost_packets) for pair in without_patch)
        assert spurious_with == 0
        # Without the patch, packets that crossed a cutting point show up as
        # spurious loss/gain in the per-aggregate comparison.
        assert spurious_without > 0

    def test_no_inconsistencies_from_reordering(self, reordered_run):
        _, session = reordered_run
        assert session.verifier_for("L").check_consistency() == []


class TestBiasResistance:
    """The Section 3.2 attack against a predictable protocol vs against VPM."""

    @pytest.fixture(scope="class")
    def congestion_condition(self):
        return dict(
            delay_model=CongestionDelayModel(scenario="udp-burst", seed=511),
            loss_model=BernoulliLossModel(0.02, seed=512),
        )

    def _run_vpm(self, path, packets, predicate, seed):
        scenario = PathScenario()
        scenario.configure_domain(
            "X",
            SegmentCondition(
                delay_model=CongestionDelayModel(scenario="udp-burst", seed=seed + 1),
                preferential_predicate=predicate,
                preferential_delay=0.2e-3,
            ),
        )
        observation = scenario.run_batch(packets)
        session = VPMSession(
            path, configs={d.name: make_config(sampling_rate=0.05) for d in path.domains}
        )
        feed_session(session, observation)
        performance = session.estimate("L", "X")
        truth = observation.truth_for("X")
        return performance, truth

    def test_biased_treatment_cannot_fool_vpm(self, path, integration_batch, digester):
        """Fast-pathing a blind 5% of traffic barely moves VPM's estimate."""
        attack = BiasedTreatmentAttack(digester=digester, guess_rate=0.05)
        biased_perf, biased_truth = self._run_vpm(
            path, integration_batch, attack.blind_guess_predicate(), seed=520
        )
        true_q90 = biased_truth.delay_quantiles([0.9])[0.9]
        estimated_q90 = biased_perf.delay_quantile(0.9)
        # The estimate still tracks the true (population) delay closely.
        assert estimated_q90 == pytest.approx(true_q90, rel=0.3)

    def test_biased_treatment_fools_trajectory_sampling(
        self, path, integration_batch, digester
    ):
        """The same attacker against TS++ makes the measured delay collapse."""
        protocol = TrajectorySamplingPlusPlus(sampling_rate=0.05)
        attack = BiasedTreatmentAttack(digester=digester)
        predicate = attack.predicate_against(protocol)

        scenario = PathScenario()
        scenario.configure_domain(
            "X",
            SegmentCondition(
                delay_model=CongestionDelayModel(scenario="udp-burst", seed=531),
                preferential_predicate=predicate,
                preferential_delay=0.2e-3,
            ),
        )
        observation = scenario.run_batch(integration_batch)
        ingress, egress = (
            list(zip(digester.digest_batch(batch).tolist(), times.tolist()))
            for batch, times in (observation.at_hop(4), observation.at_hop(5))
        )
        estimate = protocol.run(ingress, egress)
        truth = observation.truth_for("X")
        true_q90 = truth.delay_quantiles([0.9])[0.9]
        # TS++ reports (roughly) the preferential delay, wildly underestimating
        # the delay the rest of the traffic experienced.
        assert estimate.delay_quantiles[0.9] < 0.2 * true_q90

    def test_vpm_attacker_cannot_predict_samples(self, path, integration_batch, digester):
        """The blind guess overlaps the actually sampled set only at chance level."""
        attack = BiasedTreatmentAttack(digester=digester, guess_rate=0.05)
        predicate = attack.blind_guess_predicate()
        scenario = PathScenario()
        observation = scenario.run_batch(integration_batch)
        session = VPMSession(
            path, configs={d.name: make_config(sampling_rate=0.05) for d in path.domains}
        )
        feed_session(session, observation)
        sampled = sampled_ids(session.verifier_for("L").sample_receipt_for(4))
        ingress, _ = observation.at_hop(4)
        guessed_uids = set(digester.digest_batch(ingress)[predicate(ingress)].tolist())
        overlap = len(sampled & guessed_uids) / len(sampled)
        # At a 5% guessing budget the expected overlap is 5%; far from the
        # 100% an attacker achieves against a predictable protocol.
        assert overlap < 0.15
