"""Unit tests for repro.core.domain and repro.core.verifier."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.api.runner import run_cell_full
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
from repro.core.aggregation import AggregatorConfig
from repro.core.domain import DomainAgent
from repro.core.hop import HOPConfig, HOPReport
from repro.core.sampling import SamplerConfig
from repro.core.verifier import Verifier
from repro.simulation.scenario import PathScenario, SegmentCondition
from repro.traffic.delay_models import JitterDelayModel
from repro.traffic.loss_models import BernoulliLossModel

from tests.helpers import feed_agent


TEST_CONFIG = HOPConfig(
    sampler=SamplerConfig(sampling_rate=0.2, marker_rate=0.02),
    aggregator=AggregatorConfig(expected_aggregate_size=200),
)


@pytest.fixture(scope="module")
def congested_observation(small_trace_batch):
    """An observation where X adds 5 ms (+/- jitter) delay and 10% loss."""
    scenario = PathScenario()
    scenario.configure_domain(
        "X",
        SegmentCondition(
            delay_model=JitterDelayModel(base_delay=5e-3, jitter_std=1e-3, seed=22),
            loss_model=BernoulliLossModel(0.1, seed=23),
        ),
    )
    return scenario.run_batch(small_trace_batch)


@pytest.fixture(scope="module")
def small_trace_batch(prefix_pair):
    # Module-local override: a slightly smaller trace keeps this module fast.
    from repro.traffic.flows import FlowGeneratorConfig
    from repro.traffic.trace import SyntheticTrace, TraceConfig

    config = TraceConfig(
        packet_count=2000, packets_per_second=100_000.0, flow_config=FlowGeneratorConfig()
    )
    return SyntheticTrace(config=config, prefix_pair=prefix_pair, seed=31).packet_batch()


@pytest.fixture(scope="module")
def all_reports(path, congested_observation):
    reports = {}
    for domain in path.domains:
        agent = DomainAgent(domain, path, config=TEST_CONFIG)
        feed_agent(agent, congested_observation)
        reports.update(agent.reports(flush=True))
    return reports


class TestDomainAgent:
    def test_agent_owns_its_hops(self, path):
        agent = DomainAgent("X", path, config=TEST_CONFIG)
        assert agent.hop_ids == (4, 5)
        assert DomainAgent("S", path, config=TEST_CONFIG).hop_ids == (1,)

    def test_unknown_domain_rejected(self, path):
        with pytest.raises(ValueError):
            DomainAgent("Z", path)

    def test_reports_cover_all_owned_hops(self, path, congested_observation):
        agent = DomainAgent("N", path, config=TEST_CONFIG)
        feed_agent(agent, congested_observation)
        reports = agent.reports(flush=True)
        assert set(reports) == {6, 7}
        for report in reports.values():
            assert report.aggregate_receipts

    def test_per_hop_config_override(self, path, congested_observation):
        fine = HOPConfig(
            sampler=SamplerConfig(sampling_rate=0.5, marker_rate=0.02),
            aggregator=AggregatorConfig(expected_aggregate_size=200),
        )
        agent = DomainAgent(
            "X", path, config=TEST_CONFIG, per_hop_config={5: fine}
        )
        feed_agent(agent, congested_observation)
        reports = agent.reports(flush=True)
        ingress_samples = sum(len(r) for r in reports[4].sample_receipts)
        egress_samples = sum(len(r) for r in reports[5].sample_receipts)
        # The egress HOP samples at a higher rate despite 10% loss.
        assert egress_samples > ingress_samples * 1.5

    def test_repr(self, path):
        assert "X" in repr(DomainAgent("X", path, config=TEST_CONFIG))


class TestVerifierEstimation:
    def test_delay_estimate_close_to_truth(self, path, all_reports, congested_observation):
        verifier = Verifier(path)
        verifier.add_reports(all_reports)
        performance = verifier.estimate_domain("X")
        truth = congested_observation.truth_for("X")
        assert performance.delay_sample_count > 50
        true_median = truth.delay_quantiles([0.5])[0.5]
        assert performance.delay_quantile(0.5) == pytest.approx(true_median, rel=0.2)

    def test_loss_exactly_computed(self, path, all_reports, congested_observation):
        verifier = Verifier(path)
        verifier.add_reports(all_reports)
        performance = verifier.estimate_domain("X")
        truth = congested_observation.truth_for("X")
        assert performance.offered_packets == truth.offered_packets
        assert performance.lost_packets == truth.lost_packets
        assert performance.loss_rate == pytest.approx(truth.loss_rate)

    def test_healthy_domain_shows_no_loss(self, path, all_reports, congested_observation):
        verifier = Verifier(path)
        verifier.add_reports(all_reports)
        performance = verifier.estimate_domain("L")
        assert performance.lost_packets == 0
        assert performance.loss_rate == 0.0

    def test_granularity_reported(self, path, all_reports):
        verifier = Verifier(path)
        verifier.add_reports(all_reports)
        performance = verifier.estimate_domain("X")
        assert performance.loss_granularity
        assert performance.mean_loss_granularity > 0

    def test_stub_domain_rejected(self, path, all_reports):
        verifier = Verifier(path)
        verifier.add_reports(all_reports)
        with pytest.raises(ValueError):
            verifier.estimate_domain("S")

    def test_estimate_via_neighbors(self, path, all_reports, congested_observation):
        verifier = Verifier(path)
        verifier.add_reports(all_reports)
        independent = verifier.estimate_domain_via_neighbors("X")
        truth = congested_observation.truth_for("X")
        assert independent is not None
        # The neighbor-based estimate includes two healthy inter-domain links,
        # so it slightly exceeds the domain's own contribution but stays close.
        true_median = truth.delay_quantiles([0.5])[0.5]
        assert independent.delay_quantile(0.5) >= true_median
        assert independent.delay_quantile(0.5) == pytest.approx(true_median, rel=0.3)

    def test_missing_reports_give_empty_estimates(self, path):
        verifier = Verifier(path)
        performance = verifier.estimate_domain("X")
        assert performance.delay_sample_count == 0
        assert performance.offered_packets == 0
        assert performance.delay_quantiles == {}

    def test_sample_receipt_for_unknown_hop_is_none(self, path):
        assert Verifier(path).sample_receipt_for(4) is None


class TestVerifierConsistency:
    def test_honest_reports_are_consistent(self, path, all_reports):
        verifier = Verifier(path)
        verifier.add_reports(all_reports)
        assert verifier.check_consistency() == []

    def test_verify_domain_accepts_honest_domain(self, path, all_reports):
        verifier = Verifier(path)
        verifier.add_reports(all_reports)
        result = verifier.verify_domain("X")
        assert result.accepted
        assert result.claimed.loss_rate > 0
        assert result.independent is not None

    def test_partial_receipts_skip_missing_links(self, path, all_reports):
        verifier = Verifier(path)
        # Only domain X's receipts: no link has both ends, nothing to check.
        verifier.add_reports({hop: all_reports[hop] for hop in (4, 5)})
        assert verifier.check_consistency() == []

    def test_add_reports_accepts_iterable(self, path, all_reports):
        verifier = Verifier(path)
        verifier.add_reports(list(all_reports.values()))
        assert verifier.estimate_domain("X").offered_packets > 0


class _Unmemoised(Verifier):
    """The same verifier with its memo switched off: every query recomputes."""

    def _memoised(self, key, compute):
        return compute()


class TestVerifierMemo:
    def test_add_report_after_a_query_changes_the_next_answer(self, path, all_reports):
        verifier = Verifier(path)
        verifier.add_reports({hop: report for hop, report in all_reports.items() if hop != 6})
        # Without N's ingress HOP the neighbor view of X has no downstream side.
        assert verifier.sample_receipt_for(6) is None
        assert verifier.aggregate_receipts_for(6) == []
        assert verifier.estimate_domain_via_neighbors("X").offered_packets == 0
        assert verifier.check_consistency() == []

        verifier.add_report(all_reports[6])
        complete = Verifier(path)
        complete.add_reports(all_reports)
        assert verifier.sample_receipt_for(6) == complete.sample_receipt_for(6)
        assert verifier.estimate_domain_via_neighbors("X").offered_packets > 0
        assert verifier.estimate_domain_via_neighbors("X") == (
            complete.estimate_domain_via_neighbors("X")
        )

        # A forged sample at N's ingress that X's egress never delivered.
        genuine = all_reports[6].sample_receipts[0]
        forged = HOPReport(
            hop_id=6,
            sample_receipts=(
                dataclasses.replace(
                    genuine, samples=[(1, genuine.samples["time"][-1])]
                ),
            ),
        )
        assert verifier.verify_domain("N").accepted
        verifier.add_report(forged)
        assert [finding.kind for finding in verifier.check_consistency()] == ["missing-upstream"]
        assert not verifier.verify_domain("N").accepted

    def test_mutating_returned_lists_does_not_poison_the_memo(self, path, all_reports):
        verifier = Verifier(path)
        verifier.add_reports(all_reports)
        ingress = verifier.aggregate_receipts_for(4)
        expected = list(ingress)
        ingress.reverse()
        ingress.pop()
        verifier.check_consistency().append("not a finding")
        assert verifier.aggregate_receipts_for(4) == expected
        assert verifier.check_consistency() == []
        reference = _Unmemoised(path)
        reference.add_reports(all_reports)
        assert verifier.estimate_domain("X") == reference.estimate_domain("X")

    def test_memoised_verification_equals_unmemoised_on_a_lying_domain(self):
        spec = ExperimentSpec(
            seed=5,
            traffic=TrafficSpec(workload=None, packet_count=3000),
            path=PathSpec(
                conditions={
                    "X": ConditionSpec(
                        delay="jitter",
                        delay_params={"base_delay": 1.2e-3, "jitter_std": 0.4e-3},
                        loss="bernoulli",
                        loss_params={"loss_rate": 0.02},
                    ),
                    "N": ConditionSpec(
                        delay="jitter",
                        delay_params={"base_delay": 0.8e-3, "jitter_std": 0.2e-3},
                        loss="bernoulli",
                        loss_params={"loss_rate": 0.01},
                    ),
                }
            ),
            protocol=ProtocolSpec(default=HOPSpec(sampling_rate=0.2, aggregate_size=200)),
            adversaries=(
                AdversarySpec(kind="lying", domain="N", params={"claimed_delay": 0.2e-3}),
            ),
            estimation=EstimationSpec(observer="L", targets=("X", "N")),
        )
        session = run_cell_full(spec).session
        memoised = session.verifier_for("L")
        reference = _Unmemoised(session.paths[0])
        reference.add_reports(session.bus.reports_visible_to("L"))
        # Query the memoised verifier repeatedly and in a different order.
        for _ in range(2):
            for target in ("N", "X"):
                memoised.estimate_domain(target)
                memoised.estimate_domain_via_neighbors(target)
                memoised.check_consistency()
        for target in ("X", "N"):
            assert memoised.verify_domain(target) == reference.verify_domain(target)
            delays = memoised.matched_delays(target)
            assert delays.size and not delays.flags.writeable
            assert delays is memoised.matched_delays(target)
            assert np.array_equal(delays, reference.matched_delays(target))
        assert not memoised.verify_domain("N").accepted
        assert memoised.check_consistency() == reference.check_consistency()
