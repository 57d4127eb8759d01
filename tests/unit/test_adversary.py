"""Unit tests for the adversary models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversary.bias import BiasedTreatmentAttack
from repro.adversary.lying import LyingDomainAgent
from repro.adversary.marker_drop import MarkerDropAttack, marker_exposure_rate
from repro.baselines.trajectory_sampling import TrajectorySamplingPlusPlus
from repro.baselines.vpm_adapter import VPMProtocolAdapter
from repro.core.aggregation import AggregatorConfig
from repro.core.hop import HOPConfig
from repro.core.sampling import SamplerConfig
from repro.simulation.scenario import PathScenario, SegmentCondition
from repro.traffic.flows import FlowGeneratorConfig
from repro.traffic.loss_models import BernoulliLossModel
from repro.traffic.trace import SyntheticTrace, TraceConfig

from tests.helpers import feed_agent


TEST_CONFIG = HOPConfig(
    sampler=SamplerConfig(sampling_rate=0.2, marker_rate=0.02),
    aggregator=AggregatorConfig(expected_aggregate_size=200),
)


@pytest.fixture(scope="module")
def trace_batch(prefix_pair):
    config = TraceConfig(
        packet_count=2000, packets_per_second=100_000.0, flow_config=FlowGeneratorConfig()
    )
    return SyntheticTrace(config=config, prefix_pair=prefix_pair, seed=51).packet_batch()


class TestBiasedTreatmentAttack:
    def test_predictable_protocol_yields_exact_predicate(self, trace_batch, digester):
        protocol = TrajectorySamplingPlusPlus(sampling_rate=0.1)
        attack = BiasedTreatmentAttack(digester=digester)
        head = trace_batch.take(slice(0, 200))
        mask = attack.predicate_against(protocol)(head)
        assert mask.dtype == np.bool_ and mask.any()
        assert mask.tolist() == [
            protocol.measurement_predicate(digester.digest(packet))
            for packet in head.to_packets()
        ]

    def test_unpredictable_protocol_gets_blind_guess(self, trace_batch, digester):
        attack = BiasedTreatmentAttack(digester=digester, guess_rate=0.1)
        predicate = attack.predicate_against(VPMProtocolAdapter())
        assert np.mean(predicate(trace_batch)) == pytest.approx(0.1, abs=0.05)

    def test_predictable_predicate_rejects_unpredictable_protocol(self, digester):
        attack = BiasedTreatmentAttack(digester=digester)
        with pytest.raises(ValueError):
            attack.predictable_predicate(VPMProtocolAdapter())

    def test_guess_rate_validation(self):
        with pytest.raises(ValueError):
            BiasedTreatmentAttack(guess_rate=0.0)


class TestLyingDomainAgent:
    def test_requires_transit_domain(self, path):
        with pytest.raises(ValueError):
            LyingDomainAgent("S", path)

    def test_fabricated_egress_hides_loss(self, path, trace_batch):
        scenario = PathScenario()
        scenario.configure_domain(
            "X", SegmentCondition(loss_model=BernoulliLossModel(0.3, seed=53))
        )
        observation = scenario.run_batch(trace_batch)
        liar = LyingDomainAgent("X", path, config=TEST_CONFIG, claimed_delay=0.5e-3)
        feed_agent(liar, observation)
        reports = liar.reports(flush=True)
        ingress_count = sum(r.pkt_count for r in reports[4].aggregate_receipts)
        egress_count = sum(r.pkt_count for r in reports[5].aggregate_receipts)
        # The lie: the egress claims the same packet count as the ingress even
        # though 30% of the traffic was dropped inside the domain.
        assert egress_count == ingress_count
        assert observation.truth_for("X").loss_rate > 0.2

    def test_fabricated_egress_hides_delay(self, path, trace_batch):
        from repro.traffic.delay_models import ConstantDelayModel

        scenario = PathScenario()
        scenario.configure_domain(
            "X", SegmentCondition(delay_model=ConstantDelayModel(20e-3))
        )
        observation = scenario.run_batch(trace_batch)
        liar = LyingDomainAgent("X", path, config=TEST_CONFIG, claimed_delay=0.5e-3)
        feed_agent(liar, observation)
        reports = liar.reports(flush=True)
        ingress_samples = {
            pkt: time for rc in reports[4].sample_receipts for pkt, time in rc.samples.tolist()
        }
        egress_samples = {
            pkt: time for rc in reports[5].sample_receipts for pkt, time in rc.samples.tolist()
        }
        common = set(ingress_samples) & set(egress_samples)
        assert common
        claimed = [egress_samples[pkt] - ingress_samples[pkt] for pkt in common]
        assert np.mean(claimed) == pytest.approx(0.5e-3, abs=1e-6)

    def test_fabricated_report_uses_egress_path_id(self, path, trace_batch):
        scenario = PathScenario()
        observation = scenario.run_batch(trace_batch)
        liar = LyingDomainAgent("X", path, config=TEST_CONFIG)
        feed_agent(liar, observation)
        reports = liar.reports(flush=True)
        for receipt in reports[5].sample_receipts + reports[5].aggregate_receipts:
            assert receipt.path_id.reporting_hop == 5
        assert liar.last_fabricated_report is reports[5]


class TestMarkerDropAttack:
    def test_marker_mask_matches_threshold(self, trace_batch, digester):
        attack = MarkerDropAttack(digester=digester, marker_rate=0.05)
        markers = int(attack.marker_mask(trace_batch).sum())
        assert markers == pytest.approx(0.05 * len(trace_batch), rel=0.5)

    def test_drop_predicate_targets_markers_only(self, trace_batch, digester):
        attack = MarkerDropAttack(digester=digester, marker_rate=0.05)
        head = trace_batch.take(slice(0, 200))
        assert attack.drop_predicate()(head).tolist() == [
            digester.digest(packet) > attack.marker_threshold for packet in head.to_packets()
        ]

    def test_exposure_rate_is_total(self, path, trace_batch, digester):
        attack = MarkerDropAttack(digester=digester, marker_rate=0.05)
        scenario = PathScenario()
        scenario.configure_domain("X", SegmentCondition(drop_predicate=attack.drop_predicate()))
        observation = scenario.run_batch(trace_batch)
        # Every dropped marker entered X (seen by L's egress) and never
        # reached N: the attack is fully exposed.
        assert marker_exposure_rate(observation, "X", attack) == 1.0
        assert observation.truth_for("X").lost_packets  # some markers were dropped

    def test_exposure_requires_transit_domain(self, trace_batch, digester):
        attack = MarkerDropAttack(digester=digester)
        scenario = PathScenario()
        observation = scenario.run_batch(trace_batch)
        with pytest.raises(ValueError):
            marker_exposure_rate(observation, "S", attack)

    def test_validation(self):
        with pytest.raises(ValueError):
            MarkerDropAttack(marker_rate=0.0)
