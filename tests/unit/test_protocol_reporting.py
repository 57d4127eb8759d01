"""Unit tests for repro.core.protocol and repro.reporting.dissemination."""

from __future__ import annotations

import pytest

from repro.core.aggregation import AggregatorConfig
from repro.core.hop import HOPConfig, HOPReport
from repro.core.protocol import MeshSession, VPMSession
from repro.core.sampling import SamplerConfig
from repro.reporting.dissemination import ReceiptBus
from repro.simulation.scenario import PathScenario, SegmentCondition
from repro.traffic.delay_models import JitterDelayModel
from repro.traffic.loss_models import BernoulliLossModel

from tests.helpers import feed_session


TEST_CONFIG = HOPConfig(
    sampler=SamplerConfig(sampling_rate=0.2, marker_rate=0.02),
    aggregator=AggregatorConfig(expected_aggregate_size=200),
)


@pytest.fixture(scope="module")
def trace_batch(prefix_pair):
    from repro.traffic.flows import FlowGeneratorConfig
    from repro.traffic.trace import SyntheticTrace, TraceConfig

    config = TraceConfig(
        packet_count=2000, packets_per_second=100_000.0, flow_config=FlowGeneratorConfig()
    )
    return SyntheticTrace(config=config, prefix_pair=prefix_pair, seed=41).packet_batch()


@pytest.fixture(scope="module")
def observation(trace_batch):
    scenario = PathScenario(seed=42)
    scenario.configure_domain(
        "X",
        SegmentCondition(
            delay_model=JitterDelayModel(base_delay=3e-3, jitter_std=0.5e-3, seed=43),
            loss_model=BernoulliLossModel(0.05, seed=44),
        ),
    )
    return scenario.run_batch(trace_batch)


class TestVPMSession:
    def test_run_produces_reports_for_all_hops(self, path, observation):
        session = VPMSession(path, configs={d.name: TEST_CONFIG for d in path.domains})
        reports = feed_session(session, observation)
        assert set(reports) == {1, 2, 3, 4, 5, 6, 7, 8}

    def test_estimate_and_verify_shortcuts(self, path, observation):
        session = VPMSession(path, configs={d.name: TEST_CONFIG for d in path.domains})
        feed_session(session, observation)
        performance = session.estimate("L", "X")
        assert performance.loss_rate > 0
        result = session.verify("L", "X")
        assert result.accepted

    def test_partial_deployment_domain_produces_no_reports(self, path, observation):
        configs = {d.name: TEST_CONFIG for d in path.domains}
        configs["N"] = None  # N has not deployed VPM
        session = VPMSession(path, configs=configs)
        reports = feed_session(session, observation)
        assert 6 not in reports and 7 not in reports
        # X's performance is still computable from its own receipts.
        assert session.estimate("L", "X").offered_packets > 0

    def test_custom_agents_override_defaults(self, path, observation):
        from repro.core.domain import DomainAgent

        class TaggedAgent(DomainAgent):
            def transform_report(self, report: HOPReport) -> HOPReport:
                return HOPReport(hop_id=report.hop_id)  # drop everything

        agent = TaggedAgent("X", path, config=TEST_CONFIG)
        session = VPMSession(
            path, configs={d.name: TEST_CONFIG for d in path.domains}, agents={"X": agent}
        )
        reports = feed_session(session, observation)
        assert reports[4].sample_receipts == ()
        assert reports[4].aggregate_receipts == ()

    def test_overhead_accounting(self, path, observation):
        session = VPMSession(path, configs={d.name: TEST_CONFIG for d in path.domains})
        feed_session(session, observation)
        overhead = session.overhead()
        assert overhead.observed_packets > 0
        assert overhead.observed_bytes > overhead.observed_packets * 40
        assert overhead.receipt_bytes > 0
        assert 0 < overhead.receipt_bytes_per_packet < 50
        assert 0 < overhead.bandwidth_overhead < 0.2
        assert overhead.max_temp_buffer_packets > 0

    def test_is_the_one_path_mesh_session(self, path):
        session = VPMSession(path, configs=TEST_CONFIG)
        assert isinstance(session, MeshSession)
        assert session.paths == (path,)
        assert session.path is path

    def test_off_path_observer_sees_nothing(self, path, observation):
        session = VPMSession(path, configs={d.name: TEST_CONFIG for d in path.domains})
        feed_session(session, observation)
        verifier = session.verifier_for("EvilCorp")
        assert verifier.estimate_domain("X").offered_packets == 0


class TestReceiptBus:
    def test_publish_and_retrieve(self, path):
        bus = ReceiptBus(path)
        report = HOPReport(hop_id=4)
        bus.publish("X", report)
        assert bus.reports_visible_to("L") == [report]
        assert bus.reports_visible_to("Z") == []

    def test_off_path_publisher_rejected(self, path):
        bus = ReceiptBus(path)
        with pytest.raises(PermissionError):
            bus.publish("EvilCorp", HOPReport(hop_id=4))

    def test_publishing_for_foreign_hop_rejected(self, path):
        bus = ReceiptBus(path)
        with pytest.raises(PermissionError):
            bus.publish("X", HOPReport(hop_id=6))  # HOP 6 belongs to N

    def test_off_path_observer_gets_nothing(self, path):
        bus = ReceiptBus(path)
        bus.publish("X", HOPReport(hop_id=4))
        assert bus.reports_visible_to("EvilCorp") == []

    def test_total_bytes(self, path):
        bus = ReceiptBus(path)
        bus.publish("X", HOPReport(hop_id=4))
        assert bus.total_bytes == 0
