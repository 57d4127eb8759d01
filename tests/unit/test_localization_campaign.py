"""Unit tests for repro.analysis.localization."""

from __future__ import annotations

import pytest

from repro.adversary.lying import LyingDomainAgent
from repro.analysis.localization import identify_suspects, localize_performance
from repro.api import (
    ConditionSpec,
    ExperimentSpec,
    HOPSpec,
    PathSpec,
    ProtocolSpec,
    TrafficSpec,
)
from repro.api.runner import run_cell_full
from repro.api.spec import SLATargetSpec
from repro.analysis.sla import SLASpec
from repro.core.aggregation import AggregatorConfig
from repro.core.consistency import Inconsistency
from repro.core.hop import HOPConfig
from repro.core.protocol import VPMSession
from repro.core.sampling import SamplerConfig
from repro.simulation.scenario import PathScenario, SegmentCondition
from repro.traffic.delay_models import ConstantDelayModel, JitterDelayModel
from repro.traffic.flows import FlowGeneratorConfig
from repro.traffic.loss_models import BernoulliLossModel
from repro.traffic.trace import SyntheticTrace, TraceConfig

from tests.helpers import feed_session


TEST_CONFIG = HOPConfig(
    sampler=SamplerConfig(sampling_rate=0.2, marker_rate=0.02),
    aggregator=AggregatorConfig(expected_aggregate_size=300),
)


@pytest.fixture(scope="module")
def trace_batch(prefix_pair):
    config = TraceConfig(
        packet_count=2500, packets_per_second=100_000.0, flow_config=FlowGeneratorConfig()
    )
    return SyntheticTrace(config=config, prefix_pair=prefix_pair, seed=81).packet_batch()


def configured_scenario(seed: int) -> PathScenario:
    """X is slow and lossy; L and N are healthy."""
    scenario = PathScenario(seed=seed)
    scenario.configure_domain(
        "L", SegmentCondition(delay_model=JitterDelayModel(0.5e-3, 0.1e-3, seed=seed + 1))
    )
    scenario.configure_domain(
        "X",
        SegmentCondition(
            delay_model=ConstantDelayModel(12e-3),
            loss_model=BernoulliLossModel(0.1, seed=seed + 2),
        ),
    )
    scenario.configure_domain(
        "N", SegmentCondition(delay_model=JitterDelayModel(1e-3, 0.2e-3, seed=seed + 3))
    )
    return scenario


def worst(diagnosis, share: str):
    """The transit domain with the largest ``delay_share`` or ``loss_share``."""
    return max(diagnosis.domains, key=lambda entry: getattr(entry, share))


def violating(diagnosis) -> tuple[str, ...]:
    return tuple(entry.domain for entry in diagnosis.domains if entry.violating)


class TestLocalization:
    @pytest.fixture(scope="class")
    def verifier(self, path, trace_batch):
        scenario = configured_scenario(seed=82)
        observation = scenario.run_batch(trace_batch)
        session = VPMSession(path, configs={d.name: TEST_CONFIG for d in path.domains})
        feed_session(session, observation)
        return session.verifier_for("S")

    def test_worst_domains_identified(self, verifier):
        diagnosis = localize_performance(verifier)
        assert worst(diagnosis, "delay_share").domain == "X"
        assert worst(diagnosis, "loss_share").domain == "X"
        assert worst(diagnosis, "delay_share").delay_share > 0.5
        assert worst(diagnosis, "loss_share").loss_share == pytest.approx(1.0)

    def test_delay_shares_sum_to_one(self, verifier):
        diagnosis = localize_performance(verifier)
        assert sum(entry.delay_share for entry in diagnosis.domains) == pytest.approx(1.0)

    def test_sla_violations_flagged(self, verifier):
        sla = SLASpec(delay_bound=5e-3, delay_quantile=0.9, loss_bound=0.01)
        diagnosis = localize_performance(verifier, sla=sla)
        assert violating(diagnosis) == ("X",)
        healthy = next(entry for entry in diagnosis.domains if entry.domain == "L")
        assert not healthy.violating

    def test_no_sla_means_no_verdicts(self, verifier):
        diagnosis = localize_performance(verifier)
        assert all(entry.sla_verdict is None for entry in diagnosis.domains)
        assert violating(diagnosis) == ()

    def test_no_suspects_for_honest_path(self, verifier):
        assert localize_performance(verifier).suspects == ()

    def test_suspects_named_for_lying_domain(self, path, trace_batch):
        scenario = configured_scenario(seed=83)
        observation = scenario.run_batch(trace_batch)
        liar = LyingDomainAgent("X", path, config=TEST_CONFIG)
        session = VPMSession(
            path, configs={d.name: TEST_CONFIG for d in path.domains}, agents={"X": liar}
        )
        feed_session(session, observation)
        diagnosis = localize_performance(session.verifier_for("L"))
        assert len(diagnosis.suspects) == 1
        suspect = diagnosis.suspects[0]
        assert (suspect.upstream_domain, suspect.downstream_domain) == ("X", "N")
        assert suspect.finding_kinds

    def test_localizes_a_spec_built_cell(self):
        """The campaign example's path: a spec-built cell and a declarative SLA."""
        spec = ExperimentSpec(
            name="localize-cell",
            seed=29,
            traffic=TrafficSpec(workload=None, packet_count=2500),
            path=PathSpec(
                conditions={
                    "X": ConditionSpec(
                        delay="jitter",
                        delay_params={"base_delay": 12e-3, "jitter_std": 1e-3},
                        loss="bernoulli",
                        loss_params={"loss_rate": 0.1},
                    )
                }
            ),
            protocol=ProtocolSpec(
                default=HOPSpec(sampling_rate=0.2, marker_rate=0.02, aggregate_size=300)
            ),
        )
        sla = SLATargetSpec(delay_bound=5e-3, delay_quantile=0.9, loss_bound=0.01)
        verifier = run_cell_full(spec).session.verifier_for("S")
        diagnosis = localize_performance(verifier, sla=sla.build())
        assert worst(diagnosis, "delay_share").domain == "X"
        assert worst(diagnosis, "loss_share").domain == "X"
        assert violating(diagnosis) == ("X",)
        assert diagnosis.suspects == ()

    def test_identify_suspects_groups_by_link(self, path):
        findings = [
            Inconsistency(kind="count-mismatch", upstream_hop=5, downstream_hop=6),
            Inconsistency(kind="missing-downstream", upstream_hop=5, downstream_hop=6, pkt_id=1),
            Inconsistency(kind="count-mismatch", upstream_hop=7, downstream_hop=8),
        ]
        suspects = identify_suspects(path, findings)
        assert len(suspects) == 2
        assert suspects[0].upstream_domain == "X"
        assert suspects[0].finding_kinds == ("count-mismatch", "missing-downstream")
        assert suspects[1].upstream_domain == "N"
        assert suspects[1].downstream_domain == "D"
