"""Integration tests: tunability (Sections 5.2, 6.2, 7.2).

Each HOP chooses its own sampling and aggregation rate; accuracy must degrade
gracefully with fewer resources, and differently tuned HOPs must still produce
comparable (joinable, verifiable) receipts.
"""

from __future__ import annotations

import pytest

from repro.core.aggregation import AggregatorConfig
from repro.core.estimation import delay_accuracy
from repro.core.hop import HOPConfig
from repro.core.protocol import VPMSession
from repro.core.sampling import SamplerConfig
from repro.simulation.scenario import PathScenario, SegmentCondition
from repro.traffic.delay_models import CongestionDelayModel
from repro.traffic.loss_models import GilbertElliottLossModel

from tests.helpers import feed_session


def make_config(sampling_rate: float, aggregate_size: int = 1000) -> HOPConfig:
    return HOPConfig(
        sampler=SamplerConfig(sampling_rate=sampling_rate, marker_rate=0.005),
        aggregator=AggregatorConfig(expected_aggregate_size=aggregate_size),
    )


@pytest.fixture(scope="module")
def congested_observation(integration_batch):
    scenario = PathScenario()
    scenario.configure_domain(
        "X",
        SegmentCondition(
            delay_model=CongestionDelayModel(scenario="udp-burst", seed=402),
            loss_model=GilbertElliottLossModel.from_target_rate(0.1, seed=403),
        ),
    )
    return scenario.run_batch(integration_batch)


class TestGracefulDegradation:
    def test_accuracy_degrades_smoothly_with_sampling_rate(
        self, path, congested_observation
    ):
        truth = congested_observation.truth_for("X")
        errors = {}
        sample_counts = {}
        for rate in (0.10, 0.02, 0.005):
            session = VPMSession(
                path, configs={d.name: make_config(rate) for d in path.domains}
            )
            feed_session(session, congested_observation)
            performance = session.estimate("L", "X")
            estimated = performance.delay_quantiles
            accuracy = delay_accuracy(estimated, truth.delay_quantiles(sorted(estimated)))
            errors[rate] = accuracy * 1e3
            sample_counts[rate] = performance.delay_sample_count
        # More sampling -> more matched samples.
        assert sample_counts[0.10] > sample_counts[0.02] > sample_counts[0.005]
        # Even the cheapest configuration stays within a few milliseconds.
        assert errors[0.005] < 10.0
        # And the most expensive one is tighter than (or equal to) the cheapest.
        assert errors[0.10] <= errors[0.005] + 1.0

    def test_receipt_cost_scales_with_tuning(self, path, congested_observation):
        expensive = VPMSession(
            path, configs={d.name: make_config(0.1, 500) for d in path.domains}
        )
        feed_session(expensive, congested_observation)
        cheap = VPMSession(
            path, configs={d.name: make_config(0.005, 5000) for d in path.domains}
        )
        feed_session(cheap, congested_observation)
        assert (
            cheap.overhead().receipt_bytes_per_packet
            < expensive.overhead().receipt_bytes_per_packet / 3
        )


class TestIndependentTuning:
    def test_mixed_rates_still_estimate_and_verify(self, path, congested_observation):
        """Each domain picks a different sampling rate; everything still works."""
        configs = {
            "S": make_config(0.02),
            "L": make_config(0.10),
            "X": make_config(0.05),
            "N": make_config(0.01),
            "D": make_config(0.02),
        }
        session = VPMSession(path, configs=configs)
        feed_session(session, congested_observation)
        # No inconsistencies despite heterogeneous tuning.
        assert session.verifier_for("L").check_consistency() == []
        performance = session.estimate("L", "X")
        assert performance.delay_sample_count > 0
        assert performance.offered_packets > 0

    def test_verification_quality_limited_by_neighbor_rate(
        self, path, congested_observation
    ):
        """Section 7.2: N's sampling rate bounds how well L can verify X."""
        def run_with_neighbor_rate(rate: float) -> int:
            configs = {d.name: make_config(0.05) for d in path.domains}
            configs["L"] = make_config(0.05)
            configs["N"] = make_config(rate)
            session = VPMSession(path, configs=configs)
            feed_session(session, congested_observation)
            independent = session.verifier_for("L").estimate_domain_via_neighbors("X")
            return independent.delay_sample_count

        high = run_with_neighbor_rate(0.05)
        low = run_with_neighbor_rate(0.005)
        assert high > 2 * low

    def test_mixed_aggregation_rates_join_at_coarser_granularity(
        self, path, congested_observation
    ):
        configs = {d.name: make_config(0.02, 500) for d in path.domains}
        configs["N"] = make_config(0.02, 4000)  # N aggregates much more coarsely
        session = VPMSession(path, configs=configs)
        feed_session(session, congested_observation)
        fine = session.estimate("L", "X")  # X's two HOPs both use 500
        verifier = session.verifier_for("L")
        coarse = verifier._performance_between("X", 3, 6)  # spans N's coarse ingress
        assert fine.mean_loss_granularity < coarse.mean_loss_granularity
        # The loss numbers still agree (X's loss is what it is).
        assert coarse.lost_packets >= fine.lost_packets
