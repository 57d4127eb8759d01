"""Unit tests for repro.simulation.scenario (the Figure-1 driver)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.net.link import InterDomainLink, LinkSpec
from repro.simulation.scenario import PathScenario, SegmentCondition
from repro.traffic.delay_models import ConstantDelayModel
from repro.traffic.loss_models import BernoulliLossModel
from repro.traffic.reordering import WindowReordering


class TestPathScenarioBasics:
    def test_default_is_figure1(self):
        scenario = PathScenario()
        assert [domain.name for domain in scenario.path.domains] == ["S", "L", "X", "N", "D"]

    def test_mismatched_arguments_rejected(self, topology):
        with pytest.raises(ValueError):
            PathScenario(topology=topology, path=None)

    def test_all_hops_observe_without_impairment(self, small_trace_batch):
        scenario = PathScenario()
        observation = scenario.run_batch(small_trace_batch)
        counts = {hop.hop_id: len(observation.at_hop(hop)[0]) for hop in scenario.path}
        assert set(counts.values()) == {len(small_trace_batch)}

    def test_observation_times_monotone_at_each_hop(self, small_trace_batch):
        scenario = PathScenario()
        observation = scenario.run_batch(small_trace_batch)
        for hop in scenario.path:
            _, times = observation.at_hop(hop)
            assert np.all(np.diff(times) >= 0)

    def test_times_increase_along_path(self, small_trace_batch):
        scenario = PathScenario()
        observation = scenario.run_batch(small_trace_batch)
        first_uid = int(small_trace_batch.uid[0])
        times_by_hop = []
        for hop in scenario.path:
            batch, times = observation.at_hop(hop)
            times_by_hop.append(float(times[np.flatnonzero(batch.uid == first_uid)[0]]))
        assert times_by_hop == sorted(times_by_hop)
        assert len(times_by_hop) == 8

    def test_configure_unknown_domain_rejected(self):
        scenario = PathScenario()
        with pytest.raises(ValueError):
            scenario.configure_domain("S", SegmentCondition())  # stub, not transit
        with pytest.raises(ValueError):
            scenario.configure_domain("Z", SegmentCondition())


def _uids(observation, hop_id: int) -> set[int]:
    return set(observation.at_hop(hop_id)[0].uid.tolist())


class TestLossAndDelayGroundTruth:
    def test_domain_loss_recorded(self, small_trace_batch):
        scenario = PathScenario()
        scenario.configure_domain(
            "X", SegmentCondition(loss_model=BernoulliLossModel(0.2, seed=7))
        )
        observation = scenario.run_batch(small_trace_batch)
        truth = observation.truth_for("X")
        assert truth.loss_rate == pytest.approx(0.2, abs=0.05)
        # Packets lost in X never appear at HOP 5 or beyond.
        lost = _uids(observation, 4) - _uids(observation, 5)
        assert len(lost) == truth.lost_packets
        assert not (lost & _uids(observation, 8))
        assert len(observation.at_hop(8)[0]) == truth.delivered_packets

    def test_domain_delay_recorded(self, small_trace_batch):
        scenario = PathScenario()
        scenario.configure_domain(
            "X", SegmentCondition(delay_model=ConstantDelayModel(4e-3))
        )
        observation = scenario.run_batch(small_trace_batch)
        truth = observation.truth_for("X")
        delays = truth.delays()
        assert np.allclose(delays, 4e-3)
        assert truth.delay_quantiles([0.5])[0.5] == pytest.approx(4e-3)

    def test_link_loss_recorded_separately(self, small_trace_batch):
        scenario = PathScenario()
        topology = scenario.topology
        topology.add_link(
            topology.hop(5),
            topology.hop(6),
            InterDomainLink(spec=LinkSpec(), loss_rate=0.1, seed=10),
        )
        observation = scenario.run_batch(small_trace_batch)
        assert len(observation.link_losses[(5, 6)]) > 0
        # Link loss is not attributed to any domain.
        assert observation.truth_for("X").loss_rate == 0.0
        assert observation.truth_for("N").loss_rate == 0.0

    def test_preferential_treatment_bypasses_loss_and_delay(self, small_trace_batch):
        scenario = PathScenario()
        favored = small_trace_batch.uid[::10]
        scenario.configure_domain(
            "X",
            SegmentCondition(
                delay_model=ConstantDelayModel(10e-3),
                loss_model=BernoulliLossModel(0.5, seed=12),
                preferential_predicate=lambda batch: np.isin(batch.uid, favored),
                preferential_delay=0.1e-3,
            ),
        )
        observation = scenario.run_batch(small_trace_batch)
        ingress, ingress_times = observation.at_hop(4)
        egress, egress_times = observation.at_hop(5)
        favored_uids = set(favored.tolist())
        assert favored_uids <= set(egress.uid.tolist())
        entered = dict(zip(ingress.uid.tolist(), ingress_times.tolist()))
        for uid, left in zip(egress.uid.tolist(), egress_times.tolist()):
            if uid in favored_uids:
                assert left - entered[uid] == pytest.approx(0.1e-3)

    def test_drop_predicate_always_drops(self, small_trace_batch):
        scenario = PathScenario()
        targeted = small_trace_batch.uid[:50]
        scenario.configure_domain(
            "X",
            SegmentCondition(drop_predicate=lambda batch: np.isin(batch.uid, targeted)),
        )
        observation = scenario.run_batch(small_trace_batch)
        assert not (set(targeted.tolist()) & _uids(observation, 5))
        assert observation.truth_for("X").lost_packets == len(targeted)

    def test_reordering_changes_order_only_within_window(self, small_trace_batch):
        scenario = PathScenario()
        scenario.configure_domain(
            "X",
            SegmentCondition(
                delay_model=ConstantDelayModel(1e-3),
                reordering=WindowReordering(window=0.3e-3, reorder_probability=0.3, seed=15),
            ),
        )
        observation = scenario.run_batch(small_trace_batch)
        egress_uids = observation.at_hop(5)[0].uid.tolist()
        ingress_uids = observation.at_hop(4)[0].uid.tolist()
        assert sorted(egress_uids) == sorted(ingress_uids)
        assert egress_uids != ingress_uids

    def test_ground_truth_offered_packets_conservation(self, small_trace_batch):
        scenario = PathScenario()
        scenario.configure_domain(
            "X", SegmentCondition(loss_model=BernoulliLossModel(0.3, seed=17))
        )
        observation = scenario.run_batch(small_trace_batch)
        truth = observation.truth_for("X")
        assert truth.offered_packets == len(observation.at_hop(4)[0])
        assert truth.delivered_packets == len(observation.at_hop(5)[0])
