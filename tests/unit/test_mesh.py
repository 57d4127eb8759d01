"""Unit tests for the mesh workload layer.

Covers the pieces under the mesh engines: scenario validation, the shared
receipt bus's per-pair slicing and permissions, cross-path triangulation,
the mesh lying agent, and MeshSpec round-tripping.
"""

from __future__ import annotations

import pytest

from repro.adversary.lying import LyingDomainAgent
from repro.analysis.localization import SuspectLink, triangulate_suspects
from repro.api.spec import ConditionSpec, MeshSpec, TopologySpec, TrafficSpec
from repro.api.runner import _build_cell
from repro.core.protocol import MeshSession
from repro.engine.streaming import StreamingRunner
from repro.net.topology import star_topology
from repro.reporting.dissemination import ReceiptBus, _report_for_pair
from repro.simulation.mesh import MeshScenario
from repro.simulation.scenario import SegmentCondition


@pytest.fixture(scope="module")
def star():
    return star_topology(path_count=3)


def _fed_cell(adversaries=()):
    spec = MeshSpec(
        name="unit-mesh",
        seed=13,
        topology=TopologySpec(kind="star", params={"path_count": 3}, seed=0),
        traffic=TrafficSpec(workload=None, packet_count=600),
        conditions={
            "X": ConditionSpec(
                delay="constant",
                delay_params={"delay": 2e-3},
                loss="bernoulli",
                loss_params={"loss_rate": 0.1},
            )
        },
        adversaries=adversaries,
    )
    cell = _build_cell(spec)
    StreamingRunner(cell, chunk_size=None).run()
    return spec, cell


class TestMeshScenario:
    def test_rejects_duplicate_prefix_pairs(self, star):
        topology, paths = star
        with pytest.raises(ValueError, match="distinct prefix pairs"):
            MeshScenario(topology, (paths[0], paths[0]))

    def test_rejects_unknown_transit_domain(self, star):
        topology, paths = star
        scenario = MeshScenario(topology, paths)
        with pytest.raises(ValueError, match="transit domain of no mesh path"):
            scenario.configure_domain("S1", lambda index: SegmentCondition())

    def test_configure_builds_one_condition_per_crossing_path(self, star):
        topology, paths = star
        scenario = MeshScenario(topology, paths)
        built: list[int] = []

        def factory(index: int) -> SegmentCondition:
            built.append(index)
            return SegmentCondition()

        scenario.configure_domain("X", factory)
        assert built == [0, 1, 2]

    def test_run_batch_requires_one_batch_per_path(self, star):
        topology, paths = star
        scenario = MeshScenario(topology, paths)
        with pytest.raises(ValueError, match="one per path"):
            scenario.run_batch([])

    def test_override_rejects_non_transit_domain(self, star):
        # A condition-role adversary at an edge-only domain must fail loudly,
        # not silently leave the attack uninstalled.
        topology, paths = star
        scenario = MeshScenario(topology, paths)
        with pytest.raises(ValueError, match="cannot be overridden"):
            scenario.override_domain("S1", preferential_delay=1e-3)

    def test_condition_adversary_at_edge_domain_fails_at_build(self):
        from repro.api.spec import AdversarySpec

        spec = MeshSpec(
            topology=TopologySpec(kind="star", params={"path_count": 2}, seed=0),
            adversaries=(AdversarySpec(kind="marker-drop", domain="S1"),),
        )
        with pytest.raises(ValueError, match="cannot be overridden"):
            _build_cell(spec)


class TestMeshReceiptBus:
    def test_slices_reports_per_pair(self):
        _, cell = _fed_cell()
        session = cell.session
        # X's ingress HOP on path 0 serves only pair 0; its reports hold
        # receipts for exactly that pair.
        path = session.paths[0]
        reports = session.bus.reports_visible_to("X", path.prefix_pair)
        assert reports
        for report in reports:
            for receipt in report.sample_receipts + report.aggregate_receipts:
                assert receipt.path_id.prefix_pair == path.prefix_pair

    def test_off_path_observer_sees_nothing(self):
        _, cell = _fed_cell()
        session = cell.session
        # S2 is not on path 0 (S1 -> X -> D1).
        assert session.bus.reports_visible_to("S2", session.paths[0].prefix_pair) == []

    def test_publish_validates_hop_ownership(self, star):
        topology, paths = star
        bus = ReceiptBus(paths)
        from repro.core.hop import HOPReport

        with pytest.raises(PermissionError, match="owned by"):
            bus.publish("S1", HOPReport(hop_id=2))  # HOP 2 belongs to X
        with pytest.raises(PermissionError, match="none of the bus's paths"):
            bus.publish("S1", HOPReport(hop_id=999))

    def test_rejects_duplicate_pairs(self, star):
        _, paths = star
        with pytest.raises(ValueError, match="duplicate prefix pair"):
            ReceiptBus((paths[0], paths[0]))

    def test_report_for_pair_keeps_only_matching_receipts(self):
        _, cell = _fed_cell()
        reports = cell.session._last_reports
        path = cell.session.paths[1]
        # S-side HOPs carry one pair; the filter is the identity there and
        # empty for any other pair.
        hop_id = path.hops[0].hop_id
        own = _report_for_pair(reports[hop_id], path.prefix_pair)
        other = _report_for_pair(reports[hop_id], cell.session.paths[0].prefix_pair)
        assert own.sample_receipts == reports[hop_id].sample_receipts
        assert own.aggregate_receipts == reports[hop_id].aggregate_receipts
        assert other.sample_receipts == ()
        assert other.aggregate_receipts == ()


class TestMeshSession:
    def test_requires_paths(self):
        with pytest.raises(ValueError, match="at least one path"):
            MeshSession(())

    def test_shared_collector_serves_all_crossing_paths(self, star):
        topology, paths = star
        session = MeshSession(paths)
        # X has 6 HOPs (ingress+egress per path), each registered for 1 path.
        agent = session.agents["X"]
        assert len(agent.hop_ids) == 6
        for hop_id in agent.hop_ids:
            assert agent.collector(hop_id).active_paths == 1

    def test_only_path_default_needs_a_single_path(self, star):
        _, paths = star
        session = MeshSession(paths)
        with pytest.raises(ValueError, match="3 paths"):
            session.verifier_for("X")
        with pytest.raises(ValueError, match="name the prefix pair"):
            session.bus.reports_visible_to("X")
        one_path = MeshSession(paths[:1])
        assert one_path.verifier_for("X").path is paths[0]

    def test_verifier_estimates_each_path_independently(self):
        spec, cell = _fed_cell()
        session = cell.session
        estimates = []
        for path in session.paths:
            verifier = session.verifier_for(path.domains[0], path)
            performance = verifier.estimate_domain("X")
            estimates.append(performance.loss_rate)
            assert performance.offered_packets > 0
        # Independent bernoulli draws per path: rates are near 10% but not equal.
        assert len(set(estimates)) > 1
        for rate in estimates:
            assert rate == pytest.approx(0.1, abs=0.06)


class TestMeshLyingAgent:
    def test_fabricates_every_crossing_paths_egress(self):
        from repro.api.spec import AdversarySpec

        _, cell = _fed_cell()
        _, lying_cell = _fed_cell(
            adversaries=(AdversarySpec(kind="lying", domain="X"),)
        )
        assert isinstance(lying_cell.session.agents["X"], LyingDomainAgent)
        for path in lying_cell.session.paths:
            ingress, egress = path.hops_of("X")
            honest_report = cell.session._last_reports[egress.hop_id]
            lying_report = lying_cell.session._last_reports[egress.hop_id]
            # The lie hides the 10% loss: egress aggregate counts equal the
            # ingress counts instead of the honest (smaller) egress counts.
            lying_count = sum(
                receipt.pkt_count for receipt in lying_report.aggregate_receipts
            )
            honest_count = sum(
                receipt.pkt_count for receipt in honest_report.aggregate_receipts
            )
            ingress_count = sum(
                receipt.pkt_count
                for receipt in lying_cell.session._last_reports[
                    ingress.hop_id
                ].aggregate_receipts
            )
            assert lying_count == ingress_count
            assert lying_count > honest_count

    def test_requires_a_transit_crossing(self, star):
        topology, paths = star
        with pytest.raises(ValueError, match="transit domain of none"):
            LyingDomainAgent("S1", (paths[0],))


class TestTriangulation:
    def test_two_distinct_partners_expose_the_common_domain(self):
        suspects = {
            "pair-a": (
                SuspectLink(
                    upstream_domain="X", downstream_domain="N1",
                    upstream_hop=2, downstream_hop=3, findings=(),
                ),
            ),
            "pair-b": (
                SuspectLink(
                    upstream_domain="X", downstream_domain="N2",
                    upstream_hop=5, downstream_hop=6, findings=(),
                ),
            ),
        }
        triangulation = triangulate_suspects(suspects)
        assert triangulation.exposed_domains == ("X",)
        implications = {entry.domain: entry for entry in triangulation.implications}
        assert implications["X"].partners == ("N1", "N2")
        assert implications["X"].paths == ("pair-a", "pair-b")
        assert not implications["N1"].exposed

    def test_two_links_on_one_path_do_not_expose(self):
        # A faulty link on each side of honest B reproduces the multi-partner
        # signature on a single path; without cross-path evidence B stays
        # unexposed.
        suspects = {
            "pair-a": (
                SuspectLink(
                    upstream_domain="A", downstream_domain="B",
                    upstream_hop=1, downstream_hop=2, findings=(),
                ),
                SuspectLink(
                    upstream_domain="B", downstream_domain="C",
                    upstream_hop=3, downstream_hop=4, findings=(),
                ),
            ),
        }
        assert triangulate_suspects(suspects).exposed_domains == ()

    def test_single_partner_stays_a_pair(self):
        suspects = {
            "pair-a": (
                SuspectLink(
                    upstream_domain="X", downstream_domain="N",
                    upstream_hop=2, downstream_hop=3, findings=(),
                ),
            ),
            "pair-b": (
                SuspectLink(
                    upstream_domain="X", downstream_domain="N",
                    upstream_hop=2, downstream_hop=3, findings=(),
                ),
            ),
        }
        assert triangulate_suspects(suspects).exposed_domains == ()

    def test_no_suspects_no_implications(self):
        triangulation = triangulate_suspects({})
        assert triangulation.implications == ()
        assert triangulation.exposed_domains == ()


class TestMeshSpec:
    def test_dict_round_trip_is_identity(self):
        spec = MeshSpec(
            name="round-trip",
            seed=5,
            engine="streaming",
            topology=TopologySpec(
                kind="mesh-random", params={"path_count": 2, "stub_domains": 3}
            ),
            traffic=TrafficSpec(workload="smoke-sequence", packet_count=500),
            conditions={"T1": ConditionSpec(loss="bernoulli", loss_params={"loss_rate": 0.1})},
            quantiles=(0.5, 0.9),
        )
        assert MeshSpec.from_dict(spec.to_dict()) == spec
        assert MeshSpec.from_dict(spec.to_dict()).to_dict() == spec.to_dict()

    def test_rejects_bad_engine(self):
        with pytest.raises(ValueError, match="engine must be 'batch' or 'streaming'"):
            MeshSpec(engine="scalar")

    def test_estimation_mode_round_trips_and_validates(self):
        spec = MeshSpec(estimation_mode="sketch", sketch_size=64)
        data = spec.to_dict()
        assert data["estimation_mode"] == "sketch"
        assert data["sketch_size"] == 64
        assert MeshSpec.from_dict(data) == spec
        with pytest.raises(ValueError, match="mode"):
            MeshSpec(estimation_mode="fuzzy")
        with pytest.raises(ValueError, match="sketch_size"):
            MeshSpec(estimation_mode="sketch", sketch_size=2)

    def test_exact_mode_serialization_is_unchanged(self):
        data = MeshSpec().to_dict()
        assert "estimation_mode" not in data
        assert "sketch_size" not in data

    def test_rejects_unknown_topology_kind(self):
        with pytest.raises(ValueError, match="unknown topology"):
            TopologySpec(kind="doughnut")

    def test_with_overrides_re_runs_validation(self):
        spec = MeshSpec(topology=TopologySpec(kind="star", params={"path_count": 2}))
        swept = spec.with_overrides({"topology.params.path_count": 4})
        assert swept.topology.params["path_count"] == 4
        with pytest.raises(ValueError, match="engine must be"):
            spec.with_overrides({"engine": "scalar"})

    def test_condition_on_non_transit_domain_fails_at_build(self):
        spec = MeshSpec(
            topology=TopologySpec(kind="star", params={"path_count": 2}, seed=0),
            conditions={"S1": ConditionSpec()},
        )
        with pytest.raises(ValueError, match="transit domain of no path"):
            _build_cell(spec)
