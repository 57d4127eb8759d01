"""Unit tests for repro.net.topology."""

from __future__ import annotations

import pytest

from repro.net.link import InterDomainLink
from repro.net.prefixes import OriginPrefix, PrefixPair
from repro.net.topology import (
    Domain,
    HOP,
    HOPPath,
    MeshTopologyConfig,
    Topology,
    figure1_topology,
    generate_mesh_topology,
    star_topology,
)


def _pair() -> PrefixPair:
    return PrefixPair(
        source=OriginPrefix.parse("10.1.0.0/16"),
        destination=OriginPrefix.parse("10.2.0.0/16"),
    )


class TestDomainAndHOP:
    def test_domain_requires_name(self):
        with pytest.raises(ValueError):
            Domain("")

    def test_hop_equality_by_id(self):
        a = HOP(hop_id=3, domain=Domain("L"), role="egress")
        b = HOP(hop_id=3, domain=Domain("L"), role="egress")
        assert a == b
        assert hash(a) == hash(b)

    def test_hop_rejects_bad_role(self):
        with pytest.raises(ValueError):
            HOP(hop_id=1, domain=Domain("S"), role="sideways")

    def test_hop_rejects_negative_id(self):
        with pytest.raises(ValueError):
            HOP(hop_id=-1, domain=Domain("S"))


class TestHOPPath:
    def test_requires_two_hops(self):
        with pytest.raises(ValueError):
            HOPPath(prefix_pair=_pair(), hops=(HOP(1, Domain("S")),))

    def test_rejects_duplicate_hops(self):
        hop = HOP(1, Domain("S"))
        with pytest.raises(ValueError):
            HOPPath(prefix_pair=_pair(), hops=(hop, hop))

    def test_domains_in_order(self, path):
        assert [domain.name for domain in path.domains] == ["S", "L", "X", "N", "D"]

    def test_hops_of_domain(self, path):
        assert [hop.hop_id for hop in path.hops_of("X")] == [4, 5]
        assert [hop.hop_id for hop in path.hops_of("S")] == [1]

    def test_domain_segments_are_transit_domains(self, path):
        segments = path.domain_segments()
        assert [segment[0].name for segment in segments] == ["L", "X", "N"]
        assert [(segment[1].hop_id, segment[2].hop_id) for segment in segments] == [
            (2, 3),
            (4, 5),
            (6, 7),
        ]

    def test_inter_domain_pairs(self, path):
        assert [(a.hop_id, b.hop_id) for a, b in path.inter_domain_pairs()] == [
            (1, 2),
            (3, 4),
            (5, 6),
            (7, 8),
        ]

    def test_len_and_iteration(self, path):
        assert len(path) == 8
        assert [hop.hop_id for hop in path] == list(range(1, 9))


class TestTopology:
    def test_add_domain_idempotent(self):
        topology = Topology()
        first = topology.add_domain("A")
        second = topology.add_domain("A")
        assert first is second

    def test_duplicate_hop_id_rejected(self):
        topology = Topology()
        topology.add_hop(1, "A")
        with pytest.raises(ValueError):
            topology.add_hop(1, "B")

    def test_link_requires_different_domains(self):
        topology = Topology()
        topology.add_hop(1, "A")
        topology.add_hop(2, "A")
        with pytest.raises(ValueError):
            topology.add_link(1, 2)

    def test_link_lookup_is_symmetric(self):
        topology = Topology()
        topology.add_hop(1, "A")
        topology.add_hop(2, "B")
        link = topology.add_link(1, 2, InterDomainLink())
        assert topology.link_between(1, 2) is link
        assert topology.link_between(2, 1) is link

    def test_path_registration_and_lookup(self):
        topology = Topology()
        for hop_id, domain in ((1, "A"), (2, "B"), (3, "B"), (4, "C")):
            topology.add_hop(hop_id, domain)
        pair = _pair()
        path = topology.add_path(pair, [1, 2, 3, 4])
        assert topology.path(pair) is path

    def test_hop_lookup_unknown_raises(self):
        topology = Topology()
        with pytest.raises(KeyError):
            topology.hop(42)


class TestFigure1:
    def test_structure(self):
        topology, path = figure1_topology()
        assert len(topology.domains) == 5
        assert len(topology.hops) == 8
        assert len(path) == 8
        assert [domain.name for domain in path.domains] == ["S", "L", "X", "N", "D"]

    def test_links_exist_between_adjacent_domains(self):
        topology, path = figure1_topology()
        for upstream, downstream in path.inter_domain_pairs():
            assert topology.link_between(upstream, downstream) is not None

    def test_custom_prefix_pair_respected(self):
        pair = PrefixPair(
            source=OriginPrefix.parse("172.16.0.0/16"),
            destination=OriginPrefix.parse("172.17.0.0/16"),
        )
        _, path = figure1_topology(pair)
        assert path.prefix_pair == pair


def _topology_fingerprint(topology: Topology, paths) -> tuple:
    """A complete structural fingerprint: domains, HOPs, links, paths."""
    return (
        tuple(domain.name for domain in topology.domains),
        tuple((hop.hop_id, hop.domain.name, hop.role) for hop in topology.hops),
        tuple(
            sorted(
                (min(a.hop_id, b.hop_id), max(a.hop_id, b.hop_id))
                for a, b in (
                    (topology.hop(first), topology.hop(second))
                    for first, second in _link_keys(topology)
                )
            )
        ),
        tuple(
            (str(path.prefix_pair), tuple(hop.hop_id for hop in path.hops))
            for path in paths
        ),
    )


def _link_keys(topology: Topology):
    return list(topology._links)


class TestMeshTopologyGeneration:
    def test_same_seed_is_byte_identical(self):
        config = MeshTopologyConfig(
            transit_domains=3, stub_domains=4, transit_degree=2.5, path_count=6
        )
        first = generate_mesh_topology(config, seed=99)
        second = generate_mesh_topology(config, seed=99)
        assert _topology_fingerprint(*first) == _topology_fingerprint(*second)

    def test_different_seeds_differ(self):
        config = MeshTopologyConfig(
            transit_domains=4, stub_domains=5, transit_degree=2.5, path_count=8
        )
        fingerprints = {
            _topology_fingerprint(*generate_mesh_topology(config, seed=seed))
            for seed in range(6)
        }
        assert len(fingerprints) > 1

    def test_paths_have_distinct_prefix_pairs_and_valid_structure(self):
        topology, paths = generate_mesh_topology(
            MeshTopologyConfig(transit_domains=3, stub_domains=4, path_count=8),
            seed=3,
        )
        pairs = [path.prefix_pair for path in paths]
        assert len(set(pairs)) == len(pairs)
        for path in paths:
            # stubs at both ends, at least one transit segment in between
            assert path.hops[0].domain.name.startswith("S")
            assert path.hops[-1].domain.name.startswith("S")
            assert path.domain_segments()
            # every inter-domain hop pair is backed by a registered link
            for upstream, downstream in path.inter_domain_pairs():
                assert topology.link_between(upstream, downstream) is not None

    def test_zero_transit_domains_rejected(self):
        with pytest.raises(ValueError, match="at least one transit domain"):
            MeshTopologyConfig(transit_domains=0)

    def test_too_many_paths_rejected(self):
        with pytest.raises(ValueError, match="exceeds the 2 distinct ordered"):
            MeshTopologyConfig(stub_domains=2, path_count=3)

    def test_disconnected_prefix_pair_rejected(self):
        # No backbone, no chords: S1 on T1 and S2 on T2 cannot reach each other.
        config = MeshTopologyConfig(
            transit_domains=2,
            stub_domains=2,
            transit_degree=0.0,
            path_count=1,
            backbone="none",
            stub_attachment="round-robin",
        )
        with pytest.raises(ValueError, match="disconnected"):
            generate_mesh_topology(config, seed=0)

    def test_bad_backbone_rejected(self):
        with pytest.raises(ValueError, match="backbone"):
            MeshTopologyConfig(backbone="mesh")


class TestStarTopology:
    def test_structure_shares_core_hops_per_path(self):
        topology, paths = star_topology(path_count=3)
        assert len(paths) == 3
        assert {domain.name for domain in topology.domains} == {
            "X", "S1", "S2", "S3", "D1", "D2", "D3",
        }
        for path in paths:
            segments = path.domain_segments()
            assert [segment[0].name for segment in segments] == ["X"]

    def test_path_count_validation(self):
        with pytest.raises(ValueError, match="path_count"):
            star_topology(path_count=0)
