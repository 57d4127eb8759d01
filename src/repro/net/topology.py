"""Domains, hand-off points (HOPs), HOP paths and the topology graph.

Terminology follows Section 2 of the paper:

* A **domain** is a contiguous network under one administrative entity (an
  edge network or a single AS).
* A **HOP** (hand-off point) is an ingress/egress point on a domain's
  perimeter; adjacent domains' HOPs are connected by inter-domain links.
* A **HOP path** is the sequence of HOPs traversed by all traffic between a
  given (source, destination) origin-prefix pair; per Assumption 1, it is
  stable over the time scales VPM operates on.

The running example (Figure 1) — domains ``S``, ``L``, ``X``, ``N``, ``D``
connected through HOPs 1..8 — is constructed by :func:`figure1_topology`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from repro.net.clock import Clock, PerfectClock
from repro.net.link import InterDomainLink, LinkSpec
from repro.net.prefixes import OriginPrefix, PrefixPair
from repro.util.rng import make_rng

__all__ = [
    "Domain",
    "HOP",
    "HOPPath",
    "MeshTopologyConfig",
    "Topology",
    "figure1_topology",
    "generate_mesh_topology",
    "star_topology",
]


@dataclass(frozen=True)
class Domain:
    """An administrative domain (AS or edge network)."""

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("domain name must be non-empty")

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, eq=False)
class HOP:
    """A hand-off point on a domain's perimeter.

    ``hop_id`` is globally unique within a topology (the integer labels of
    Figure 1).  ``role`` records whether the HOP is the ingress or egress of
    its domain for the paths it serves; domains with a single HOP on a path
    (stub source/destination domains) use ``"edge"``.
    """

    hop_id: int
    domain: Domain
    role: str = "edge"
    clock: Clock = field(default_factory=PerfectClock)

    def __post_init__(self) -> None:
        if self.hop_id < 0:
            raise ValueError(f"hop_id must be non-negative, got {self.hop_id}")
        if self.role not in ("ingress", "egress", "edge"):
            raise ValueError(f"role must be ingress/egress/edge, got {self.role!r}")

    def __hash__(self) -> int:
        return hash(self.hop_id)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HOP):
            return NotImplemented
        return self.hop_id == other.hop_id

    def __str__(self) -> str:
        return f"HOP{self.hop_id}({self.domain.name}/{self.role})"


@dataclass(frozen=True)
class HOPPath:
    """An ordered sequence of HOPs between a source and destination prefix.

    The path is the unit over which receipts are classified (its identity is
    carried in every receipt's ``PathID``).  Consecutive HOPs belonging to
    *different* domains are connected by inter-domain links; consecutive HOPs
    of the same domain delimit that domain's internal segment.
    """

    prefix_pair: PrefixPair
    hops: tuple[HOP, ...]

    def __post_init__(self) -> None:
        if len(self.hops) < 2:
            raise ValueError("a HOP path needs at least two HOPs")
        ids = [hop.hop_id for hop in self.hops]
        if len(set(ids)) != len(ids):
            raise ValueError(f"HOP path contains duplicate HOPs: {ids}")

    def __len__(self) -> int:
        return len(self.hops)

    def __iter__(self) -> Iterator[HOP]:
        return iter(self.hops)

    @property
    def domains(self) -> tuple[Domain, ...]:
        """The distinct domains traversed, in path order."""
        seen: list[Domain] = []
        for hop in self.hops:
            if not seen or seen[-1] != hop.domain:
                seen.append(hop.domain)
        return tuple(seen)

    def hops_of(self, domain: Domain | str) -> tuple[HOP, ...]:
        """Return the HOPs on this path that belong to ``domain``."""
        name = domain.name if isinstance(domain, Domain) else domain
        return tuple(hop for hop in self.hops if hop.domain.name == name)

    def domain_segments(self) -> list[tuple[Domain, HOP, HOP]]:
        """Return (domain, ingress HOP, egress HOP) for every transit domain.

        A transit domain exposes two HOPs on the path; its loss and delay are
        measured between them.  Stub domains (one HOP) are excluded since the
        path does not cross them edge-to-edge.
        """
        segments: list[tuple[Domain, HOP, HOP]] = []
        index = 0
        while index < len(self.hops) - 1:
            first = self.hops[index]
            second = self.hops[index + 1]
            if first.domain == second.domain:
                segments.append((first.domain, first, second))
                index += 2
            else:
                index += 1
        return segments

    def inter_domain_pairs(self) -> list[tuple[HOP, HOP]]:
        """Return the adjacent HOP pairs connected by inter-domain links."""
        pairs: list[tuple[HOP, HOP]] = []
        for first, second in zip(self.hops, self.hops[1:]):
            if first.domain != second.domain:
                pairs.append((first, second))
        return pairs

    def __str__(self) -> str:
        chain = " -> ".join(str(hop.hop_id) for hop in self.hops)
        return f"HOPPath[{self.prefix_pair}: {chain}]"


class Topology:
    """A collection of domains, HOPs, inter-domain links and HOP paths."""

    def __init__(self) -> None:
        self._domains: dict[str, Domain] = {}
        self._hops: dict[int, HOP] = {}
        self._links: dict[tuple[int, int], InterDomainLink] = {}
        self._paths: dict[PrefixPair, HOPPath] = {}

    # -- construction -----------------------------------------------------

    def add_domain(self, name: str) -> Domain:
        """Create (or return an existing) domain by name."""
        if name not in self._domains:
            self._domains[name] = Domain(name)
        return self._domains[name]

    def add_hop(
        self,
        hop_id: int,
        domain: Domain | str,
        role: str = "edge",
        clock: Clock | None = None,
    ) -> HOP:
        """Register a HOP with a globally unique identifier."""
        if hop_id in self._hops:
            raise ValueError(f"HOP id {hop_id} already registered")
        owner = self.add_domain(domain) if isinstance(domain, str) else domain
        hop = HOP(hop_id=hop_id, domain=owner, role=role, clock=clock or PerfectClock())
        self._hops[hop_id] = hop
        return hop

    def add_link(
        self,
        first: HOP | int,
        second: HOP | int,
        link: InterDomainLink | None = None,
    ) -> InterDomainLink:
        """Connect two HOPs of different domains with an inter-domain link."""
        hop_a = self.hop(first)
        hop_b = self.hop(second)
        if hop_a.domain == hop_b.domain:
            raise ValueError(
                f"inter-domain links connect different domains; both HOPs are in "
                f"{hop_a.domain.name}"
            )
        edge = link or InterDomainLink(spec=LinkSpec())
        key = (min(hop_a.hop_id, hop_b.hop_id), max(hop_a.hop_id, hop_b.hop_id))
        self._links[key] = edge
        return edge

    def add_path(self, prefix_pair: PrefixPair, hops: Iterable[HOP | int]) -> HOPPath:
        """Register the HOP path followed by traffic of ``prefix_pair``."""
        resolved = tuple(self.hop(entry) for entry in hops)
        path = HOPPath(prefix_pair=prefix_pair, hops=resolved)
        self._paths[prefix_pair] = path
        return path

    # -- lookups ----------------------------------------------------------

    def domain(self, name: str) -> Domain:
        """Return a domain by name, raising ``KeyError`` if unknown."""
        return self._domains[name]

    def hop(self, ref: HOP | int) -> HOP:
        """Resolve a HOP reference (object or id) to the registered HOP."""
        if isinstance(ref, HOP):
            if ref.hop_id not in self._hops:
                raise KeyError(f"HOP {ref.hop_id} is not part of this topology")
            return self._hops[ref.hop_id]
        return self._hops[ref]

    def link_between(self, first: HOP | int, second: HOP | int) -> InterDomainLink:
        """Return the inter-domain link connecting two HOPs."""
        hop_a = self.hop(first)
        hop_b = self.hop(second)
        key = (min(hop_a.hop_id, hop_b.hop_id), max(hop_a.hop_id, hop_b.hop_id))
        return self._links[key]

    def path(self, prefix_pair: PrefixPair) -> HOPPath:
        """Return the HOP path registered for a prefix pair."""
        return self._paths[prefix_pair]

    @property
    def domains(self) -> tuple[Domain, ...]:
        return tuple(self._domains.values())

    @property
    def hops(self) -> tuple[HOP, ...]:
        return tuple(self._hops.values())

    @property
    def paths(self) -> tuple[HOPPath, ...]:
        return tuple(self._paths.values())


def figure1_topology(prefix_pair: PrefixPair | None = None) -> tuple[Topology, HOPPath]:
    """Build the Figure-1 topology and its main HOP path.

    Domain ``S`` sends to domain ``D`` via HOPs 1..8:
    ``S``(1) → ``L``(2, 3) → ``X``(4, 5) → ``N``(6, 7) → ``D``(8).

    Returns the topology and the registered path.
    """
    pair = prefix_pair or PrefixPair(
        source=OriginPrefix.parse("10.1.0.0/16"),
        destination=OriginPrefix.parse("10.2.0.0/16"),
    )
    topology = Topology()
    layout = [
        (1, "S", "edge"),
        (2, "L", "ingress"),
        (3, "L", "egress"),
        (4, "X", "ingress"),
        (5, "X", "egress"),
        (6, "N", "ingress"),
        (7, "N", "egress"),
        (8, "D", "edge"),
    ]
    for hop_id, domain, role in layout:
        topology.add_hop(hop_id, domain, role)
    for first, second in ((1, 2), (3, 4), (5, 6), (7, 8)):
        topology.add_link(first, second)
    path = topology.add_path(pair, [hop_id for hop_id, _, _ in layout])
    return topology, path


# -- mesh topologies ------------------------------------------------------------------
#
# The paper's setting (Section 2, Figure 1) is a *mesh*: each HOP sits on a
# domain's perimeter and aggregates traffic of many (source, destination)
# prefix pairs at once.  The generators below produce such meshes: every
# domain-level adjacency gets one HOP on each side, and every path crossing
# that adjacency reuses the same two HOPs — so paths genuinely share HOPs,
# and a shared HOP's collector observes the union of their traffic.


def _stub_prefix(index: int) -> OriginPrefix:
    """The /16 origin prefix advertised by the ``index``-th stub domain.

    Distinct second octets make every stub's prefix disjoint, so a packet's
    (source, destination) addresses classify it into exactly one path.
    """
    if not 0 <= index < 254:
        raise ValueError(f"at most 254 stub domains are supported, got index {index}")
    return OriginPrefix(network=(10 << 24) | ((index + 1) << 16), length=16)


@dataclass(frozen=True)
class MeshTopologyConfig:
    """Parameters of a seeded random transit/stub mesh.

    Attributes
    ----------
    transit_domains:
        Number of transit (backbone) domains ``T1..Tn``.
    stub_domains:
        Number of stub (edge) domains ``S1..Sm``; each advertises its own
        /16 origin prefix and attaches to one transit provider.
    transit_degree:
        Target mean degree of the transit graph.  The backbone contributes
        its edges first; random chords are added until the target is met
        (or the graph is complete).
    path_count:
        Number of HOP paths to select, each for a distinct ordered
        (source stub, destination stub) prefix pair.
    backbone:
        ``"ring"`` connects the transit domains in a cycle before adding
        chords (always connected); ``"none"`` relies on chords alone, which
        can leave prefix pairs disconnected — a configuration error this
        generator reports rather than papers over.
    stub_attachment:
        ``"random"`` draws each stub's provider uniformly; ``"round-robin"``
        assigns stub ``Sk`` to transit ``T(k mod n)`` deterministically.
    """

    transit_domains: int = 4
    stub_domains: int = 4
    transit_degree: float = 2.0
    path_count: int = 4
    backbone: str = "ring"
    stub_attachment: str = "random"

    def __post_init__(self) -> None:
        if self.transit_domains < 1:
            raise ValueError(
                f"a mesh needs at least one transit domain, got {self.transit_domains}"
            )
        if self.stub_domains < 2:
            raise ValueError(
                f"a mesh needs at least two stub domains (a source and a "
                f"destination), got {self.stub_domains}"
            )
        if self.stub_domains > 254:
            raise ValueError(
                f"at most 254 stub domains are supported (one /16 each under "
                f"10.0.0.0/8), got {self.stub_domains}"
            )
        if self.transit_degree < 0:
            raise ValueError(f"transit_degree must be >= 0, got {self.transit_degree}")
        if self.path_count < 1:
            raise ValueError(f"path_count must be >= 1, got {self.path_count}")
        limit = self.stub_domains * (self.stub_domains - 1)
        if self.path_count > limit:
            raise ValueError(
                f"path_count {self.path_count} exceeds the {limit} distinct ordered "
                f"stub pairs available with {self.stub_domains} stub domains"
            )
        if self.backbone not in ("ring", "none"):
            raise ValueError(f"backbone must be 'ring' or 'none', got {self.backbone!r}")
        if self.stub_attachment not in ("random", "round-robin"):
            raise ValueError(
                f"stub_attachment must be 'random' or 'round-robin', "
                f"got {self.stub_attachment!r}"
            )


def _transit_edges(
    config: MeshTopologyConfig, rng: np.random.Generator
) -> list[tuple[int, int]]:
    """The transit-graph edge list (pairs of transit indices, each a < b)."""
    count = config.transit_domains
    edges: set[tuple[int, int]] = set()
    if config.backbone == "ring" and count >= 2:
        for index in range(count - 1):
            edges.add((index, index + 1))
        if count >= 3:
            edges.add((0, count - 1))
    target = int(round(count * config.transit_degree / 2.0))
    candidates = [
        (a, b)
        for a in range(count)
        for b in range(a + 1, count)
        if (a, b) not in edges
    ]
    missing = min(max(0, target - len(edges)), len(candidates))
    if missing:
        chosen = rng.choice(len(candidates), size=missing, replace=False)
        for position in sorted(int(entry) for entry in chosen):
            edges.add(candidates[position])
    return sorted(edges)


def _transit_route(
    adjacency: dict[int, list[int]], source: int, destination: int
) -> list[int] | None:
    """Shortest transit route (BFS, deterministic neighbor order), or ``None``."""
    if source == destination:
        return [source]
    parents: dict[int, int] = {source: source}
    frontier = [source]
    while frontier:
        next_frontier: list[int] = []
        for node in frontier:
            for neighbor in adjacency.get(node, ()):
                if neighbor in parents:
                    continue
                parents[neighbor] = node
                if neighbor == destination:
                    route = [destination]
                    while route[-1] != source:
                        route.append(parents[route[-1]])
                    return route[::-1]
                next_frontier.append(neighbor)
        frontier = next_frontier
    return None


def generate_mesh_topology(
    config: MeshTopologyConfig | None = None,
    seed: int | np.random.Generator | None = 0,
) -> tuple[Topology, tuple[HOPPath, ...]]:
    """Generate a seeded random transit/stub mesh and its HOP paths.

    The same ``(config, seed)`` always produces a byte-identical topology:
    the same domains, HOP ids, links, prefix pairs and path selections.
    Every domain-level adjacency contributes exactly one HOP per side, shared
    by all paths crossing it, so paths through a common transit domain share
    HOPs (the setting the mesh engines and the isolation-parity tests drive).

    Raises
    ------
    ValueError
        On degenerate configurations (see :class:`MeshTopologyConfig`) and
        when a selected prefix pair's stubs are disconnected in the transit
        graph (possible only with ``backbone="none"``).
    """
    config = config or MeshTopologyConfig()
    rng = make_rng(seed)
    transit_names = [f"T{index + 1}" for index in range(config.transit_domains)]
    stub_names = [f"S{index + 1}" for index in range(config.stub_domains)]

    edges = _transit_edges(config, rng)
    adjacency: dict[int, list[int]] = {index: [] for index in range(config.transit_domains)}
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    for neighbors in adjacency.values():
        neighbors.sort()

    if config.stub_attachment == "round-robin":
        providers = [index % config.transit_domains for index in range(config.stub_domains)]
    else:
        providers = [
            int(rng.integers(0, config.transit_domains))
            for _ in range(config.stub_domains)
        ]

    # Materialize the topology: HOP ids are assigned by enumerating the
    # domain-level adjacencies in a fixed order (transit-transit edges first,
    # then stub uplinks), two HOPs per adjacency.
    topology = Topology()
    for name in transit_names + stub_names:
        topology.add_domain(name)
    hop_toward: dict[tuple[str, str], HOP] = {}
    next_hop_id = 1
    domain_edges = [(transit_names[a], transit_names[b]) for a, b in edges] + [
        (stub_names[index], transit_names[providers[index]])
        for index in range(config.stub_domains)
    ]
    for near_name, far_name in domain_edges:
        near_role = "edge" if near_name.startswith("S") else "egress"
        far_role = "edge" if far_name.startswith("S") else "ingress"
        near = topology.add_hop(next_hop_id, near_name, near_role)
        far = topology.add_hop(next_hop_id + 1, far_name, far_role)
        next_hop_id += 2
        hop_toward[(near_name, far_name)] = near
        hop_toward[(far_name, near_name)] = far
        topology.add_link(near, far)

    # Select path_count distinct ordered stub pairs (seeded permutation of the
    # deterministic enumeration), then route each through the transit graph.
    ordered_pairs = [
        (source, destination)
        for source in range(config.stub_domains)
        for destination in range(config.stub_domains)
        if source != destination
    ]
    permutation = rng.permutation(len(ordered_pairs))
    chosen = [ordered_pairs[int(position)] for position in permutation[: config.path_count]]

    paths: list[HOPPath] = []
    for source_stub, destination_stub in chosen:
        route = _transit_route(
            adjacency, providers[source_stub], providers[destination_stub]
        )
        if route is None:
            raise ValueError(
                f"prefix pair {stub_names[source_stub]} -> "
                f"{stub_names[destination_stub]} is disconnected: transit domains "
                f"{transit_names[providers[source_stub]]} and "
                f"{transit_names[providers[destination_stub]]} have no route "
                f"(backbone={config.backbone!r}, "
                f"transit_degree={config.transit_degree}); use backbone='ring' "
                f"or raise transit_degree"
            )
        domain_route = (
            [stub_names[source_stub]]
            + [transit_names[index] for index in route]
            + [stub_names[destination_stub]]
        )
        hops: list[HOP] = [hop_toward[(domain_route[0], domain_route[1])]]
        for position in range(1, len(domain_route) - 1):
            here = domain_route[position]
            hops.append(hop_toward[(here, domain_route[position - 1])])
            hops.append(hop_toward[(here, domain_route[position + 1])])
        hops.append(hop_toward[(domain_route[-1], domain_route[-2])])
        pair = PrefixPair(
            source=_stub_prefix(source_stub),
            destination=_stub_prefix(destination_stub),
        )
        paths.append(topology.add_path(pair, hops))
    return topology, tuple(paths)


def star_topology(path_count: int = 3) -> tuple[Topology, tuple[HOPPath, ...]]:
    """A core-and-spokes mesh: every path crosses the single transit core ``X``.

    Path ``i`` runs ``Si -> X -> Di`` through its own ingress/egress HOPs on
    ``X``'s perimeter.  Because all paths share the core but each leaves it
    toward a *different* neighbor, a lying ``X`` implicates a different link
    pair on every path — the cleanest setting for cross-path triangulation
    (see :func:`repro.analysis.localization.triangulate_suspects`).
    """
    if path_count < 1:
        raise ValueError(f"path_count must be >= 1, got {path_count}")
    if path_count > 127:
        raise ValueError(f"at most 127 star paths are supported, got {path_count}")
    topology = Topology()
    topology.add_domain("X")
    paths: list[HOPPath] = []
    next_hop_id = 1
    for index in range(path_count):
        source_name = f"S{index + 1}"
        destination_name = f"D{index + 1}"
        source = topology.add_hop(next_hop_id, source_name, "edge")
        core_in = topology.add_hop(next_hop_id + 1, "X", "ingress")
        core_out = topology.add_hop(next_hop_id + 2, "X", "egress")
        destination = topology.add_hop(next_hop_id + 3, destination_name, "edge")
        next_hop_id += 4
        topology.add_link(source, core_in)
        topology.add_link(core_out, destination)
        pair = PrefixPair(
            source=_stub_prefix(index),
            destination=_stub_prefix(path_count + index),
        )
        paths.append(topology.add_path(pair, [source, core_in, core_out, destination]))
    return topology, tuple(paths)
