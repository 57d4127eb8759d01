"""Per-packet propagation and collection over packet objects.

:func:`run_path` is the object twin of
:meth:`~repro.simulation.scenario.PathScenario.run_batch`: it walks the
path's HOPs in order, applying each domain's condition and each link packet
by packet, and records every HOP's ``(packet, time)`` list and every domain's
per-uid ground truth.  It draws each model's RNG in the same order as the
vectorised stages, so for the same scenario seeds the two agree on who was
dropped where and on every observation time.  Segment predicates are the
engines' batch predicates, evaluated on a :class:`PacketBatch` of the
packets entering the domain.

:func:`run_session` feeds a one-path :class:`~repro.core.protocol.MeshSession` from a
:class:`PathObservation` through per-packet
:class:`~tests.oracle.collectors.ReferenceCollector` twins of its collectors
and returns its reports; :func:`run_oracle_reports` and
:func:`run_oracle_cell` do the same for a whole
:class:`~repro.api.ExperimentSpec` cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.api.runner import _build_cell, _summarize, lower_cell
from repro.core.domain import DomainAgent
from repro.core.hop import HOPCollector, HOPProcessor, HOPReport
from repro.core.protocol import MeshSession
from repro.net.packet import Packet
from repro.net.topology import HOP, Domain, HOPPath
from repro.simulation.scenario import PathScenario, SegmentCondition

from tests.helpers import batch_from_packets
from tests.oracle.collectors import ReferenceCollector

__all__ = [
    "DomainGroundTruth",
    "PathObservation",
    "assert_same_propagation",
    "observe_agent",
    "observe_sequence",
    "reorder",
    "run_oracle_cell",
    "run_oracle_reports",
    "run_path",
    "run_session",
]


@dataclass
class DomainGroundTruth:
    """True behaviour of one domain during a scenario run.

    ``delivered`` maps packet uid to (ingress time, egress time); ``lost`` is
    the set of uids dropped inside the domain.
    """

    domain: str
    delivered: dict[int, tuple[float, float]] = field(default_factory=dict)
    lost: set[int] = field(default_factory=set)

    @property
    def offered_packets(self) -> int:
        """Packets that entered the domain."""
        return len(self.delivered) + len(self.lost)

    @property
    def loss_rate(self) -> float:
        """True fraction of entering packets dropped inside the domain."""
        offered = self.offered_packets
        return len(self.lost) / offered if offered else 0.0

    def delays(self) -> np.ndarray:
        """True per-packet delays of the packets the domain delivered."""
        return np.asarray(
            [egress - ingress for ingress, egress in self.delivered.values()],
            dtype=float,
        )

    def delay_quantiles(self, quantiles: Sequence[float]) -> dict[float, float]:
        """True delay quantiles of the delivered packets."""
        delays = self.delays()
        if delays.size == 0:
            return {quantile: 0.0 for quantile in quantiles}
        quantiles = list(quantiles)
        return dict(zip(quantiles, np.quantile(delays, quantiles).tolist()))


@dataclass
class PathObservation:
    """The result of propagating a packet sequence along a path."""

    path: HOPPath
    observations: dict[int, list[tuple[Packet, float]]]
    domain_truth: dict[str, DomainGroundTruth]
    link_losses: dict[tuple[int, int], set[int]] = field(default_factory=dict)

    def at_hop(self, hop: HOP | int) -> list[tuple[Packet, float]]:
        """The ordered (packet, observation time) list at a HOP."""
        hop_id = hop.hop_id if isinstance(hop, HOP) else hop
        return self.observations[hop_id]

    def truth_for(self, domain: Domain | str) -> DomainGroundTruth:
        """Ground truth for one domain."""
        name = domain.name if isinstance(domain, Domain) else domain
        return self.domain_truth[name]


# -- propagation ---------------------------------------------------------------------


def run_path(scenario: PathScenario, packets: Sequence[Packet]) -> PathObservation:
    """Propagate ``packets`` along the scenario's path and record observations."""
    path = scenario.path
    domain_truth = {
        segment[0].name: DomainGroundTruth(domain=segment[0].name)
        for segment in path.domain_segments()
    }
    link_losses: dict[tuple[int, int], set[int]] = {}
    observations: dict[int, list[tuple[Packet, float]]] = {}

    # The source-edge HOP observes packets at their send times.
    current = sorted(((packet, packet.send_time) for packet in packets), key=lambda item: item[1])
    hops = path.hops
    for index, hop in enumerate(hops):
        observations[hop.hop_id] = list(current)
        if index + 1 >= len(hops):
            break
        next_hop = hops[index + 1]
        if hop.domain == next_hop.domain:
            current = _traverse_domain(
                scenario.condition_for(hop.domain), current, domain_truth[hop.domain.name]
            )
        else:
            link = scenario.topology.link_between(hop, next_hop)
            lost = link_losses.setdefault((hop.hop_id, next_hop.hop_id), set())
            current = _traverse_link(link, current, lost)
    return PathObservation(
        path=path, observations=observations, domain_truth=domain_truth, link_losses=link_losses
    )


def reorder(model, arrival_times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(order, new_times)``: ``model``'s perturbed times, stable-sorted.

    Position ``k`` of the output is the packet originally at ``order[k]``;
    untouched packets keep their relative order.
    """
    perturbed = model.perturb(np.asarray(arrival_times, dtype=float))
    order = np.argsort(perturbed, kind="stable")
    return order, perturbed[order]


def _predicate_mask(predicate, packets: list[Packet]) -> np.ndarray:
    if predicate is None or not packets:
        return np.zeros(len(packets), dtype=bool)
    return np.asarray(predicate(batch_from_packets(packets)), dtype=bool)


def _traverse_domain(
    condition: SegmentCondition,
    arrivals: list[tuple[Packet, float]],
    truth: DomainGroundTruth,
) -> list[tuple[Packet, float]]:
    if not arrivals:
        return []
    arrival_times = np.asarray([time for _, time in arrivals], dtype=float)
    delays = np.asarray(condition.delay_model.delays(arrival_times), dtype=float)
    packets = [packet for packet, _ in arrivals]
    preferential = _predicate_mask(condition.preferential_predicate, packets)
    targeted = _predicate_mask(condition.drop_predicate, packets)

    survivors: list[tuple[Packet, float]] = []
    consulted = 0
    for position, (packet, ingress_time) in enumerate(arrivals):
        if targeted[position]:
            truth.lost.add(packet.uid)
            continue
        if not preferential[position]:
            dropped = condition.loss_model.drops(consulted)
            consulted += 1
            if dropped:
                truth.lost.add(packet.uid)
                continue
        delay = condition.preferential_delay if preferential[position] else float(delays[position])
        egress_time = ingress_time + delay
        truth.delivered[packet.uid] = (ingress_time, egress_time)
        survivors.append((packet, egress_time))

    # Natural reordering from variable delays, then any extra reordering.
    survivors.sort(key=lambda item: item[1])
    order, perturbed = reorder(
        condition.reordering, np.asarray([time for _, time in survivors], dtype=float)
    )
    return [
        (survivors[int(original)][0], float(perturbed[output]))
        for output, original in enumerate(order)
    ]


def _traverse_link(link, arrivals: list[tuple[Packet, float]], lost: set[int]):
    transferred: list[tuple[Packet, float]] = []
    for packet, handoff_time in arrivals:
        arrival = link.transfer(handoff_time)
        if arrival is None:
            lost.add(packet.uid)
            continue
        transferred.append((packet, arrival))
    transferred.sort(key=lambda item: item[1])
    return transferred


# -- collection ----------------------------------------------------------------------


def observe_sequence(collector: HOPCollector, observations) -> ReferenceCollector:
    """A per-packet twin of ``collector`` fed an already-ordered ``(packet, time)`` list."""
    reference = ReferenceCollector(collector)
    reference.observe_sequence(observations)
    return reference


def observe_agent(agent: DomainAgent, observation: PathObservation) -> None:
    """Replace each of the agent's collectors with a reference fed its HOP's traffic.

    The agent reads its reports through one processor per HOP, so the swap
    installs the reference in both of the agent's tables.
    """
    for hop_id in agent.hop_ids:
        reference = observe_sequence(agent.collector(hop_id), observation.at_hop(hop_id))
        agent._collectors[hop_id] = reference
        agent._processors[hop_id] = HOPProcessor(reference)


def run_session(session: MeshSession, observation: PathObservation) -> dict[int, HOPReport]:
    """Feed every agent of ``session`` and collect the interval's reports."""
    for agent in session.agents.values():
        observe_agent(agent, observation)
    return session.collect_reports()


def _run_cell(spec):
    plan = lower_cell(spec)
    cell = _build_cell(spec, plan)
    trace = cell.traces[0]
    observation = run_path(cell.scenarios[0], trace.packet_batch().to_packets())
    reports = run_session(cell.session, observation)
    return plan, cell.session, observation, reports


def run_oracle_reports(spec) -> dict[int, HOPReport]:
    """The object path's receipts for an :class:`~repro.api.ExperimentSpec`."""
    return _run_cell(spec)[3]


def run_oracle_cell(spec):
    """The object path's :class:`~repro.api.results.CellResult` for a spec."""
    plan, session, observation, reports = _run_cell(spec)
    return _summarize(spec, plan, session, (observation.domain_truth,), reports).result


def assert_same_propagation(observation: PathObservation, batch_observation) -> None:
    """An object run and a batch run agree per HOP (uids, times) and per domain (truth)."""
    for hop in observation.path.hops:
        listed = observation.at_hop(hop)
        batch, times = batch_observation.at_hop(hop)
        assert [packet.uid for packet, _ in listed] == batch.uid.tolist()
        assert np.array_equal(np.array([moment for _, moment in listed]), times)
    for segment in observation.path.domain_segments():
        truth = observation.truth_for(segment[0])
        batch_truth = batch_observation.truth_for(segment[0])
        assert len(truth.lost) == batch_truth.lost_packets
        assert truth.offered_packets == batch_truth.offered_packets
        assert np.array_equal(truth.delays(), batch_truth.delays())
