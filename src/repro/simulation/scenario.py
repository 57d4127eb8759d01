"""The path scenario: the Figure-1 experiment driver.

A :class:`PathScenario` propagates a packet sequence along a HOP path (by
default the Figure-1 path ``S → L → X → N → D``, HOPs 1..8), applying
per-domain conditions (loss, delay, reordering, optionally preferential
treatment of selected packets) and per-link conditions, and records

* the **observations** each HOP would make — the ordered (packet, time) lists
  fed into the HOP collectors, and
* the **ground truth** — the true per-packet delay and loss introduced by
  every domain, against which the receipt-based estimates are evaluated.

This module contains no VPM logic; it is the substrate that stands in for the
paper's trace-driven methodology (trace + ns-2 delays + Gilbert-Elliott loss).

There are two traversals.  :meth:`PathScenario.run` is the per-packet object
path, the oracle.  The vectorised one lives in the streaming stages of
:mod:`repro.engine.streaming`, and :meth:`PathScenario.domain_effects_batch`
is the per-domain step of those stages.  The engines drive it through
:class:`~repro.engine.streaming.StreamingRunner`, which feeds the collectors
as the stages emit; :meth:`PathScenario.run_batch` is the same stream run as
one whole-trace pass that keeps every HOP's observation, for code that
inspects propagation itself.

Scenarios are the engine layer under the declarative experiment API: the
Figure-1 builder is registered as the ``"figure1"`` scenario in
:mod:`repro.api.registry`, per-domain :class:`SegmentCondition` values are
described by :class:`repro.api.ConditionSpec`, and alternative topologies plug
in via :func:`repro.api.register_scenario`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.net.batch import PacketBatch
from repro.net.packet import Packet
from repro.net.topology import Domain, HOP, HOPPath, Topology, figure1_topology
from repro.traffic.delay_models import ConstantDelayModel, DelayModel
from repro.traffic.loss_models import LossModel, NoLossModel
from repro.traffic.reordering import NoReordering, ReorderingModel
from repro.util.rng import make_rng

if TYPE_CHECKING:
    from repro.engine.streaming import StreamingTruth

__all__ = [
    "SegmentCondition",
    "DomainGroundTruth",
    "PathObservation",
    "BatchPathObservation",
    "PathScenario",
]


@dataclass
class SegmentCondition:
    """The forwarding behaviour of one domain's internal segment.

    Attributes
    ----------
    delay_model:
        Produces the per-packet delay between the domain's ingress and egress
        HOPs.
    loss_model:
        Decides which packets the domain drops internally.
    reordering:
        Additional reordering applied at the egress (on top of any natural
        reordering caused by variable delays).
    preferential_predicate:
        Optional predicate over packets; matching packets are *never dropped*
        and receive ``preferential_delay`` instead of the modelled delay.
        This models a domain that treats an externally predictable set of
        packets preferentially (the sampling-bias attack of Section 3.2 /
        Section 5.1); for honest domains it is ``None``.
    preferential_delay:
        The delay given to preferentially treated packets (seconds).
    drop_predicate:
        Optional predicate over packets; matching packets are always dropped
        inside the domain (on top of the loss model).  Used to model targeted
        attacks such as dropping all marker packets (Section 5.3).
    """

    delay_model: DelayModel = field(default_factory=lambda: ConstantDelayModel(0.5e-3))
    loss_model: LossModel = field(default_factory=NoLossModel)
    reordering: ReorderingModel = field(default_factory=NoReordering)
    preferential_predicate: Callable[[Packet], bool] | None = None
    preferential_delay: float = 0.2e-3
    drop_predicate: Callable[[Packet], bool] | None = None


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


@dataclass
class BatchPathObservation:
    """Columnar result of propagating a packet batch along a path.

    Per HOP, the observation is a (:class:`PacketBatch`, true-times array)
    pair in observation order — exactly what
    :meth:`repro.core.hop.HOPCollector.observe_batch` consumes.  Ground truth
    is the streaming engine's columnar
    :class:`~repro.engine.streaming.StreamingTruth` (counts and true delays,
    no per-uid maps).
    """

    path: HOPPath
    batches: dict[int, PacketBatch]
    times: dict[int, np.ndarray]
    domain_truth: dict[str, StreamingTruth]
    link_losses: dict[tuple[int, int], set[int]] = field(default_factory=dict)

    def at_hop(self, hop: HOP | int) -> tuple[PacketBatch, np.ndarray]:
        """The (batch, observation times) pair observed at a HOP."""
        hop_id = hop.hop_id if isinstance(hop, HOP) else hop
        return self.batches[hop_id], self.times[hop_id]

    def truth_for(self, domain: Domain | str) -> StreamingTruth:
        """Ground truth for one domain."""
        name = domain.name if isinstance(domain, Domain) else domain
        return self.domain_truth[name]


class PathScenario:
    """Propagates traffic along a HOP path under configurable conditions.

    Parameters
    ----------
    topology, path:
        The topology and the HOP path to drive.  When omitted, the Figure-1
        topology is built.
    seed:
        Master seed; per-domain and per-link randomness is derived from it.
    """

    def __init__(
        self,
        topology: Topology | None = None,
        path: HOPPath | None = None,
        seed: int = 0,
    ) -> None:
        if (topology is None) != (path is None):
            raise ValueError("provide both topology and path, or neither")
        if topology is None:
            topology, path = figure1_topology()
        self.topology = topology
        self.path = path
        self.seed = int(seed)
        self._segment_conditions: dict[str, SegmentCondition] = {}
        self._rng = make_rng(seed)

    # -- configuration -----------------------------------------------------------

    def configure_domain(self, domain: Domain | str, condition: SegmentCondition) -> None:
        """Set the internal forwarding behaviour of a transit domain."""
        name = domain.name if isinstance(domain, Domain) else domain
        transit_names = {segment[0].name for segment in self.path.domain_segments()}
        if name not in transit_names:
            raise ValueError(
                f"domain {name!r} is not a transit domain of {self.path} "
                f"(transit domains: {sorted(transit_names)})"
            )
        self._segment_conditions[name] = condition

    def condition_for(self, domain: Domain | str) -> SegmentCondition:
        """The configured (or default) condition of a transit domain."""
        name = domain.name if isinstance(domain, Domain) else domain
        return self._segment_conditions.get(name, SegmentCondition())

    # -- execution ----------------------------------------------------------------

    def run(self, packets: Sequence[Packet]) -> PathObservation:
        """Propagate ``packets`` along the path and record observations."""
        observations: dict[int, list[tuple[Packet, float]]] = {
            hop.hop_id: [] for hop in self.path.hops
        }
        domain_truth: dict[str, DomainGroundTruth] = {
            segment[0].name: DomainGroundTruth(domain=segment[0].name)
            for segment in self.path.domain_segments()
        }
        link_losses: dict[tuple[int, int], set[int]] = {}

        # The source-edge HOP observes packets at their send times.
        current: list[tuple[Packet, float]] = sorted(
            ((packet, packet.send_time) for packet in packets), key=lambda item: item[1]
        )

        hops = self.path.hops
        for index, hop in enumerate(hops):
            observations[hop.hop_id] = list(current)
            if index + 1 >= len(hops):
                break
            next_hop = hops[index + 1]
            if hop.domain == next_hop.domain:
                current = self._traverse_domain(hop.domain, current, domain_truth)
            else:
                current = self._traverse_link(hop, next_hop, current, link_losses)

        return PathObservation(
            path=self.path,
            observations=observations,
            domain_truth=domain_truth,
            link_losses=link_losses,
        )

    def run_batch(self, batch: PacketBatch) -> BatchPathObservation:
        """Propagate a columnar packet batch along the path in one pass.

        The batch twin of :meth:`run`: the send-time-sorted batch is the one
        and final chunk of a :class:`~repro.engine.streaming.ScenarioStream`
        (:meth:`~repro.engine.streaming.ScenarioStream.flush`), so per-domain
        delays, losses and reordering are applied with array operations,
        each model is called once on the whole series, and each HOP's
        observation is recorded as a (batch, times) pair.  For honest
        conditions (no per-packet predicates) the simulated outcome — who was
        dropped where and every observation timestamp — is identical to
        :meth:`run` on the equivalent packet list, because both paths consume
        the same RNG streams in the same order.

        ``preferential_predicate`` / ``drop_predicate`` are supported, but in
        batch runs they are called once with the whole :class:`PacketBatch`
        and must return a boolean mask (a per-packet predicate written for
        :class:`Packet` objects belongs to the object path).
        """
        from repro.engine.streaming import ScenarioStream

        order = np.argsort(batch.send_time, kind="stable")
        stream = ScenarioStream(self)
        emissions = stream.flush(batch.take(order))
        return BatchPathObservation(
            path=self.path,
            batches={hop_id: span for hop_id, span, _ in emissions},
            times={hop_id: times for hop_id, _, times in emissions},
            domain_truth=stream.domain_truth,
            link_losses=stream.link_losses,
        )

    # -- internals ------------------------------------------------------------------

    @staticmethod
    def _predicate_mask(predicate, batch: PacketBatch, name: str) -> np.ndarray:
        """Evaluate a batch predicate and validate the returned mask."""
        mask = np.asarray(predicate(batch))
        if mask.dtype != np.bool_ or mask.shape != (len(batch),):
            raise TypeError(
                f"{name} must map a PacketBatch to a boolean mask of shape "
                f"({len(batch)},); got dtype {mask.dtype}, shape {mask.shape}. "
                "Per-packet predicates belong to PathScenario.run()."
            )
        return mask

    def domain_effects_batch(
        self, condition: SegmentCondition, batch: PacketBatch, arrival_times: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Apply a domain condition to one contiguous span of arrivals.

        Returns ``(lost_mask, egress_times)``.  Consumes each model's RNG
        sequentially in arrival order, so feeding a stream through this in
        consecutive chunks draws exactly what one whole-stream call would —
        the contract the streaming engine (:mod:`repro.engine`) builds on.
        """
        count = len(batch)
        delays = np.asarray(condition.delay_model.delays(arrival_times), dtype=float)
        if len(delays) != count:
            raise ValueError(
                f"delay model returned {len(delays)} delays for {count} packets"
            )

        if condition.preferential_predicate is not None:
            preferential = self._predicate_mask(
                condition.preferential_predicate, batch, "preferential_predicate"
            )
        else:
            preferential = np.zeros(count, dtype=bool)
        if condition.drop_predicate is not None:
            targeted = self._predicate_mask(condition.drop_predicate, batch, "drop_predicate")
        else:
            targeted = np.zeros(count, dtype=bool)

        if preferential.any() or targeted.any():
            # Mirror the scalar path's draw order exactly: the loss model is
            # only consulted for packets that are neither preferential nor
            # already dropped by the targeted predicate, in arrival order.
            lost = targeted.copy()
            consulted = ~(preferential | targeted)
            lost[consulted] = condition.loss_model.drops_batch(0, int(consulted.sum()))
        else:
            lost = condition.loss_model.drops_batch(0, count)

        egress_times = np.where(
            preferential, arrival_times + condition.preferential_delay, arrival_times + delays
        )
        return lost, egress_times

    def _traverse_domain(
        self,
        domain: Domain,
        arrivals: list[tuple[Packet, float]],
        domain_truth: dict[str, DomainGroundTruth],
    ) -> list[tuple[Packet, float]]:
        condition = self.condition_for(domain)
        truth = domain_truth[domain.name]
        if not arrivals:
            return []

        arrival_times = np.asarray([time for _, time in arrivals], dtype=float)
        delays = np.asarray(condition.delay_model.delays(arrival_times), dtype=float)
        if len(delays) != len(arrivals):
            raise ValueError(
                f"delay model returned {len(delays)} delays for {len(arrivals)} packets"
            )

        survivors: list[tuple[Packet, float]] = []
        predicate = condition.preferential_predicate
        drop_predicate = condition.drop_predicate
        loss_model = condition.loss_model
        for position, (packet, ingress_time) in enumerate(arrivals):
            preferential = predicate is not None and predicate(packet)
            targeted_drop = drop_predicate is not None and drop_predicate(packet)
            if targeted_drop or (not preferential and loss_model.drops(position)):
                truth.lost.add(packet.uid)
                continue
            delay = condition.preferential_delay if preferential else float(delays[position])
            egress_time = ingress_time + delay
            truth.delivered[packet.uid] = (ingress_time, egress_time)
            survivors.append((packet, egress_time))

        # Natural reordering from variable delays, then any extra reordering.
        survivors.sort(key=lambda item: item[1])
        egress_times = np.asarray([time for _, time in survivors], dtype=float)
        order, perturbed_times = condition.reordering.apply(egress_times)
        return [
            (survivors[int(original_index)][0], float(perturbed_times[output_index]))
            for output_index, original_index in enumerate(order)
        ]

    def _traverse_link(
        self,
        upstream: HOP,
        downstream: HOP,
        arrivals: list[tuple[Packet, float]],
        link_losses: dict[tuple[int, int], set[int]],
    ) -> list[tuple[Packet, float]]:
        link = self.topology.link_between(upstream, downstream)
        key = (upstream.hop_id, downstream.hop_id)
        lost = link_losses.setdefault(key, set())
        transferred: list[tuple[Packet, float]] = []
        for packet, handoff_time in arrivals:
            arrival = link.transfer(handoff_time)
            if arrival is None:
                lost.add(packet.uid)
                continue
            transferred.append((packet, arrival))
        transferred.sort(key=lambda item: item[1])
        return transferred
