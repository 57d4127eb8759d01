"""The path scenario: the Figure-1 experiment driver.

A :class:`PathScenario` propagates a packet sequence along a HOP path (by
default the Figure-1 path ``S → L → X → N → D``, HOPs 1..8), applying
per-domain conditions (loss, delay, reordering, optionally preferential
treatment of selected packets) and per-link conditions, and records

* the **observations** each HOP would make — the ordered (batch, times) pairs
  fed into the HOP collectors, and
* the **ground truth** — the true per-packet delay and loss introduced by
  every domain, against which the receipt-based estimates are evaluated.

This module contains no VPM logic; it is the substrate that stands in for the
paper's trace-driven methodology (trace + ns-2 delays + Gilbert-Elliott loss).

The traversal lives in the streaming stages of :mod:`repro.engine.streaming`,
and :meth:`PathScenario.domain_effects_batch` is the per-domain step of those
stages.  The engines drive it through
:class:`~repro.engine.streaming.StreamingRunner`, which feeds the collectors
as the stages emit; :meth:`PathScenario.run_batch` is the same stream run as
one whole-trace pass that keeps every HOP's observation, for code that
inspects propagation itself.

Scenarios are the engine layer under the declarative experiment API: every
spec cell drives the per-path scenarios of one
:class:`~repro.simulation.mesh.MeshScenario` (a single path is a one-path
mesh) over a :data:`repro.api.TOPOLOGIES` entry, with per-domain
:class:`SegmentCondition` values described by :class:`repro.api.ConditionSpec`.
A scenario holds no seed: its models and links draw from their own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.net.batch import PacketBatch
from repro.net.topology import Domain, HOP, HOPPath, Topology, figure1_topology
from repro.traffic.delay_models import ConstantDelayModel, DelayModel
from repro.traffic.loss_models import LossModel, NoLossModel
from repro.traffic.reordering import NoReordering, ReorderingModel

if TYPE_CHECKING:
    from repro.engine.streaming import StreamingTruth

__all__ = [
    "SegmentCondition",
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
        Optional predicate mapping a :class:`PacketBatch` to a boolean mask;
        matching packets are *never dropped* and receive
        ``preferential_delay`` instead of the modelled delay.
        This models a domain that treats an externally predictable set of
        packets preferentially (the sampling-bias attack of Section 3.2 /
        Section 5.1); for honest domains it is ``None``.
    preferential_delay:
        The delay given to preferentially treated packets (seconds).
    drop_predicate:
        Optional predicate mapping a :class:`PacketBatch` to a boolean mask;
        matching packets are always dropped inside the domain (on top of the
        loss model).  Used to model targeted
        attacks such as dropping all marker packets (Section 5.3).
    """

    delay_model: DelayModel = field(default_factory=lambda: ConstantDelayModel(0.5e-3))
    loss_model: LossModel = field(default_factory=NoLossModel)
    reordering: ReorderingModel = field(default_factory=NoReordering)
    preferential_predicate: Callable[[PacketBatch], np.ndarray] | None = None
    preferential_delay: float = 0.2e-3
    drop_predicate: Callable[[PacketBatch], np.ndarray] | None = None


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
    """

    def __init__(
        self,
        topology: Topology | None = None,
        path: HOPPath | None = None,
    ) -> None:
        if (topology is None) != (path is None):
            raise ValueError("provide both topology and path, or neither")
        if topology is None:
            topology, path = figure1_topology()
        self.topology = topology
        self.path = path
        self._segment_conditions: dict[str, SegmentCondition] = {}

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

    def run_batch(self, batch: PacketBatch) -> BatchPathObservation:
        """Propagate a columnar packet batch along the path in one pass.

        The send-time-sorted batch is the one and final chunk of a
        :class:`~repro.engine.streaming.ScenarioStream`
        (:meth:`~repro.engine.streaming.ScenarioStream.flush`), so per-domain
        delays, losses and reordering are applied with array operations,
        each model is called once on the whole series, and each HOP's
        observation is recorded as a (batch, times) pair — the same outcome
        the streaming engine reaches chunk by chunk.
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
                f"({len(batch)},); got dtype {mask.dtype}, shape {mask.shape}"
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
            # The loss model is only consulted for packets that are neither
            # preferential nor already dropped by the targeted predicate, in
            # arrival order.
            lost = targeted.copy()
            consulted = ~(preferential | targeted)
            lost[consulted] = condition.loss_model.drops_batch(0, int(consulted.sum()))
        else:
            lost = condition.loss_model.drops_batch(0, count)

        egress_times = np.where(
            preferential, arrival_times + condition.preferential_delay, arrival_times + delays
        )
        return lost, egress_times
