"""The sampling-bias (preferential treatment) attack of Section 3.2 / 5.1.

A congested domain wants its *measured* delay to look good while its actual
traffic suffers.  If the measurement protocol's sampled set is predictable
from a packet's contents (Trajectory Sampling ++), the domain simply forwards
the to-be-sampled packets through a fast path and lets everything else queue.
Against VPM's delay-keyed sampling the domain cannot know, at forwarding time,
which packets will be sampled — the best it can do is guess.

:class:`BiasedTreatmentAttack` builds the ``preferential_predicate`` installed
into the congested domain's :class:`~repro.simulation.scenario.SegmentCondition`:

* for a predictable protocol, the predicate is the protocol's own measurement
  predicate (perfect bias);
* for VPM, the attacker falls back to a random guess at the same budget
  (``guess_rate``), which cannot shift the estimate systematically.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.baselines.base import MeasurementProtocol
from repro.net.batch import PacketBatch
from repro.net.hashing import MASK64, PacketDigester, splitmix64_batch, threshold_for_rate
from repro.util.validation import check_fraction

__all__ = ["BiasedTreatmentAttack"]

#: A preferential-treatment predicate: a packet batch to its boolean mask.
BatchPredicate = Callable[[PacketBatch], np.ndarray]


class BiasedTreatmentAttack:
    """Builds the preferential-treatment predicate a biased domain applies.

    Parameters
    ----------
    digester:
        The protocol-wide packet digester (the attacker runs the same hash the
        protocol runs — it is public).
    guess_rate:
        The fraction of traffic the attacker is willing to fast-path when it
        cannot predict the measured set (its "budget"); matching the target
        sampling rate makes the comparison with the predictable case fair.
    guess_salt:
        Salt for the attacker's blind guess.
    """

    def __init__(
        self,
        digester: PacketDigester | None = None,
        guess_rate: float = 0.01,
        guess_salt: int = 0xBAD,
    ) -> None:
        check_fraction("guess_rate", guess_rate)
        self.digester = digester or PacketDigester()
        self.guess_rate = guess_rate
        self.guess_salt = guess_salt

    def predicate_against(self, protocol: MeasurementProtocol) -> BatchPredicate:
        """The best preferential-treatment predicate against ``protocol``."""
        if protocol.sampling_predictable:
            return self.predictable_predicate(protocol)
        return self.blind_guess_predicate()

    def predictable_predicate(self, protocol: MeasurementProtocol) -> BatchPredicate:
        """Fast-path exactly the packets the protocol will measure."""
        if not protocol.sampling_predictable:
            raise ValueError(f"{protocol.name} has no predictable measurement set")
        digester = self.digester

        def predicate(batch: PacketBatch) -> np.ndarray:
            digests = digester.digest_batch(batch).tolist()
            return np.fromiter(
                map(protocol.measurement_predicate, digests), dtype=bool, count=len(digests)
            )

        return predicate

    def blind_guess_predicate(self) -> BatchPredicate:
        """Fast-path a random ``guess_rate`` fraction of packets.

        The guess is a salted hash of the packet digest, so it is a fixed
        (but measurement-independent) subset — the strongest thing a domain
        can do against VPM without delaying all traffic by a marker period.
        """
        digester = self.digester
        threshold = np.uint64(threshold_for_rate(self.guess_rate))
        salt = np.uint64(self.guess_salt & MASK64)

        def predicate(batch: PacketBatch) -> np.ndarray:
            return splitmix64_batch(digester.digest_batch(batch) ^ salt) > threshold

        return predicate
