"""Inter-domain links.

An inter-domain link connects a HOP of one domain to a HOP of a neighboring
domain.  Per the paper, such a link "is considered faulty when it introduces
loss or delay beyond a known specification"; the specification relevant to
receipt consistency is ``MaxDiff`` — the agreed upper bound on the timestamp
difference the two HOPs should observe for the same packet.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.util.rng import make_rng
from repro.util.validation import check_non_negative, check_probability

__all__ = ["LinkSpec", "InterDomainLink"]


@dataclass(frozen=True)
class LinkSpec:
    """The contractual specification of an inter-domain link.

    Attributes
    ----------
    max_diff:
        ``MaxDiff`` (seconds): the agreed bound on the timestamp difference
        between the delivering HOP and the receiving HOP for the same packet.
        It subsumes both the link's propagation delay and the residual clock
        offset between the two adjacent HOPs.
    nominal_delay:
        The link's nominal one-way propagation + transmission delay (seconds).
    """

    max_diff: float = 1e-3
    nominal_delay: float = 100e-6

    def __post_init__(self) -> None:
        check_non_negative("max_diff", self.max_diff)
        check_non_negative("nominal_delay", self.nominal_delay)


@dataclass
class InterDomainLink:
    """A (possibly faulty) inter-domain link between two adjacent HOPs.

    The link applies its nominal delay plus optional jitter to every packet,
    and may drop packets when configured as faulty.  A *healthy* link stays
    within its :class:`LinkSpec`; a faulty one exceeds ``MaxDiff`` or loses
    packets, which is exactly the ambiguity the paper's consistency check
    surfaces (an inconsistency is "either a lie or a faulty inter-domain
    link").

    Attributes
    ----------
    spec:
        The contractual :class:`LinkSpec`.
    loss_rate:
        Probability of dropping each packet on the link (0 for healthy links).
    excess_delay:
        Additional delay (seconds) applied on top of the nominal delay; a
        value pushing total delay beyond ``max_diff`` makes the link faulty.
    jitter_std:
        Standard deviation of per-packet delay jitter (seconds).
    """

    spec: LinkSpec = field(default_factory=LinkSpec)
    loss_rate: float = 0.0
    excess_delay: float = 0.0
    jitter_std: float = 0.0
    seed: int | np.random.Generator | None = None

    def __post_init__(self) -> None:
        check_probability("loss_rate", self.loss_rate)
        check_non_negative("excess_delay", self.excess_delay)
        check_non_negative("jitter_std", self.jitter_std)
        self._rng = make_rng(self.seed)

    def transfer(self, arrival_time: float) -> float | None:
        """Carry one packet handed off at ``arrival_time`` (true time).

        Returns the true time at which the packet arrives at the far HOP, or
        ``None`` if the link dropped the packet.
        """
        if self.loss_rate > 0.0 and self._rng.random() < self.loss_rate:
            return None
        delay = self.spec.nominal_delay + self.excess_delay
        if self.jitter_std > 0.0:
            delay += abs(float(self._rng.normal(0.0, self.jitter_std)))
        return arrival_time + delay

    def transfer_batch(self, arrival_times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`transfer` over an array of hand-off times.

        Returns ``(delivered_mask, far_times)`` where ``far_times`` holds the
        arrival times of the delivered packets only (in hand-off order).  When
        loss and jitter are both active the per-packet draws interleave, so
        that case falls back to the scalar loop to keep the RNG stream (and
        therefore the simulated outcome) identical either way.
        """
        times = np.asarray(arrival_times, dtype=np.float64)
        count = len(times)
        base_delay = self.spec.nominal_delay + self.excess_delay
        if self.loss_rate > 0.0 and self.jitter_std > 0.0:
            delivered = np.empty(count, dtype=bool)
            far_times = []
            for index in range(count):
                result = self.transfer(float(times[index]))
                delivered[index] = result is not None
                if result is not None:
                    far_times.append(result)
            return delivered, np.asarray(far_times, dtype=np.float64)
        if self.loss_rate > 0.0:
            delivered = ~(self._rng.random(count) < self.loss_rate)
        else:
            delivered = np.ones(count, dtype=bool)
        survivors = times[delivered]
        if self.jitter_std > 0.0:
            survivors = survivors + (
                base_delay + np.abs(self._rng.normal(0.0, self.jitter_std, size=len(survivors)))
            )
        else:
            survivors = survivors + base_delay
        return delivered, survivors
