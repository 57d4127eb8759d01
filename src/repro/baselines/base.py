"""Common interface of the Section-3 baseline protocols.

A measurement protocol monitors one domain edge-to-edge: it observes the
packet stream at the domain's ingress HOP and at its egress HOP and produces
an estimate of the loss and delay the domain introduced, together with the
receipt bytes it would have to disseminate to do so.

Every protocol is driven by the same per-packet ``observe_*`` calls (a digest
and the monitor's timestamp, in observation order), so the comparison
benchmark can run every protocol over exactly the same observations; the VPM
adapter collects them and feeds the core's batch collectors.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Sequence

__all__ = ["ProtocolEstimate", "MeasurementProtocol"]


@dataclass(frozen=True)
class ProtocolEstimate:
    """What a protocol could compute for one domain over one interval.

    ``None`` fields mean the protocol *cannot* provide that statistic (e.g.
    the Difference Aggregator cannot provide delay quantiles) — exactly the
    computability gaps Section 3 points out.
    """

    protocol: str
    loss_rate: float | None
    mean_delay: float | None
    delay_quantiles: dict[float, float] | None
    receipt_bytes: int
    observed_packets: int
    notes: str = ""

    @property
    def receipt_bytes_per_packet(self) -> float:
        """Receipt bytes per observed packet (both monitors combined)."""
        return self.receipt_bytes / self.observed_packets if self.observed_packets else 0.0


class MeasurementProtocol(abc.ABC):
    """A two-monitor (ingress/egress) measurement protocol for one domain."""

    #: Human-readable protocol name used in benchmark tables.
    name: str = "abstract"
    #: Whether an on-path domain can predict, at forwarding time, which
    #: packets the protocol will base its measurements on.  Predictable
    #: sampling is what makes a protocol vulnerable to the preferential
    #: treatment attack of Section 3.2.
    sampling_predictable: bool = False

    @abc.abstractmethod
    def observe_ingress(self, digest: int, time: float) -> None:
        """Process one packet observed at the domain's ingress HOP."""

    @abc.abstractmethod
    def observe_egress(self, digest: int, time: float) -> None:
        """Process one packet observed at the domain's egress HOP."""

    @abc.abstractmethod
    def estimate(self) -> ProtocolEstimate:
        """Produce the protocol's estimate for the observed interval."""

    def measurement_predicate(self, digest: int) -> bool:
        """Whether a packet with this digest will be measured (if predictable).

        Only meaningful when :attr:`sampling_predictable` is ``True``; the
        bias adversary uses it to decide which packets to treat
        preferentially.  Unpredictable protocols raise ``NotImplementedError``.
        """
        raise NotImplementedError(
            f"{self.name} does not expose a predictable measurement set"
        )

    # -- convenience driver ----------------------------------------------------

    def run(
        self,
        ingress: Sequence[tuple[int, float]],
        egress: Sequence[tuple[int, float]],
    ) -> ProtocolEstimate:
        """Feed full ingress/egress observation lists and estimate."""
        for digest, time in ingress:
            self.observe_ingress(digest, time)
        for digest, time in egress:
            self.observe_egress(digest, time)
        return self.estimate()


def quantiles_from_delays(
    delays: Sequence[float], quantiles: Sequence[float]
) -> dict[float, float]:
    """Empirical quantiles helper shared by the concrete baselines."""
    import numpy as np

    array = np.asarray(delays, dtype=float)
    if array.size == 0:
        return {}
    quantiles = list(quantiles)
    return dict(zip(quantiles, np.quantile(array, quantiles).tolist()))
