"""The marker-dropping attack (Section 5.3).

An under-performing domain could drop all marker packets, causing its
downstream neighbor to key its sampling on the wrong packets and fail to
produce receipts that corroborate (or refute) the attacker's performance.

The paper's counter-argument, which this module lets the benchmarks quantify,
is that the attack is self-defeating: markers are, by construction, always
sampled and reported by every HOP that sees them, so every dropped marker is a
sampled packet that entered the domain (per the upstream neighbor's receipts)
and never left it (per the downstream neighbor's receipts).  The attacker must
either admit the drops or produce receipts inconsistent with its neighbors.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.sampling import DEFAULT_MARKER_RATE
from repro.net.batch import PacketBatch
from repro.net.hashing import PacketDigester, threshold_for_rate
from repro.simulation.scenario import BatchPathObservation
from repro.util.validation import check_fraction

__all__ = ["MarkerDropAttack", "marker_exposure_rate"]


class MarkerDropAttack:
    """Builds the drop predicate of a domain that targets marker packets."""

    def __init__(
        self,
        digester: PacketDigester | None = None,
        marker_rate: float = DEFAULT_MARKER_RATE,
    ) -> None:
        check_fraction("marker_rate", marker_rate)
        self.digester = digester or PacketDigester()
        self.marker_threshold = threshold_for_rate(marker_rate)

    def marker_mask(self, batch: PacketBatch) -> np.ndarray:
        """Which packets of a batch are markers under the protocol-wide threshold."""
        return self.digester.digest_batch(batch) > np.uint64(self.marker_threshold)

    def drop_predicate(self) -> Callable[[PacketBatch], np.ndarray]:
        """Predicate installed as the attacking domain's targeted-drop rule."""
        return self.marker_mask


def marker_exposure_rate(
    observation: BatchPathObservation,
    attacker: str,
    attack: MarkerDropAttack,
) -> float:
    """Fraction of the attacker's dropped markers visible to its neighbors.

    A dropped marker is one observed at the attacker's ingress HOP and absent
    from its egress HOP.  It is *exposed* when the upstream neighbor's HOP
    observed it too (so the neighbor can vouch it was handed over); the
    downstream neighbor never sees it.  Because markers are always sampled,
    every exposed marker shows up in the neighbors' receipts.
    """
    hops = observation.path.hops_of(attacker)
    if len(hops) < 2:
        raise ValueError(f"{attacker!r} is not a transit domain of the observed path")
    ingress, _ = observation.at_hop(hops[0])
    egress, _ = observation.at_hop(hops[-1])
    markers = ingress.uid[attack.marker_mask(ingress)]
    dropped = markers[~np.isin(markers, egress.uid)]
    if not dropped.size:
        return 1.0
    upstream_hop = observation.path.hops[observation.path.hops.index(hops[0]) - 1]
    upstream, _ = observation.at_hop(upstream_hop)
    return int(np.isin(dropped, upstream.uid).sum()) / dropped.size
