"""The receipt collector / verifier.

A verifier (any domain on the path — typically a customer or peer of the
domain being evaluated) collects the receipts of all HOPs on a path and uses
them to

* **estimate** each transit domain's delay quantiles (from the packets
  commonly sampled at the domain's ingress and egress HOPs) and loss (exactly,
  from the aligned aggregate counts);
* **verify** those estimates by (a) cross-checking every inter-domain link's
  receipts for consistency (Section 4) and (b) re-deriving a domain's
  performance from its *neighbors'* receipts alone, which bounds how much a
  lying domain can exaggerate (Section 7.2, "Verifiability").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.core.consistency import Inconsistency, check_link_consistency
from repro.core.estimation import (
    DEFAULT_QUANTILES,
    DelayQuantileEstimate,
    estimate_delay_quantiles,
    match_sample_delays,
)
from repro.core.hop import HOPReport
from repro.core.partition import AlignedAggregates, aligned_aggregates
from repro.core.receipts import (
    AggregateReceipt,
    SampleReceipt,
    combine_sample_receipts,
)
from repro.net.topology import Domain, HOPPath

__all__ = ["DomainPerformance", "VerificationResult", "Verifier"]


@dataclass(frozen=True)
class DomainPerformance:
    """A domain's loss/delay performance as computed from receipts.

    Attributes
    ----------
    domain:
        The evaluated domain's name.
    delay_quantiles:
        Estimated delay quantiles (seconds) with confidence bounds; empty when
        no packets were commonly sampled at the ingress and egress HOPs.
    delay_sample_count:
        Number of commonly sampled packets the delay estimates rest on.
    offered_packets / lost_packets / loss_rate:
        Exact loss accounting over the aligned aggregates.
    loss_granularity:
        Durations (seconds) of the joined aggregates over which loss could be
        computed — Figure 3's quantity.  The mean of this list is the
        "granularity at which the domain's loss performance is computed".
    aligned:
        The aligned aggregate pairs the loss numbers were derived from.
    """

    domain: str
    delay_quantiles: dict[float, DelayQuantileEstimate] = field(default_factory=dict)
    delay_sample_count: int = 0
    offered_packets: int = 0
    lost_packets: int = 0
    loss_granularity: tuple[float, ...] = ()
    aligned: tuple[AlignedAggregates, ...] = ()

    @property
    def loss_rate(self) -> float:
        """Exact loss rate over the aligned aggregates."""
        return self.lost_packets / self.offered_packets if self.offered_packets else 0.0

    @property
    def mean_loss_granularity(self) -> float:
        """Mean time span over which a loss measurement could be computed."""
        return float(np.mean(self.loss_granularity)) if self.loss_granularity else 0.0

    def delay_quantile(self, quantile: float) -> float:
        """Point estimate for one delay quantile (seconds)."""
        return self.delay_quantiles[quantile].estimate


@dataclass(frozen=True)
class VerificationResult:
    """The outcome of verifying one domain's receipts.

    ``claimed`` is the performance computed from the domain's own receipts;
    ``independent`` is the performance re-derived from its neighbors' receipts
    (which includes the two inter-domain links, each bounded by MaxDiff);
    ``inconsistencies`` are the receipt disagreements found on the domain's
    two inter-domain links.  ``accepted`` is ``True`` when no inconsistency
    implicates the domain.
    """

    domain: str
    claimed: DomainPerformance
    independent: DomainPerformance | None
    inconsistencies: tuple[Inconsistency, ...] = ()

    @property
    def accepted(self) -> bool:
        """Whether the domain's receipts survived verification."""
        return not self.inconsistencies


class Verifier:
    """Collects the receipts of all HOPs on a path and evaluates domains.

    Parameters
    ----------
    path:
        The HOP path the receipts refer to.
    quantiles:
        The delay quantiles to estimate.
    confidence:
        Confidence level for the quantile bounds.

    Every receipt product a query needs is computed once per verifier and
    memoised: the combined sample receipt and the time-sorted aggregate
    receipts of each HOP, the aligned aggregate pairs of each (upstream,
    downstream) HOP pair, each ``(domain, ingress, egress)`` performance and
    the link-consistency findings.  Estimation, verification and the
    consistency check therefore share one alignment per HOP pair instead of
    re-deriving it per query.  :meth:`add_report` clears the memo, so a
    query after new receipts arrive sees them.  Lists handed to callers are
    fresh copies; receipts and :class:`DomainPerformance` results are shared
    between queries and must not be mutated.
    """

    def __init__(
        self,
        path: HOPPath,
        quantiles: Sequence[float] = DEFAULT_QUANTILES,
        confidence: float = 0.95,
    ) -> None:
        self.path = path
        self.quantiles = tuple(quantiles)
        self.confidence = float(confidence)
        self._sample_receipts: dict[int, list[SampleReceipt]] = {}
        self._aggregate_receipts: dict[int, list[AggregateReceipt]] = {}
        self._memo: dict[tuple, Any] = {}

    def _memoised(self, key: tuple, compute: Callable[[], Any]) -> Any:
        """``compute()``'s value, computed once per key until the next report."""
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = compute()
            return value

    # -- receipt collection -------------------------------------------------------

    def add_report(self, report: HOPReport) -> None:
        """Add one HOP's report to the verifier's receipt store."""
        self._memo.clear()
        samples = self._sample_receipts.setdefault(report.hop_id, [])
        samples.extend(report.sample_receipts)
        aggregates = self._aggregate_receipts.setdefault(report.hop_id, [])
        aggregates.extend(report.aggregate_receipts)

    def add_reports(self, reports: Mapping[int, HOPReport] | Iterable[HOPReport]) -> None:
        """Add several HOP reports (a mapping or an iterable)."""
        if isinstance(reports, Mapping):
            reports = reports.values()
        for report in reports:
            self.add_report(report)

    def sample_receipt_for(self, hop_id: int) -> SampleReceipt | None:
        """The (combined) sample receipt of one HOP, or ``None``."""

        def combine() -> SampleReceipt | None:
            receipts = self._sample_receipts.get(hop_id)
            return combine_sample_receipts(receipts) if receipts else None

        return self._memoised(("samples", hop_id), combine)

    def aggregate_receipts_for(self, hop_id: int) -> list[AggregateReceipt]:
        """The aggregate receipts of one HOP, in observation order."""
        return list(self._sorted_aggregates(hop_id))

    def _sorted_aggregates(self, hop_id: int) -> tuple[AggregateReceipt, ...]:
        return self._memoised(
            ("aggregates", hop_id),
            lambda: tuple(
                sorted(
                    self._aggregate_receipts.get(hop_id, []),
                    key=lambda receipt: receipt.start_time,
                )
            ),
        )

    def _aligned(
        self, upstream_hop: int, downstream_hop: int
    ) -> tuple[AlignedAggregates, ...]:
        """The aligned aggregate pairs between two HOPs."""
        return self._memoised(
            ("aligned", upstream_hop, downstream_hop),
            lambda: tuple(
                aligned_aggregates(
                    self._sorted_aggregates(upstream_hop),
                    self._sorted_aggregates(downstream_hop),
                )
            ),
        )

    # -- estimation ------------------------------------------------------------------

    def _domain_hops(self, domain: Domain | str) -> tuple[int, int]:
        name = domain.name if isinstance(domain, Domain) else domain
        hops = self.path.hops_of(name)
        if len(hops) < 2:
            raise ValueError(
                f"domain {name!r} is not a transit domain on {self.path}; "
                "its performance cannot be measured edge-to-edge"
            )
        return hops[0].hop_id, hops[-1].hop_id

    def _performance_between(
        self, name: str, ingress_hop: int, egress_hop: int
    ) -> DomainPerformance:
        return self._memoised(
            ("performance", name, ingress_hop, egress_hop),
            lambda: self._compute_performance(name, ingress_hop, egress_hop),
        )

    def _compute_performance(
        self, name: str, ingress_hop: int, egress_hop: int
    ) -> DomainPerformance:
        ingress_samples = self.sample_receipt_for(ingress_hop)
        egress_samples = self.sample_receipt_for(egress_hop)
        delay_quantiles: dict[float, DelayQuantileEstimate] = {}
        sample_count = 0
        if ingress_samples is not None and egress_samples is not None:
            delays = match_sample_delays(ingress_samples, egress_samples)
            sample_count = int(delays.size)
            if sample_count:
                delay_quantiles = estimate_delay_quantiles(
                    delays, self.quantiles, self.confidence
                )

        aligned = self._aligned(ingress_hop, egress_hop)
        offered = sum(pair.upstream.pkt_count for pair in aligned)
        lost = sum(max(pair.lost_packets, 0) for pair in aligned)
        granularity = tuple(pair.duration for pair in aligned)

        return DomainPerformance(
            domain=name,
            delay_quantiles=delay_quantiles,
            delay_sample_count=sample_count,
            offered_packets=offered,
            lost_packets=lost,
            loss_granularity=granularity,
            aligned=aligned,
        )

    def estimate_domain(self, domain: Domain | str) -> DomainPerformance:
        """Estimate a transit domain's performance from its own receipts."""
        name = domain.name if isinstance(domain, Domain) else domain
        ingress_hop, egress_hop = self._domain_hops(name)
        return self._performance_between(name, ingress_hop, egress_hop)

    def estimate_domain_via_neighbors(self, domain: Domain | str) -> DomainPerformance | None:
        """Re-derive a domain's performance from its neighbors' receipts only.

        The measurement spans the egress HOP of the previous domain to the
        ingress HOP of the next domain, so it includes the two inter-domain
        links — each bounded by its MaxDiff — and therefore upper-bounds the
        domain's contribution without trusting any of the domain's receipts.
        Returns ``None`` for a domain at the edge of the path.
        """
        name = domain.name if isinstance(domain, Domain) else domain
        ingress_hop, egress_hop = self._domain_hops(name)
        upstream_neighbor_hop: int | None = None
        downstream_neighbor_hop: int | None = None
        hops = self.path.hops
        for index, hop in enumerate(hops):
            if hop.hop_id == ingress_hop and index > 0:
                upstream_neighbor_hop = hops[index - 1].hop_id
            if hop.hop_id == egress_hop and index + 1 < len(hops):
                downstream_neighbor_hop = hops[index + 1].hop_id
        if upstream_neighbor_hop is None or downstream_neighbor_hop is None:
            return None
        return self._performance_between(
            name, upstream_neighbor_hop, downstream_neighbor_hop
        )

    # -- verification ------------------------------------------------------------------

    def check_consistency(self) -> list[Inconsistency]:
        """Cross-check receipts across every inter-domain link of the path."""
        return list(self._memoised(("findings",), self._link_findings))

    def _link_findings(self) -> tuple[Inconsistency, ...]:
        findings: list[Inconsistency] = []
        for upstream_hop, downstream_hop in self.path.inter_domain_pairs():
            up, down = upstream_hop.hop_id, downstream_hop.hop_id
            upstream_samples = self._sample_receipts.get(up, [])
            downstream_samples = self._sample_receipts.get(down, [])
            if not (upstream_samples or self._sorted_aggregates(up)) or not (
                downstream_samples or self._sorted_aggregates(down)
            ):
                # One side has not deployed VPM (partial deployment) — nothing
                # to cross-check on this link.
                continue
            findings.extend(
                check_link_consistency(
                    upstream_samples,
                    downstream_samples,
                    aggregate_pairs=[
                        (pair.upstream, pair.downstream) for pair in self._aligned(up, down)
                    ],
                )
            )
        return tuple(findings)

    def verify_domain(self, domain: Domain | str) -> VerificationResult:
        """Estimate a domain and check whether its receipts survive verification."""
        name = domain.name if isinstance(domain, Domain) else domain
        claimed = self.estimate_domain(name)
        independent = self.estimate_domain_via_neighbors(name)
        ingress_hop, egress_hop = self._domain_hops(name)
        relevant = tuple(
            finding
            for finding in self.check_consistency()
            if finding.upstream_hop in (ingress_hop, egress_hop)
            or finding.downstream_hop in (ingress_hop, egress_hop)
        )
        return VerificationResult(
            domain=name,
            claimed=claimed,
            independent=independent,
            inconsistencies=relevant,
        )
