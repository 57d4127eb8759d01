"""A lying domain: fabricated egress receipts (Section 3.1 / Section 4).

The domain drops or delays traffic internally but wants its receipts to say
otherwise.  The strongest lie available under the threat model is to claim
that everything that entered the domain left it promptly: the liar copies its
*ingress* observations (which it genuinely made) into its *egress* receipts,
shifted by a small claimed internal delay.

The point of the reproduction is that this lie cannot survive verification:
the fabricated egress receipts claim delivery of packets (and aggregate
counts) the downstream neighbor never saw, so the verifier's link-consistency
check flags the X→N link, and the liar is exposed to the very neighbor it
implicated.  On a mesh the domain tells the same lie once per path it
transits, and each path's fabrication implicates a *different* downstream
link — which is exactly what cross-path triangulation
(:func:`repro.analysis.localization.triangulate_suspects`) exploits.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from repro.core.domain import DomainAgent
from repro.core.hop import HOPConfig, HOPReport
from repro.core.receipts import AggregateReceipt, PathID, SampleReceipt, sample_array
from repro.net.topology import Domain, HOPPath

__all__ = ["LyingDomainAgent"]


def _fabricated_samples(
    receipts: Sequence[SampleReceipt],
    egress_path_id: PathID,
    claimed_delay: float,
    hide_delay: bool,
) -> list[SampleReceipt]:
    """Sample receipts re-labelled as the egress's, shifted by the claimed delay."""
    return [
        replace(
            receipt,
            path_id=egress_path_id,
            samples=(
                sample_array(receipt.samples["pkt_id"], receipt.samples["time"] + claimed_delay)
                if hide_delay
                else receipt.samples
            ),
        )
        for receipt in receipts
    ]


def _fabricated_aggregates(
    receipts: Sequence[AggregateReceipt],
    egress_path_id: PathID,
    claimed_delay: float,
) -> list[AggregateReceipt]:
    """Aggregate receipts re-labelled as the egress's, shifted by the claimed delay."""
    return [
        replace(
            receipt,
            path_id=egress_path_id,
            start_time=receipt.start_time + claimed_delay,
            end_time=receipt.end_time + claimed_delay,
            time_sum=receipt.time_sum + claimed_delay * receipt.pkt_count,
        )
        for receipt in receipts
    ]


class LyingDomainAgent(DomainAgent):
    """A domain that hides its internal loss and delay in its egress receipts.

    For *every* path on which the domain is a transit domain (one, on a
    single path), the receipts its egress HOP produced for that path's prefix
    pair are replaced by the ingress HOP's receipts for the same pair,
    shifted by ``claimed_delay`` — "everything that entered left promptly".

    Parameters
    ----------
    path:
        The path the domain transits, or the sequence of mesh paths crossing
        it (at least one of which it must transit).
    claimed_delay:
        The internal delay (seconds) the domain pretends to have introduced.
    hide_loss:
        Whether to claim delivery of packets it actually dropped (by reusing
        its ingress counts/samples at the egress).
    hide_delay:
        Whether to misreport its internal delay as ``claimed_delay`` instead
        of the truly measured egress timestamps.  (Both default to ``True`` —
        the full "nothing went wrong here" lie.)

    After :meth:`reports`, ``last_fabricated_report`` holds the egress report
    fabricated for the last transited path — the one a
    :class:`~repro.adversary.collusion.ColludingDomainAgent` covers on a
    single path.
    """

    def __init__(
        self,
        domain: Domain | str,
        path: HOPPath | Sequence[HOPPath],
        config: HOPConfig | None = None,
        max_diff: float = 1e-3,
        claimed_delay: float = 0.5e-3,
        hide_loss: bool = True,
        hide_delay: bool = True,
    ) -> None:
        super().__init__(domain, path, config=config, max_diff=max_diff)
        self._transit_paths = tuple(
            entry for entry in self.paths if len(entry.hops_of(self.domain_name)) >= 2
        )
        if not self._transit_paths:
            raise ValueError(
                f"a lying domain needs an ingress and an egress HOP on at least "
                f"one path; {self.domain_name!r} is a transit domain of none"
            )
        self.claimed_delay = float(claimed_delay)
        self.hide_loss = bool(hide_loss)
        self.hide_delay = bool(hide_delay)
        self.last_fabricated_report: HOPReport | None = None

    def reports(self, flush: bool = True) -> dict[int, HOPReport]:
        produced = super().reports(flush=flush)
        for path in self._transit_paths:
            domain_hops = path.hops_of(self.domain_name)
            ingress_id = domain_hops[0].hop_id
            egress_id = domain_hops[-1].hop_id
            pair = path.prefix_pair
            egress_path_id = self.collector(egress_id).path_state(path).path_id

            egress_report = produced[egress_id]
            source = produced[ingress_id] if self.hide_loss else egress_report
            fabricated_samples = _fabricated_samples(
                [r for r in source.sample_receipts if r.path_id.prefix_pair == pair],
                egress_path_id,
                self.claimed_delay,
                self.hide_delay,
            )
            fabricated_aggregates = _fabricated_aggregates(
                [r for r in source.aggregate_receipts if r.path_id.prefix_pair == pair],
                egress_path_id,
                self.claimed_delay,
            )
            produced[egress_id] = self.last_fabricated_report = HOPReport(
                hop_id=egress_id,
                sample_receipts=tuple(
                    r
                    for r in egress_report.sample_receipts
                    if r.path_id.prefix_pair != pair
                )
                + tuple(fabricated_samples),
                aggregate_receipts=tuple(
                    r
                    for r in egress_report.aggregate_receipts
                    if r.path_id.prefix_pair != pair
                )
                + tuple(fabricated_aggregates),
            )
        return produced
