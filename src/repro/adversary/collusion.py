"""A colluding neighbor covering a liar's claims (Sections 3.1 and 3.2).

Domain ``X`` drops packets but claims (through fabricated egress receipts)
that it delivered them to its downstream neighbor ``N``.  ``N`` may choose to
*cover* the lie: it fabricates its own **ingress** receipts to confirm having
received what ``X`` claims to have delivered (the digests and timestamps are
shared by the colluder — the threat model allows colluding domains to pool
their observations).

The paper's observation is that this does not help the pair for free: ``N``
still has to account for the packets at its egress, where its downstream
neighbor reports honestly, so ``N`` either admits losing them itself — taking
the blame for ``X``'s loss — or pushes the lie further down and is exposed on
its own downstream link.  :class:`ColludingDomainAgent` implements the
blame-absorbing variant (honest egress), which is the rational choice for a
colluder that does not want to be flagged as inconsistent.
"""

from __future__ import annotations

from typing import Sequence

from repro.adversary.lying import LyingDomainAgent
from repro.core.domain import DomainAgent
from repro.core.hop import HOPConfig, HOPReport
import numpy as np

from repro.core.receipts import SampleReceipt, distinct_samples, sample_array
from repro.net.topology import Domain, HOPPath

__all__ = ["ColludingDomainAgent"]


class ColludingDomainAgent(DomainAgent):
    """A downstream neighbor that confirms a liar's fabricated deliveries.

    Parameters
    ----------
    colluding_with:
        The upstream :class:`LyingDomainAgent` whose claims this domain covers.
        Its ``last_fabricated_report`` must have been produced before this
        agent's :meth:`reports` is called (the session runs domains in path
        order, so this holds naturally).
    link_delay:
        The delay this domain pretends the inter-domain link added to the
        covered packets (it must stay within MaxDiff or the cover story
        creates a new inconsistency).
    """

    def __init__(
        self,
        domain: Domain | str,
        path: HOPPath | Sequence[HOPPath],
        colluding_with: LyingDomainAgent,
        config: HOPConfig | None = None,
        max_diff: float = 1e-3,
        link_delay: float = 0.1e-3,
    ) -> None:
        super().__init__(domain, path, config=config, max_diff=max_diff)
        self.colluding_with = colluding_with
        self.link_delay = float(link_delay)

    def _cover_ingress_report(self, honest_ingress: HOPReport) -> HOPReport:
        liar_report = self.colluding_with.last_fabricated_report
        if liar_report is None:
            return honest_ingress

        ingress_path_id = self.collector(self.hop_ids[0]).states()[0].path_id

        # Sample receipts: confirm exactly the liar's claims.  The colluder
        # must adopt the liar's timestamps (plus a plausible link delay) even
        # for packets it genuinely observed — its own honest timestamps would
        # contradict the liar's hidden delay and trip the MaxDiff check — and
        # it must suppress any extra samples of its own that the liar did not
        # claim, otherwise they would be inconsistent with the liar's receipts.
        # Each claimed ID once (where it was first claimed, at its last claimed
        # time), then in time order; the stable sort keeps ties in claim order.
        claims = [sample_array((), ())] + [r.samples for r in liar_report.sample_receipts]
        claimed = distinct_samples(np.concatenate(claims))
        claimed = sample_array(claimed["pkt_id"], claimed["time"] + self.link_delay)
        claimed = claimed[np.argsort(claimed["time"], kind="stable")]
        threshold = None
        for receipt in honest_ingress.sample_receipts:
            threshold = receipt.sampling_threshold
        for receipt in liar_report.sample_receipts:
            if threshold is None:
                threshold = receipt.sampling_threshold
        covered_samples = SampleReceipt(
            path_id=ingress_path_id,
            samples=claimed,
            sampling_threshold=threshold,
        )

        # Aggregate receipts: echo the liar's claimed counts so the X->N link
        # shows no count mismatch.
        covered_aggregates = tuple(
            receipt.__class__(
                path_id=ingress_path_id,
                first_pkt_id=receipt.first_pkt_id,
                last_pkt_id=receipt.last_pkt_id,
                pkt_count=receipt.pkt_count,
                start_time=receipt.start_time + self.link_delay,
                end_time=receipt.end_time + self.link_delay,
                time_sum=receipt.time_sum + self.link_delay * receipt.pkt_count,
                trans_before=receipt.trans_before,
                trans_after=receipt.trans_after,
            )
            for receipt in liar_report.aggregate_receipts
        )

        return HOPReport(
            hop_id=honest_ingress.hop_id,
            sample_receipts=(covered_samples,) if len(covered_samples.samples) else (),
            aggregate_receipts=covered_aggregates or honest_ingress.aggregate_receipts,
        )

    def reports(self, flush: bool = True) -> dict[int, HOPReport]:
        honest = super().reports(flush=flush)
        ingress_hop_id = self.hop_ids[0]
        honest[ingress_hop_id] = self._cover_ingress_report(honest[ingress_hop_id])
        return honest
