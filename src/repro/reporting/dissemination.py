"""Receipt dissemination.

The paper assumes (Assumption 2) "there exists a way for a domain in path P
to disseminate receipts to all other domains in P, such that the authenticity
and integrity of each received receipt is guaranteed" — e.g. an HTTPS
administrative web site.  :class:`ReceiptBus` is the in-memory stand-in for
that channel over one or more paths (a single path is the one-path case):
domains publish their HOP reports, and the domains on a path retrieve that
path's receipts; off-path observers get nothing, reflecting the privacy rule
that "a receipt is made available only to the domains that observed the
corresponding traffic".

Integrity is modelled by the bus storing the published report objects
verbatim (a publishing domain can publish dishonest content, but nobody can
tamper with another domain's published receipts in transit).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.hop import HOPReport
from repro.net.prefixes import PrefixPair
from repro.net.topology import Domain, HOPPath

__all__ = ["ReceiptBus"]


def _report_for_pair(report: HOPReport, pair: PrefixPair) -> HOPReport:
    """The slice of a HOP's report that concerns one prefix pair.

    Receipts carry their :class:`~repro.core.receipts.PathID`, whose prefix
    pair identifies the path they aggregate — the per-(prefix-pair)
    aggregation of Section 2.  Filtering a shared HOP's report down to one
    pair recovers exactly the receipts an isolated single-path run of that
    HOP would have produced.
    """
    return HOPReport(
        hop_id=report.hop_id,
        sample_receipts=tuple(
            receipt
            for receipt in report.sample_receipts
            if receipt.path_id.prefix_pair == pair
        ),
        aggregate_receipts=tuple(
            receipt
            for receipt in report.aggregate_receipts
            if receipt.path_id.prefix_pair == pair
        ),
    )


class ReceiptBus:
    """An authenticated receipt channel over one or more paths.

    Publishing is validated against HOP ownership: the publishing domain must
    own the reporting HOP, and the HOP must be on one of the bus's paths (a
    domain cannot produce receipts for traffic it never observed).
    Retrieval is *per path*: a domain asks for the receipts of one prefix
    pair — the only path's when the bus has one — and gets them only if it is
    on that pair's path, each report sliced down to that pair.
    """

    def __init__(self, paths: HOPPath | Sequence[HOPPath]) -> None:
        self.paths = (paths,) if isinstance(paths, HOPPath) else tuple(paths)
        if not self.paths:
            raise ValueError("a receipt bus needs at least one path")
        self._path_by_pair: dict[PrefixPair, HOPPath] = {}
        self._owners: dict[int, str] = {}
        for path in self.paths:
            if path.prefix_pair in self._path_by_pair:
                raise ValueError(
                    f"duplicate prefix pair {path.prefix_pair} across the bus's paths"
                )
            self._path_by_pair[path.prefix_pair] = path
            for hop in path.hops:
                self._owners[hop.hop_id] = hop.domain.name
        self._publications: list[HOPReport] = []

    def publish(self, publisher: Domain | str, report: HOPReport) -> None:
        """Publish one HOP report (the publisher must own the reporting HOP)."""
        name = publisher.name if isinstance(publisher, Domain) else publisher
        owner = self._owners.get(report.hop_id)
        if owner is None:
            raise PermissionError(f"HOP {report.hop_id} is on none of the bus's paths")
        if owner != name:
            raise PermissionError(
                f"domain {name!r} cannot publish receipts for HOP {report.hop_id} "
                f"(owned by {owner!r})"
            )
        self._publications.append(report)

    @property
    def total_bytes(self) -> int:
        """Total bytes of receipts carried by the bus."""
        return sum(report.wire_bytes for report in self._publications)

    def reports_visible_to(
        self, observer: Domain | str, pair: PrefixPair | None = None
    ) -> list[HOPReport]:
        """One path's receipts, as visible to ``observer``.

        ``pair`` selects the path; ``None`` means the only path, and is an
        error on a bus with several.  Only domains on the pair's path see
        anything, and what they see is each on-path HOP's report filtered
        down to the pair — never the receipts the shared HOPs produced for
        *other* paths' traffic.
        """
        if pair is None:
            if len(self.paths) > 1:
                raise ValueError(
                    f"the bus carries {len(self.paths)} paths; name the prefix pair"
                )
            pair = self.paths[0].prefix_pair
        name = observer.name if isinstance(observer, Domain) else observer
        path = self._path_by_pair.get(pair)
        if path is None or name not in {domain.name for domain in path.domains}:
            return []
        on_path = {hop.hop_id for hop in path.hops}
        return [
            _report_for_pair(report, pair)
            for report in self._publications
            if report.hop_id in on_path
        ]
