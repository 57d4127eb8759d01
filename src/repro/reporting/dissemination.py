"""Receipt dissemination.

The paper assumes (Assumption 2) "there exists a way for a domain in path P
to disseminate receipts to all other domains in P, such that the authenticity
and integrity of each received receipt is guaranteed" — e.g. an HTTPS
administrative web site.  :class:`ReceiptBus` is the in-memory stand-in for
that channel: domains publish their HOP reports, and any *on-path* domain may
retrieve them; off-path observers get nothing, reflecting the privacy rule
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

__all__ = ["MeshReceiptBus", "ReceiptBus", "report_for_pair"]


def report_for_pair(report: HOPReport, pair: PrefixPair) -> HOPReport:
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


class _PublicationChannel:
    """The shared publication core of the receipt buses.

    Holds the published reports and enforces the one rule common to every
    channel: the publishing domain must own the reporting HOP.  Subclasses
    provide the HOP-ownership map and any additional admission rules.
    """

    def __init__(self) -> None:
        self._owners: dict[int, str] = {}
        self._publications: list[HOPReport] = []

    def _publish_owned(self, name: str, report: HOPReport) -> None:
        owner = self._owners.get(report.hop_id)
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


class ReceiptBus(_PublicationChannel):
    """An authenticated, path-scoped receipt distribution channel."""

    def __init__(self, path: HOPPath) -> None:
        super().__init__()
        self.path = path
        self._on_path = {domain.name for domain in path.domains}
        self._owners = {hop.hop_id: hop.domain.name for hop in path.hops}

    def publish(self, publisher: Domain | str, report: HOPReport) -> None:
        """Publish one HOP report.

        Only domains on the path may publish (a domain cannot produce receipts
        for traffic it never observed), and the publishing domain must own the
        reporting HOP.
        """
        name = publisher.name if isinstance(publisher, Domain) else publisher
        if name not in self._on_path:
            raise PermissionError(f"domain {name!r} is not on path {self.path}")
        self._publish_owned(name, report)

    def reports_visible_to(self, observer: Domain | str) -> list[HOPReport]:
        """All reports an observer is entitled to retrieve.

        Every domain that observed the path's traffic (i.e. every on-path
        domain) sees all receipts for that path; anybody else sees nothing.
        """
        name = observer.name if isinstance(observer, Domain) else observer
        if name not in self._on_path:
            return []
        return list(self._publications)


class MeshReceiptBus(_PublicationChannel):
    """The receipt channel of a mesh: many paths, shared HOPs, one bus.

    Publishing is validated against HOP ownership exactly as on the
    single-path :class:`ReceiptBus`.  Retrieval is *per path*: a domain asks
    for the receipts of one prefix pair, and gets them only if it is on that
    pair's path — each report sliced down to that pair
    (:func:`report_for_pair`), honouring the paper's privacy rule that a
    receipt is made available only to the domains that observed the
    corresponding traffic.
    """

    def __init__(self, paths: Sequence[HOPPath]) -> None:
        super().__init__()
        self.paths = tuple(paths)
        if not self.paths:
            raise ValueError("a mesh receipt bus needs at least one path")
        self._path_by_pair: dict[PrefixPair, HOPPath] = {}
        for path in self.paths:
            if path.prefix_pair in self._path_by_pair:
                raise ValueError(
                    f"duplicate prefix pair {path.prefix_pair} across mesh paths"
                )
            self._path_by_pair[path.prefix_pair] = path
            for hop in path.hops:
                self._owners[hop.hop_id] = hop.domain.name

    def publish(self, publisher: Domain | str, report: HOPReport) -> None:
        """Publish one HOP report (the publisher must own the reporting HOP)."""
        name = publisher.name if isinstance(publisher, Domain) else publisher
        if report.hop_id not in self._owners:
            raise PermissionError(
                f"HOP {report.hop_id} is on none of the mesh's paths"
            )
        self._publish_owned(name, report)

    def path_for(self, pair: PrefixPair) -> HOPPath:
        """The mesh path keyed by a prefix pair (KeyError when unknown)."""
        return self._path_by_pair[pair]

    def reports_visible_to(
        self, observer: Domain | str, pair: PrefixPair
    ) -> list[HOPReport]:
        """One path's receipts, as visible to ``observer``.

        Only domains on the pair's path see anything, and what they see is
        each on-path HOP's report filtered down to the pair — never the
        receipts the shared HOPs produced for *other* paths' traffic.
        """
        name = observer.name if isinstance(observer, Domain) else observer
        path = self._path_by_pair.get(pair)
        if path is None or name not in {domain.name for domain in path.domains}:
            return []
        on_path = {hop.hop_id for hop in path.hops}
        return [
            report_for_pair(report, pair)
            for report in self._publications
            if report.hop_id in on_path
        ]
