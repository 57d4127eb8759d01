"""Path-level performance localization.

The paper's introduction motivates VPM with troubleshooting: when a customer
cannot reach a destination (or gets bad performance), the operator needs to
know *which* domain on the path is responsible — its own network, the
customer's, a peer's, or the destination's.  This module turns the verifier's
per-domain outputs into that answer:

* :func:`localize_performance` ranks every transit domain of a path by its
  contribution to end-to-end delay and loss, and flags the domains violating a
  given SLA;
* :func:`identify_suspects` interprets receipt inconsistencies: for every
  inter-domain link with disagreeing receipts it names the two domains
  involved, reflecting the paper's exposure semantics (the rest of the world
  cannot tell which of the two is lying, but each of them knows);
* :func:`triangulate_suspects` reasons *across paths*: when several paths
  cross the same domain via different neighbors, the suspect pairs they
  produce share exactly one member — the lying domain — so the mesh narrows
  the exposure beyond what any single path can.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.analysis.sla import SLASpec, SLAVerdict, check_sla
from repro.core.consistency import Inconsistency
from repro.core.verifier import DomainPerformance, Verifier
from repro.net.topology import HOPPath

__all__ = [
    "DomainDiagnosis",
    "DomainImplication",
    "MeshTriangulation",
    "PathDiagnosis",
    "SuspectLink",
    "exposure_rule",
    "localize_performance",
    "identify_suspects",
    "triangulate_suspects",
]


@dataclass(frozen=True)
class DomainDiagnosis:
    """One transit domain's contribution to the path's performance."""

    domain: str
    performance: DomainPerformance
    sla_verdict: SLAVerdict | None
    delay_share: float
    loss_share: float

    @property
    def violating(self) -> bool:
        """Whether this domain violates the SLA it was checked against."""
        return self.sla_verdict is not None and not self.sla_verdict.compliant


@dataclass(frozen=True)
class SuspectLink:
    """An inter-domain link whose two ends produced inconsistent receipts."""

    upstream_domain: str
    downstream_domain: str
    upstream_hop: int
    downstream_hop: int
    findings: tuple[Inconsistency, ...]

    @property
    def finding_kinds(self) -> tuple[str, ...]:
        """The distinct kinds of disagreement observed on this link."""
        return tuple(sorted({finding.kind for finding in self.findings}))


@dataclass(frozen=True)
class PathDiagnosis:
    """The full localization result for one path."""

    path: HOPPath
    domains: tuple[DomainDiagnosis, ...]
    suspects: tuple[SuspectLink, ...] = ()


def localize_performance(
    verifier: Verifier,
    sla: SLASpec | None = None,
    quantile: float = 0.9,
) -> PathDiagnosis:
    """Rank the path's transit domains by their delay/loss contribution.

    ``delay_share`` is each domain's ``quantile`` delay divided by the sum over
    all measurable transit domains (0 when nothing is measurable);
    ``loss_share`` likewise for lost packets.  When ``sla`` is given, each
    domain is additionally checked against it.
    """
    diagnoses: list[tuple[str, DomainPerformance]] = []
    for domain, _, _ in verifier.path.domain_segments():
        diagnoses.append((domain.name, verifier.estimate_domain(domain)))

    total_delay = sum(
        performance.delay_quantile(quantile)
        for _, performance in diagnoses
        if performance.delay_quantiles
    )
    total_lost = sum(performance.lost_packets for _, performance in diagnoses)

    entries: list[DomainDiagnosis] = []
    for name, performance in diagnoses:
        delay_share = 0.0
        if performance.delay_quantiles and total_delay > 0:
            delay_share = performance.delay_quantile(quantile) / total_delay
        loss_share = (
            performance.lost_packets / total_lost if total_lost > 0 else 0.0
        )
        verdict = check_sla(performance, sla) if sla is not None else None
        entries.append(
            DomainDiagnosis(
                domain=name,
                performance=performance,
                sla_verdict=verdict,
                delay_share=delay_share,
                loss_share=loss_share,
            )
        )

    suspects = identify_suspects(verifier.path, verifier.check_consistency())
    return PathDiagnosis(path=verifier.path, domains=tuple(entries), suspects=suspects)


def identify_suspects(
    path: HOPPath, findings: Sequence[Inconsistency]
) -> tuple[SuspectLink, ...]:
    """Group inconsistencies per inter-domain link and name the two domains.

    Per the paper, an inconsistency on a link means either the link is faulty
    or one of its two endpoint domains is lying; both domains are notified, and
    only they can tell which case it is.  The verifier therefore reports the
    *pair*, not a single culprit.
    """
    owners = {hop.hop_id: hop.domain.name for hop in path.hops}
    grouped: dict[tuple[int, int], list[Inconsistency]] = {}
    for finding in findings:
        key = (finding.upstream_hop, finding.downstream_hop)
        grouped.setdefault(key, []).append(finding)

    suspects = []
    for (upstream_hop, downstream_hop), link_findings in sorted(grouped.items()):
        suspects.append(
            SuspectLink(
                upstream_domain=owners.get(upstream_hop, f"HOP{upstream_hop}"),
                downstream_domain=owners.get(downstream_hop, f"HOP{downstream_hop}"),
                upstream_hop=upstream_hop,
                downstream_hop=downstream_hop,
                findings=tuple(link_findings),
            )
        )
    return tuple(suspects)


# -- cross-path triangulation ---------------------------------------------------------


def exposure_rule(partners: Sequence[str], paths: Sequence[str]) -> bool:
    """The triangulation exposure rule, shared with the result summaries.

    A domain is exposed when it was implicated with **two or more distinct
    partners** across **two or more distinct paths**.  Both conditions are
    required: two flagged links on a *single* path (e.g. a faulty link on
    each side of an honest middle domain) reproduce the multi-partner
    signature without any cross-path evidence, and exposure is exactly the
    narrowing a single path cannot do.
    """
    return len(partners) >= 2 and len(paths) >= 2


@dataclass(frozen=True)
class DomainImplication:
    """How often (and with whom) one domain appears in suspect pairs.

    ``links`` are the distinct flagged inter-domain links involving the
    domain (as (upstream domain, downstream domain) name pairs); ``partners``
    are the distinct *other* domains it was paired with; ``paths`` are the
    prefix-pair labels of the paths whose verdicts implicated it.
    """

    domain: str
    links: tuple[tuple[str, str], ...]
    partners: tuple[str, ...]
    paths: tuple[str, ...]

    @property
    def exposed(self) -> bool:
        """Whether triangulation pins this domain down beyond a link pair.

        A single flagged link only exposes a *pair* (either endpoint may be
        lying, or the link itself may be faulty).  When a domain is implicated
        with two or more *distinct* partners across two or more *paths*, it is
        the only common member of those pairs — under the parsimonious
        single-culprit reading, it is the liar.  (Multiple independent liars
        or simultaneously faulty links could still mimic this; the paper's
        per-link semantics remain the ground truth each implicated pair can
        resolve internally.)
        """
        return exposure_rule(self.partners, self.paths)


@dataclass(frozen=True)
class MeshTriangulation:
    """The cross-path suspect analysis of one mesh run."""

    implications: tuple[DomainImplication, ...]

    @property
    def exposed_domains(self) -> tuple[str, ...]:
        """Domains triangulation exposes beyond a link pair, sorted."""
        return tuple(
            entry.domain for entry in self.implications if entry.exposed
        )


def triangulate_suspects(
    suspects_by_path: Mapping[str, Sequence[SuspectLink]],
) -> MeshTriangulation:
    """Narrow the lying domain from every path's suspect links.

    ``suspects_by_path`` maps a path label (conventionally
    ``str(path.prefix_pair)``) to the :func:`identify_suspects` output of that
    path's verifier.  Every suspect link names a pair that single-path
    verification cannot split; a domain appearing in pairs with **two or more
    distinct partners across two or more paths** (:func:`exposure_rule`) is
    the unique common member of those pairs and is reported as exposed — the
    cross-path narrowing single paths cannot do.  Implications are returned
    for every implicated domain (exposed or not), sorted by name.
    """
    links: dict[str, set[tuple[str, str]]] = {}
    partners: dict[str, set[str]] = {}
    paths: dict[str, set[str]] = {}
    for label in sorted(suspects_by_path):
        for suspect in suspects_by_path[label]:
            pair = (suspect.upstream_domain, suspect.downstream_domain)
            for domain, partner in (pair, pair[::-1]):
                links.setdefault(domain, set()).add(pair)
                partners.setdefault(domain, set()).add(partner)
                paths.setdefault(domain, set()).add(label)
    implications = tuple(
        DomainImplication(
            domain=domain,
            links=tuple(sorted(links[domain])),
            partners=tuple(sorted(partners[domain])),
            paths=tuple(sorted(paths[domain])),
        )
        for domain in sorted(links)
    )
    return MeshTriangulation(implications=implications)
