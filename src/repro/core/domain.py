"""A domain's participation in VPM.

A :class:`DomainAgent` owns the HOP collectors and processors of one domain's
hand-off points on every path of the session that crosses it — one path, or
several in a mesh, with one collector per HOP either way (the engines'
:class:`~repro.engine.streaming.StreamingRunner` feeds them the traffic the
domain observes) — and produces the domain's receipts for the session's one
receipt bus.
Honest domains report the collectors' output verbatim; adversarial behaviours
(Section 2.1's threat model) are modelled by the strategies in
:mod:`repro.adversary`, which hook the :meth:`DomainAgent.transform_report`
extension point to fabricate or distort receipts *after* honest collection —
exactly the capability the threat model grants a lying domain (it can
misreport what it observed, but it cannot observe traffic it never saw).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.hop import HOPCollector, HOPConfig, HOPProcessor, HOPReport
from repro.net.topology import Domain, HOPPath

__all__ = ["DomainAgent"]


class DomainAgent:
    """Runs VPM at every HOP a domain exposes on one or more paths.

    Parameters
    ----------
    domain:
        The domain this agent acts for.
    path:
        The HOP path the agent monitors, or — in a mesh — the sequence of
        paths crossing the domain.  Each of the domain's HOPs gets exactly one
        collector, with every path through that HOP registered on it, so a
        shared HOP's collector classifies the interleaved traffic union back
        into per-(prefix-pair) state.
    config:
        The HOP configuration applied to all of the domain's HOPs on the path
        (per-HOP overrides can be passed via ``per_hop_config``).
    max_diff:
        The MaxDiff value written into this domain's PathIDs (assumed agreed
        with each neighbor across the corresponding inter-domain link).
    per_hop_config:
        Optional mapping of HOP id to a :class:`HOPConfig` overriding
        ``config`` for that HOP.
    """

    def __init__(
        self,
        domain: Domain | str,
        path: HOPPath | Sequence[HOPPath],
        config: HOPConfig | None = None,
        max_diff: float = 1e-3,
        per_hop_config: dict[int, HOPConfig] | None = None,
    ) -> None:
        name = domain.name if isinstance(domain, Domain) else domain
        paths = (path,) if isinstance(path, HOPPath) else tuple(path)
        if not paths:
            raise ValueError(f"domain {name!r} was given no paths to monitor")
        hops = []
        for entry in paths:
            for hop in entry.hops_of(name):
                if all(existing.hop_id != hop.hop_id for existing in hops):
                    hops.append(hop)
        if not hops:
            described = ", ".join(str(entry) for entry in paths)
            raise ValueError(f"domain {name!r} has no HOPs on {described}")
        self.domain_name = name
        self.path = paths[0]
        self.paths = paths
        self.config = config or HOPConfig()
        self.max_diff = float(max_diff)
        per_hop_config = per_hop_config or {}

        self._collectors: dict[int, HOPCollector] = {}
        self._processors: dict[int, HOPProcessor] = {}
        for hop in hops:
            hop_config = per_hop_config.get(hop.hop_id, self.config)
            collector = HOPCollector(hop, hop_config)
            for entry in paths:
                if any(candidate.hop_id == hop.hop_id for candidate in entry.hops):
                    collector.register_path(entry, max_diff=self.max_diff)
            self._collectors[hop.hop_id] = collector
            self._processors[hop.hop_id] = HOPProcessor(collector)

    # -- observation -----------------------------------------------------------

    @property
    def hop_ids(self) -> tuple[int, ...]:
        """The HOPs this agent operates, in path order."""
        return tuple(sorted(self._collectors))

    def collector(self, hop_id: int) -> HOPCollector:
        """The collector running at one of the domain's HOPs."""
        return self._collectors[hop_id]

    def replace_collector(self, hop_id: int, collector: HOPCollector) -> None:
        """Install a collector (e.g. checkpointed state) at one of the HOPs.

        The streaming engine installs the collectors of a mid-interval
        checkpoint here when it resumes a run; the replacement gets a fresh
        processor.
        """
        if hop_id not in self._collectors:
            raise KeyError(f"domain {self.domain_name!r} has no HOP {hop_id}")
        self._collectors[hop_id] = collector
        self._processors[hop_id] = HOPProcessor(collector)

    # -- reporting ----------------------------------------------------------------

    def transform_report(self, report: HOPReport) -> HOPReport:
        """Hook for adversarial behaviours; honest domains return the report as is."""
        return report

    def reports(self, flush: bool = True) -> dict[int, HOPReport]:
        """Produce (and possibly transform) this domain's receipts per HOP."""
        produced: dict[int, HOPReport] = {}
        for hop_id, processor in self._processors.items():
            report = processor.generate_report(flush=flush)
            produced[hop_id] = self.transform_report(report)
        return produced

    def __repr__(self) -> str:
        return f"DomainAgent(domain={self.domain_name!r}, hops={list(self.hop_ids)})"
