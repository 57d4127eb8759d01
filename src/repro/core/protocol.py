"""End-to-end VPM orchestration over one or more HOP paths.

:class:`MeshSession` wires the pieces together for one measurement interval:

1. each participating domain runs one :class:`~repro.core.domain.DomainAgent`
   over the traffic its HOPs observed on every path crossing it (the
   emissions :class:`~repro.engine.streaming.StreamingRunner` feeds to its
   collectors);
2. the domains' receipts are disseminated (Assumption 2 of the paper: an
   authenticated channel exists; here one in-memory
   :class:`~repro.reporting.dissemination.ReceiptBus` over all the paths);
3. any domain can instantiate a :class:`~repro.core.verifier.Verifier` over
   the receipts of one path it is entitled to see and estimate/verify its
   neighbors on that path.

A single path is the one-path case: :class:`VPMSession` is the same session
spelled for one path, where the path argument of the verification helpers
can be left out.

The session also exposes the resource accounting needed by the Section 7.1
overhead analysis (receipt bytes per observed byte, buffer occupancies).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.domain import DomainAgent
from repro.core.hop import HOPConfig, HOPReport
from repro.core.verifier import DomainPerformance, VerificationResult, Verifier
from repro.net.topology import Domain, HOPPath
from repro.reporting.dissemination import ReceiptBus

__all__ = ["MeshSession", "SessionOverhead", "VPMSession"]


@dataclass(frozen=True)
class SessionOverhead:
    """Aggregate resource accounting of one measurement interval."""

    observed_packets: int
    observed_bytes: int
    receipt_bytes: int
    max_temp_buffer_packets: int

    @property
    def receipt_bytes_per_packet(self) -> float:
        """Receipt bytes produced per observed packet (Section 7.1's 0.2 B/pkt)."""
        return self.receipt_bytes / self.observed_packets if self.observed_packets else 0.0

    @property
    def bandwidth_overhead(self) -> float:
        """Receipt bytes relative to observed traffic bytes (the 0.046% figure)."""
        return self.receipt_bytes / self.observed_bytes if self.observed_bytes else 0.0


class MeshSession:
    """Runs VPM for one measurement interval over one or more paths.

    One :class:`DomainAgent` per participating domain, each owning *one
    collector per HOP* with every path through that HOP registered — so a
    shared HOP's collector classifies the interleaved traffic union back into
    per-(prefix-pair) state, and the receipts it reports for each pair
    byte-match an isolated single-path run.  Verification is per path:
    :meth:`verifier_for` hands an observer a standard
    :class:`~repro.core.verifier.Verifier` over one path's receipts only
    (each shared HOP's report sliced to the pair).

    Parameters
    ----------
    paths:
        The session's HOP paths (distinct prefix pairs).
    configs:
        Either a single :class:`HOPConfig` applied to every domain, or a
        mapping of domain name to the :class:`HOPConfig` the domain uses for
        its HOPs; domains absent from the mapping use the default config.  A
        domain mapped to ``None`` has *not deployed VPM* and produces no
        receipts (the partial-deployment scenario of Section 8).
    agents:
        Optional pre-built agents (e.g. adversarial ones from
        :mod:`repro.adversary`) keyed by domain name; they override the
        default honest agents.
    max_diff:
        The MaxDiff written into all PathIDs (assumed uniform across links
        unless agents are built by hand).
    """

    def __init__(
        self,
        paths: Sequence[HOPPath],
        configs: Mapping[str, HOPConfig | None] | HOPConfig | None = None,
        agents: Mapping[str, DomainAgent] | None = None,
        max_diff: float = 1e-3,
    ) -> None:
        self.paths = tuple(paths)
        if not self.paths:
            raise ValueError("a session needs at least one path")
        self.max_diff = float(max_diff)

        # Participating domains in deterministic order of first appearance.
        domains: list[Domain] = []
        for path in self.paths:
            for domain in path.domains:
                if all(existing.name != domain.name for existing in domains):
                    domains.append(domain)
        if isinstance(configs, HOPConfig):
            configs = {domain.name: configs for domain in domains}
        configs = dict(configs or {})
        agents = dict(agents or {})

        self.agents: dict[str, DomainAgent] = {}
        for domain in domains:
            name = domain.name
            if name in agents:
                self.agents[name] = agents[name]
                continue
            if name in configs and configs[name] is None:
                continue  # domain has not deployed VPM
            config = configs.get(name) or HOPConfig()
            crossing = tuple(path for path in self.paths if path.hops_of(name))
            self.agents[name] = DomainAgent(
                domain, crossing, config=config, max_diff=self.max_diff
            )

        self.bus = ReceiptBus(self.paths)
        self._last_reports: dict[int, HOPReport] = {}

    # -- execution ---------------------------------------------------------------------

    def collect_reports(self) -> dict[int, HOPReport]:
        """Generate, transform and publish reports from already-fed collectors.

        :class:`~repro.engine.streaming.StreamingRunner` feeds each collector
        its HOP's merged traffic union, then calls this once.
        """
        reports: dict[int, HOPReport] = {}
        for agent in self.agents.values():
            for hop_id, report in agent.reports(flush=True).items():
                reports[hop_id] = report
                self.bus.publish(agent.domain_name, report)
        self._last_reports = reports
        return reports

    # -- verification helpers ----------------------------------------------------------

    def verifier_for(
        self,
        observer: Domain | str,
        path: HOPPath | None = None,
        quantiles: Sequence[float] | None = None,
    ) -> Verifier:
        """A per-path verifier over the receipts ``observer`` may see.

        ``path`` is ``None`` for the only path.  Receipts are only made
        available to domains that observed the corresponding traffic, so an
        off-path observer gets nothing.  ``quantiles`` overrides the delay
        quantiles the verifier estimates.  The verifier is the ordinary
        single-path one — cross-path reasoning happens a level up
        (:func:`repro.analysis.localization.triangulate_suspects` over the
        per-path verdicts).
        """
        if path is None:
            if len(self.paths) > 1:
                raise ValueError(
                    f"the session has {len(self.paths)} paths; name the one to verify"
                )
            path = self.paths[0]
        if quantiles is not None:
            verifier = Verifier(path, quantiles=quantiles)
        else:
            verifier = Verifier(path)
        verifier.add_reports(self.bus.reports_visible_to(observer, path.prefix_pair))
        return verifier

    def estimate(
        self,
        observer: Domain | str,
        target: Domain | str,
        path: HOPPath | None = None,
    ) -> DomainPerformance:
        """One-call estimation of ``target``'s performance by ``observer``."""
        return self.verifier_for(observer, path).estimate_domain(target)

    def verify(
        self,
        observer: Domain | str,
        target: Domain | str,
        path: HOPPath | None = None,
    ) -> VerificationResult:
        """One-call verification of ``target``'s receipts by ``observer``."""
        return self.verifier_for(observer, path).verify_domain(target)

    # -- accounting --------------------------------------------------------------------

    def overhead(self) -> SessionOverhead:
        """Resource accounting for the last interval, summed over all HOPs."""
        observed_packets = 0
        observed_bytes = 0
        max_buffer = 0
        for agent in self.agents.values():
            for hop_id in agent.hop_ids:
                collector = agent.collector(hop_id)
                observed_packets += collector.observed_packets
                observed_bytes += collector.observed_bytes
                max_buffer = max(max_buffer, collector.max_temp_buffer_occupancy)
        return SessionOverhead(
            observed_packets=observed_packets,
            observed_bytes=observed_bytes,
            receipt_bytes=sum(report.wire_bytes for report in self._last_reports.values()),
            max_temp_buffer_packets=max_buffer,
        )


class VPMSession(MeshSession):
    """The one-path spelling of :class:`MeshSession`.

    ``VPMSession(path, ...)`` is ``MeshSession((path,), ...)``; :attr:`path`
    is its only path, which the verification helpers use by default.  Spec
    cells build a :class:`MeshSession` on every path count; this class stays
    for hand-wired sessions and because ``perfbench/layers.py`` patches it.
    """

    def __init__(
        self,
        path: HOPPath,
        configs: Mapping[str, HOPConfig | None] | HOPConfig | None = None,
        agents: Mapping[str, DomainAgent] | None = None,
        max_diff: float = 1e-3,
    ) -> None:
        super().__init__((path,), configs=configs, agents=agents, max_diff=max_diff)

    @property
    def path(self) -> HOPPath:
        """The session's only path."""
        return self.paths[0]

    # Defined in this class body too: ``perfbench/layers.py`` patches each
    # session class's own ``collect_reports`` attribute.
    collect_reports = MeshSession.collect_reports
