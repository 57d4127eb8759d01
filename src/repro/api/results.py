"""Typed per-cell experiment results with stable JSON serialization.

A :class:`CellResult` captures everything one experiment cell produced —
receipt-based estimates, simulation ground truth, verification verdicts and
resource overhead — as plain frozen values.  ``to_json`` is byte-stable
(sorted keys, fixed separators) so results can be diffed across runs, and a
parallel sweep is required to serialize *identically* to a serial one.

Every result type takes ``to_dict`` / ``from_dict`` / ``to_json`` /
``from_json`` from one codec (:mod:`repro.api.codec`), driven by the field
types: nested results become dicts, tuples (``delay_quantiles``,
``suspect_links``) become lists, and ``None`` stays ``null``.
``TriangulationSummary.exposed_domains`` is a derived field: it is written
from the implications and ignored when read back.  ``SweepCell.result``
parses as a :class:`MeshResult` when its payload has a ``paths`` key
(``MeshResult.union_tag``) and as a :class:`CellResult` otherwise.  A malformed payload raises a
:class:`ValueError` naming the dotted path of the bad value, e.g.
``targets[0].estimate: missing DomainEstimate keys ['domain']``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar, Sequence

from repro.api.codec import Record

__all__ = [
    "QuantileEstimate",
    "DomainEstimate",
    "TruthSummary",
    "VerificationSummary",
    "OverheadSummary",
    "TargetResult",
    "CellResult",
    "MeshPathResult",
    "MeshResult",
    "TriangulationSummary",
    "SweepCell",
    "SweepResult",
]


@dataclass(frozen=True)
class QuantileEstimate(Record):
    """One estimated delay quantile (seconds) with confidence bounds."""

    quantile: float
    estimate: float
    lower: float
    upper: float


@dataclass(frozen=True)
class DomainEstimate(Record):
    """A domain's receipt-based performance, flattened to plain values."""

    domain: str
    delay_quantiles: tuple[QuantileEstimate, ...] = ()
    delay_sample_count: int = 0
    offered_packets: int = 0
    lost_packets: int = 0
    loss_rate: float = 0.0
    mean_loss_granularity: float = 0.0

    @classmethod
    def from_performance(cls, performance) -> "DomainEstimate":
        """Flatten a :class:`repro.core.verifier.DomainPerformance`."""
        quantiles = tuple(
            QuantileEstimate(
                quantile=float(quantile),
                estimate=float(estimate.estimate),
                lower=float(estimate.lower),
                upper=float(estimate.upper),
            )
            for quantile, estimate in sorted(performance.delay_quantiles.items())
        )
        return cls(
            domain=performance.domain,
            delay_quantiles=quantiles,
            delay_sample_count=performance.delay_sample_count,
            offered_packets=performance.offered_packets,
            lost_packets=performance.lost_packets,
            loss_rate=performance.loss_rate,
            mean_loss_granularity=performance.mean_loss_granularity,
        )

    def delay_quantile(self, quantile: float) -> float:
        """Point estimate for one quantile (seconds); KeyError when absent."""
        for entry in self.delay_quantiles:
            if entry.quantile == quantile:
                return entry.estimate
        raise KeyError(f"quantile {quantile} was not estimated")

    def to_performance(self):
        """Rebuild a :class:`repro.core.verifier.DomainPerformance` view.

        For interoperating with analysis helpers that take the engine-layer
        type (e.g. :func:`repro.analysis.sla.check_sla`).  The per-aggregate
        granularity list and aligned pairs are not stored in a result, so the
        reconstruction carries the estimates, bounds and loss accounting only.
        """
        from repro.core.estimation import DelayQuantileEstimate
        from repro.core.verifier import DomainPerformance

        return DomainPerformance(
            domain=self.domain,
            delay_quantiles={
                entry.quantile: DelayQuantileEstimate(
                    quantile=entry.quantile,
                    estimate=entry.estimate,
                    lower=entry.lower,
                    upper=entry.upper,
                    sample_count=self.delay_sample_count,
                )
                for entry in self.delay_quantiles
            },
            delay_sample_count=self.delay_sample_count,
            offered_packets=self.offered_packets,
            lost_packets=self.lost_packets,
        )

    @property
    def has_delay_estimates(self) -> bool:
        return bool(self.delay_quantiles)


@dataclass(frozen=True)
class TruthSummary(Record):
    """Simulation ground truth for one domain, at the evaluated quantiles."""

    domain: str
    loss_rate: float
    offered_packets: int
    lost_packets: int
    delay_quantiles: tuple[tuple[float, float], ...] = ()

    @classmethod
    def from_truth(cls, truth, quantiles: Sequence[float]) -> "TruthSummary":
        """Summarize a (batch or object) domain ground truth."""
        wanted = tuple(sorted(float(q) for q in quantiles))
        true_quantiles = truth.delay_quantiles(wanted)
        return cls(
            domain=truth.domain,
            loss_rate=truth.loss_rate,
            offered_packets=truth.offered_packets,
            lost_packets=len(truth.lost),
            delay_quantiles=tuple(
                (quantile, float(true_quantiles[quantile])) for quantile in wanted
            ),
        )

    def delay_quantile(self, quantile: float) -> float:
        """True delay quantile (seconds); KeyError when not evaluated."""
        for entry_quantile, value in self.delay_quantiles:
            if entry_quantile == quantile:
                return value
        raise KeyError(f"quantile {quantile} was not evaluated against truth")


@dataclass(frozen=True)
class VerificationSummary(Record):
    """Whether a domain's receipts survived verification, and why not."""

    accepted: bool
    inconsistency_count: int = 0
    kinds: tuple[str, ...] = ()

    @classmethod
    def from_result(cls, result) -> "VerificationSummary":
        """Summarize a :class:`repro.core.verifier.VerificationResult`."""
        return cls(
            accepted=result.accepted,
            inconsistency_count=len(result.inconsistencies),
            kinds=tuple(
                sorted({finding.kind for finding in result.inconsistencies})
            ),
        )


@dataclass(frozen=True)
class OverheadSummary(Record):
    """Resource accounting of the measurement interval (Section 7.1)."""

    observed_packets: int
    observed_bytes: int
    receipt_bytes: int
    max_temp_buffer_packets: int

    @property
    def receipt_bytes_per_packet(self) -> float:
        return self.receipt_bytes / self.observed_packets if self.observed_packets else 0.0

    @property
    def bandwidth_overhead(self) -> float:
        return self.receipt_bytes / self.observed_bytes if self.observed_bytes else 0.0

    @classmethod
    def from_overhead(cls, overhead) -> "OverheadSummary":
        """Summarize a :class:`repro.core.protocol.SessionOverhead`."""
        return cls(
            observed_packets=overhead.observed_packets,
            observed_bytes=overhead.observed_bytes,
            receipt_bytes=overhead.receipt_bytes,
            max_temp_buffer_packets=overhead.max_temp_buffer_packets,
        )


@dataclass(frozen=True)
class TargetResult(Record):
    """Everything one cell computed about one target domain."""

    estimate: DomainEstimate
    truth: TruthSummary | None = None
    verification: VerificationSummary | None = None
    independent: DomainEstimate | None = None

    @property
    def domain(self) -> str:
        return self.estimate.domain

    def delay_accuracy(self, quantiles: Sequence[float] | None = None) -> float:
        """Worst-case quantile error vs truth in seconds (Figure 2's metric).

        Raises :class:`ValueError` when truth or estimates are unavailable.
        """
        if self.truth is None:
            raise ValueError(f"no ground truth recorded for {self.domain!r}")
        if not self.estimate.delay_quantiles:
            raise ValueError(f"no delay estimates available for {self.domain!r}")
        wanted = (
            tuple(quantiles)
            if quantiles is not None
            else tuple(entry.quantile for entry in self.estimate.delay_quantiles)
        )
        errors = [
            abs(self.estimate.delay_quantile(q) - self.truth.delay_quantile(q))
            for q in wanted
        ]
        return max(errors)


@dataclass(frozen=True)
class CellResult(Record):
    """The complete outcome of one experiment cell.

    ``spec`` is the cell's :meth:`ExperimentSpec.to_dict` for provenance —
    a stored result always carries enough information to re-run itself.
    """

    spec: dict[str, Any]
    targets: tuple[TargetResult, ...] = ()
    consistency_findings: int = 0
    overhead: OverheadSummary | None = None

    def target(self, domain: str) -> TargetResult:
        """The result for one target domain; KeyError when not evaluated."""
        for entry in self.targets:
            if entry.domain == domain:
                return entry
        raise KeyError(f"domain {domain!r} was not an estimation target")


@dataclass(frozen=True)
class MeshPathResult(Record):
    """Everything one mesh cell computed about one of its paths."""

    pair: str
    observer: str
    targets: tuple[TargetResult, ...] = ()
    consistency_findings: int = 0
    suspect_links: tuple[tuple[str, str], ...] = ()

    def target(self, domain: str) -> TargetResult:
        """The result for one transit domain; KeyError when not evaluated."""
        for entry in self.targets:
            if entry.domain == domain:
                return entry
        raise KeyError(f"domain {domain!r} is not a transit domain of path {self.pair}")


@dataclass(frozen=True)
class TriangulationSummary(Record):
    """The cross-path suspect triangulation of one mesh cell.

    ``implications`` record, per implicated domain, the distinct flagged
    links, the distinct partner domains and the paths involved; a domain
    satisfying :func:`repro.analysis.localization.exposure_rule` (two or more
    distinct partners across two or more paths) is *exposed* — single-path
    verification could only ever name it as half of a pair.
    ``exposed_domains`` is derived from the implications through that shared
    rule: ``to_dict`` writes it and ``from_dict`` ignores it, so the summary
    and the analysis layer can not disagree.
    """

    implications: tuple[dict[str, Any], ...] = ()
    derived_fields: ClassVar[tuple[str, ...]] = ("exposed_domains",)

    @property
    def exposed_domains(self) -> tuple[str, ...]:
        """Domains the triangulation rule exposes, in implication order."""
        from repro.analysis.localization import exposure_rule

        return tuple(
            entry["domain"]
            for entry in self.implications
            if exposure_rule(entry["partners"], entry["paths"])
        )

    @classmethod
    def from_triangulation(cls, triangulation) -> "TriangulationSummary":
        """Summarize a :class:`repro.analysis.localization.MeshTriangulation`."""
        return cls(
            implications=tuple(
                {
                    "domain": entry.domain,
                    "links": [list(link) for link in entry.links],
                    "partners": list(entry.partners),
                    "paths": list(entry.paths),
                }
                for entry in triangulation.implications
            ),
        )


@dataclass(frozen=True)
class MeshResult(Record):
    """The complete outcome of one mesh experiment cell.

    ``spec`` is the cell's :meth:`MeshSpec.to_dict` for provenance.  Paths
    appear in topology path order; every transit domain of every path carries
    its estimate, ground truth and verification verdict, and the per-path
    suspect links are triangulated across paths.
    """

    spec: dict[str, Any]
    paths: tuple[MeshPathResult, ...] = ()
    triangulation: TriangulationSummary | None = None
    overhead: OverheadSummary | None = None
    union_tag: ClassVar[str] = "paths"

    def path(self, pair: str) -> MeshPathResult:
        """The result for one path by its prefix-pair label."""
        for entry in self.paths:
            if entry.pair == pair:
                return entry
        raise KeyError(f"no mesh path with prefix pair {pair!r}")


@dataclass(frozen=True)
class SweepCell(Record):
    """One grid point of a sweep: the overrides applied and the result."""

    overrides: dict[str, Any] = field(default_factory=dict)
    result: CellResult | MeshResult | None = None


@dataclass(frozen=True)
class SweepResult(Record):
    """All cells of one sweep, in grid (row-major) order."""

    cells: tuple[SweepCell, ...] = ()

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self):
        return iter(self.cells)
