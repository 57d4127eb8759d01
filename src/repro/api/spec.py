"""Declarative experiment specifications.

An :class:`ExperimentSpec` describes one evaluation cell — traffic, path
conditions, protocol configuration, adversaries and the estimation question —
as a frozen, JSON-round-trippable value.  Components are named by registry key
(:mod:`repro.api.registry`), so a spec is *data*: it can be stored, diffed,
swept over, and shipped to a worker process, and
``ExperimentSpec.from_dict(spec.to_dict())`` is the identity.

Seed discipline
---------------
Every spec carries one root ``seed``.  Component seeds (traffic synthesis,
scenario randomness, each domain's delay/loss/reordering models) are derived
from the root seed and a structural label via :func:`derive_seed`, so

* two runs of the same spec are bit-identical (including across processes);
* changing the root seed re-seeds every component at once;
* any component can still pin an explicit ``seed`` in its params, which takes
  precedence (this is how the benchmark cells reproduce the historical seed
  layout exactly).

Serialization
-------------
Every spec here and :class:`ExecutionPolicy` take their ``to_dict`` /
``from_dict`` / ``to_json`` / ``from_json`` / ``with_overrides`` from one
codec (:mod:`repro.api.codec`), driven by the field types; a class adds only
its domain checks in ``__post_init__``.  The estimation-tier fields
(``EstimationSpec.mode`` / ``sketch_size``, ``MeshSpec.estimation_mode`` /
``sketch_size``) are declared with :func:`~repro.api.codec.sketch_tier` and
serialize only outside exact mode, which keeps every exact-mode spec hash as
it was.  ``CampaignSpec.cell`` parses as a :class:`MeshSpec` when its payload
has a ``topology`` key (``MeshSpec.union_tag``) and as an
:class:`ExperimentSpec` otherwise.  A malformed payload raises a
:class:`ValueError` naming the dotted path of the bad value, e.g.
``cell.traffic: unknown TrafficSpec keys ['pakcet_count']`` or
``cell.seed: expected an int, got str``.  The same field-type check runs when
a spec is built or overridden in Python, so a spec that builds always reads
back from its JSON.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import inspect
import math
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Mapping, Sequence

from repro.api.codec import Spec, sketch_tier, to_json_data
from repro.api.registry import (
    ADVERSARIES,
    DELAY_MODELS,
    LOSS_MODELS,
    REORDERING_MODELS,
    TOPOLOGIES,
    Registry,
)
from repro.analysis.sketch import DEFAULT_SKETCH_SIZE, MIN_SKETCH_SIZE
from repro.core.aggregation import AggregatorConfig
from repro.core.estimation import DEFAULT_QUANTILES
from repro.core.hop import HOPConfig
from repro.core.sampling import DEFAULT_MARKER_RATE, SamplerConfig
from repro.net.topology import HOPPath, Topology
from repro.simulation.scenario import SegmentCondition
from repro.traffic.flows import FlowGeneratorConfig
from repro.traffic.trace import SyntheticTrace, TraceConfig, default_prefix_pair
from repro.traffic.workload import WORKLOADS
from repro.util.validation import (
    check_fraction,
    check_non_negative,
    check_positive,
    check_probability,
)

__all__ = [
    "ENGINES",
    "derive_seed",
    "TrafficSpec",
    "ConditionSpec",
    "PathSpec",
    "TopologySpec",
    "HOPSpec",
    "ProtocolSpec",
    "AdversarySpec",
    "EstimationSpec",
    "ExperimentSpec",
    "MeshSpec",
    "SLATargetSpec",
    "CampaignSpec",
    "ExecutionPolicy",
]

_SEED_SPACE = 2**63

#: The execution engines a spec, a policy or ``repro run --engine`` may name.
#: Both are byte-identical; ``"streaming"`` runs in bounded memory.
ENGINES = ("batch", "streaming")


def _check_engine(engine: str) -> None:
    if engine not in ENGINES:
        raise ValueError(f"engine must be 'batch' or 'streaming', got {engine!r}")


def derive_seed(root: int, label: str) -> int:
    """A deterministic, well-spaced child seed for ``label`` under ``root``.

    Hashes ``root`` and the structural label together (BLAKE2b), so distinct
    components of one experiment get statistically independent seeds while the
    whole experiment remains a pure function of the root seed.
    """
    digest = hashlib.blake2b(
        f"{int(root)}:{label}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") % _SEED_SPACE


# -- params plumbing -----------------------------------------------------------------


def _normalize_params(spec: object, field_name: str) -> None:
    """Normalize a frozen spec's params dict in place (post-init helper)."""
    raw = getattr(spec, field_name)
    where = f"{type(spec).__name__}.{field_name}"
    if not isinstance(raw, Mapping):
        raise ValueError(f"{where} must be a mapping, got {type(raw).__name__}")
    object.__setattr__(spec, field_name, to_json_data(raw, where))


@functools.lru_cache(maxsize=None)
def _factory_signature(factory: Callable) -> inspect.Signature | None:
    """``inspect.signature(factory)``, read once per factory object per process.

    Every interval rebuilds its cell spec, and each build checks and then
    instantiates the same few factories.  Keying on the factory object (not
    its registry name) means re-registering a name picks up the new
    factory's signature; the cache holds one immutable ``Signature`` per
    factory ever checked.  ``None`` for builtins / C callables.
    """
    try:
        return inspect.signature(factory)
    except (TypeError, ValueError):
        return None


def _accepts_seed(factory: Callable) -> bool:
    signature = _factory_signature(factory)
    return signature is not None and "seed" in signature.parameters


def _check_factory_signature(
    registry: Registry, name: str, params: Mapping[str, Any]
) -> None:
    """Eagerly check that ``params`` bind to the factory's signature.

    Catches unknown/missing parameters at spec-construction time without
    invoking the factory (which may be arbitrarily expensive for third-party
    components).
    """
    factory = registry.get(name)
    signature = _factory_signature(factory)
    if signature is None:
        return
    kwargs = dict(params)
    if "seed" not in kwargs and "seed" in signature.parameters:
        kwargs["seed"] = 0
    try:
        signature.bind(**kwargs)
    except TypeError as exc:
        raise ValueError(
            f"invalid parameters for {registry.kind} {name!r}: {exc}"
        ) from exc


def _build_component(
    registry: Registry, name: str, params: Mapping[str, Any], derived_seed: int
):
    """Instantiate a registered component, injecting a derived seed if needed."""
    factory = registry.get(name)
    kwargs = dict(params)
    if "seed" not in kwargs and _accepts_seed(factory):
        kwargs["seed"] = derived_seed
    try:
        return factory(**kwargs)
    except TypeError as exc:
        raise ValueError(
            f"invalid parameters for {registry.kind} {name!r}: {exc}"
        ) from exc


# -- traffic -------------------------------------------------------------------------


@dataclass(frozen=True)
class TrafficSpec(Spec):
    """What traffic to synthesize.

    Either name a registered workload (:data:`repro.traffic.workload.WORKLOADS`)
    or give explicit sequence parameters.  With a ``workload``, an explicit
    ``packet_count`` overrides the workload's count (the standard scaling knob)
    and the remaining fields are ignored in favour of the workload definition.
    """

    workload: str | None = "smoke-sequence"
    packet_count: int | None = None
    packets_per_second: float = 100_000.0
    arrival_process: str = "poisson"
    payload_bytes: int = 16
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.workload is None and self.packet_count is None:
            raise ValueError(
                "TrafficSpec needs a workload name or an explicit packet_count"
            )
        if self.workload is not None:
            if self.workload not in WORKLOADS:
                known = ", ".join(sorted(WORKLOADS))
                raise ValueError(
                    f"unknown workload {self.workload!r}; known workloads: {known}"
                )
            # With a named workload only packet_count may be overridden; a
            # conflicting explicit field would otherwise be silently dropped.
            defaults = {
                spec_field.name: spec_field.default
                for spec_field in dataclasses.fields(self)
            }
            for conflicting in ("packets_per_second", "arrival_process", "payload_bytes"):
                if getattr(self, conflicting) != defaults[conflicting]:
                    raise ValueError(
                        f"TrafficSpec.{conflicting} has no effect when a workload "
                        f"is named; set workload=None for explicit parameters"
                    )
        self.trace_config()  # eagerly validate counts/rates/process

    def trace_config(self) -> TraceConfig:
        """Materialize the :class:`TraceConfig` this spec describes."""
        if self.workload is not None:
            config = WORKLOADS[self.workload].trace_config()
            if self.packet_count is not None:
                config = dataclasses.replace(config, packet_count=self.packet_count)
            return config
        return TraceConfig(
            packet_count=self.packet_count,
            packets_per_second=self.packets_per_second,
            arrival_process=self.arrival_process,
            payload_bytes=self.payload_bytes,
            flow_config=FlowGeneratorConfig(),
        )

    def effective_seed(self, root_seed: int) -> int:
        """The trace seed: explicit if pinned, derived from the root otherwise."""
        return self.seed if self.seed is not None else derive_seed(root_seed, "traffic")

    def build(self, root_seed: int = 0) -> SyntheticTrace:
        """A fresh (deterministic) trace generator for this spec."""
        return SyntheticTrace(
            config=self.trace_config(),
            prefix_pair=default_prefix_pair(),
            seed=self.effective_seed(root_seed),
        )


# -- path conditions -----------------------------------------------------------------


@dataclass(frozen=True)
class ConditionSpec(Spec):
    """One domain's internal forwarding behaviour, by registry key."""

    delay: str = "constant"
    delay_params: dict[str, Any] = field(default_factory=dict)
    loss: str = "none"
    loss_params: dict[str, Any] = field(default_factory=dict)
    reordering: str = "none"
    reordering_params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for params_field in ("delay_params", "loss_params", "reordering_params"):
            _normalize_params(self, params_field)
        # Dry-build with a probe seed: unknown registry keys and invalid model
        # parameters (negative delays, out-of-range rates, ...) fail at spec
        # construction time, not deep inside a sweep.
        self.build(root_seed=0, domain="__validate__")

    def build(self, root_seed: int = 0, domain: str = "") -> SegmentCondition:
        """Instantiate the models and compose the :class:`SegmentCondition`."""
        label = f"condition.{domain}"
        return SegmentCondition(
            delay_model=_build_component(
                DELAY_MODELS, self.delay, self.delay_params,
                derive_seed(root_seed, f"{label}.delay"),
            ),
            loss_model=_build_component(
                LOSS_MODELS, self.loss, self.loss_params,
                derive_seed(root_seed, f"{label}.loss"),
            ),
            reordering=_build_component(
                REORDERING_MODELS, self.reordering, self.reordering_params,
                derive_seed(root_seed, f"{label}.reordering"),
            ),
        )


@dataclass(frozen=True)
class PathSpec(Spec):
    """Which one-path topology to drive and the per-domain conditions to install.

    ``scenario`` names a one-path :data:`~repro.api.registry.TOPOLOGIES` entry.
    """

    scenario: str = "figure1"
    scenario_params: dict[str, Any] = field(default_factory=dict)
    conditions: dict[str, ConditionSpec] = field(default_factory=dict)
    seed: int | None = None

    def __post_init__(self) -> None:
        _normalize_params(self, "scenario_params")
        _check_factory_signature(TOPOLOGIES, self.scenario, self.scenario_params)
        for domain, condition in self.conditions.items():
            if not isinstance(condition, ConditionSpec):
                raise ValueError(
                    f"PathSpec.conditions[{domain!r}] must be a ConditionSpec, "
                    f"got {type(condition).__name__}"
                )

    def effective_seed(self, root_seed: int) -> int:
        return self.seed if self.seed is not None else derive_seed(root_seed, "path")

    def build(self, root_seed: int = 0) -> tuple[Topology, tuple[HOPPath, ...]]:
        """The scenario's topology and its one path; a ``ValueError`` for more."""
        topology, paths = TopologySpec(
            kind=self.scenario,
            params=self.scenario_params,
            seed=self.effective_seed(root_seed),
        ).build()
        if len(paths) > 1:
            raise ValueError(
                f"scenario {self.scenario!r} yields {len(paths)} paths; a "
                f"PathSpec drives exactly one (use a MeshSpec for several)"
            )
        return topology, paths


@dataclass(frozen=True)
class TopologySpec(Spec):
    """Which topology to build, by registry key (:data:`~repro.api.registry.TOPOLOGIES`).

    A topology factory returns ``(Topology, tuple[HOPPath, ...])`` — the
    shared domain/HOP graph and the paths a mesh workload drives over it.
    ``"figure1"`` is the paper's running example as a one-path mesh;
    ``"star"`` and ``"mesh-random"`` generate multi-path meshes with shared
    HOPs.
    """

    kind: str = "mesh-random"
    params: dict[str, Any] = field(default_factory=dict)
    seed: int | None = None

    def __post_init__(self) -> None:
        _normalize_params(self, "params")
        _check_factory_signature(TOPOLOGIES, self.kind, self.params)

    def effective_seed(self, root_seed: int) -> int:
        return self.seed if self.seed is not None else derive_seed(root_seed, "topology")

    def build(self, root_seed: int = 0) -> tuple[Topology, tuple[HOPPath, ...]]:
        """Build the topology and its paths (deterministic per root seed)."""
        factory = TOPOLOGIES.get(self.kind)
        try:
            topology, paths = factory(
                seed=self.effective_seed(root_seed), **self.params
            )
        except TypeError as exc:
            raise ValueError(
                f"invalid parameters for topology {self.kind!r}: {exc}"
            ) from exc
        paths = tuple(paths)
        if not paths:
            raise ValueError(f"topology {self.kind!r} produced no paths")
        return topology, paths


# -- protocol configuration ----------------------------------------------------------


@dataclass(frozen=True)
class HOPSpec(Spec):
    """One domain's locally tunable VPM knobs (a declarative ``HOPConfig``)."""

    sampling_rate: float = 0.01
    aggregate_size: int = 5000
    marker_rate: float = DEFAULT_MARKER_RATE
    reorder_window: float = 0.01

    def __post_init__(self) -> None:
        check_fraction("sampling_rate", self.sampling_rate)
        check_fraction("marker_rate", self.marker_rate)
        check_positive("aggregate_size", self.aggregate_size)
        check_non_negative("reorder_window", self.reorder_window)

    def build(self) -> HOPConfig:
        return HOPConfig(
            sampler=SamplerConfig(
                sampling_rate=self.sampling_rate, marker_rate=self.marker_rate
            ),
            aggregator=AggregatorConfig(
                expected_aggregate_size=self.aggregate_size,
                reorder_window=self.reorder_window,
            ),
        )


@dataclass(frozen=True)
class ProtocolSpec(Spec):
    """Who deploys VPM, and with which knobs.

    ``default`` applies to every domain not listed in ``domains``; a domain
    mapped to ``None`` (or a ``None`` default) has *not deployed VPM* and
    produces no receipts — the partial-deployment scenario of Section 8.
    """

    default: HOPSpec | None = field(default_factory=HOPSpec)
    domains: dict[str, HOPSpec | None] = field(default_factory=dict)
    max_diff: float = 1e-3

    def __post_init__(self) -> None:
        check_positive("max_diff", self.max_diff)
        if self.default is not None and not isinstance(self.default, HOPSpec):
            raise ValueError(
                f"ProtocolSpec.default must be a HOPSpec or None, "
                f"got {type(self.default).__name__}"
            )
        for domain, hop_spec in self.domains.items():
            if hop_spec is not None and not isinstance(hop_spec, HOPSpec):
                raise ValueError(
                    f"ProtocolSpec.domains[{domain!r}] must be a HOPSpec or None, "
                    f"got {type(hop_spec).__name__}"
                )

    def build_configs_for(
        self, domain_names: Sequence[str], where: str = "the mesh"
    ) -> dict[str, HOPConfig | None]:
        """The per-domain config mapping a session consumes, over ``domain_names``.

        Raises a :class:`ValueError` when ``domains`` names a domain that is
        not among them — a typo'd override would otherwise silently leave the
        intended domain on the default config.
        """
        known = set(domain_names)
        unknown = sorted(set(self.domains) - known)
        if unknown:
            raise ValueError(
                f"ProtocolSpec.domains names {unknown}, which are not on "
                f"{where} (domains: {sorted(known)})"
            )
        configs: dict[str, HOPConfig | None] = {}
        for name in domain_names:
            hop_spec = self.domains.get(name, self.default)
            configs[name] = hop_spec.build() if hop_spec is not None else None
        return configs


# -- adversaries ---------------------------------------------------------------------


@dataclass(frozen=True)
class AdversarySpec(Spec):
    """One adversarial behaviour, by registry key, installed at one domain."""

    kind: str
    domain: str
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        ADVERSARIES.get(self.kind)  # raises a clear ValueError when unknown
        if not self.domain:
            raise ValueError("AdversarySpec.domain must name a domain")
        _normalize_params(self, "params")

    @property
    def role(self) -> str:
        """``"agent"`` (receipt fabrication) or ``"condition"`` (forwarding)."""
        return getattr(ADVERSARIES.get(self.kind), "adversary_role", "agent")


# -- estimation ----------------------------------------------------------------------


def _check_estimation_mode(mode: str, sketch_size: int, where: str) -> None:
    """Shared validation for the estimation-tier knobs (cell + mesh specs)."""
    if mode not in ("exact", "sketch"):
        raise ValueError(
            f"{where} estimation mode must be 'exact' or 'sketch', got {mode!r}"
        )
    if not isinstance(sketch_size, int) or isinstance(sketch_size, bool):
        raise ValueError(
            f"{where} sketch_size must be an int, got {type(sketch_size).__name__}"
        )
    if sketch_size < MIN_SKETCH_SIZE:
        raise ValueError(
            f"{where} sketch_size must be >= {MIN_SKETCH_SIZE}, got {sketch_size}"
        )


@dataclass(frozen=True)
class EstimationSpec(Spec):
    """Who estimates whom, and what to compute per target.

    ``mode`` selects the campaign estimation tier: ``"exact"`` (the default)
    pools every matched delay sample through
    :class:`~repro.analysis.quantiles.MergedDelayPool`; ``"sketch"`` folds
    them through a :class:`~repro.analysis.sketch.DelayQuantileSketch` of
    budget ``sketch_size`` instead, bounding per-interval record size and
    campaign memory at a guaranteed ``1/(sketch_size+1)`` relative quantile
    error.  Both knobs serialize only in sketch mode, so every exact-mode
    artifact (goldens, spec hashes, stores) is byte-identical to before the
    tier existed.
    """

    observer: str = "L"
    targets: tuple[str, ...] = ("X",)
    quantiles: tuple[float, ...] = DEFAULT_QUANTILES
    verify: bool = True
    independent: bool = True
    mode: str = sketch_tier("exact", mode="mode")
    sketch_size: int = sketch_tier(DEFAULT_SKETCH_SIZE, mode="mode")

    def __post_init__(self) -> None:
        object.__setattr__(self, "targets", tuple(self.targets))
        object.__setattr__(self, "quantiles", tuple(float(q) for q in self.quantiles))
        if not self.observer:
            raise ValueError("EstimationSpec.observer must name a domain")
        if not self.targets:
            raise ValueError("EstimationSpec.targets must name at least one domain")
        repeated = sorted({target for target in self.targets if self.targets.count(target) > 1})
        if repeated:
            raise ValueError(f"EstimationSpec.targets names {repeated} more than once")
        for quantile in self.quantiles:
            check_probability("quantile", quantile)
        _check_estimation_mode(self.mode, self.sketch_size, "EstimationSpec")


# -- the composed experiment ---------------------------------------------------------


@dataclass(frozen=True)
class ExperimentSpec(Spec):
    """One evaluation cell: traffic × path × protocol × adversaries × question.

    ``engine`` selects the execution path: ``"batch"`` (the default) drives the
    vectorized collector fast path over one whole-trace pass of the
    propagation stream; ``"streaming"`` drives the same stream chunk by chunk
    (:mod:`repro.engine`), which runs in bounded memory.  Both engines
    produce identical results for every streamable registered component (they
    consume the same RNG streams in the same order), so the choice is a
    performance/memory knob, not a semantic one.
    """

    name: str = "experiment"
    seed: int = 0
    engine: str = "batch"
    traffic: TrafficSpec = field(default_factory=TrafficSpec)
    path: PathSpec = field(default_factory=PathSpec)
    protocol: ProtocolSpec = field(default_factory=ProtocolSpec)
    adversaries: tuple[AdversarySpec, ...] = ()
    estimation: EstimationSpec = field(default_factory=EstimationSpec)

    def __post_init__(self) -> None:
        _check_engine(self.engine)
        object.__setattr__(self, "adversaries", tuple(self.adversaries))
        for adversary in self.adversaries:
            if not isinstance(adversary, AdversarySpec):
                raise ValueError(
                    f"adversaries must be AdversarySpec instances, "
                    f"got {type(adversary).__name__}"
                )

    # -- convenience -----------------------------------------------------------------

    def run(self):
        """Run this spec as a one-cell experiment (see :class:`repro.api.Experiment`)."""
        from repro.api.runner import Experiment

        return Experiment(self).run()


# -- mesh experiments ----------------------------------------------------------------


@dataclass(frozen=True)
class MeshSpec(Spec):
    """One mesh evaluation cell: N paths over one topology, run together.

    The mesh sibling of :class:`ExperimentSpec`.  ``traffic`` is the
    *per-path* traffic template — every path synthesizes its own trace with
    its prefix pair and a seed derived per path index, so the workload scales
    with the path count.  ``conditions`` configure each transit domain once;
    at build time each crossing path gets its own freshly seeded model
    instances (per-(path, domain) seed labels), which is what keeps every
    path's outcome bit-identical to running it in isolation.

    ``engine`` is ``"batch"`` (materialize every path's trace) or
    ``"streaming"`` (chunked lockstep execution);
    both produce byte-identical results.  Estimation is fixed-form: every
    transit domain of every path is estimated and verified (observed by that
    path's source domain), and the per-path suspect links are triangulated
    across paths (:func:`repro.analysis.localization.triangulate_suspects`).
    """

    name: str = "mesh"
    seed: int = 0
    engine: str = "batch"
    topology: TopologySpec = field(default_factory=TopologySpec)
    traffic: TrafficSpec = field(default_factory=TrafficSpec)
    conditions: dict[str, ConditionSpec] = field(default_factory=dict)
    protocol: ProtocolSpec = field(default_factory=ProtocolSpec)
    adversaries: tuple[AdversarySpec, ...] = ()
    quantiles: tuple[float, ...] = DEFAULT_QUANTILES
    estimation_mode: str = sketch_tier("exact", mode="estimation_mode")
    sketch_size: int = sketch_tier(DEFAULT_SKETCH_SIZE, mode="estimation_mode")
    union_tag: ClassVar[str] = "topology"

    def __post_init__(self) -> None:
        _check_engine(self.engine)
        if not isinstance(self.topology, TopologySpec):
            raise ValueError(
                f"MeshSpec.topology must be a TopologySpec, "
                f"got {type(self.topology).__name__}"
            )
        for domain, condition in self.conditions.items():
            if not isinstance(condition, ConditionSpec):
                raise ValueError(
                    f"MeshSpec.conditions[{domain!r}] must be a ConditionSpec, "
                    f"got {type(condition).__name__}"
                )
        object.__setattr__(self, "adversaries", tuple(self.adversaries))
        for adversary in self.adversaries:
            if not isinstance(adversary, AdversarySpec):
                raise ValueError(
                    f"adversaries must be AdversarySpec instances, "
                    f"got {type(adversary).__name__}"
                )
        object.__setattr__(self, "quantiles", tuple(float(q) for q in self.quantiles))
        if not self.quantiles:
            raise ValueError("MeshSpec.quantiles must name at least one quantile")
        for quantile in self.quantiles:
            check_probability("quantile", quantile)
        _check_estimation_mode(self.estimation_mode, self.sketch_size, "MeshSpec")

    # -- convenience -------------------------------------------------------------------

    def run(self):
        """Run this spec as a one-cell mesh experiment."""
        from repro.api.runner import Experiment

        return Experiment(self).run()

    def traffic_seed(self, path_index: int) -> int:
        """The trace seed of one path (derived per index, pinnable as a base)."""
        base = self.traffic.seed if self.traffic.seed is not None else self.seed
        return derive_seed(base, f"mesh.traffic.{path_index}")


# -- long-horizon campaigns ----------------------------------------------------------


@dataclass(frozen=True)
class SLATargetSpec(Spec):
    """A declarative SLA contract a campaign is held to (see :mod:`repro.analysis.sla`).

    ``delay_bound`` (seconds) applies at ``delay_quantile`` of the pooled
    campaign delay samples; ``loss_bound`` applies to the campaign-wide loss
    rate — the "certain level of packet loss per month" framing the paper
    opens with.
    """

    delay_bound: float = 50e-3
    delay_quantile: float = 0.9
    loss_bound: float = 0.001
    name: str = "default-sla"

    def __post_init__(self) -> None:
        self.build()  # eagerly validate bounds via SLASpec's own checks

    def build(self):
        """Materialize the :class:`repro.analysis.sla.SLASpec` this describes."""
        from repro.analysis.sla import SLASpec

        return SLASpec(
            delay_bound=self.delay_bound,
            delay_quantile=self.delay_quantile,
            loss_bound=self.loss_bound,
            name=self.name,
        )


@dataclass(frozen=True)
class CampaignSpec(Spec):
    """A long-horizon measurement campaign: N intervals of one cell spec.

    SLAs are contracted over long horizons while receipts arrive per
    reporting interval; a campaign runs ``cell`` (an :class:`ExperimentSpec`
    or a :class:`MeshSpec` — any engine, including streaming and mesh) once
    per interval and folds the interval outcomes into campaign-level
    statistics held against ``sla``.

    Interval ``i`` runs the cell re-rooted at
    ``derive_seed(cell.seed, f"interval.{i}")`` — the existing BLAKE2b
    seed-spacing — so every interval draws fresh, statistically independent
    traffic *and* path randomness while the whole campaign stays a pure
    function of the one root seed.  That purity is what makes campaigns
    resumable: interval ``i`` is a function of ``(spec, i)`` alone, so a
    resumed campaign re-runs an interrupted interval from its start and
    reproduces the remaining intervals byte-identically
    (see :class:`repro.engine.campaign.CampaignRunner` and
    :class:`repro.store.RunStore`).

    Execution knobs (engine override, chunk size, pacing) are deliberately
    *not* part of the spec: the engines are byte-identical, so they may vary
    freely between a run and its resume without perturbing the stored record.
    They live in :class:`ExecutionPolicy` instead.
    """

    name: str = "campaign"
    intervals: int = 6
    cell: ExperimentSpec | MeshSpec = field(default_factory=ExperimentSpec)
    sla: SLATargetSpec | None = None

    def __post_init__(self) -> None:
        check_positive("intervals", self.intervals)
        if not isinstance(self.cell, (ExperimentSpec, MeshSpec)):
            raise ValueError(
                f"CampaignSpec.cell must be an ExperimentSpec or MeshSpec, "
                f"got {type(self.cell).__name__}"
            )
        if self.sla is not None and not isinstance(self.sla, SLATargetSpec):
            raise ValueError(
                f"CampaignSpec.sla must be an SLATargetSpec or None, "
                f"got {type(self.sla).__name__}"
            )
        if not self.name:
            raise ValueError("CampaignSpec.name must be non-empty")
        if self.sla is not None:
            # The delay check silently passes (verdict "unknown" counts as
            # compliant) when the SLA's quantile is never estimated — refuse
            # the mismatch up front instead of certifying compliance on a
            # quantile nobody measured.
            from repro.api.runner import lower_cell

            estimated = lower_cell(self.cell).quantiles
            if self.sla.delay_quantile not in estimated:
                raise ValueError(
                    f"CampaignSpec.sla checks delay at quantile "
                    f"{self.sla.delay_quantile}, but the cell only estimates "
                    f"{sorted(estimated)}; add it to the cell's quantiles"
                )

    # -- interval derivation -----------------------------------------------------------

    def interval_seed(self, index: int) -> int:
        """The root seed of interval ``index`` (BLAKE2b seed-spacing)."""
        if not 0 <= index < self.intervals:
            raise ValueError(
                f"interval index {index} out of range [0, {self.intervals})"
            )
        return derive_seed(self.cell.seed, f"interval.{index}")

    def interval_cell(self, index: int) -> "ExperimentSpec | MeshSpec":
        """The cell spec interval ``index`` executes.

        The cell is re-rooted at the interval seed; a traffic seed pinned in
        the template is re-spaced per interval too (otherwise every interval
        would replay identical traffic, which is never what a campaign
        means).  A mesh cell's *topology* seed is the opposite case: the
        network under contract is one fixed graph, so the template's
        effective topology seed is pinned before re-rooting — intervals vary
        traffic and path randomness, never the topology.
        """
        seed = self.interval_seed(index)
        replaced: dict[str, Any] = {"seed": seed}
        if self.cell.traffic.seed is not None:
            replaced["traffic"] = dataclasses.replace(
                self.cell.traffic,
                seed=derive_seed(self.cell.traffic.seed, f"interval.{index}"),
            )
        if isinstance(self.cell, MeshSpec) and self.cell.topology.seed is None:
            replaced["topology"] = dataclasses.replace(
                self.cell.topology,
                seed=self.cell.topology.effective_seed(self.cell.seed),
            )
        return dataclasses.replace(self.cell, **replaced)

    # -- identity ----------------------------------------------------------------------

    def spec_hash(self) -> str:
        """Stable hex digest of the campaign's canonical JSON form.

        Recorded in every run-store record; resume refuses to continue a
        store whose spec hash does not match the spec it was opened with.
        """
        return hashlib.blake2b(
            self.to_json().encode("utf-8"), digest_size=16
        ).hexdigest()


# -- execution policy ----------------------------------------------------------------

@dataclass(frozen=True)
class ExecutionPolicy(Spec):
    """*How* to execute a cell, as a frozen, JSON-round-trippable value.

    Specs above describe *what* to measure; an execution policy describes
    *how* to run it — engine choice, chunking and pacing.  Because every
    engine is byte-identical, a policy never changes a result: it is
    deliberately excluded from :meth:`CampaignSpec.spec_hash` and from every
    stored record, and may vary freely between a run and its resume.

    Attributes
    ----------
    engine:
        ``"batch"`` or ``"streaming"``; ``None`` defers to the cell spec's
        own ``engine`` field.
    chunk_size:
        Streaming chunk size in packets; ``None`` uses the engine default.
    throttle:
        Seconds :meth:`~repro.engine.campaign.CampaignRunner.run_interval`
        sleeps after each committed interval, and a dispatch worker after
        each upload — the pacing knob long soak runs use.  Finite and
        non-negative.

    Validation is eager: ``batch`` with a chunk size is rejected at
    construction, and :meth:`bind` rejects it against the cell's own engine
    before any work starts.  There is no resume knob: every run resumes at
    interval start.
    """

    engine: str | None = None
    chunk_size: int | None = None
    throttle: float = 0.0

    def __post_init__(self) -> None:
        if self.engine is not None:
            _check_engine(self.engine)
        if self.chunk_size is not None:
            check_positive("chunk_size", self.chunk_size)
        check_non_negative("throttle", self.throttle)
        if not math.isfinite(self.throttle):
            raise ValueError(f"throttle must be finite, got {self.throttle!r}")
        if self.engine is not None:
            self._check_streaming_knobs(self.engine)

    def _check_streaming_knobs(self, engine: str) -> None:
        """Reject a chunk size when ``engine`` is not streaming."""
        if engine != "streaming" and self.chunk_size is not None:
            raise ValueError(
                f"engine {engine!r} does not support chunk_size: it applies to the "
                f"streaming engine only; use engine='streaming'"
            )

    # -- normalization -----------------------------------------------------------------

    @classmethod
    def coerce(
        cls,
        policy: "ExecutionPolicy | None" = None,
        *,
        engine: str | None = None,
        chunk_size: int | None = None,
    ) -> "ExecutionPolicy":
        """Normalize legacy keyword arguments into a policy.

        Callers pass *either* a ready policy *or* the individual knobs;
        passing both (policy plus any non-default knob) is ambiguous and
        refused.
        """
        if policy is not None:
            if not isinstance(policy, cls):
                raise ValueError(
                    f"policy must be an ExecutionPolicy, got {type(policy).__name__}"
                )
            if engine is not None or chunk_size is not None:
                raise ValueError(
                    "pass either policy= or the individual engine/chunk_size "
                    "arguments, not both"
                )
            return policy
        return cls(engine=engine, chunk_size=chunk_size)

    def bind(self, spec: "ExperimentSpec | MeshSpec") -> "ExecutionPolicy":
        """Resolve this policy against a cell spec.

        Fills in the effective engine (the spec's own ``engine`` when this
        policy leaves it ``None``) and rejects spec-dependent conflicts
        eagerly, before any trace is synthesized.
        """
        engine = self.engine if self.engine is not None else spec.engine
        self._check_streaming_knobs(engine)
        return dataclasses.replace(self, engine=engine)
