"""The experiment orchestrator: one cell, or a parallel sweep of cells.

:class:`Experiment` turns a declarative spec into results:

* :meth:`Experiment.run` executes one cell — synthesize traffic, drive the
  scenario (batch fast path by default), run every domain's HOPs, and answer
  the spec's estimation question — returning a
  :class:`~repro.api.results.CellResult` (a
  :class:`~repro.api.results.MeshResult` for a mesh spec);
* :meth:`Experiment.sweep` executes a cartesian parameter grid of cells,
  serially or fanned across a :class:`~concurrent.futures.ProcessPoolExecutor`.

A cell has one kind.  :func:`lower_cell` is the only code that asks which
spelling it holds: an :class:`~repro.api.spec.ExperimentSpec` lowers to a
one-path mesh cell and a :class:`~repro.api.spec.MeshSpec` to a cell of all
its paths, each as a :class:`CellPlan`.  One builder turns the plan into a
:class:`~repro.engine.streaming.StreamingCell` and one summariser reads the
fed session back through the plan's per-path views.

Every cell is a pure function of its spec (all randomness is seeded from the
spec), so a parallel sweep is **bit-identical** to a serial one: results come
back in grid order and serialize to the same bytes regardless of ``workers``.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from typing import Any, Callable, Mapping, NamedTuple, Sequence

from repro.analysis.localization import identify_suspects, triangulate_suspects
from repro.api.codec import decode
from repro.api.registry import ADVERSARIES
from repro.api.results import (
    CellResult,
    DomainEstimate,
    MeshPathResult,
    MeshResult,
    OverheadSummary,
    SweepCell,
    SweepResult,
    TargetResult,
    TriangulationSummary,
    TruthSummary,
    VerificationSummary,
)
from repro.api.spec import (
    AdversarySpec,
    ExecutionPolicy,
    ExperimentSpec,
    MeshSpec,
)
from repro.core.hop import HOPConfig, HOPReport
from repro.core.protocol import MeshSession
from repro.core.verifier import Verifier
from repro.engine.streaming import (
    DEFAULT_CHUNK_SIZE,
    StreamingCell,
    StreamingRunner,
    StreamingTruth,
)
from repro.net.topology import HOPPath, Topology
from repro.simulation.mesh import MeshScenario
from repro.simulation.scenario import SegmentCondition
from repro.traffic.trace import SyntheticTrace

__all__ = [
    "CellPlan",
    "CellRun",
    "Experiment",
    "PathRun",
    "PathView",
    "clear_trace_cache",
    "lower_cell",
    "run_cell",
    "run_cell_full",
    "run_mesh_cell_full",
]


def clear_trace_cache() -> None:
    """Release per-process trace caches; a no-op, as no engine keeps one.

    Every engine synthesizes its trace afresh per cell, so there is nothing
    to release.  Kept so harnesses that clear caches between timed runs keep
    working.
    """


class PathView(NamedTuple):
    """What one path of a cell is asked: who observes it, whom it estimates, how."""

    observer: str
    targets: tuple[str, ...]
    verify: bool
    independent: bool


class CellPlan(NamedTuple):
    """A spec of either spelling, lowered to a mesh cell of one or more paths.

    ``conditions`` maps a domain to a condition factory of the path index.
    ``trace_seeds[i]`` and ``views[i]`` belong to ``paths[i]``.  ``mesh``
    selects the result: a :class:`MeshResult`, or the one path's
    :class:`CellResult`.
    """

    topology: Topology
    paths: tuple[HOPPath, ...]
    conditions: dict[str, Callable[[int], SegmentCondition]]
    trace_seeds: tuple[int, ...]
    views: tuple[PathView, ...]
    quantiles: tuple[float, ...]
    mode: str
    sketch_size: int
    mesh: bool


def _transit_names(path: HOPPath) -> list[str]:
    return [domain.name for domain, _, _ in path.domain_segments()]


def lower_cell(spec: ExperimentSpec | MeshSpec) -> CellPlan:
    """Lower either spelling to the :class:`CellPlan` every cell runs from.

    Each spelling keeps its seed labels, so its draws are unchanged: a single
    path builds condition models at ``ConditionSpec.build(seed, domain)``
    and its trace at ``traffic.effective_seed``; a mesh labels them
    ``f"{domain}.path{i}"`` and ``traffic_seed(i)``.  A single path is
    observed as its :class:`~repro.api.spec.EstimationSpec` says; each mesh
    path by its source domain, over every transit domain.
    """
    if isinstance(spec, MeshSpec):
        topology, paths = spec.topology.build(spec.seed)
        return CellPlan(
            topology=topology,
            paths=paths,
            conditions={
                domain: lambda index, name=domain, built=condition: built.build(
                    spec.seed, domain=f"{name}.path{index}"
                )
                for domain, condition in spec.conditions.items()
            },
            trace_seeds=tuple(spec.traffic_seed(index) for index in range(len(paths))),
            views=tuple(
                PathView(path.domains[0].name, tuple(_transit_names(path)), True, True)
                for path in paths
            ),
            quantiles=spec.quantiles,
            mode=spec.estimation_mode,
            sketch_size=spec.sketch_size,
            mesh=True,
        )
    topology, paths = spec.path.build(spec.seed)
    estimation = spec.estimation
    return CellPlan(
        topology=topology,
        paths=paths,
        conditions={
            domain: lambda index, name=domain, built=condition: built.build(spec.seed, name)
            for domain, condition in spec.path.conditions.items()
        },
        trace_seeds=(spec.traffic.effective_seed(spec.seed),),
        views=(
            PathView(
                estimation.observer,
                estimation.targets,
                estimation.verify,
                estimation.independent,
            ),
        ),
        quantiles=estimation.quantiles,
        mode=estimation.mode,
        sketch_size=estimation.sketch_size,
        mesh=False,
    )


def _adversary(adversary: AdversarySpec, *args: Any) -> Any:
    """Call the adversary's registry factory; bad parameters raise ``ValueError``."""
    try:
        return ADVERSARIES.get(adversary.kind)(*args, **adversary.params)
    except TypeError as exc:
        raise ValueError(
            f"invalid parameters for adversary {adversary.kind!r}: {exc}"
        ) from exc


def _build_agent_adversaries(
    spec: ExperimentSpec | MeshSpec,
    paths: Sequence[HOPPath],
    configs: Mapping[str, HOPConfig | None],
) -> dict[str, Any]:
    """The receipt-fabricating agents of the spec's agent-role adversaries.

    Each registry factory receives the cell's paths crossing its domain (the
    one path, on a single path).
    """
    agents: dict[str, Any] = {}
    for adversary in spec.adversaries:
        if adversary.role != "agent":
            continue
        if len(paths) > 1 and adversary.kind != "lying":
            raise ValueError(
                f"agent-role adversary {adversary.kind!r} is not supported on "
                f"meshes yet; the mesh engines support 'lying' (per-path "
                f"fabrication) and every condition-role adversary"
            )
        config = configs[adversary.domain]
        if config is None:
            # A receipt-fabricating adversary needs deployed HOPs; silently
            # handing it a default config would contradict the spec's
            # partial-deployment declaration.
            raise ValueError(
                f"adversary {adversary.kind!r} at domain {adversary.domain!r} "
                f"fabricates receipts, but the protocol spec declares that "
                f"domain non-deployed (config None)"
            )
        crossing = tuple(path for path in paths if path.hops_of(adversary.domain))
        agents[adversary.domain] = _adversary(
            adversary, adversary.domain, crossing, config, spec.protocol.max_diff, agents
        )
    return agents


def _build_cell(spec: ExperimentSpec | MeshSpec, plan: CellPlan | None = None) -> StreamingCell:
    """Build the (per-path scenarios, per-path traces, session) cell every engine drives.

    The single construction path for both engines and both spec spellings,
    from the spec's :class:`CellPlan` (lowered here when not given) — any
    spec field that must influence cell construction is wired here exactly
    once, which is what keeps the engines' byte-identical contract honest.
    Every check runs before any trace is built.
    """
    if plan is None:
        plan = lower_cell(spec)
    where = "the mesh" if plan.mesh else "the path"
    scenario = MeshScenario(plan.topology, plan.paths)
    for domain in sorted(plan.conditions):
        scenario.configure_domain(domain, plan.conditions[domain])
    for path, view in zip(plan.paths, plan.views):
        on_path = sorted(domain.name for domain in path.domains)
        if view.observer not in on_path:
            raise ValueError(
                f"estimation observer {view.observer!r} is not on the path, so "
                f"it would see no receipts (path domains: {on_path})"
            )
        transit = sorted(_transit_names(path))
        for target in view.targets:
            if target not in transit:
                raise ValueError(
                    f"estimation target {target!r} is not a transit domain of the "
                    f"path, so it has no ingress/egress HOP pair to estimate "
                    f"between (transit domains: {transit})"
                )

    domains = list(dict.fromkeys(d.name for path in plan.paths for d in path.domains))
    for adversary in spec.adversaries:
        if adversary.domain not in domains:
            raise ValueError(
                f"adversary {adversary.kind!r} targets domain "
                f"{adversary.domain!r}, which is not on {where} "
                f"(domains: {sorted(domains)})"
            )
        if adversary.role == "condition":
            scenario.override_domain(adversary.domain, **_adversary(adversary))

    configs = spec.protocol.build_configs_for(domains, where=where)
    session = MeshSession(
        plan.paths,
        configs=configs,
        agents=_build_agent_adversaries(spec, plan.paths, configs),
        max_diff=spec.protocol.max_diff,
    )
    traces = tuple(
        SyntheticTrace(
            config=spec.traffic.trace_config(), prefix_pair=path.prefix_pair, seed=seed
        )
        for path, seed in zip(plan.paths, plan.trace_seeds)
    )
    return StreamingCell(scenarios=scenario.path_scenarios, traces=traces, session=session)


def _target_result(
    verifier: Verifier,
    target: str,
    truth: StreamingTruth | None,
    quantiles: Sequence[float],
    view: PathView,
) -> TargetResult:
    """One target's estimate, truth, verdict and independent neighbor view."""
    performance = verifier.estimate_domain(target)
    truth_summary = TruthSummary.from_truth(truth, quantiles) if truth is not None else None
    verification = None
    if view.verify:
        verification = VerificationSummary.from_result(verifier.verify_domain(target))
    neighbor_estimate = None
    if view.independent:
        neighbor_view = verifier.estimate_domain_via_neighbors(target)
        if neighbor_view is not None:
            neighbor_estimate = DomainEstimate.from_performance(neighbor_view)
    return TargetResult(
        estimate=DomainEstimate.from_performance(performance),
        truth=truth_summary,
        verification=verification,
        independent=neighbor_estimate,
    )


class PathRun(NamedTuple):
    """One path of an executed cell: its observer's verifier and what it found."""

    verifier: Verifier
    result: MeshPathResult


class CellRun(NamedTuple):
    """One executed cell with its engine-layer artefacts still attached.

    ``result`` is a :class:`CellResult` for a single-path spec and a
    :class:`MeshResult` for a mesh spec; ``session`` is the fed session (its
    bus holds the published reports, so callers can build further
    verifiers); ``reports`` are the per-HOP receipts — what the campaign
    engine digests into its per-interval audit records.  ``plan`` is the
    lowered cell, and ``paths`` holds one :class:`PathRun` per path.
    """

    result: CellResult | MeshResult
    session: MeshSession
    reports: dict[int, HOPReport]
    plan: CellPlan
    paths: tuple[PathRun, ...]


def _summarize(
    spec: ExperimentSpec | MeshSpec,
    plan: CellPlan,
    session: MeshSession,
    path_truth: Sequence[Mapping[str, Any]],
    reports: dict[int, HOPReport],
) -> CellRun:
    """Read a fed session (+ per-path ground truth) through the plan's views.

    One verifier per view; the consistency check runs only where the view
    verifies.  A mesh projects a :class:`MeshResult`, its per-path suspect
    links triangulated across paths; a single path projects its one path as
    a :class:`CellResult`.
    """
    runs: list[PathRun] = []
    suspects_by_path: dict[str, tuple] = {}
    for index, (path, view) in enumerate(zip(session.paths, plan.views)):
        verifier = session.verifier_for(view.observer, path, quantiles=plan.quantiles)
        findings = verifier.check_consistency() if view.verify else []
        pair = str(path.prefix_pair)
        suspects_by_path[pair] = identify_suspects(path, findings) if plan.mesh else ()
        targets = tuple(
            _target_result(verifier, target, path_truth[index].get(target), plan.quantiles, view)
            for target in view.targets
        )
        result = MeshPathResult(
            pair=pair,
            observer=view.observer,
            targets=targets,
            consistency_findings=len(findings),
            suspect_links=tuple(
                (entry.upstream_domain, entry.downstream_domain)
                for entry in suspects_by_path[pair]
            ),
        )
        runs.append(PathRun(verifier, result))

    overhead = OverheadSummary.from_overhead(session.overhead())
    if plan.mesh:
        result = MeshResult(
            spec=spec.to_dict(),
            paths=tuple(run.result for run in runs),
            triangulation=TriangulationSummary.from_triangulation(
                triangulate_suspects(suspects_by_path)
            ),
            overhead=overhead,
        )
    else:
        (run,) = runs
        result = CellResult(
            spec=spec.to_dict(),
            targets=run.result.targets,
            consistency_findings=run.result.consistency_findings,
            overhead=overhead,
        )
    return CellRun(result, session, reports, plan, tuple(runs))


def _chunk_size(policy: ExecutionPolicy) -> int | None:
    """The runner's chunk size for a bound vectorised policy (batch: one pass)."""
    if policy.engine == "batch":
        return None
    return policy.chunk_size or DEFAULT_CHUNK_SIZE


def _run_full(spec: ExperimentSpec | MeshSpec, policy: ExecutionPolicy) -> CellRun:
    """Execute one cell of either spelling: the body of both ``*_full`` entry points."""
    policy = policy.bind(spec)
    plan = lower_cell(spec)
    streamed = StreamingRunner(_build_cell(spec, plan), chunk_size=_chunk_size(policy)).run()
    return _summarize(spec, plan, streamed.session, streamed.path_truth, streamed.reports)


def run_cell_full(
    spec: ExperimentSpec | MeshSpec,
    engine: str | None = None,
    chunk_size: int | None = None,
    policy: ExecutionPolicy | None = None,
) -> CellRun:
    """Execute one cell and return the result *and* its session/receipts.

    The engine contract of :func:`run_cell` applies unchanged; this variant
    exists for callers (the campaign runner, receipt auditing) that need the
    receipts or additional verifier views, not just the summary.  It takes
    either spec spelling; a :class:`MeshSpec` yields a :class:`MeshResult`.

    ``policy`` is the declarative form of the execution knobs
    (:class:`~repro.api.spec.ExecutionPolicy`); the individual ``engine`` /
    ``chunk_size`` keywords keep working and normalize into one.
    """
    policy = ExecutionPolicy.coerce(policy, engine=engine, chunk_size=chunk_size)
    return _run_full(spec, policy)


def run_cell(
    spec: ExperimentSpec | MeshSpec,
    engine: str | None = None,
    chunk_size: int | None = None,
    policy: ExecutionPolicy | None = None,
) -> CellResult | MeshResult:
    """Execute one experiment cell of either spelling and summarize it.

    ``engine`` overrides the spec's engine *for execution only* — the result
    still embeds the spec unchanged, so the same spec run under different
    engines yields byte-identical ``to_json()`` (the engines' exactness
    guarantee, asserted by the conformance suite).  ``chunk_size`` applies
    to the streaming engine; ``policy`` is the declarative equivalent of
    both.  A :class:`MeshSpec` yields a :class:`MeshResult`.
    """
    return run_cell_full(spec, engine=engine, chunk_size=chunk_size, policy=policy).result


def run_mesh_cell_full(
    spec: MeshSpec,
    engine: str | None = None,
    chunk_size: int | None = None,
    policy: ExecutionPolicy | None = None,
) -> CellRun:
    """Execute one mesh cell and return the result *and* its session/receipts.

    :func:`run_cell_full` over the same body.  Kept defined because the
    benchmark's layer tracer (``perfbench/layers.py``) patches it by name.
    """
    policy = ExecutionPolicy.coerce(policy, engine=engine, chunk_size=chunk_size)
    return _run_full(spec, policy)


def _run_cell_payload(
    payload: dict[str, Any], policy_payload: dict[str, Any] | None = None
) -> CellResult | MeshResult:
    """Worker entry point: rebuild the spec from plain data and run the cell.

    Specs (and the optional execution policy) cross the process boundary as
    dicts (their canonical wire form), so a worker reconstructs and
    re-validates them against its own registries.  Mesh payloads are
    recognized by the codec's union rule (their ``topology`` key).
    """
    policy = (
        ExecutionPolicy.from_dict(policy_payload)
        if policy_payload is not None
        else None
    )
    return run_cell(decode(ExperimentSpec | MeshSpec, payload), policy=policy)


class Experiment:
    """Runs a declarative :class:`~repro.api.spec.ExperimentSpec` or
    :class:`~repro.api.spec.MeshSpec`.

    >>> spec = ExperimentSpec(
    ...     traffic=TrafficSpec(workload="bench-sequence"),
    ...     path=PathSpec(conditions={"X": ConditionSpec(loss="bernoulli",
    ...                                                  loss_params={"loss_rate": 0.1})}),
    ... )
    >>> result = Experiment(spec).run()
    >>> result.target("X").estimate.loss_rate

    A mesh spec runs the same way (``.run()`` returns a
    :class:`~repro.api.results.MeshResult`), and sweeps accept the same
    dotted-path grids over either spec type.
    """

    def __init__(self, spec: ExperimentSpec | MeshSpec) -> None:
        self.spec = spec

    # -- single cell -----------------------------------------------------------------

    def run(
        self,
        engine: str | None = None,
        chunk_size: int | None = None,
        policy: ExecutionPolicy | None = None,
    ) -> CellResult | MeshResult:
        """Run one cell.

        By default the spec's engine runs (the batch fast path unless the
        spec says otherwise).  ``engine="streaming"`` drives the chunked
        bounded-memory engine::

            Experiment(spec).run(engine="streaming", chunk_size=65536)

        or, equivalently, as one declarative value::

            Experiment(spec).run(policy=ExecutionPolicy(engine="streaming",
                                                        chunk_size=65536))

        The override affects execution only — the returned result embeds the
        spec unchanged, so results are directly comparable across engines.
        """
        return run_cell(
            self.spec,
            engine=engine,
            chunk_size=chunk_size,
            policy=policy,
        )

    # -- sweeps ----------------------------------------------------------------------

    def sweep(
        self,
        grid: Mapping[str, Sequence[Any]],
        workers: int = 1,
        policy: ExecutionPolicy | None = None,
    ) -> SweepResult:
        """Run the cartesian product of ``grid`` over this experiment's spec.

        ``grid`` maps dotted spec paths (as accepted by
        :meth:`ExperimentSpec.with_overrides`) to the values to sweep, e.g.::

            experiment.sweep({
                "protocol.default.sampling_rate": [0.05, 0.01, 0.001],
                "path.conditions.X.loss_params.loss_rate": [0.0, 0.25],
            }, workers=4)

        Cells are enumerated row-major in the grid's key order.  With
        ``workers > 1`` cells execute on a process pool; because every cell is
        a pure function of its spec, the sweep result — including its
        ``to_json()`` bytes — is identical to the serial run.

        Worker processes rebuild each spec against their *own* registries.
        Built-in components always resolve; custom ``register_*`` components
        must be registered at import time of a module the workers import too
        (e.g. the plugin module itself) — registrations made only in a
        ``__main__`` script are invisible to spawn/forkserver workers (the
        default start method on macOS and Windows) and such sweeps should run
        with ``workers=1`` or register from an importable module.
        """
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        keys = list(grid)
        combos = list(itertools.product(*(list(grid[key]) for key in keys)))
        overrides_list = [dict(zip(keys, combo)) for combo in combos]
        specs = [self.spec.with_overrides(overrides) for overrides in overrides_list]
        if policy is not None:
            # Validate the policy against every cell before any work starts —
            # a sweep that would die on cell 40 of 60 should die on cell 0.
            for cell_spec in specs:
                policy.bind(cell_spec)

        if workers > 1 and len(specs) > 1:
            payloads = [cell_spec.to_dict() for cell_spec in specs]
            runner = partial(
                _run_cell_payload,
                policy_payload=policy.to_dict() if policy is not None else None,
            )
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(runner, payloads))
        else:
            results = [run_cell(cell_spec, policy=policy) for cell_spec in specs]

        return SweepResult(
            cells=tuple(
                SweepCell(overrides=overrides, result=result)
                for overrides, result in zip(overrides_list, results)
            )
        )
