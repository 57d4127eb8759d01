"""The experiment orchestrator: one cell, or a parallel sweep of cells.

:class:`Experiment` turns a declarative :class:`~repro.api.spec.ExperimentSpec`
into results:

* :meth:`Experiment.run` executes one cell — synthesize traffic, drive the
  path scenario (batch fast path by default), run every domain's HOPs, and
  answer the spec's estimation question — returning a
  :class:`~repro.api.results.CellResult`;
* :meth:`Experiment.sweep` executes a cartesian parameter grid of cells,
  serially or fanned across a :class:`~concurrent.futures.ProcessPoolExecutor`.

Every cell is a pure function of its spec (all randomness is seeded from the
spec), so a parallel sweep is **bit-identical** to a serial one: results come
back in grid order and serialize to the same bytes regardless of ``workers``.
"""

from __future__ import annotations

import dataclasses
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
from repro.core.protocol import MeshSession, VPMSession
from repro.core.verifier import Verifier
from repro.engine.streaming import (
    DEFAULT_CHUNK_SIZE,
    RunnerCheckpoint,
    StreamingCell,
    StreamingResult,
    StreamingRunner,
    StreamingTruth,
)
from repro.net.topology import HOPPath
from repro.simulation.mesh import MeshScenario
from repro.traffic.trace import SyntheticTrace

__all__ = [
    "CellRun",
    "Experiment",
    "clear_trace_cache",
    "run_cell",
    "run_cell_full",
    "run_mesh_cell",
    "run_mesh_cell_full",
]


def clear_trace_cache() -> None:
    """Release per-process trace caches; a no-op, as no engine keeps one.

    Every engine synthesizes its trace afresh per cell, so there is nothing
    to release.  Kept so harnesses that clear caches between timed runs keep
    working.
    """


def _condition_overrides(adversary: AdversarySpec) -> dict[str, Any]:
    """The :class:`SegmentCondition` overrides a condition-role adversary installs."""
    factory = ADVERSARIES.get(adversary.kind)
    try:
        return factory(**adversary.params)
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
        factory = ADVERSARIES.get(adversary.kind)
        crossing = tuple(path for path in paths if path.hops_of(adversary.domain))
        try:
            agents[adversary.domain] = factory(
                adversary.domain,
                crossing,
                config,
                spec.protocol.max_diff,
                agents,
                **adversary.params,
            )
        except TypeError as exc:
            raise ValueError(
                f"invalid parameters for adversary {adversary.kind!r}: {exc}"
            ) from exc
    return agents


def _build_cell(spec: ExperimentSpec | MeshSpec) -> StreamingCell:
    """Build the (per-path scenarios, per-path traces, session) cell every engine drives.

    The single construction path for both engines and both spec spellings —
    any spec field that must influence cell construction is wired here
    exactly once, which is what keeps the engines' byte-identical contract
    honest.  A cell is a pure function of the spec's seeds, so every rebuild
    is identical.
    """
    if isinstance(spec, MeshSpec):
        topology, paths = spec.topology.build(spec.seed)
        scenario = MeshScenario(topology, paths, seed=spec.seed)
        transit_names = set(scenario.transit_domain_names())
        for domain in sorted(spec.conditions):
            if domain not in transit_names:
                known = ", ".join(sorted(transit_names)) or "<none>"
                raise ValueError(
                    f"MeshSpec.conditions names {domain!r}, which is a transit "
                    f"domain of no path (transit domains: {known})"
                )
            condition_spec = spec.conditions[domain]
            scenario.configure_domain(
                domain,
                lambda index, name=domain, built=condition_spec: built.build(
                    spec.seed, domain=f"{name}.path{index}"
                ),
            )
        scenarios = scenario.path_scenarios
        trace_seeds = [spec.traffic_seed(index) for index in range(len(paths))]
        where = "the mesh"
    else:
        scenario = spec.path.build(spec.seed)
        paths = (scenario.path,)
        scenarios = (scenario,)
        trace_seeds = [spec.traffic.effective_seed(spec.seed)]
        where = "the path"
        on_path = sorted(domain.name for domain in scenario.path.domains)
        if spec.estimation.observer not in on_path:
            raise ValueError(
                f"estimation observer {spec.estimation.observer!r} is not on "
                f"the path, so it would see no receipts (path domains: {on_path})"
            )
        transit = sorted(domain.name for domain, _, _ in scenario.path.domain_segments())
        for target in spec.estimation.targets:
            if target not in transit:
                raise ValueError(
                    f"estimation target {target!r} is not a transit domain of the "
                    f"path, so it has no ingress/egress HOP pair to estimate "
                    f"between (transit domains: {transit})"
                )

    domains = list(dict.fromkeys(d.name for path in paths for d in path.domains))
    for adversary in spec.adversaries:
        if adversary.domain not in domains:
            raise ValueError(
                f"adversary {adversary.kind!r} targets domain "
                f"{adversary.domain!r}, which is not on {where} "
                f"(domains: {sorted(domains)})"
            )
        if adversary.role != "condition":
            continue
        overrides = _condition_overrides(adversary)
        if isinstance(scenario, MeshScenario):
            scenario.override_domain(adversary.domain, **overrides)
        else:
            condition = scenario.condition_for(adversary.domain)
            scenario.configure_domain(
                adversary.domain, dataclasses.replace(condition, **overrides)
            )

    configs = spec.protocol.build_configs_for(domains, where=where)
    session_args = dict(
        configs=configs,
        agents=_build_agent_adversaries(spec, paths, configs),
        max_diff=spec.protocol.max_diff,
    )
    session = (
        MeshSession(paths, **session_args)
        if isinstance(spec, MeshSpec)
        else VPMSession(paths[0], **session_args)
    )
    traces = tuple(
        SyntheticTrace(
            config=spec.traffic.trace_config(), prefix_pair=path.prefix_pair, seed=seed
        )
        for path, seed in zip(paths, trace_seeds)
    )
    return StreamingCell(scenarios=tuple(scenarios), traces=traces, session=session)


def _target_result(
    verifier: Verifier,
    target: str,
    truth: StreamingTruth | None,
    quantiles: Sequence[float],
    verify: bool,
    independent: bool,
) -> TargetResult:
    """One target's estimate, truth, verdict and independent neighbor view."""
    performance = verifier.estimate_domain(target)
    truth_summary = TruthSummary.from_truth(truth, quantiles) if truth is not None else None
    verification = None
    if verify:
        verification = VerificationSummary.from_result(verifier.verify_domain(target))
    neighbor_estimate = None
    if independent:
        neighbor_view = verifier.estimate_domain_via_neighbors(target)
        if neighbor_view is not None:
            neighbor_estimate = DomainEstimate.from_performance(neighbor_view)
    return TargetResult(
        estimate=DomainEstimate.from_performance(performance),
        truth=truth_summary,
        verification=verification,
        independent=neighbor_estimate,
    )


def _summarize_cell(spec: ExperimentSpec, session: VPMSession, truth_source) -> CellResult:
    """Turn a fed session (+ ground truth) into a :class:`CellResult`."""
    estimation = spec.estimation
    verifier = session.verifier_for(estimation.observer, quantiles=estimation.quantiles)
    consistency_findings = len(verifier.check_consistency()) if estimation.verify else 0
    targets = tuple(
        _target_result(
            verifier,
            target,
            truth_source.truth_for(target)
            if target in truth_source.domain_truth
            else None,
            estimation.quantiles,
            estimation.verify,
            estimation.independent,
        )
        for target in estimation.targets
    )
    return CellResult(
        spec=spec.to_dict(),
        targets=targets,
        consistency_findings=consistency_findings,
        overhead=OverheadSummary.from_overhead(session.overhead()),
    )


def _summarize_mesh(
    spec: MeshSpec, session: MeshSession, streamed: StreamingResult
) -> MeshResult:
    """Turn a fed mesh session (+ per-path ground truth) into a :class:`MeshResult`."""
    path_results: list[MeshPathResult] = []
    suspects_by_path: dict[str, tuple] = {}
    for index, path in enumerate(session.paths):
        observer = path.domains[0].name
        verifier = session.verifier_for(observer, path, quantiles=spec.quantiles)
        findings = verifier.check_consistency()
        suspects = identify_suspects(path, findings)
        suspects_by_path[str(path.prefix_pair)] = suspects
        targets = tuple(
            _target_result(
                verifier,
                domain.name,
                streamed.truth_for(domain.name, index),
                spec.quantiles,
                verify=True,
                independent=True,
            )
            for domain, _, _ in path.domain_segments()
        )
        path_results.append(
            MeshPathResult(
                pair=str(path.prefix_pair),
                observer=observer,
                targets=targets,
                consistency_findings=len(findings),
                suspect_links=tuple(
                    (entry.upstream_domain, entry.downstream_domain)
                    for entry in suspects
                ),
            )
        )

    triangulation = TriangulationSummary.from_triangulation(
        triangulate_suspects(suspects_by_path)
    )
    return MeshResult(
        spec=spec.to_dict(),
        paths=tuple(path_results),
        triangulation=triangulation,
        overhead=OverheadSummary.from_overhead(session.overhead()),
    )


class CellRun(NamedTuple):
    """One executed cell with its engine-layer artefacts still attached.

    ``result`` is the summarized :class:`CellResult` (a :class:`MeshResult`
    for a mesh spec); ``session`` is the fed session (its bus holds the
    published reports, so callers can build further verifiers); ``reports``
    are the per-HOP receipts — what the campaign engine digests into its
    per-interval audit records.
    """

    result: CellResult | MeshResult
    session: MeshSession
    reports: dict[int, HOPReport]


def _chunk_size(policy: ExecutionPolicy) -> int | None:
    """The runner's chunk size for a bound vectorised policy (batch: one pass)."""
    if policy.engine == "batch":
        return None
    return policy.chunk_size or DEFAULT_CHUNK_SIZE


def _run_full(
    spec: ExperimentSpec | MeshSpec,
    policy: ExecutionPolicy,
    checkpoint_sink: Callable[[RunnerCheckpoint], None] | None,
    resume_from: RunnerCheckpoint | None,
) -> CellRun:
    """Execute one cell of either spelling: the body of both ``*_full`` entry points."""
    policy = policy.bind(spec)
    runner = StreamingRunner(
        _build_cell(spec),
        chunk_size=_chunk_size(policy),
        checkpoint_every=policy.checkpoint_every,
        checkpoint_sink=checkpoint_sink,
        resume_from=resume_from,
    )
    streamed = runner.run()
    summarize = _summarize_mesh if isinstance(spec, MeshSpec) else _summarize_cell
    result = summarize(spec, streamed.session, streamed)
    return CellRun(result=result, session=streamed.session, reports=streamed.reports)


def run_cell_full(
    spec: ExperimentSpec | MeshSpec,
    engine: str | None = None,
    chunk_size: int | None = None,
    policy: ExecutionPolicy | None = None,
    checkpoint_sink: Callable[[RunnerCheckpoint], None] | None = None,
    resume_from: RunnerCheckpoint | None = None,
) -> CellRun:
    """Execute one cell and return the result *and* its session/receipts.

    The engine contract of :func:`run_cell` applies unchanged; this variant
    exists for callers (the campaign runner, receipt auditing) that need the
    receipts or additional verifier views, not just the summary.  It takes
    either spec spelling; a :class:`MeshSpec` yields a :class:`MeshResult`.

    ``policy`` is the declarative form of the execution knobs
    (:class:`~repro.api.spec.ExecutionPolicy`); the individual ``engine`` /
    ``chunk_size`` keywords keep working and normalize into one.
    ``checkpoint_sink`` / ``resume_from`` forward to
    :class:`~repro.engine.streaming.StreamingRunner` for mid-run
    checkpointing (chunked single-path runs only).
    """
    policy = ExecutionPolicy.coerce(policy, engine=engine, chunk_size=chunk_size)
    return _run_full(spec, policy, checkpoint_sink, resume_from)


def run_cell(
    spec: ExperimentSpec,
    engine: str | None = None,
    chunk_size: int | None = None,
    policy: ExecutionPolicy | None = None,
) -> CellResult:
    """Execute one experiment cell and summarize everything it produced.

    ``engine`` overrides the spec's engine *for execution only* — the result
    still embeds the spec unchanged, so the same spec run under different
    engines yields byte-identical ``CellResult.to_json()`` (the engines'
    exactness guarantee, asserted by the conformance suite).  ``chunk_size``
    applies to the streaming engine; ``policy`` is the declarative
    equivalent of both.
    """
    return run_cell_full(spec, engine=engine, chunk_size=chunk_size, policy=policy).result


def run_mesh_cell_full(
    spec: MeshSpec,
    engine: str | None = None,
    chunk_size: int | None = None,
    policy: ExecutionPolicy | None = None,
) -> CellRun:
    """Execute one mesh cell and return the result *and* its session/receipts.

    The mesh spelling of :func:`run_cell_full`, over the same body.
    """
    policy = ExecutionPolicy.coerce(policy, engine=engine, chunk_size=chunk_size)
    return _run_full(spec, policy, None, None)


def run_mesh_cell(
    spec: MeshSpec,
    engine: str | None = None,
    chunk_size: int | None = None,
    policy: ExecutionPolicy | None = None,
) -> MeshResult:
    """Execute one mesh cell and summarize everything it produced.

    Like :func:`run_cell`, ``engine`` overrides the spec's engine for
    execution only; batch and streaming (any ``chunk_size``) produce
    byte-identical ``MeshResult.to_json()``.
    """
    return run_mesh_cell_full(spec, engine=engine, chunk_size=chunk_size, policy=policy).result


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
    spec = decode(ExperimentSpec | MeshSpec, payload)
    if isinstance(spec, MeshSpec):
        return run_mesh_cell(spec, policy=policy)
    return run_cell(spec, policy=policy)


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
        if isinstance(self.spec, MeshSpec):
            return run_mesh_cell(
                self.spec,
                engine=engine,
                chunk_size=chunk_size,
                policy=policy,
            )
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
            results = [
                run_mesh_cell(cell_spec, policy=policy)
                if isinstance(cell_spec, MeshSpec)
                else run_cell(cell_spec, policy=policy)
                for cell_spec in specs
            ]

        return SweepResult(
            cells=tuple(
                SweepCell(overrides=overrides, result=result)
                for overrides, result in zip(overrides_list, results)
            )
        )
