"""The declarative experiment API — the official public surface of ``repro``.

Every evaluation in the paper is a sweep over (traffic, path conditions,
protocol configuration, adversary, estimation) cells.  This package exposes
that altitude directly:

* :mod:`repro.api.spec` — frozen, JSON-round-trippable experiment specs
  (:class:`ExperimentSpec` and its parts) with deterministic seed spacing;
* :mod:`repro.api.registry` — the string-keyed component registries third
  parties plug new delay/loss models, adversaries and scenarios into;
* :mod:`repro.api.runner` — :class:`Experiment`, with ``.run()`` for one cell
  (batch fast path by default) and ``.sweep(grid, workers=N)`` for parallel
  cartesian sweeps that are bit-identical to serial execution;
* :mod:`repro.api.results` — typed per-cell results with byte-stable JSON for
  cross-run comparison.

A complete experiment in a few declarative lines:

>>> from repro.api import (ConditionSpec, Experiment, ExperimentSpec,
...                        PathSpec, TrafficSpec)
>>> spec = ExperimentSpec(
...     seed=1,
...     traffic=TrafficSpec(workload="bench-sequence"),
...     path=PathSpec(conditions={"X": ConditionSpec(
...         delay="congestion", delay_params={"scenario": "udp-burst"},
...         loss="gilbert-elliott-rate", loss_params={"target_rate": 0.10},
...     )}),
... )
>>> cell = Experiment(spec).run()
>>> cell.target("X").estimate.loss_rate          # receipt-based estimate
>>> cell.target("X").truth.loss_rate             # simulation ground truth

The engine underneath (:class:`~repro.simulation.scenario.PathScenario` and
one session, :class:`~repro.core.protocol.MeshSession`, whose one-path
spelling is :class:`~repro.core.protocol.VPMSession`, over one
:class:`~repro.reporting.dissemination.ReceiptBus`) remains importable for
code that needs the lower altitude.  Both spec spellings run through one
cell builder, and :func:`run_cell_full` / :func:`run_mesh_cell_full` both
return a :class:`CellRun`.
"""

from repro.api.registry import (
    ADVERSARIES,
    DELAY_MODELS,
    LOSS_MODELS,
    REORDERING_MODELS,
    SCENARIOS,
    TOPOLOGIES,
    Registry,
    register_adversary,
    register_scenario,
    register_topology,
)
from repro.api.results import (
    CellResult,
    DomainEstimate,
    MeshPathResult,
    MeshResult,
    OverheadSummary,
    QuantileEstimate,
    SweepCell,
    SweepResult,
    TargetResult,
    TriangulationSummary,
    TruthSummary,
    VerificationSummary,
)
from repro.api.runner import (
    CellRun,
    Experiment,
    run_cell,
    run_cell_full,
    run_mesh_cell,
    run_mesh_cell_full,
)
from repro.api.spec import (
    AdversarySpec,
    CampaignSpec,
    ConditionSpec,
    EstimationSpec,
    ExecutionPolicy,
    ExperimentSpec,
    HOPSpec,
    MeshSpec,
    PathSpec,
    ProtocolSpec,
    SLATargetSpec,
    TopologySpec,
    TrafficSpec,
    derive_seed,
)

__all__ = [
    "ADVERSARIES",
    "AdversarySpec",
    "CampaignSpec",
    "CellResult",
    "CellRun",
    "ConditionSpec",
    "DELAY_MODELS",
    "DomainEstimate",
    "EstimationSpec",
    "ExecutionPolicy",
    "Experiment",
    "ExperimentSpec",
    "HOPSpec",
    "LOSS_MODELS",
    "MeshPathResult",
    "MeshResult",
    "MeshSpec",
    "OverheadSummary",
    "PathSpec",
    "ProtocolSpec",
    "QuantileEstimate",
    "REORDERING_MODELS",
    "Registry",
    "SCENARIOS",
    "SLATargetSpec",
    "SweepCell",
    "SweepResult",
    "TOPOLOGIES",
    "TargetResult",
    "TopologySpec",
    "TrafficSpec",
    "TriangulationSummary",
    "TruthSummary",
    "VerificationSummary",
    "derive_seed",
    "register_adversary",
    "register_scenario",
    "register_topology",
    "run_cell",
    "run_cell_full",
    "run_mesh_cell",
    "run_mesh_cell_full",
]
