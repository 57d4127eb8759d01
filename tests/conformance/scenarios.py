"""The canonical conformance scenarios.

Seven single-path scenarios (delay/loss/reorder × honest/lying, plus a
delay scenario in which ``N`` covers ``X``'s lie): each is a small, fully
pinned :class:`~repro.api.ExperimentSpec` over the Figure-1 path with domain
``X`` as the interesting transit domain.  Two mesh scenarios:
a shared-HOP honest random mesh and a star mesh with one lying transit core
(each a pinned :class:`~repro.api.MeshSpec`, freezing receipts, per-path
estimates/verdicts and the cross-path triangulation output).

The golden fixtures in ``goldens/`` freeze each scenario's output as produced
by the batch engine; the conformance tests additionally require the streaming
engine to reproduce them byte-for-byte (``time_sum`` compared at its
documented 10-significant-digit tolerance).
"""

from __future__ import annotations

from repro.api import ExperimentSpec, MeshSpec
from repro.api.spec import (
    AdversarySpec,
    ConditionSpec,
    PathSpec,
    TopologySpec,
    TrafficSpec,
)

_LYING = (AdversarySpec(kind="lying", domain="X"),)
_COLLUDING = _LYING + (
    AdversarySpec(kind="colluding", domain="N", params={"colluding_with": "X"}),
)

_DELAY = ConditionSpec(
    delay="jitter",
    delay_params={"base_delay": 1.0e-3, "jitter_std": 0.5e-3},
)
_LOSS = ConditionSpec(
    delay="constant",
    delay_params={"delay": 0.8e-3},
    loss="gilbert-elliott-rate",
    loss_params={"target_rate": 0.05, "mean_burst_length": 6.0},
)
_REORDER = ConditionSpec(
    delay="jitter",
    delay_params={"base_delay": 0.6e-3, "jitter_std": 0.2e-3},
    reordering="window",
    reordering_params={"window": 0.4e-3, "reorder_probability": 0.2},
)


def _spec(
    name: str, condition: ConditionSpec, adversaries: tuple[AdversarySpec, ...] = ()
) -> ExperimentSpec:
    return ExperimentSpec(
        name=name,
        seed=20260730,
        traffic=TrafficSpec(workload="smoke-sequence"),
        path=PathSpec(conditions={"X": condition}),
        adversaries=adversaries,
    )


CONFORMANCE_SCENARIOS: dict[str, ExperimentSpec] = {
    "delay-honest": _spec("delay-honest", _DELAY),
    "delay-lying": _spec("delay-lying", _DELAY, _LYING),
    "delay-colluding": _spec("delay-colluding", _DELAY, _COLLUDING),
    "loss-honest": _spec("loss-honest", _LOSS),
    "loss-lying": _spec("loss-lying", _LOSS, _LYING),
    "reorder-honest": _spec("reorder-honest", _REORDER),
    "reorder-lying": _spec("reorder-lying", _REORDER, _LYING),
}


# -- mesh scenarios -------------------------------------------------------------------
#
# "mesh-honest": a pinned random mesh whose four paths share 8 HOPs across
# three transit domains, all honest — freezes the shared-collector
# interleaving and the per-path estimates.  "mesh-lying": a 3-path star whose
# core X lies on every path; each path's verdict only implicates an (X, Di)
# pair, and the frozen triangulation output exposes X alone.

_MESH_TRAFFIC = TrafficSpec(workload="smoke-sequence", packet_count=1500)

MESH_CONFORMANCE_SCENARIOS: dict[str, MeshSpec] = {
    "mesh-honest": MeshSpec(
        name="mesh-honest",
        seed=20260730,
        topology=TopologySpec(
            kind="mesh-random",
            params={"transit_domains": 3, "stub_domains": 4, "path_count": 4},
            seed=2026,
        ),
        traffic=_MESH_TRAFFIC,
        conditions={
            "T1": _DELAY,
            "T2": _LOSS,
            "T3": _REORDER,
        },
    ),
    "mesh-lying": MeshSpec(
        name="mesh-lying",
        seed=20260730,
        topology=TopologySpec(kind="star", params={"path_count": 3}, seed=0),
        traffic=_MESH_TRAFFIC,
        conditions={
            "X": ConditionSpec(
                delay="constant",
                delay_params={"delay": 15e-3},
                loss="bernoulli",
                loss_params={"loss_rate": 0.2},
            ),
        },
        adversaries=(
            AdversarySpec(kind="lying", domain="X", params={"claimed_delay": 0.5e-3}),
        ),
    ),
}
