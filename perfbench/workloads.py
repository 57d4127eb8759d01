"""The benchmark's three campaign workloads and the specs they generate.

Each workload is one corner of the range the paper calls tunable (sampling
rate x aggregate size x congested domains), driven through one public entry
point.  A benchmark run repeats the workload's campaign in fresh processes
("reps"); rep ``k`` of a run with seed ``n`` executes the campaign generated
by :func:`campaign_spec` from ``(n, k)`` and nothing else — the seed reaches
the program only as the cell seed of that spec.

The spec builders import ``repro`` lazily so the orchestrator can read the
workload table without loading the package.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

__all__ = [
    "WORKLOADS",
    "Workload",
    "campaign_spec",
    "chosen_intervals",
    "execution_policy",
    "spec_seed",
]

#: Loss rate configured at the honest congested domain X on every workload.
X_LOSS_RATE = 0.02


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its campaign shape and its correctness rules."""

    name: str
    why: str
    #: "runner" drives ``CampaignRunner(...).run()`` on a ``RunStore``;
    #: "dispatch" drives ``dispatch_campaign(..., transport="http")``.
    entry: str
    #: Intervals in one rep's campaign.
    intervals: int
    #: Packets per interval on one path.
    packets: int
    #: Paths carrying ``packets`` each (mesh workloads).
    paths: int
    #: A run keeps starting reps until it has committed this many intervals,
    #: even past ``--seconds`` (the p90 rule needs 100 samples).
    min_run_intervals: int
    #: X's per-interval loss estimate must lie in
    #: ``[X_LOSS_RATE * lo, X_LOSS_RATE * hi]``; the band is several standard
    #: deviations of the interval-to-interval spread of a bursty
    #: Gilbert-Elliott process at this interval size.
    loss_band: tuple[float, float]
    #: Domain running the ``lying`` adversary, which must never be accepted.
    liar: str | None
    #: Engine the once-per-run recomputation uses (``None``: the cell's own
    #: engine, run in-process instead of on a dispatch worker).
    recompute_engine: str | None
    #: Streaming chunk size (``None``: the engine default).
    chunk_size: int | None = None
    #: Local dispatch worker processes.
    workers: int = 0

    @property
    def packets_per_interval(self) -> int:
        return self.packets * self.paths


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="bulk_stream",
            why=(
                "1 congested domain, aggregate 100k, 0.5% sampling, streaming "
                "engine, sketch estimation: few large intervals; trace "
                "generation and hashing dominate"
            ),
            entry="runner",
            intervals=3,
            packets=12 * 32_768,
            paths=1,
            min_run_intervals=0,
            loss_band=(0.6, 1.5),
            liar=None,
            recompute_engine="batch",
            chunk_size=32_768,
        ),
        Workload(
            name="fine_batch",
            why=(
                "3 congested domains and a lying N, aggregate 800, 5% "
                "sampling, batch engine, exact estimation: many small "
                "intervals; collectors, receipts digest and verification dominate"
            ),
            entry="runner",
            intervals=25,
            packets=10_000,
            paths=1,
            min_run_intervals=100,
            loss_band=(0.1, 4.0),
            liar="N",
            recompute_engine="streaming",
        ),
        Workload(
            name="mesh_dispatch",
            why=(
                "4-path star mesh, aggregate 2000, 2% sampling, dispatched "
                "over HTTP to 2 worker processes: the only workload in which "
                "dist, service and the mesh layers work"
            ),
            entry="dispatch",
            intervals=40,
            packets=8_000,
            paths=4,
            min_run_intervals=100,
            loss_band=(0.25, 2.25),
            liar=None,
            recompute_engine=None,
            workers=2,
        ),
    )
}


def spec_seed(workload: str, seed: int, rep: int) -> int:
    """The cell seed of rep ``rep`` of a run of ``workload`` with ``seed``."""
    material = f"perfbench:{workload}:{seed}:{rep}".encode("utf-8")
    return int.from_bytes(hashlib.blake2b(material, digest_size=4).digest(), "big")


def chosen_intervals(seed: int, intervals: int, count: int) -> list[int]:
    """``count`` distinct interval indices picked by ``seed`` (sorted)."""
    return sorted(random.Random(seed).sample(range(intervals), min(count, intervals)))


def _jitter(base: float, std: float) -> dict:
    return {"delay": "jitter", "delay_params": {"base_delay": base, "jitter_std": std}}


def campaign_spec(workload: Workload, seed: int, rep: int):
    """The :class:`~repro.api.spec.CampaignSpec` rep ``rep`` executes."""
    from repro.api.spec import (
        AdversarySpec,
        CampaignSpec,
        ConditionSpec,
        EstimationSpec,
        ExperimentSpec,
        HOPSpec,
        MeshSpec,
        PathSpec,
        ProtocolSpec,
        SLATargetSpec,
        TopologySpec,
        TrafficSpec,
    )

    cell_seed = spec_seed(workload.name, seed, rep)
    traffic = TrafficSpec(workload=None, packet_count=workload.packets, payload_bytes=8)
    congested_x = ConditionSpec(
        **_jitter(1.2e-3, 0.4e-3),
        loss="gilbert-elliott-rate",
        loss_params={"target_rate": X_LOSS_RATE},
    )
    if workload.name == "bulk_stream":
        cell = ExperimentSpec(
            name=workload.name,
            seed=cell_seed,
            engine="streaming",
            traffic=traffic,
            path=PathSpec(conditions={"X": congested_x}),
            protocol=ProtocolSpec(
                default=HOPSpec(sampling_rate=0.005, aggregate_size=100_000)
            ),
            estimation=EstimationSpec(observer="L", targets=("X",), mode="sketch"),
        )
    elif workload.name == "fine_batch":
        cell = ExperimentSpec(
            name=workload.name,
            seed=cell_seed,
            engine="batch",
            traffic=traffic,
            path=PathSpec(
                conditions={
                    "L": ConditionSpec(
                        **_jitter(0.5e-3, 0.1e-3),
                        loss="bernoulli",
                        loss_params={"loss_rate": 0.005},
                    ),
                    "X": congested_x,
                    "N": ConditionSpec(
                        **_jitter(0.8e-3, 0.2e-3),
                        loss="bernoulli",
                        loss_params={"loss_rate": 0.01},
                    ),
                }
            ),
            protocol=ProtocolSpec(default=HOPSpec(sampling_rate=0.05, aggregate_size=800)),
            adversaries=(
                AdversarySpec(kind="lying", domain="N", params={"claimed_delay": 0.2e-3}),
            ),
            estimation=EstimationSpec(observer="L", targets=("X", "N")),
        )
    elif workload.name == "mesh_dispatch":
        cell = MeshSpec(
            name=workload.name,
            seed=cell_seed,
            engine="batch",
            topology=TopologySpec(
                kind="star", params={"path_count": workload.paths}, seed=0
            ),
            traffic=traffic,
            conditions={"X": congested_x},
            protocol=ProtocolSpec(default=HOPSpec(sampling_rate=0.02, aggregate_size=2000)),
        )
    else:  # pragma: no cover - WORKLOADS and this table move together
        raise ValueError(f"unknown workload {workload.name!r}")
    return CampaignSpec(
        name=workload.name,
        intervals=workload.intervals,
        cell=cell,
        sla=SLATargetSpec(delay_bound=10e-3, delay_quantile=0.9, loss_bound=0.1),
    )


def execution_policy(workload: Workload):
    """The :class:`~repro.api.spec.ExecutionPolicy` the workload runs under."""
    from repro.api.spec import ExecutionPolicy

    return ExecutionPolicy(chunk_size=workload.chunk_size)
