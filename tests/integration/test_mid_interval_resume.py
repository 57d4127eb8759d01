"""A campaign killed inside an interval resumes at that interval's start.

Interval ``i`` is a pure function of ``(spec, i)``, so interval start is the
only resume point a run needs: a kill between two chunks of an interval
loses that interval's work, and the resumed run re-runs it from its start to
a store byte-identical to an uninterrupted run.  A store that an older build
left with a mid-interval checkpoint (``interval.ckpt`` and its ``.tmp``)
resumes the same way, and the stale files are gone afterwards.  Also here: a
declarative :class:`ExecutionPolicy` runs a cell exactly like the keyword
arguments it replaces, and a mesh run materializes each path's chunks once.
"""

from __future__ import annotations

import pytest

from repro.api.runner import _build_cell, run_cell_full
from repro.api.spec import (
    CampaignSpec,
    ConditionSpec,
    EstimationSpec,
    ExecutionPolicy,
    ExperimentSpec,
    HOPSpec,
    MeshSpec,
    PathSpec,
    ProtocolSpec,
    TopologySpec,
    TrafficSpec,
)
from repro.engine.campaign import CampaignRunner
from repro.engine.streaming import ScenarioStream, StreamingRunner
from repro.reporting.serialization import receipts_digest
from repro.store import RunStore
from repro.traffic.trace import SyntheticTrace

CHUNK = 256

_CONDITION = ConditionSpec(
    delay="jitter",
    delay_params={"base_delay": 0.8e-3, "jitter_std": 0.3e-3},
    loss="gilbert-elliott",
    loss_params={"p": 0.01, "r": 0.2},
    reordering="window",
    reordering_params={"window": 0.4e-3, "reorder_probability": 0.15},
)


def _spec(packet_count: int = 900) -> ExperimentSpec:
    return ExperimentSpec(
        name="mid-interval",
        seed=42,
        traffic=TrafficSpec(workload="smoke-sequence", packet_count=packet_count),
        path=PathSpec(conditions={"X": _CONDITION}),
    )


class TestPolicyApiParity:
    def test_policy_equals_legacy_kwargs(self):
        spec = _spec()
        legacy = run_cell_full(spec, engine="streaming", chunk_size=CHUNK)
        declarative = run_cell_full(
            spec, policy=ExecutionPolicy(engine="streaming", chunk_size=CHUNK)
        )
        assert declarative.result.to_json() == legacy.result.to_json()
        assert receipts_digest(declarative.reports) == receipts_digest(legacy.reports)


def _mesh_spec() -> MeshSpec:
    return MeshSpec(
        name="mesh-rounds",
        seed=42,
        topology=TopologySpec(kind="star", params={"path_count": 2}, seed=0),
        traffic=TrafficSpec(workload="smoke-sequence", packet_count=900),
        conditions={"X": _CONDITION},
    )


@pytest.fixture
def materialized(monkeypatch) -> list[tuple[int, int]]:
    """Record the ``[start, stop)`` span of every trace chunk materialized."""
    spans: list[tuple[int, int]] = []
    original = SyntheticTrace._materialize

    def recording(self, plan, start, stop):
        spans.append((start, stop))
        return original(self, plan, start, stop)

    monkeypatch.setattr(SyntheticTrace, "_materialize", recording)
    return spans


class TestChunkRounds:
    def test_mesh_rounds_materialize_each_path_chunk_once(self, materialized):
        cell = _build_cell(_mesh_spec())
        result = StreamingRunner(cell, chunk_size=CHUNK).run()
        assert len(cell.traces) == 2
        assert result.chunks == 4
        per_path = [(0, 256), (256, 512), (512, 768), (768, 900)]
        assert sorted(materialized) == sorted(per_path * 2)


# -- a campaign killed inside an interval ----------------------------------------------


def _campaign_cell(packet_count: int = 500) -> ExperimentSpec:
    return ExperimentSpec(
        name="seek-campaign-cell",
        seed=17,
        traffic=TrafficSpec(workload=None, packet_count=packet_count),
        path=PathSpec(
            conditions={
                "X": ConditionSpec(
                    delay="jitter",
                    delay_params={"base_delay": 1e-3, "jitter_std": 0.3e-3},
                    loss="bernoulli",
                    loss_params={"loss_rate": 0.03},
                )
            }
        ),
        protocol=ProtocolSpec(
            default=HOPSpec(sampling_rate=0.2, marker_rate=0.02, aggregate_size=200)
        ),
        estimation=EstimationSpec(observer="S", targets=("X",)),
    )


def _campaign_spec(intervals: int = 3) -> CampaignSpec:
    return CampaignSpec(
        name="seek-campaign", intervals=intervals, cell=_campaign_cell()
    )


# 500 packets at chunk_size=128: four chunks per interval on every path.
CAMPAIGN_CHUNK = 128
STREAMING_POLICY = ExecutionPolicy(engine="streaming", chunk_size=CAMPAIGN_CHUNK)
STALE_CHECKPOINT_FILES = ("interval.ckpt", "interval.ckpt.tmp")


def _assert_same_store(part: RunStore, full: RunStore) -> None:
    """Equal files, byte for byte, and no other file in either directory."""
    assert sorted(path.name for path in part.path.iterdir()) == sorted(
        path.name for path in full.path.iterdir()
    )
    for name in ("spec.json", "records.jsonl", "summary.json"):
        assert (part.path / name).read_bytes() == (full.path / name).read_bytes()
    assert part.digest() == full.digest()


def _one_path_mesh_spec() -> CampaignSpec:
    cell = MeshSpec(
        name="seek-one-path-mesh",
        seed=17,
        topology=TopologySpec(kind="figure1"),
        traffic=TrafficSpec(workload=None, packet_count=500),
        conditions={"X": _CONDITION},
    )
    return CampaignSpec(name="seek-one-path-mesh", intervals=3, cell=cell)


def _kill_at(monkeypatch, runner: CampaignRunner, interval: int, push: int) -> list[int]:
    """Raise ``KeyboardInterrupt`` instead of the ``push``-th chunk push of ``interval``.

    Counts pushes on every path of the cell, so in a mesh round the kill can
    land between two paths' pushes of the same chunk.  ``push=0`` kills the
    interval's end-of-stream flush instead, after every chunk was pushed.
    """
    pushes: list[int] = []
    method = "flush" if push == 0 else "push"
    original = getattr(ScenarioStream, method)

    def run_then_kill(self, *args):
        if runner.next_interval == interval:
            pushes.append(1)
            if push == 0 or len(pushes) == push:
                raise KeyboardInterrupt
        return original(self, *args)

    monkeypatch.setattr(ScenarioStream, method, run_then_kill)
    return pushes


class TestKillInsideInterval:
    @pytest.mark.parametrize(
        ("interval", "push"),
        [(0, 1), (1, 2), (1, 4), (2, 3), (1, 0)],
        ids=[
            "first-chunk-of-first-interval",
            "between-chunks-1-and-2",
            "last-chunk",
            "inside-last-interval",
            "in-end-of-stream-flush",
        ],
    )
    def test_kill_inside_interval_resumes_to_identical_store(
        self, tmp_path, monkeypatch, interval, push
    ):
        self._assert_killed_mid_interval_resumes(
            tmp_path, monkeypatch, _campaign_spec(), interval, push
        )

    @pytest.mark.parametrize("interval", [0, 1, 2])
    def test_one_path_mesh_killed_inside_interval_resumes_to_identical_store(
        self, tmp_path, monkeypatch, interval
    ):
        """A mesh spelling with one path resumes at interval start like a path."""
        self._assert_killed_mid_interval_resumes(
            tmp_path, monkeypatch, _one_path_mesh_spec(), interval, push=2
        )

    @pytest.mark.parametrize("push", [4, 8])
    def test_two_path_mesh_killed_inside_interval_resumes_to_identical_store(
        self, tmp_path, monkeypatch, push
    ):
        """Push 4 falls between the two paths' pushes of chunk 2; push 8 is the
        second path's last chunk."""
        spec = CampaignSpec(name="seek-two-path-mesh", intervals=3, cell=_mesh_spec())
        self._assert_killed_mid_interval_resumes(
            tmp_path, monkeypatch, spec, interval=1, push=push
        )

    @staticmethod
    def _assert_killed_mid_interval_resumes(
        tmp_path, monkeypatch, spec, interval: int = 1, push: int = 2
    ) -> None:
        full = RunStore.create(tmp_path / "full", spec)
        CampaignRunner(spec, full).run()

        part = RunStore.create(tmp_path / "part", spec)
        killed = CampaignRunner(spec, part, policy=STREAMING_POLICY)
        with monkeypatch.context() as patch:
            pushes = _kill_at(patch, killed, interval, push)
            with pytest.raises(KeyboardInterrupt):
                killed.run()
        assert part.record_count == interval
        assert len(pushes) == max(push, 1)
        assert part.summary() is None

        outcome = CampaignRunner.resume(part, policy=STREAMING_POLICY).run()
        assert outcome.completed and outcome.intervals_run == spec.intervals - interval
        _assert_same_store(part, full)

    @pytest.mark.parametrize(
        "stale",
        [STALE_CHECKPOINT_FILES, STALE_CHECKPOINT_FILES[:1], STALE_CHECKPOINT_FILES[1:]],
        ids=["both", "checkpoint-only", "tmp-only"],
    )
    def test_store_with_stale_checkpoint_files_resumes_clean(self, tmp_path, stale):
        """An older build's ``interval.ckpt`` pair is removed when a run reopens the store."""
        spec = _campaign_spec()
        full = RunStore.create(tmp_path / "full", spec)
        CampaignRunner(spec, full).run()

        part = RunStore.create(tmp_path / "part", spec)
        CampaignRunner(spec, part).run(max_intervals=1)
        for name in stale:
            (part.path / name).write_bytes(b"\x80\x04 a pickle from an older build")

        outcome = CampaignRunner.resume(part.path, policy=STREAMING_POLICY).run()
        assert outcome.completed and outcome.intervals_run == spec.intervals - 1
        for name in STALE_CHECKPOINT_FILES:
            assert not (part.path / name).exists()
        _assert_same_store(part, full)

    def test_completed_store_with_stale_checkpoint_files_reopens_clean(self, tmp_path):
        """A finished store re-opened for resume runs nothing and keeps its bytes."""
        spec = _campaign_spec()
        store = RunStore.create(tmp_path / "run", spec)
        CampaignRunner(spec, store).run()
        before = {name: (store.path / name).read_bytes()
                  for name in ("spec.json", "records.jsonl", "summary.json")}
        for name in STALE_CHECKPOINT_FILES:
            (store.path / name).write_bytes(b"stale")

        outcome = CampaignRunner.resume(store.path).run()
        assert outcome.completed and outcome.intervals_run == 0
        for name in STALE_CHECKPOINT_FILES:
            assert not (store.path / name).exists()
        assert {name: (store.path / name).read_bytes() for name in before} == before
