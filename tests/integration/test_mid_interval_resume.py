"""Mid-interval checkpoints for streaming campaigns, end to end.

A streaming campaign interval killed between chunk boundaries resumes from
its persisted :class:`RunnerCheckpoint` (``<store>/interval.ckpt``) and
finishes with a store byte-identical to an uninterrupted run; incompatible
checkpoints are discarded and the interval simply reruns.  A resumed run
seeks instead of replaying: it materializes only the chunks after its
checkpoint, and the runners evaluate exactly the chunks the trace yields.
Also here: a declarative :class:`ExecutionPolicy` runs a cell exactly like
the legacy keyword arguments it replaces.
"""

from __future__ import annotations

import json
import pickle
from collections import deque

import numpy as np
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
from repro.engine.campaign import CampaignRunner, interval_record
from repro.engine.streaming import StreamingRunner
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


def _assert_truth_equal(truth_a, truth_b) -> None:
    assert truth_b.lost_packets == truth_a.lost_packets
    assert truth_b.delivered_packets == truth_a.delivered_packets
    assert np.array_equal(truth_b.delays(), truth_a.delays())


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


def _checkpointed_run(spec: ExperimentSpec) -> tuple[object, list[bytes]]:
    blobs: list[bytes] = []
    result = StreamingRunner(
        _build_cell(spec),
        chunk_size=CHUNK,
        checkpoint_every=1,
        checkpoint_sink=lambda ckpt: blobs.append(pickle.dumps(ckpt)),
    ).run()
    return result, blobs


class TestResumeZeroReplay:
    def test_resume_materializes_only_the_remaining_chunks(self, materialized):
        spec = _spec()  # 900 packets → chunks of 256, 256, 256, 132
        reference, blobs = _checkpointed_run(spec)
        assert materialized == [(0, 256), (256, 512), (512, 768), (768, 900)]
        assert reference.chunks == 4 and len(blobs) == 3

        materialized.clear()
        checkpoint = pickle.loads(blobs[0])
        assert checkpoint.stream.chunk_index == 1
        resumed = StreamingRunner(
            _build_cell(spec), chunk_size=CHUNK, resume_from=checkpoint
        ).run()
        assert materialized == [(256, 512), (512, 768), (768, 900)]
        assert receipts_digest(resumed.reports) == receipts_digest(reference.reports)
        for name, truth in reference.path_truth[0].items():
            _assert_truth_equal(truth, resumed.path_truth[0][name])
        assert resumed.link_losses == reference.link_losses

    def test_resume_from_every_boundary_matches_uninterrupted(self):
        spec = _spec()
        reference, blobs = _checkpointed_run(spec)
        for index, blob in enumerate(blobs):
            checkpoint = pickle.loads(blob)
            assert checkpoint.stream.chunk_index == index + 1
            resumed = StreamingRunner(
                _build_cell(spec), chunk_size=CHUNK, resume_from=checkpoint
            ).run()
            assert receipts_digest(resumed.reports) == receipts_digest(
                reference.reports
            )
            for name, truth in reference.path_truth[0].items():
                _assert_truth_equal(truth, resumed.path_truth[0][name])

    def test_resume_rejects_checkpoint_from_another_chunk_size(self):
        spec = _spec()
        _, blobs = _checkpointed_run(spec)
        with pytest.raises(ValueError, match="chunk_size=256"):
            StreamingRunner(
                _build_cell(spec),
                chunk_size=CHUNK * 2,
                resume_from=pickle.loads(blobs[0]),
            )

    def test_checkpointing_needs_a_chunked_single_path_run(self):
        spec = _spec()
        _, blobs = _checkpointed_run(spec)
        for name, value in (
            ("checkpoint_every", 1),
            ("checkpoint_sink", lambda ckpt: None),
            ("resume_from", pickle.loads(blobs[0])),
        ):
            with pytest.raises(ValueError, match=f"{name} needs a chunked run"):
                StreamingRunner(
                    _build_cell(spec), chunk_size=None, **{name: value}
                )
            with pytest.raises(ValueError, match=f"{name} applies to single-path"):
                StreamingRunner(
                    _build_cell(_mesh_spec()),
                    chunk_size=CHUNK,
                    **{name: value},
                )

    def test_mesh_rounds_materialize_each_path_chunk_once(self, materialized):
        cell = _build_cell(_mesh_spec())
        result = StreamingRunner(cell, chunk_size=CHUNK).run()
        assert len(cell.traces) == 2
        assert result.chunks == 4
        per_path = [(0, 256), (256, 512), (512, 768), (768, 900)]
        assert sorted(materialized) == sorted(per_path * 2)


# -- mid-interval campaign checkpoints -------------------------------------------------


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


def _campaign_spec(intervals: int = 2) -> CampaignSpec:
    return CampaignSpec(
        name="seek-campaign", intervals=intervals, cell=_campaign_cell()
    )


# 500 packets at chunk_size=128 → 4 chunks per interval; checkpoint_every=1
# fires the sink at chunks 1, 2 and 3 (never at the final boundary).
CAMPAIGN_CHUNK = 128
STREAMING_POLICY = ExecutionPolicy(engine="streaming", chunk_size=CAMPAIGN_CHUNK)
CHECKPOINTING_POLICY = ExecutionPolicy(
    engine="streaming", chunk_size=CAMPAIGN_CHUNK, checkpoint_every=1
)


class TestMidIntervalCheckpoint:
    def test_interval_record_resume_is_byte_identical(self):
        spec = _campaign_spec()
        reference = interval_record(spec, 0, policy=STREAMING_POLICY)

        blobs: list[bytes] = []
        checkpointed = interval_record(
            spec,
            0,
            policy=CHECKPOINTING_POLICY,
            checkpoint_sink=lambda ckpt: blobs.append(pickle.dumps(ckpt)),
        )
        assert json.dumps(checkpointed, sort_keys=True) == json.dumps(
            reference, sort_keys=True
        )
        assert len(blobs) == 3

        resumed = interval_record(
            spec, 0, policy=STREAMING_POLICY, resume_from=pickle.loads(blobs[-1])
        )
        assert json.dumps(resumed, sort_keys=True) == json.dumps(
            reference, sort_keys=True
        )

    def test_kill_inside_interval_resumes_to_identical_store(self, tmp_path):
        spec = _campaign_spec()
        full = RunStore.create(tmp_path / "full", spec)
        CampaignRunner(spec, full).run()

        part = RunStore.create(tmp_path / "part", spec)
        killed = CampaignRunner(spec, part, policy=CHECKPOINTING_POLICY)
        inner_sink = killed._interval_checkpoint_sink(0)
        calls: list[int] = []

        def killer(checkpoint) -> None:
            inner_sink(checkpoint)
            calls.append(1)
            if len(calls) == 2:
                raise KeyboardInterrupt  # kill mid-interval, checkpoint durable

        with pytest.raises(KeyboardInterrupt):
            interval_record(
                spec, 0, policy=killed.policy, checkpoint_sink=killer
            )
        assert part.record_count == 0
        assert (tmp_path / "part" / CampaignRunner.CHECKPOINT_NAME).exists()

        resumed = CampaignRunner.resume(part, policy=CHECKPOINTING_POLICY)
        loaded = resumed._load_interval_checkpoint(0)
        assert loaded is not None and loaded.stream.chunk_index == 2
        outcome = resumed.run()
        assert outcome.completed

        # The checkpoint file never survives into the finished store, and the
        # store bytes match the uninterrupted default-engine run exactly.
        assert not (tmp_path / "part" / CampaignRunner.CHECKPOINT_NAME).exists()
        assert (tmp_path / "part" / "records.jsonl").read_bytes() == (
            tmp_path / "full" / "records.jsonl"
        ).read_bytes()
        assert (tmp_path / "part" / "summary.json").read_bytes() == (
            tmp_path / "full" / "summary.json"
        ).read_bytes()

    def test_incompatible_checkpoint_is_discarded(self, tmp_path):
        spec = _campaign_spec()
        store = RunStore.create(tmp_path / "run", spec)
        runner = CampaignRunner(spec, store, policy=CHECKPOINTING_POLICY)
        checkpoint_path = tmp_path / "run" / CampaignRunner.CHECKPOINT_NAME
        checkpoint_path.write_bytes(b"not a pickle")
        assert runner._load_interval_checkpoint(0) is None
        assert not checkpoint_path.exists()

        # A checkpoint for the wrong interval is equally discarded.
        blobs: list[bytes] = []
        interval_record(
            spec,
            0,
            policy=CHECKPOINTING_POLICY,
            checkpoint_sink=lambda ckpt: blobs.append(pickle.dumps(ckpt)),
        )
        checkpoint_path.write_bytes(
            pickle.dumps(
                {
                    "spec_hash": spec.spec_hash(),
                    "interval": 1,
                    "checkpoint": pickle.loads(blobs[-1]),
                }
            )
        )
        assert runner._load_interval_checkpoint(0) is None
        assert not checkpoint_path.exists()

    @staticmethod
    def _assert_discarded_then_rerun(tmp_path, spec, payload: bytes) -> None:
        """``payload`` is discarded on load, and resuming over it reruns interval 0.

        The resumed store must end with the bytes of an uninterrupted run.
        """
        full = RunStore.create(tmp_path / "full", spec)
        CampaignRunner(spec, full).run()

        part = RunStore.create(tmp_path / "part", spec)
        checkpoint_path = tmp_path / "part" / CampaignRunner.CHECKPOINT_NAME
        checkpoint_path.write_bytes(payload)
        resumed = CampaignRunner.resume(part, policy=CHECKPOINTING_POLICY)
        assert resumed._load_interval_checkpoint(0) is None
        assert not checkpoint_path.exists()

        checkpoint_path.write_bytes(payload)
        assert CampaignRunner.resume(part, policy=CHECKPOINTING_POLICY).run().completed
        assert not checkpoint_path.exists()
        assert (tmp_path / "part" / "records.jsonl").read_bytes() == (
            tmp_path / "full" / "records.jsonl"
        ).read_bytes()
        assert part.digest() == full.digest()

    @staticmethod
    def _second_checkpoint(spec):
        blobs: list[bytes] = []
        interval_record(
            spec,
            0,
            policy=CHECKPOINTING_POLICY,
            checkpoint_sink=lambda ckpt: blobs.append(pickle.dumps(ckpt)),
        )
        return pickle.loads(blobs[1])

    def test_checkpoint_without_collector_state_tag_is_discarded(self, tmp_path):
        """A payload from before the tag existed reruns its interval.

        Such payloads were written by collectors that carried their windows
        as a deque and a list of pairs; installed into today's collectors
        they would fail mid-interval.  The payload below has that old shape
        and no tag, so resuming must discard it.
        """
        spec = _campaign_spec()
        checkpoint = self._second_checkpoint(spec)
        for collector in checkpoint.collectors.values():
            for state in collector.states():
                aggregator, sampler = state.aggregator, state.sampler
                aggregator._recent = deque(
                    zip(aggregator._recent_ids.tolist(), aggregator._recent_times.tolist())
                )
                sampler._temp_buffer = list(
                    zip(sampler._buffer_ids.tolist(), sampler._buffer_times.tolist())
                )
                for name in ("_recent_ids", "_recent_times"):
                    delattr(aggregator, name)
                for name in ("_buffer_ids", "_buffer_times"):
                    delattr(sampler, name)
        untagged = pickle.dumps(
            {"spec_hash": spec.spec_hash(), "interval": 0, "checkpoint": checkpoint}
        )
        self._assert_discarded_then_rerun(tmp_path, spec, untagged)

    def test_checkpoint_with_previous_collector_state_tag_is_discarded(self, tmp_path):
        """Collectors pickled under ``array-carry-2`` kept a second, per-packet
        form of their carry; a payload with that tag reruns its interval."""
        spec = _campaign_spec()
        payload = pickle.dumps(
            {
                "spec_hash": spec.spec_hash(),
                "interval": 0,
                "collector_state": "array-carry-2",
                "checkpoint": self._second_checkpoint(spec),
            }
        )
        self._assert_discarded_then_rerun(tmp_path, spec, payload)

    def test_checkpoint_whose_stream_still_has_clocks_is_discarded(self, tmp_path):
        """Stream checkpoints written under ``array-carry-2`` still snapshot
        per-HOP clocks; such a payload reruns its interval."""
        spec = _campaign_spec()
        checkpoint = self._second_checkpoint(spec)
        hop_count = len(checkpoint.collectors)
        object.__setattr__(checkpoint.stream, "clocks", ({},) * hop_count)
        payload = pickle.dumps(
            {
                "spec_hash": spec.spec_hash(),
                "interval": 0,
                "collector_state": "array-carry-2",
                "checkpoint": checkpoint,
            }
        )
        self._assert_discarded_then_rerun(tmp_path, spec, payload)

    def test_checkpointing_run_leaves_clean_identical_store(self, tmp_path):
        spec = _campaign_spec()
        plain = RunStore.create(tmp_path / "plain", spec)
        CampaignRunner(spec, plain, policy=STREAMING_POLICY).run()
        checkpointing = RunStore.create(tmp_path / "ckpt", spec)
        CampaignRunner(spec, checkpointing, policy=CHECKPOINTING_POLICY).run()
        assert not (tmp_path / "ckpt" / CampaignRunner.CHECKPOINT_NAME).exists()
        assert checkpointing.digest() == plain.digest()

    def test_mesh_interval_rejects_mid_interval_checkpointing(self):
        spec = CampaignSpec(
            name="seek-mesh-campaign",
            intervals=1,
            cell=MeshSpec(
                seed=11,
                topology=TopologySpec(kind="star", params={"path_count": 2}, seed=0),
                traffic=TrafficSpec(workload=None, packet_count=300),
            ),
        )
        with pytest.raises(ValueError, match="single-path streaming"):
            interval_record(
                spec,
                0,
                policy=ExecutionPolicy(engine="streaming"),
                checkpoint_sink=lambda ckpt: None,
            )
