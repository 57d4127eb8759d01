"""Unit tests for the typed campaign event stream (`on_event`)."""

from __future__ import annotations

from pathlib import Path

from repro.api.spec import (
    CampaignSpec,
    ConditionSpec,
    ExecutionPolicy,
    ExperimentSpec,
    HOPSpec,
    PathSpec,
    ProtocolSpec,
    SLATargetSpec,
    TrafficSpec,
)
from repro.engine.campaign import (
    CampaignRunner,
    CheckpointWritten,
    IntervalCommitted,
    RunComplete,
)
from repro.store import RunStore


def _spec(intervals: int = 2, packet_count: int = 300) -> CampaignSpec:
    return CampaignSpec(
        name="events-test",
        intervals=intervals,
        cell=ExperimentSpec(
            seed=47,
            traffic=TrafficSpec(workload=None, packet_count=packet_count),
            path=PathSpec(
                conditions={
                    "X": ConditionSpec(
                        delay="jitter",
                        delay_params={"base_delay": 1e-3, "jitter_std": 0.2e-3},
                    )
                }
            ),
            protocol=ProtocolSpec(
                default=HOPSpec(sampling_rate=0.2, marker_rate=0.02, aggregate_size=150)
            ),
        ),
        sla=SLATargetSpec(delay_bound=10e-3, delay_quantile=0.9, loss_bound=0.05),
    )


def test_event_stream_order_and_payloads(tmp_path):
    spec = _spec(intervals=2)
    store = RunStore.create(tmp_path / "run", spec)
    events = []
    outcome = CampaignRunner(spec, store).run(on_event=events.append)

    assert outcome.completed
    kinds = [type(event).__name__ for event in events]
    assert kinds == ["IntervalCommitted", "IntervalCommitted", "RunComplete"]
    first, second, final = events
    assert (first.interval, second.interval) == (0, 1)
    assert first.intervals == second.intervals == final.intervals == 2
    assert first.record["receipts_digest"]
    assert final.summary == store.summary()


def test_events_fire_after_durable_state(tmp_path):
    spec = _spec(intervals=2)
    store = RunStore.create(tmp_path / "run", spec)
    observed: list[tuple[str, int]] = []

    def sink(event):
        # At the instant an event fires, the store already holds the state
        # the event announces — a consumer crash never observes phantom
        # progress.
        if isinstance(event, IntervalCommitted):
            observed.append(("records", len(store.records())))
            assert store.records()[-1]["interval"] == event.interval
        elif isinstance(event, RunComplete):
            observed.append(("summary", store.summary()["intervals"]))

    CampaignRunner(spec, store).run(on_event=sink)
    assert observed == [("records", 1), ("records", 2), ("summary", 2)]


def test_checkpoint_events_on_streaming_policy(tmp_path):
    spec = _spec(intervals=1, packet_count=300)
    store = RunStore.create(tmp_path / "run", spec)
    policy = ExecutionPolicy(engine="streaming", chunk_size=100, checkpoint_every=1)
    events = []
    CampaignRunner(spec, store, policy=policy).run(on_event=events.append)

    checkpoints = [e for e in events if isinstance(e, CheckpointWritten)]
    assert checkpoints, "checkpoint_every=1 must surface CheckpointWritten events"
    assert all(event.interval == 0 for event in checkpoints)
    chunk_indices = [event.chunk_index for event in checkpoints]
    assert chunk_indices == sorted(chunk_indices)
    # Checkpoints interleave inside the interval: all precede its commit.
    commit_position = next(
        i for i, e in enumerate(events) if isinstance(e, IntervalCommitted)
    )
    assert all(
        i < commit_position
        for i, e in enumerate(events)
        if isinstance(e, CheckpointWritten)
    )
    # The finished store carries no checkpoint residue.
    assert not (Path(store.path) / CampaignRunner.CHECKPOINT_NAME).exists()


def test_event_sink_restored_after_run(tmp_path):
    spec = _spec(intervals=2)
    store = RunStore.create(tmp_path / "run", spec)
    runner = CampaignRunner(spec, store)
    runner.run(max_intervals=1, on_event=lambda event: None)
    assert runner._event_sink is None
    # A second run without a sink emits nothing and completes normally.
    outcome = runner.run()
    assert outcome.completed
