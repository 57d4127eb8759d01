"""Unit tests for the typed campaign event stream (`on_event`)."""

from __future__ import annotations

import pytest

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
    IntervalCommitted,
    RunComplete,
)
from repro.engine.streaming import ScenarioStream
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


def test_event_sink_restored_after_run(tmp_path):
    spec = _spec(intervals=2)
    store = RunStore.create(tmp_path / "run", spec)
    runner = CampaignRunner(spec, store)
    runner.run(max_intervals=1, on_event=lambda event: None)
    assert runner._event_sink is None
    # A second run without a sink emits nothing and completes normally.
    outcome = runner.run()
    assert outcome.completed


def test_kill_inside_interval_fires_no_event_for_it(tmp_path, monkeypatch):
    """An interval killed between two chunks announces nothing; its resume does."""
    spec = _spec(intervals=2, packet_count=300)
    store = RunStore.create(tmp_path / "run", spec)
    policy = ExecutionPolicy(engine="streaming", chunk_size=100)
    runner = CampaignRunner(spec, store, policy=policy)
    original_push = ScenarioStream.push

    def push_then_kill(stream, chunk):
        if runner.next_interval == 1:
            raise KeyboardInterrupt
        return original_push(stream, chunk)

    events = []
    with monkeypatch.context() as patch:
        patch.setattr(ScenarioStream, "push", push_then_kill)
        with pytest.raises(KeyboardInterrupt):
            runner.run(on_event=events.append)
    assert [(type(e).__name__, e.interval) for e in events] == [("IntervalCommitted", 0)]
    assert runner._event_sink is None

    resumed: list = []
    CampaignRunner.resume(store, policy=policy).run(on_event=resumed.append)
    assert [type(event).__name__ for event in resumed] == [
        "IntervalCommitted", "RunComplete"
    ]
    assert resumed[0].interval == 1
    assert resumed[1].summary == store.summary()

