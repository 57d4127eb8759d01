"""Property: an interrupted-and-resumed campaign equals an uninterrupted one.

For arbitrary interval counts, interrupt points (including multiple kills in
one campaign and kills on different engines), the resumed run store must be
**byte-identical** to the uninterrupted run's — same records (receipts
digests, estimates, verdicts, delay samples), same summary, same bytes on
disk.  Interrupts land between intervals because the store append is atomic:
a kill mid-interval leaves no record, which is indistinguishable from a kill
just before the interval started — so interval-granularity interrupt points
cover every real kill timing.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.spec import (
    CampaignSpec,
    ConditionSpec,
    EstimationSpec,
    ExperimentSpec,
    HOPSpec,
    PathSpec,
    ProtocolSpec,
    SLATargetSpec,
    TrafficSpec,
)
from repro.engine.campaign import CampaignRunner
from repro.store import RunStore

# Small but non-degenerate: every interval yields real samples, aggregates
# and verdicts while staying fast enough for a property suite.
_PACKETS = 300


def _spec(intervals: int, seed: int) -> CampaignSpec:
    return CampaignSpec(
        name="prop-campaign",
        intervals=intervals,
        cell=ExperimentSpec(
            seed=seed,
            traffic=TrafficSpec(workload=None, packet_count=_PACKETS),
            path=PathSpec(
                conditions={
                    "X": ConditionSpec(
                        delay="jitter",
                        delay_params={"base_delay": 1e-3, "jitter_std": 0.3e-3},
                        loss="bernoulli",
                        loss_params={"loss_rate": 0.05},
                    )
                }
            ),
            protocol=ProtocolSpec(
                default=HOPSpec(
                    sampling_rate=0.25, marker_rate=0.03, aggregate_size=100
                )
            ),
            estimation=EstimationSpec(observer="S", targets=("X",)),
        ),
        sla=SLATargetSpec(delay_bound=8e-3, delay_quantile=0.9, loss_bound=0.2),
    )


def _store_files(store: RunStore) -> dict[str, bytes]:
    return {
        name: (store.path / name).read_bytes()
        for name in ("spec.json", "records.jsonl", "summary.json")
    }


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    intervals=st.integers(min_value=2, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    data=st.data(),
)
def test_resume_equals_uninterrupted(tmp_path_factory, intervals, seed, data):
    spec = _spec(intervals, seed)
    base = tmp_path_factory.mktemp("campaign")

    uninterrupted = RunStore.create(base / "uninterrupted", spec)
    CampaignRunner(spec, uninterrupted).run()

    # An arbitrary (possibly repeated) interrupt schedule: run a few
    # intervals, "die", reopen the store, repeat — switching engines between
    # lives, which the byte-identical engines contract permits.
    interrupted = RunStore.create(base / "interrupted", spec)
    engines = [
        {"engine": "batch"},
        {"engine": "streaming", "chunk_size": 64},
        {"engine": "scalar"},
    ]
    completed = 0
    life = 0
    while completed < intervals:
        step = data.draw(
            st.integers(min_value=0, max_value=intervals - completed),
            label=f"life-{life}-intervals",
        )
        knobs = engines[life % len(engines)]
        runner = CampaignRunner.resume(RunStore.open(base / "interrupted"), **knobs)
        runner.run(max_intervals=step)
        completed += step
        life += 1
        if life > intervals + 2:  # every remaining interval in one last life
            CampaignRunner.resume(RunStore.open(base / "interrupted")).run()
            completed = intervals

    final = RunStore.open(base / "interrupted")
    assert final.record_count == final.spec().intervals
    assert _store_files(final) == _store_files(uninterrupted)
    assert final.digest() == uninterrupted.digest()

    # records agree field-by-field too (clearer failure than raw bytes)
    for resumed_record, full_record in zip(
        final.records(), uninterrupted.records()
    ):
        assert resumed_record["receipts_digest"] == full_record["receipts_digest"]
        assert resumed_record["estimates"] == full_record["estimates"]
        assert resumed_record["verdicts"] == full_record["verdicts"]
        assert resumed_record["delay_samples"] == full_record["delay_samples"]
    assert final.summary() == uninterrupted.summary()
