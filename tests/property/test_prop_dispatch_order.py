"""Property: any interval completion order commits a byte-identical store.

Distributed workers finish intervals in arbitrary order (work stealing,
stragglers, kills), but the coordinator's reorder buffer feeds its
``CampaignRunner.commit`` strictly in interval order — the commit step a
single-host run takes.  For arbitrary interval counts and arbitrary
completion permutations — with the commit loop interleaved after every
staging, so partial reorder states are exercised, not just the fully-staged
endgame — the finished store must be **byte-identical** (records, summary,
digest) to an uninterrupted single-host run of the same spec.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.spec import (
    CampaignSpec,
    ConditionSpec,
    ExperimentSpec,
    HOPSpec,
    PathSpec,
    ProtocolSpec,
    SLATargetSpec,
    TrafficSpec,
)
from repro.dist import DISPATCH_DIR, DispatchCoordinator, StagingArea
from repro.engine.campaign import CampaignRunner, interval_record
from repro.store import RunStore

from tests.helpers import stage_record

_PACKETS = 300


def _spec(intervals: int, seed: int) -> CampaignSpec:
    return CampaignSpec(
        name="prop-dispatch",
        intervals=intervals,
        cell=ExperimentSpec(
            seed=seed,
            traffic=TrafficSpec(workload=None, packet_count=_PACKETS),
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


@st.composite
def _completion_orders(draw):
    intervals = draw(st.integers(min_value=2, max_value=5))
    order = draw(st.permutations(list(range(intervals))))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return intervals, list(order), seed


@given(case=_completion_orders())
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_any_completion_order_commits_byte_identical_store(case, tmp_path_factory):
    intervals, order, seed = case
    spec = _spec(intervals, seed)
    base = tmp_path_factory.mktemp("dispatch-order")

    direct = RunStore.create(base / "direct", spec)
    CampaignRunner(spec, direct).run()

    store = RunStore.create(base / "dispatched", spec)
    staging = StagingArea(base / "dispatched" / DISPATCH_DIR)
    coordinator = DispatchCoordinator(store, workers=0)
    for interval in order:
        stage_record(staging, interval, interval_record(spec, interval))
        # Commit whatever the reorder buffer releases right now — the
        # interleaving is the point: a permutation starting high holds
        # everything back, one starting at 0 streams commits immediately.
        coordinator._commit_ready()
    assert store.record_count == intervals
    # run() on the fully-committed store writes the summary and cleans up
    # the dispatch scratch dir exactly as a live coordinator would.
    outcome = coordinator.run()
    assert outcome.completed

    assert store.records_path.read_bytes() == direct.records_path.read_bytes()
    assert store.summary() == direct.summary()
    assert store.digest() == direct.digest()
    assert not (base / "dispatched" / DISPATCH_DIR).exists()
