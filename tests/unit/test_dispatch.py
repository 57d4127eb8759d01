"""Unit tests for the distributed dispatch layer (claims, staging, commit).

Everything here runs in-process — workers are driven as plain objects
against a ``workers=0`` (commit-only) coordinator's loopback endpoints, and
the commit loop runs over pre-staged records, so these tests cover the
protocol's invariants without subprocess spawn latency.  Subprocess pools,
chaos kills and the CLI live in ``tests/integration/test_dispatch_http.py``
and ``tests/integration/test_dispatch_chaos.py``.
"""

from __future__ import annotations

import hashlib
import json
import time
import urllib.request

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
from repro.dist import (
    DISPATCH_DIR,
    DispatchCoordinator,
    DispatchError,
    DispatchWorker,
    HTTPTransport,
    StagingArea,
    dispatch_campaign,
    validate_dispatch_policy,
)
from repro.dist.dispatch import DEFAULT_LEASE
from repro.engine.campaign import CampaignRunner, IntervalCommitted, interval_record
from repro.store import RunStore, RunStoreError, SpecMismatchError, stable_json

from tests.helpers import rewrite_record_version, stage_record


def _spec(name: str = "dispatch-test", intervals: int = 3) -> CampaignSpec:
    return CampaignSpec(
        name=name,
        intervals=intervals,
        cell=ExperimentSpec(
            seed=83,
            traffic=TrafficSpec(workload=None, packet_count=300),
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


def _direct_run(tmp_path, spec: CampaignSpec) -> RunStore:
    store = RunStore.create(tmp_path / "direct", spec)
    CampaignRunner(spec, store).run()
    return store


class TestStagingArea:
    def test_stage_then_load_round_trips(self, tmp_path):
        staging = StagingArea(tmp_path)
        record = {"interval": 0, "value": 1.5}
        assert stage_record(staging, 0, record) is True
        loaded, line = staging.load(0)
        assert loaded == record
        assert line.endswith(b"\n") and json.loads(line) == record
        assert list(staging.staged()) == [0]
        staging.discard(0)
        assert staging.staged() == {}

    def test_identical_duplicate_is_dropped_not_rewritten(self, tmp_path):
        staging = StagingArea(tmp_path)
        record = {"interval": 1, "value": 2.0}
        assert stage_record(staging, 1, record) is True
        # A straggler re-executes the interval: same bytes, benign.
        assert stage_record(staging, 1, dict(record)) is False

    def test_differing_duplicate_is_a_hard_error(self, tmp_path):
        staging = StagingArea(tmp_path)
        stage_record(staging, 1, {"interval": 1, "value": 2.0})
        with pytest.raises(DispatchError, match="pure functions"):
            stage_record(staging, 1, {"interval": 1, "value": 999.0})


class TestPolicyValidation:
    def test_checkpoint_every_rejected(self):
        spec = _spec()
        with pytest.raises(ValueError, match="checkpoint_every"):
            validate_dispatch_policy(spec, ExecutionPolicy(checkpoint_every=1))

    def test_plain_policy_bound(self):
        spec = _spec()
        bound = validate_dispatch_policy(spec, None)
        assert bound.engine is not None  # bind() resolved the engine


@pytest.fixture
def serving(tmp_path):
    """A commit-only coordinator whose endpoints serve but never commit.

    The HTTP server starts at construction and ``run()`` is never called,
    so whatever workers upload stays in the staging area for inspection.
    """
    coordinators = []

    def serve(spec: CampaignSpec, lease: float = DEFAULT_LEASE) -> DispatchCoordinator:
        store = RunStore.create(tmp_path / "run", spec)
        coordinators.append(DispatchCoordinator(store, workers=0, lease=lease))
        return coordinators[-1]

    yield serve
    for coordinator in coordinators:
        coordinator.close()


def _transport(coordinator: DispatchCoordinator, worker_id: str) -> HTTPTransport:
    return HTTPTransport(coordinator.http_url, coordinator.run_id, worker_id=worker_id)


def _worker(coordinator: DispatchCoordinator, worker_id: str = "w0") -> DispatchWorker:
    return DispatchWorker(_transport(coordinator, worker_id))


class TestClaimBoard:
    """The coordinator's lease algebra as workers see it over the wire.

    ``TestNetworkClaimBoard`` drives the board on a fake clock; here every
    claim, renew and release is a real request to a live coordinator, and
    leases lapse on its real monotonic clock.
    """

    def test_fresh_claim_single_winner(self, serving):
        coordinator = serving(_spec(intervals=2))
        a, b = _transport(coordinator, "a"), _transport(coordinator, "b")
        assert a.try_claim(0) is True
        assert b.try_claim(0) is False  # live lease held by a
        assert coordinator.claims.holder(0).worker == "a"
        assert b.try_claim(1) is True

    def test_release_frees_the_interval(self, serving):
        coordinator = serving(_spec(intervals=1))
        a, b = _transport(coordinator, "a"), _transport(coordinator, "b")
        assert a.try_claim(0)
        a.release(0)
        assert coordinator.claims.holder(0) is None
        assert b.try_claim(0) is True

    def test_expired_lease_taken_over(self, serving):
        coordinator = serving(_spec(intervals=1), lease=0.05)
        dead, live = _transport(coordinator, "dead"), _transport(coordinator, "live")
        assert dead.try_claim(0)
        time.sleep(0.2)  # the dead worker's heartbeat never came
        assert live.try_claim(0) is True
        assert coordinator.claims.holder(0).worker == "live"

    def test_renew_extends_the_lease(self, serving):
        coordinator = serving(_spec(intervals=1), lease=1.0)
        a, b = _transport(coordinator, "a"), _transport(coordinator, "b")
        assert a.try_claim(0)
        for _ in range(3):  # 1.2 s in all: longer than one lease
            time.sleep(0.4)
            a.renew(0)  # the heartbeat a live worker keeps sending
            assert b.try_claim(0) is False

    def test_heartbeat_renews_until_its_owner_stops(self, serving):
        coordinator = serving(_spec(intervals=1), lease=0.6)
        a, b = _transport(coordinator, "a"), _transport(coordinator, "b")
        assert a.try_claim(0)
        with a.heartbeat(0):
            time.sleep(1.5)  # two and a half leases of computing
            assert b.try_claim(0) is False
        time.sleep(1.0)  # the beats stopped: the lease lapses on schedule
        assert b.try_claim(0) is True

    def test_claims_listing(self, serving):
        coordinator = serving(_spec(intervals=3))
        a = _transport(coordinator, "a")
        a.try_claim(2)
        a.try_claim(0)
        status_url = f"{coordinator.http_url}/api/v1/dispatch/{coordinator.run_id}"
        with urllib.request.urlopen(status_url, timeout=30) as response:
            held = json.loads(response.read())["claims"]
        assert sorted(claim["interval"] for claim in held) == [0, 2]
        assert all(claim["worker"] == "a" for claim in held)

    def test_nonpositive_lease_rejected(self, serving):
        with pytest.raises(ValueError, match="lease"):
            serving(_spec(), lease=0.0)


class TestWorker:
    def test_worker_stages_every_pending_interval(self, serving):
        coordinator = serving(_spec(intervals=3))
        assert _worker(coordinator).run() == 3
        staged = coordinator.staging.staged()
        assert sorted(staged) == [0, 1, 2]
        # Staged bytes are exactly the future records.jsonl lines.
        for interval in staged:
            _, line = coordinator.staging.load(interval)
            assert json.loads(line)["interval"] == interval
        assert coordinator.store.record_count == 0  # workers never touch the store

    def test_worker_skips_committed_prefix(self, serving):
        spec = _spec(intervals=3)
        coordinator = serving(spec)
        CampaignRunner(spec, coordinator.store).run(max_intervals=1)
        stage_record(coordinator.staging, 1, interval_record(spec, 1))
        # Interval 0 is committed and interval 1 staged: only 2 is pending.
        assert _worker(coordinator).run() == 1
        assert sorted(coordinator.staging.staged()) == [1, 2]

    def test_worker_respects_live_foreign_claims(self, serving):
        coordinator = serving(_spec(intervals=1))
        assert coordinator.claims.try_claim(0, "other")[0]
        assert _worker(coordinator).run_one() is None  # the only interval is claimed


class TestCommitOnlyCoordinator:
    def test_pre_staged_records_commit_byte_identical(self, tmp_path):
        spec = _spec(intervals=4)
        direct = _direct_run(tmp_path, spec)
        store = RunStore.create(tmp_path / "dispatched", spec)
        staging = StagingArea(tmp_path / "dispatched" / DISPATCH_DIR)
        # Stage every interval out of order (worst-case completion order).
        for interval in (3, 1, 0, 2):
            record = interval_record(spec, interval)
            stage_record(staging, interval, record)
        outcome = DispatchCoordinator(store, workers=0).run()
        assert outcome.completed and outcome.intervals_run == 4
        assert store.records_path.read_bytes() == direct.records_path.read_bytes()
        assert store.summary() == direct.summary()
        assert store.digest() == direct.digest()
        # The dispatch scratch dir is gone: the store diffs clean.
        assert not (tmp_path / "dispatched" / DISPATCH_DIR).exists()

    def test_duplicate_of_committed_interval_asserted_then_dropped(self, tmp_path):
        spec = _spec(intervals=2)
        store = RunStore.create(tmp_path / "run", spec)
        CampaignRunner(spec, store).run(max_intervals=1)
        staging = StagingArea(tmp_path / "run" / DISPATCH_DIR)
        # A straggler re-delivers interval 0 (already committed) plus the
        # genuinely-missing interval 1.
        stage_record(staging, 0, interval_record(spec, 0))
        stage_record(staging, 1, interval_record(spec, 1))
        outcome = DispatchCoordinator(store, workers=0).run()
        assert outcome.intervals_run == 1  # only interval 1 commits
        direct = _direct_run(tmp_path, spec)
        assert store.records_path.read_bytes() == direct.records_path.read_bytes()

    def test_divergent_duplicate_of_committed_interval_raises(self, tmp_path):
        spec = _spec(intervals=2)
        store = RunStore.create(tmp_path / "run", spec)
        CampaignRunner(spec, store).run(max_intervals=1)
        staging = StagingArea(tmp_path / "run" / DISPATCH_DIR)
        tampered = dict(interval_record(spec, 0))
        tampered["receipts_digest"] = "0" * 16
        stage_record(staging, 0, tampered)
        with pytest.raises(DispatchError, match="disagrees with its committed"):
            DispatchCoordinator(store, workers=0).run()

    def test_store_of_another_record_version_is_refused(self, tmp_path):
        spec = _spec(intervals=2)
        store = RunStore.create(tmp_path / "run", spec)
        CampaignRunner(spec, store).run(max_intervals=1)
        rewrite_record_version(store, 1)
        staging = StagingArea(tmp_path / "run" / DISPATCH_DIR)
        stage_record(staging, 1, interval_record(spec, 1))
        with pytest.raises(RunStoreError, match="record version 1"):
            DispatchCoordinator(store, workers=0).run()
        assert store.record_count == 1

    def test_coordinator_and_runner_emit_the_same_events(self, tmp_path):
        # Both drivers commit through one CampaignRunner step, so the event
        # streams agree interval by interval, record by record.
        spec = _spec(intervals=3)
        direct_events = []
        direct = RunStore.create(tmp_path / "direct", spec)
        CampaignRunner(spec, direct).run(on_event=direct_events.append)
        store = RunStore.create(tmp_path / "dispatched", spec)
        staging = StagingArea(tmp_path / "dispatched" / DISPATCH_DIR)
        for interval in (2, 0, 1):
            stage_record(staging, interval, interval_record(spec, interval))
        dispatched_events = []
        DispatchCoordinator(store, workers=0, on_event=dispatched_events.append).run()

        def digest(payload) -> str:
            return hashlib.sha256(stable_json(payload).encode("utf-8")).hexdigest()

        def trace(events):
            return [
                ("IntervalCommitted", event.interval, digest(event.record))
                if isinstance(event, IntervalCommitted)
                else (type(event).__name__, None, digest(event.summary))
                for event in events
            ]

        assert trace(dispatched_events) == trace(direct_events)
        assert [(kind, interval) for kind, interval, _ in trace(direct_events)] == [
            ("IntervalCommitted", 0),
            ("IntervalCommitted", 1),
            ("IntervalCommitted", 2),
            ("RunComplete", None),
        ]

    def test_commit_clears_a_stale_interval_checkpoint(self, tmp_path):
        # A killed single-host --checkpoint-every run can leave interval.ckpt
        # behind; the dispatch commit step removes it like a resume would.
        spec = _spec(intervals=1)
        store = RunStore.create(tmp_path / "run", spec)
        stale = tmp_path / "run" / CampaignRunner.CHECKPOINT_NAME
        stale.write_bytes(b"stale")
        stage_record(StagingArea(tmp_path / "run" / DISPATCH_DIR), 0, interval_record(spec, 0))
        DispatchCoordinator(store, workers=0).run()
        assert not stale.exists()
        assert store.digest() == _direct_run(tmp_path, spec).digest()

    def test_negative_workers_rejected(self, tmp_path):
        spec = _spec(intervals=1)
        store = RunStore.create(tmp_path / "run", spec)
        with pytest.raises(ValueError, match="workers"):
            DispatchCoordinator(store, workers=-1)


class TestDispatchCampaign:
    def test_missing_store_without_spec_rejected(self, tmp_path):
        with pytest.raises(DispatchError, match="no run store"):
            dispatch_campaign(tmp_path / "nowhere", workers=0)

    def test_existing_store_with_another_spec_rejected(self, tmp_path):
        # Re-dispatching a killed run must pair it with its own spec.
        RunStore.create(tmp_path / "run", _spec(intervals=2))
        with pytest.raises(SpecMismatchError):
            dispatch_campaign(tmp_path / "run", spec=_spec(intervals=3), workers=0)
        assert not (tmp_path / "run" / DISPATCH_DIR).exists()

    def test_only_the_http_transport_is_accepted(self, tmp_path):
        for removed in ("fs", "tcp"):
            with pytest.raises(ValueError, match="filesystem transport"):
                dispatch_campaign(tmp_path / "run", spec=_spec(), transport=removed)
        assert not (tmp_path / "run").exists()  # rejected before any store exists

    def test_in_process_worker_plus_commit_only_coordinator(self, serving, tmp_path):
        # A worker somewhere uploads every interval to a coordinator that
        # then dies before committing; a fresh commit-only coordinator on
        # the same store folds the staged results left behind.
        spec = _spec(intervals=3)
        first_life = serving(spec)
        _worker(first_life, worker_id="remote-host").run()
        first_life.close()
        outcome = dispatch_campaign(tmp_path / "run", workers=0)
        assert outcome.completed and outcome.intervals_run == 3
        direct = _direct_run(tmp_path, spec)
        dispatched = RunStore.open(tmp_path / "run")
        assert dispatched.digest() == direct.digest()
