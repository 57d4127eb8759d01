"""Unit tests for the service `JobQueue`.

Every attempt is one child ``repro`` process.  Tests of queue logic
(shutdown races, stats, kill) swap a fake in for that one attempt method,
``JobQueue._run_child``; tests that assert store bytes spawn real children.
"""

from __future__ import annotations

import io
import json
import threading
import time

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
from repro.engine.campaign import CampaignRunner
from repro.service import ServiceApp
from repro.service.jobs import JobQueue, JobRejected
from repro.store import RunStore
from repro.store.runstore import SPEC_FILE
from tests.helpers import rewrite_record_version


def wait_idle(queue: JobQueue, timeout: float) -> bool:
    """Poll until no job is queued or running; False on timeout."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        stats = queue.stats()
        if not stats["queued"] and not stats["running"]:
            return True
        time.sleep(0.05)
    return False


def _spec(name: str = "jobs-test", intervals: int = 2) -> CampaignSpec:
    return CampaignSpec(
        name=name,
        intervals=intervals,
        cell=ExperimentSpec(
            seed=59,
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


def _direct_run(path, spec: CampaignSpec) -> RunStore:
    store = RunStore.create(path, spec)
    CampaignRunner(spec, store).run()
    return store


def _succeed(job) -> None:
    """A fake attempt that spawns no child and succeeds at once."""
    return None


@pytest.fixture
def queue(tmp_path):
    queue = JobQueue(tmp_path / "runs", workers=1)
    yield queue
    queue.shutdown(wait=True)


@pytest.fixture
def fake_queue(tmp_path, monkeypatch):
    """A queue whose attempts spawn no child (for tests of queue logic)."""
    queue = JobQueue(tmp_path / "runs", workers=1)
    monkeypatch.setattr(queue, "_run_child", _succeed)
    yield queue
    queue.shutdown(wait=True)


class TestConstruction:
    def test_rejects_bad_arguments(self, tmp_path):
        with pytest.raises(ValueError, match="workers"):
            JobQueue(tmp_path, workers=0)
        with pytest.raises(ValueError, match="max_attempts"):
            JobQueue(tmp_path, max_attempts=0)


class TestSubmission:
    def test_submit_creates_store_immediately(self, fake_queue):
        spec = _spec()
        job = fake_queue.submit(spec)
        # The durable spec.json write *is* the acceptance record — it exists
        # before any worker touches the job.
        assert (job.run_dir / SPEC_FILE).exists()
        assert job.run_id == f"jobs-test-{spec.spec_hash()[:10]}"
        assert job.spec_hash == spec.spec_hash()
        assert wait_idle(fake_queue, timeout=120.0)
        assert fake_queue.job(job.id).state == "completed"

    def test_duplicate_store_rejected_without_resume_flag(self, fake_queue):
        spec = _spec(name="dup")
        fake_queue.submit(spec, run_id="dup-run")
        assert wait_idle(fake_queue, timeout=120.0)
        with pytest.raises(JobRejected, match="already holds a store"):
            fake_queue.submit(spec, run_id="dup-run")

    def test_resume_reenqueues_existing_store(self, queue, tmp_path):
        spec = _spec(name="handoff")
        # A "dead service" left a half-finished store behind.
        store = RunStore.create(queue.store_root / "handoff-run", spec)
        CampaignRunner(spec, store).run(max_intervals=1)
        job = queue.submit(spec, run_id="handoff-run", resume=True)
        assert wait_idle(queue, timeout=240.0)
        assert queue.job(job.id).state == "completed", queue.job(job.id).error
        assert queue.job(job.id).attempts == 1
        finished = RunStore.open(queue.store_root / "handoff-run")
        # Byte-identical to a never-interrupted direct run of the same spec.
        direct = _direct_run(tmp_path / "direct", spec)
        assert finished.records_path.read_bytes() == direct.records_path.read_bytes()
        assert finished.digest() == direct.digest()

    def test_resume_of_another_record_version_rejected(self, queue):
        spec = _spec(name="old-build")
        store = RunStore.create(queue.store_root / "old-run", spec)
        CampaignRunner(spec, store).run(max_intervals=1)
        rewrite_record_version(store, 1)
        # No child could extend this store: refused at submission, not
        # retried max_attempts times.
        with pytest.raises(JobRejected, match="holds record version 1"):
            queue.submit(spec, run_id="old-run", resume=True)
        assert queue.jobs() == []

    def test_resume_without_store_rejected(self, queue):
        with pytest.raises(JobRejected, match="no store to resume"):
            queue.submit(_spec(), run_id="ghost", resume=True)

    def test_impossible_policy_dies_at_submission(self, queue):
        # A chunk size against the spec's own batch engine.
        with pytest.raises(ValueError, match="does not support chunk_size"):
            queue.submit(_spec(), policy=ExecutionPolicy(chunk_size=64))
        assert queue.jobs() == []

    def test_path_escaping_run_id_rejected(self, queue):
        with pytest.raises(ValueError, match="invalid run id"):
            queue.submit(_spec(), run_id="../outside")

    def test_submit_after_shutdown_rejected(self, tmp_path):
        queue = JobQueue(tmp_path / "runs", workers=1)
        queue.shutdown(wait=True)
        with pytest.raises(JobRejected, match="shut down"):
            queue.submit(_spec())


class TestInspection:
    def test_stats_and_listing(self, fake_queue):
        job = fake_queue.submit(_spec(name="stats"))
        assert wait_idle(fake_queue, timeout=120.0)
        assert [j.id for j in fake_queue.jobs()] == [job.id]
        stats = fake_queue.stats()
        assert stats["completed"] == 1
        assert stats["queued"] == stats["running"] == stats["failed"] == 0
        assert stats["workers"] == 1

    def test_kill_requires_a_running_subprocess(self, fake_queue):
        job = fake_queue.submit(_spec(name="unkillable"))
        assert wait_idle(fake_queue, timeout=120.0)
        # A completed job exposes no killable child.
        assert fake_queue.kill(job.id) is False
        assert fake_queue.kill("job-does-not-exist") is False

    def test_snapshot_has_no_event_log(self, fake_queue):
        # Progress is the store's ?since= record cursor, not job state.
        job = fake_queue.submit(_spec(name="no-events"))
        assert wait_idle(fake_queue, timeout=120.0)
        assert set(fake_queue.snapshot(job)) == {
            "id", "run", "spec_hash", "state", "attempts", "max_attempts", "error", "pid"
        }


class TestShutdownRequeueRace:
    def test_failed_attempt_after_shutdown_is_terminal(self, tmp_path, monkeypatch):
        """Regression: a retryable failure racing shutdown must not requeue.

        The old code decided "requeue" under the lock but put the job back
        on the task queue *after* releasing it — shutdown could slip in
        between, mark the queue closed and enqueue its None sentinels, and
        the requeued job would land *behind* the sentinels: state "queued"
        forever, with every worker already gone.  This drives that exact
        interleaving deterministically: the attempt blocks mid-run while
        shutdown closes the queue, then fails.
        """
        queue = JobQueue(tmp_path / "runs", workers=1, max_attempts=3)
        attempt_started = threading.Event()
        release_attempt = threading.Event()

        def blocking_failure(job):
            attempt_started.set()
            assert release_attempt.wait(timeout=60.0)
            return "injected failure"

        monkeypatch.setattr(queue, "_run_child", blocking_failure)
        job = queue.submit(_spec(name="race"))
        assert attempt_started.wait(timeout=60.0)
        # The attempt is in flight; shutdown closes the queue and enqueues
        # the worker sentinels, then the attempt fails with retries left.
        shutdown = threading.Thread(target=queue.shutdown, kwargs={"wait": True})
        shutdown.start()
        release_attempt.set()
        shutdown.join(timeout=60.0)
        assert not shutdown.is_alive()  # every worker exited
        assert queue.job(job.id).state == "failed"  # terminal, not "queued"
        assert queue.job(job.id).error == "injected failure"

    def test_concurrent_submit_and_shutdown_leaves_no_job_in_limbo(
        self, tmp_path, monkeypatch
    ):
        """Stress: submissions racing shutdown either run to a terminal state
        or are rejected — never accepted and then silently never run."""
        for round_index in range(5):
            queue = JobQueue(tmp_path / f"runs-{round_index}", workers=2)
            monkeypatch.setattr(queue, "_run_child", _succeed)
            accepted, rejected = [], []
            barrier = threading.Barrier(5)

            def submit_some(
                offset,
                accepted=accepted,
                rejected=rejected,
                barrier=barrier,
                queue=queue,
                round_index=round_index,
            ):
                barrier.wait()
                for i in range(3):
                    try:
                        accepted.append(
                            queue.submit(
                                _spec(name=f"stress-{round_index}"),
                                run_id=f"stress-{offset}-{i}",
                            )
                        )
                    except JobRejected:
                        rejected.append((offset, i))

            def shut_down(barrier=barrier, queue=queue):
                barrier.wait()
                queue.shutdown(wait=True)

            threads = [
                threading.Thread(target=submit_some, args=(offset,))
                for offset in range(4)
            ] + [threading.Thread(target=shut_down)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300.0)
            assert not any(thread.is_alive() for thread in threads)
            # shutdown(wait=True) returned: every accepted job was drained
            # to a terminal state before the workers exited.
            for job in accepted:
                assert queue.job(job.id).state in ("completed", "failed")


class TestDispatchMode:
    def test_dispatch_rejects_checkpointing_at_submission(self, tmp_path):
        """A dispatch-mode service answers a removed knob with the 400 envelope."""
        queue = JobQueue(tmp_path / "runs", workers=1, dispatch_workers=2)
        try:
            app = ServiceApp(tmp_path / "runs", queue=queue)
            body = json.dumps(
                {"spec": _spec().to_dict(),
                 "policy": {"engine": "streaming", "checkpoint_every": 1}}
            ).encode("utf-8")
            environ = {
                "REQUEST_METHOD": "POST",
                "PATH_INFO": "/api/v1/jobs",
                "QUERY_STRING": "",
                "CONTENT_TYPE": "application/json",
                "CONTENT_LENGTH": str(len(body)),
                "wsgi.input": io.BytesIO(body),
            }
            statuses: list[str] = []
            payload = b"".join(
                app(environ, lambda status, headers, *_: statuses.append(status))
            )
            assert queue.jobs() == []
        finally:
            queue.shutdown(wait=True)
        assert statuses[0].startswith("400")
        error = json.loads(payload)["error"]
        assert error["code"] == "bad_request"
        assert "'checkpoint_every'" in error["message"]
        assert not list((tmp_path / "runs").glob("*"))

    def test_dispatch_workers_validated(self, tmp_path):
        with pytest.raises(ValueError, match="dispatch_workers"):
            JobQueue(tmp_path, dispatch_workers=0)


class TestSubprocessMode:
    def test_subprocess_run_matches_direct_run(self, queue, tmp_path):
        spec = _spec(name="subproc")
        job = queue.submit(spec, run_id="via-worker")
        assert wait_idle(queue, timeout=240.0)
        assert queue.job(job.id).state == "completed", queue.job(job.id).error
        direct = _direct_run(tmp_path / "direct", spec)
        worker_store = RunStore.open(tmp_path / "runs" / "via-worker")
        assert (
            worker_store.records_path.read_bytes()
            == direct.records_path.read_bytes()
        )
        assert worker_store.digest() == direct.digest()

    def test_dispatch_run_matches_direct_run(self, tmp_path):
        # Each attempt is a `repro dispatch` child whose worker pool
        # reaches it over loopback HTTP.
        spec = _spec(name="dispatched")
        queue = JobQueue(tmp_path / "runs", workers=1, dispatch_workers=2)
        try:
            job = queue.submit(spec, run_id="via-dispatch")
            assert wait_idle(queue, timeout=240.0)
            assert queue.job(job.id).state == "completed", queue.job(job.id).error
        finally:
            queue.shutdown(wait=True)
        direct = _direct_run(tmp_path / "direct", spec)
        dispatched = RunStore.open(tmp_path / "runs" / "via-dispatch")
        assert dispatched.records_path.read_bytes() == direct.records_path.read_bytes()
        assert dispatched.digest() == direct.digest()
