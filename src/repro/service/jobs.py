"""A bounded-concurrency job queue executing queued campaigns.

:meth:`JobQueue.submit` *accepts* a campaign by creating its
:class:`~repro.store.RunStore` immediately (the durable ``spec.json`` write is
the acceptance record — a crash between accept and execution loses nothing),
then worker threads drain the queue with bounded concurrency.  Execution has
three modes:

``subprocess`` (the service default)
    Each attempt runs ``repro resume <run_dir>`` in a child process (always
    ``resume`` — the store already exists from the accept).  The child can be
    killed at any instant: the store's atomic-append semantics plus
    :meth:`~repro.engine.campaign.CampaignRunner.resume` make the next
    attempt continue from the last committed interval, and the finished store
    is byte-identical to an uninterrupted run.  A non-zero exit is
    re-dispatched until ``max_attempts`` is exhausted.

``inprocess``
    The worker thread drives a :class:`~repro.engine.campaign.CampaignRunner`
    directly and records its typed :data:`~repro.engine.campaign.CampaignEvent`
    stream on the job (useful for embedding and tests; a worker thread cannot
    be killed, so crash-handoff coverage lives in subprocess mode).

``dispatch``
    Each attempt runs ``repro dispatch <run_dir>`` in a child process: a
    distributed coordinator (see :mod:`repro.dist`) fanning the campaign's
    intervals across ``dispatch_workers`` worker processes over loopback
    HTTP, through the same versioned dispatch endpoints remote workers use.
    The same kill/retry contract as subprocess mode applies — re-dispatch
    continues from the committed prefix plus any staged interval results,
    and the finished store is byte-identical to single-host execution.

Either way, per-interval *progress* is read from the store (the service's
``?since=`` record cursor), never from worker memory — what the queue knows
and what a crash would preserve are the same thing by construction.
"""

from __future__ import annotations

import os
import queue
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import repro
from repro.api.spec import CampaignSpec, ExecutionPolicy
from repro.engine.campaign import (
    CampaignEvent,
    CampaignRunner,
    CheckpointWritten,
    IntervalCommitted,
    RunComplete,
)
from repro.service.index import validate_run_id
from repro.store import RunStore, RunStoreError
from repro.store.runstore import SPEC_FILE

__all__ = ["Job", "JobQueue", "JobRejected"]

#: Job lifecycle: queued -> running -> (queued again on a failed attempt with
#: retries left) -> completed | failed.  ``killed`` attempts count as failed
#: attempts; the resume re-dispatch is what makes them safe.
JOB_STATES = ("queued", "running", "completed", "failed")


class JobRejected(ValueError):
    """A submission the queue refuses (bad policy, duplicate run, shutdown)."""


def _event_payload(event: CampaignEvent) -> dict[str, Any]:
    """A small JSON-safe view of one typed campaign event."""
    if isinstance(event, IntervalCommitted):
        return {
            "kind": "interval_committed",
            "interval": event.interval,
            "intervals": event.intervals,
            "receipts_digest": event.record["receipts_digest"],
        }
    if isinstance(event, CheckpointWritten):
        return {
            "kind": "checkpoint_written",
            "interval": event.interval,
            "intervals": event.intervals,
            "chunk_index": event.chunk_index,
        }
    if isinstance(event, RunComplete):
        return {"kind": "run_complete", "intervals": event.intervals}
    raise TypeError(f"unknown campaign event {event!r}")  # pragma: no cover


@dataclass
class Job:
    """One accepted campaign execution (mutated only under the queue's lock)."""

    id: str
    run_id: str
    run_dir: Path
    spec_hash: str
    policy: ExecutionPolicy
    state: str = "queued"
    attempts: int = 0
    max_attempts: int = 3
    error: str | None = None
    pid: int | None = None
    events: list[dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "run": self.run_id,
            "spec_hash": self.spec_hash,
            "state": self.state,
            "attempts": self.attempts,
            "max_attempts": self.max_attempts,
            "error": self.error,
            "pid": self.pid,
            "events": list(self.events),
        }


class JobQueue:
    """Worker pool executing accepted campaigns with bounded concurrency."""

    def __init__(
        self,
        store_root: Path | str,
        workers: int = 2,
        execution: str = "subprocess",
        max_attempts: int = 3,
        dispatch_workers: int = 2,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if execution not in ("subprocess", "inprocess", "dispatch"):
            raise ValueError(
                f"execution must be 'subprocess', 'inprocess' or 'dispatch', "
                f"got {execution!r}"
            )
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if dispatch_workers < 1:
            raise ValueError(f"dispatch_workers must be >= 1, got {dispatch_workers}")
        self.store_root = Path(store_root)
        self.store_root.mkdir(parents=True, exist_ok=True)
        self.execution = execution
        self.max_attempts = max_attempts
        self.dispatch_workers = dispatch_workers
        self._tasks: queue.Queue[Job | None] = queue.Queue()
        self._jobs: dict[str, Job] = {}
        self._order: list[str] = []
        self._lock = threading.Lock()
        self._closed = False
        self._sequence = 0
        self._workers = [
            threading.Thread(
                target=self._worker, name=f"repro-job-worker-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for worker in self._workers:
            worker.start()

    # -- submission --------------------------------------------------------------------

    def submit(
        self,
        spec: CampaignSpec,
        policy: ExecutionPolicy | None = None,
        run_id: str | None = None,
        resume: bool = False,
    ) -> Job:
        """Accept one campaign: create (or reopen) its store, then enqueue.

        ``resume=True`` re-enqueues an existing store (same spec hash
        required) — the handoff path for runs a dead service left behind.
        Without it, a run id that already holds a store is rejected.
        """
        policy = policy if policy is not None else ExecutionPolicy()
        # Impossible spec/policy pairings die at submission, not in a worker.
        policy = policy.bind(spec.cell)
        if self.execution == "dispatch" and policy.checkpoint_every is not None:
            raise JobRejected(
                "dispatch execution re-claims intervals from their start; "
                "checkpoint_every applies to single-host execution modes"
            )
        run_id = validate_run_id(
            run_id if run_id is not None else f"{spec.name}-{spec.spec_hash()[:10]}"
        )
        with self._lock:
            if self._closed:
                raise JobRejected("job queue is shut down")
            if any(
                job.run_id == run_id and job.state in ("queued", "running")
                for job in self._jobs.values()
            ):
                raise JobRejected(f"run {run_id!r} already has an active job")
            run_dir = self.store_root / run_id
            if (run_dir / SPEC_FILE).exists():
                if not resume:
                    raise JobRejected(
                        f"run {run_id!r} already holds a store; submit with "
                        f"resume=true to re-enqueue it"
                    )
                store = RunStore.open(run_dir)
                store.validate_spec(spec)
            else:
                if resume:
                    raise JobRejected(f"run {run_id!r} has no store to resume")
                RunStore.create(run_dir, spec)
            self._sequence += 1
            job = Job(
                id=f"job-{self._sequence}",
                run_id=run_id,
                run_dir=run_dir,
                spec_hash=spec.spec_hash(),
                policy=policy,
                max_attempts=self.max_attempts,
            )
            self._jobs[job.id] = job
            self._order.append(job.id)
            # Enqueue under the same lock that guards ``_closed``: a put
            # outside it can land *behind* shutdown's None sentinels and
            # leave the job "queued" forever with no worker left to run it.
            # Inside the lock the FIFO order is decided: either this put
            # precedes every sentinel (some worker runs the job before its
            # sentinel), or the closed check above already rejected it.
            self._tasks.put(job)
        return job

    # -- inspection --------------------------------------------------------------------

    def job(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        with self._lock:
            return [self._jobs[job_id] for job_id in self._order]

    def snapshot(self, job: Job) -> dict[str, Any]:
        """One job's state as a plain dict, read atomically under the lock.

        Workers mutate ``state``/``attempts``/``events`` under the queue
        lock; every consumer that serializes a live :class:`Job` (the HTTP
        layer above all) must come through here (or :meth:`snapshots`) — a
        bare ``job.to_dict()`` can copy ``events`` mid-append and tear.
        """
        with self._lock:
            return job.to_dict()

    def snapshots(self) -> list[dict[str, Any]]:
        """Every job's state, in submission order, under one lock hold."""
        with self._lock:
            return [self._jobs[job_id].to_dict() for job_id in self._order]

    def stats(self) -> dict[str, int]:
        with self._lock:
            counts = dict.fromkeys(JOB_STATES, 0)
            for job in self._jobs.values():
                counts[job.state] += 1
        counts["workers"] = len(self._workers)
        return counts

    def wait_idle(self, timeout: float = 60.0) -> bool:
        """Block until no job is queued or running (tests and demos)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                busy = any(
                    job.state in ("queued", "running")
                    for job in self._jobs.values()
                )
            if not busy:
                return True
            time.sleep(0.05)
        return False

    # -- control -----------------------------------------------------------------------

    def kill(self, job_id: str) -> bool:
        """SIGINT a running subprocess attempt (chaos/testing hook).

        Returns False when the job is not running a killable child.  The
        interrupted attempt counts against ``max_attempts``; with attempts
        remaining, the queue re-dispatches a ``resume`` that continues from
        the last committed interval.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            pid = job.pid if job is not None and job.state == "running" else None
        if pid is None:
            return False
        try:
            os.kill(pid, signal.SIGINT)
        except OSError:
            return False
        return True

    def shutdown(self, wait: bool = True) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for _ in self._workers:
            self._tasks.put(None)
        if wait:
            for worker in self._workers:
                worker.join()

    # -- execution ---------------------------------------------------------------------

    def _worker(self) -> None:
        while True:
            job = self._tasks.get()
            if job is None:
                return
            self._attempt(job)

    def _attempt(self, job: Job) -> None:
        with self._lock:
            job.state = "running"
            job.attempts += 1
        if self.execution == "inprocess":
            error = self._run_inprocess(job)
        else:
            error = self._run_subprocess(job)
        with self._lock:
            job.pid = None
            if error is None:
                job.state = "completed"
                job.error = None
                return
            job.error = error
            if job.attempts < job.max_attempts and not self._closed:
                # Requeue under the lock, for the same reason submit does:
                # deciding "not closed" and putting must be atomic against
                # shutdown's sentinel enqueue, or the retry lands behind the
                # sentinels and sits "queued" forever.  After shutdown the
                # failed attempt is terminal instead.
                job.state = "queued"
                self._tasks.put(job)
            else:
                job.state = "failed"

    def _policy_argv(self, policy: ExecutionPolicy) -> list[str]:
        argv: list[str] = []
        if policy.engine is not None:
            argv += ["--engine", policy.engine]
        if policy.chunk_size is not None:
            argv += ["--chunk-size", str(policy.chunk_size)]
        if policy.checkpoint_every is not None:
            argv += ["--checkpoint-every", str(policy.checkpoint_every)]
        if policy.throttle:
            argv += ["--throttle", repr(policy.throttle)]
        return argv

    def _run_subprocess(self, job: Job) -> str | None:
        """One child-process attempt; returns an error string or None."""
        # The child must import this exact repro package whether or not it is
        # installed: prepend its parent directory to the child's PYTHONPATH.
        package_parent = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [package_parent, env["PYTHONPATH"]]
            if env.get("PYTHONPATH")
            else [package_parent]
        )
        if self.execution == "dispatch":
            # Distributed mode: the child is a dispatch coordinator fanning
            # the campaign's intervals out across its own worker pool (see
            # repro.dist).  Re-dispatch after a kill is exactly as safe as
            # resume: the store's committed prefix plus any staged interval
            # results carry over.
            argv = [
                sys.executable,
                "-m",
                "repro.cli",
                "dispatch",
                str(job.run_dir),
                "--workers",
                str(self.dispatch_workers),
                "--quiet",
                *self._policy_argv(job.policy),
            ]
        else:
            argv = [
                sys.executable,
                "-m",
                "repro.cli",
                "resume",
                str(job.run_dir),
                "--quiet",
                *self._policy_argv(job.policy),
            ]
        try:
            child = subprocess.Popen(
                argv,
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
            )
        except OSError as exc:
            return f"cannot spawn worker process: {exc}"
        with self._lock:
            job.pid = child.pid
        _, stderr = child.communicate()
        if child.returncode == 0:
            return None
        detail = (stderr or "").strip().splitlines()
        suffix = f": {detail[-1]}" if detail else ""
        return f"worker exited with status {child.returncode}{suffix}"

    def _run_inprocess(self, job: Job) -> str | None:
        """One in-thread attempt; returns an error string or None."""

        def record_event(event: CampaignEvent) -> None:
            with self._lock:
                job.events.append(_event_payload(event))

        try:
            store = RunStore.open(job.run_dir)
            runner = CampaignRunner.resume(store, policy=job.policy)
            runner.run(on_event=record_event)
        except (RunStoreError, ValueError, OSError) as exc:
            return str(exc)
        return None
