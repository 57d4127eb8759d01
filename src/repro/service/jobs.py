"""A bounded-concurrency job queue executing queued campaigns.

:meth:`JobQueue.submit` *accepts* a campaign by creating its
:class:`~repro.store.RunStore` immediately (the durable ``spec.json`` write is
the acceptance record — a crash between accept and execution loses nothing),
then worker threads drain the queue with bounded concurrency.

Every attempt is one child ``repro`` process.  By default the child is
``repro resume <run_dir>`` (always ``resume``: the store already exists from
the accept).  With ``dispatch_workers=N`` it is ``repro dispatch <run_dir>
--workers N`` instead: a distributed coordinator (see :mod:`repro.dist`)
fanning the campaign's intervals across N worker processes over loopback
HTTP, through the same versioned dispatch endpoints remote workers use.

Either child can be killed at any instant.  The store's atomic appends make
the next attempt continue from the last committed interval (plus, under
dispatch, any staged interval results), and the finished store is
byte-identical to an uninterrupted ``repro run``.  A non-zero exit is
re-dispatched until ``max_attempts`` is exhausted.

Per-interval *progress* is read from the store (the service's ``?since=``
record cursor), never from worker memory — what the queue knows and what a
crash would preserve are the same thing by construction.
"""

from __future__ import annotations

import os
import queue
import signal
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import repro
from repro.api.spec import CampaignSpec, ExecutionPolicy
from repro.engine.campaign import appendable_records
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
        }


class JobQueue:
    """Worker pool executing accepted campaigns with bounded concurrency.

    ``dispatch_workers=None`` runs each attempt as ``repro resume``; an
    integer N runs it as ``repro dispatch --workers N``.
    """

    def __init__(
        self,
        store_root: Path | str,
        workers: int = 2,
        max_attempts: int = 3,
        dispatch_workers: int | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if dispatch_workers is not None and dispatch_workers < 1:
            raise ValueError(f"dispatch_workers must be >= 1, got {dispatch_workers}")
        self.store_root = Path(store_root)
        self.store_root.mkdir(parents=True, exist_ok=True)
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

        ``resume=True`` re-enqueues an existing store (same spec hash and
        record version required) — the handoff path for runs a dead service
        left behind.  Without it, a run id that already holds a store is
        rejected.
        """
        policy = policy if policy is not None else ExecutionPolicy()
        # Impossible spec/policy pairings die at submission, not in a worker.
        policy = policy.bind(spec.cell)
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
                # A store no child could extend is refused now, not retried.
                try:
                    appendable_records(store)
                except RunStoreError as exc:
                    raise JobRejected(str(exc)) from exc
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

        Workers mutate ``state``/``attempts``/``pid`` under the queue lock;
        every consumer that serializes a live :class:`Job` (the HTTP layer
        above all) must come through here (or :meth:`snapshots`) so that it
        never sees a half-finished transition.
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

    # -- control -----------------------------------------------------------------------

    def kill(self, job_id: str) -> bool:
        """SIGINT a running attempt's child (chaos/testing hook).

        Returns False when the job is not running a killable child.  The
        interrupted attempt counts against ``max_attempts``; with attempts
        remaining, the queue re-dispatches a child that continues from the
        last committed interval.
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
        error = self._run_child(job)
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

    def _child_argv(self, job: Job) -> list[str]:
        if self.dispatch_workers is None:
            command = ["resume", str(job.run_dir)]
        else:
            command = [
                "dispatch",
                str(job.run_dir),
                "--workers",
                str(self.dispatch_workers),
            ]
        policy = job.policy
        argv = [sys.executable, "-m", "repro.cli", *command, "--quiet"]
        if policy.engine is not None:
            argv += ["--engine", policy.engine]
        if policy.chunk_size is not None:
            argv += ["--chunk-size", str(policy.chunk_size)]
        if policy.throttle:
            argv += ["--throttle", repr(policy.throttle)]
        return argv

    def _run_child(self, job: Job) -> str | None:
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
        try:
            child = subprocess.Popen(
                self._child_argv(job),
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
