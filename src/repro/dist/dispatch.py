"""Distributed campaign dispatch: many workers, one ordered commit point.

The campaign engine already has every ingredient exactly-once distributed
execution needs: interval ``i`` is a pure function of ``(spec, i)``,
accumulator state folds associatively from the stored records, and the
:class:`~repro.store.RunStore` validates spec hashes.  This module arranges
those pieces into a coordinator/worker protocol over HTTP (worker processes
on one host, or on hosts that share no filesystem with the store):

* **Workers** (:class:`DispatchWorker`) claim pending intervals, compute the
  interval record with the ordinary pure
  :func:`~repro.engine.campaign.interval_record`, and upload the result —
  all through an :class:`~repro.dist.net.HTTPTransport` speaking the
  coordinator's ``/api/v1/dispatch/...`` endpoints.  Leases are arbitrated
  on the coordinator's **monotonic clock** only, and workers never touch
  the run directory.
* **The coordinator** (:class:`DispatchCoordinator`) holds the store's one
  writer, a :class:`~repro.engine.campaign.CampaignRunner`.  Accepted
  uploads land in a :class:`StagingArea` — its reorder buffer — and go to
  the runner's :meth:`~repro.engine.campaign.CampaignRunner.commit` strictly
  in interval order, the same commit step a single-host run takes, so the
  finished store — records, summary, everything — is **byte-identical** to
  an uninterrupted ``repro run`` of the same spec.
* **Duplicates are asserted, not assumed.**  Straggler re-execution (a
  worker SIGKILLed mid-interval, a lease takeover race) can produce the same
  interval twice.  Determinism makes the duplicate byte-identical; both the
  staging layer and the committed-record check *verify* that identity and
  raise :class:`DispatchError` on any mismatch instead of silently dropping
  data.

The coordinator also supervises local worker subprocesses (respawning any
that die while work remains) and hosts the seeded chaos hook the
``distributed-smoke`` CI job and the chaos tests drive: ``chaos_seed`` /
``chaos_kills`` SIGKILL live workers — preferring one currently holding a
claim, i.e. mid-interval — on a reproducible schedule.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

from repro.api.spec import CampaignSpec, ExecutionPolicy
from repro.engine.campaign import (
    CampaignEvent,
    CampaignRunner,
    CampaignRunOutcome,
    interval_record,
)
from repro.store import RunStore
from repro.store.runstore import SPEC_FILE, _atomic_write

if TYPE_CHECKING:
    from repro.dist.net import HTTPTransport

__all__ = [
    "DISPATCH_DIR",
    "ChaosSchedule",
    "DispatchCoordinator",
    "DispatchError",
    "DispatchWorker",
    "StagingArea",
    "committed_line",
    "dispatch_campaign",
    "validate_dispatch_policy",
]

#: Scratch directory inside the run store; removed when the campaign
#: completes so a dispatched store diffs clean against a single-host run.
DISPATCH_DIR = "dispatch"

#: Default lease (seconds) on one interval claim, timed on the
#: coordinator's monotonic clock.
DEFAULT_LEASE = 30.0


class DispatchError(RuntimeError):
    """The dispatch protocol hit a state determinism forbids."""


def validate_dispatch_policy(
    spec: CampaignSpec, policy: ExecutionPolicy | None
) -> ExecutionPolicy:
    """Resolve (and vet) the execution policy every dispatch worker runs.

    Mid-interval checkpointing is a single-writer feature — a worker's
    partial stream state has no home in the staging protocol — so
    ``checkpoint_every`` is rejected up front.
    """
    policy = policy if policy is not None else ExecutionPolicy()
    if policy.checkpoint_every is not None:
        raise ValueError(
            "dispatch workers recompute an interval from its start on "
            "re-claim; checkpoint_every applies to single-host runs only"
        )
    return policy.bind(spec.cell)


def committed_line(store: RunStore, interval: int) -> bytes:
    """The exact committed bytes of record ``interval`` (for duplicate checks)."""
    payload = store.records_path.read_bytes()
    lines = payload[: payload.rfind(b"\n") + 1].split(b"\n")
    return lines[interval] + b"\n"


class StagingArea:
    """Per-interval staged records under ``<run_dir>/dispatch/staging``.

    A staged record is one atomically-renamed file whose bytes are exactly
    the ``records.jsonl`` line the coordinator will append (stable JSON plus
    the trailing newline), so staging a duplicate reduces to a byte compare.
    Only the coordinator writes here, one stage at a time (the
    :class:`~repro.dist.net.DispatchHub` serializes uploads), so a single
    fixed scratch name per interval suffices.
    """

    def __init__(self, dispatch_dir: Path | str) -> None:
        self.staging_dir = Path(dispatch_dir) / "staging"
        self.staging_dir.mkdir(parents=True, exist_ok=True)

    def path(self, interval: int) -> Path:
        return self.staging_dir / f"interval-{interval:06d}.json"

    def stage_line(self, interval: int, line: bytes) -> bool:
        """Stage one record's exact line bytes; False when an identical copy already sits.

        A pre-existing staged record must be byte-identical (determinism);
        anything else is a :class:`DispatchError`, never a silent overwrite.
        An uploaded record is staged exactly as received (after its digest
        verified), never re-serialized, so the duplicate byte-assert compares
        what workers actually produced.
        """
        path = self.path(interval)
        existing = self._read(path)
        if existing is not None:
            if existing != line:
                raise DispatchError(
                    f"staged record for interval {interval} differs from a "
                    f"re-execution's result; interval records must be pure "
                    f"functions of (spec, interval)"
                )
            return False
        _atomic_write(path, line)
        return True

    def _read(self, path: Path) -> bytes | None:
        try:
            return path.read_bytes()
        except OSError:
            return None

    def staged(self) -> dict[int, Path]:
        """Every staged interval, sorted by index."""
        out: dict[int, Path] = {}
        try:
            names = sorted(os.listdir(self.staging_dir))
        except OSError:
            return out
        for name in names:
            if not (name.startswith("interval-") and name.endswith(".json")):
                continue
            try:
                interval = int(name[len("interval-") : -len(".json")])
            except ValueError:
                continue
            out[interval] = self.staging_dir / name
        return out

    def load(self, interval: int) -> tuple[dict[str, Any], bytes]:
        payload = self.path(interval).read_bytes()
        return json.loads(payload), payload

    def discard(self, interval: int) -> None:
        self.path(interval).unlink(missing_ok=True)


class DispatchWorker:
    """One claim/compute/deliver loop against a coordinator.

    Run it in-process (tests, embedding) or as a ``repro dispatch
    --worker-only`` subprocess.  The worker never writes the store:
    committed progress and staged results are whatever the coordinator
    reports through ``transport``, finished records travel back through it,
    and the spec and execution policy are the coordinator's own.
    """

    def __init__(self, transport: "HTTPTransport", poll: float = 0.05) -> None:
        self.transport = transport
        self.spec = transport.spec
        self.policy = transport.policy
        self.worker_id = transport.worker_id
        self.poll = poll

    def run_one(self) -> int | None:
        """Claim and compute one interval; its index, or None when idle.

        "Idle" covers both nothing-left (every remaining interval is staged
        or committed) and everything-claimed (other workers own the pending
        intervals under live leases — the caller decides whether to wait for
        a straggler's lease to lapse).
        """
        for interval in self.transport.pending():
            if not self.transport.try_claim(interval):
                continue
            with self.transport.heartbeat(interval):
                record = interval_record(self.spec, interval, policy=self.policy)
            # A successful upload releases the lease on the coordinator.
            self.transport.deliver(interval, record)
            if self.policy.throttle > 0:
                # The delivered record is durable on the coordinator side;
                # the pause gives chaos harnesses a deterministic kill
                # window per interval.
                time.sleep(self.policy.throttle)
            return interval
        return None

    def run(self) -> int:
        """Work until every remaining interval is staged or committed."""
        computed = 0
        while True:
            if self.run_one() is not None:
                computed += 1
                continue
            if not self.transport.pending():
                return computed
            # Every pending interval is claimed under a live lease; wait for
            # progress (a commit, a staged result) or a lease expiry.
            time.sleep(self.poll)


@dataclass(frozen=True)
class ChaosSchedule:
    """Seeded kill schedule for the chaos hook (reproducible by seed)."""

    seed: int
    kills: int
    min_delay: float = 0.2
    max_delay: float = 1.0

    def delays(self) -> "random.Random":
        return random.Random(self.seed)


class DispatchCoordinator:
    """Feeds uploaded records to the store's writer; supervises local workers.

    The store's one writer is ``self.runner``, a
    :class:`~repro.engine.campaign.CampaignRunner`: it commits each staged
    record in order, then the summary.  The coordinator adds what only
    dispatch needs: the byte-assert of a late duplicate, staging discard and
    claim release, worker supervision, chaos and cleanup.

    The coordinator embeds a service app serving this run's
    ``/api/v1/dispatch/…`` endpoints (``http_host`` / ``http_port``; port 0
    binds an ephemeral port, the bound URL lands in ``self.http_url``).
    Leases live on a coordinator-monotonic
    :class:`~repro.dist.net.NetworkClaimBoard`, and local worker
    subprocesses connect over loopback HTTP exactly as remote ones would.

    ``workers=0`` runs commit-only: the coordinator folds whatever remote
    (or pre-staged) workers deliver, which is the multi-host topology — one
    ``repro dispatch <dir> --workers 0`` next to the store, any number of
    ``repro dispatch --worker-only --coordinator URL --run-id ID`` processes
    on hosts with no access to the store at all.
    """

    def __init__(
        self,
        store: RunStore,
        policy: ExecutionPolicy | None = None,
        workers: int = 2,
        lease: float = DEFAULT_LEASE,
        poll: float = 0.05,
        chaos: ChaosSchedule | None = None,
        on_event: Callable[[CampaignEvent], None] | None = None,
        http_host: str = "127.0.0.1",
        http_port: int = 0,
    ) -> None:
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self.store = store
        self.spec = store.spec()
        self.policy = validate_dispatch_policy(self.spec, policy)
        self.runner = CampaignRunner(store=store, policy=self.policy)
        self.workers = workers
        self.lease = lease
        self.poll = poll
        self.chaos = chaos
        self.on_event = on_event
        self.dispatch_dir = Path(store.path) / DISPATCH_DIR
        self.staging = StagingArea(self.dispatch_dir)
        self.run_id = Path(store.path).resolve().name
        self._children: dict[str, subprocess.Popen] = {}
        self._spawned = 0
        self._start_http_server(http_host, http_port)

    # -- HTTP endpoints ----------------------------------------------------------------

    def _start_http_server(self, host: str, port: int) -> None:
        """Serve this run's ``/api/v1/dispatch/…`` endpoints in-process.

        Imported here rather than at module top: the service app imports
        :mod:`repro.dist.net`, which imports this module.
        """
        from repro.dist.net import DispatchHub, NetworkClaimBoard
        from repro.service.app import ServiceApp, make_service_server
        from repro.service.dispatchapi import DispatchRegistry

        self.claims = NetworkClaimBoard(lease=self.lease)
        hub = DispatchHub(
            store=self.store,
            policy=self.policy,
            claims=self.claims,
            staging=self.staging,
        )
        registry = DispatchRegistry()
        registry.register(self.run_id, hub)
        app = ServiceApp(Path(self.store.path).parent, dispatch=registry)
        self._http_server = make_service_server(host, port, app)
        bound_host, bound_port = self._http_server.server_address[:2]
        self.http_url = f"http://{bound_host}:{bound_port}"
        self._http_thread = threading.Thread(
            target=self._http_server.serve_forever,
            kwargs={"poll_interval": 0.1},
            name=f"repro-dispatch-http-{self.run_id}",
            daemon=True,
        )
        self._http_thread.start()

    def close(self) -> None:
        """Shut down the embedded HTTP server (idempotent)."""
        server, self._http_server = self._http_server, None
        if server is None:
            return
        server.shutdown()
        server.server_close()
        if self._http_thread is not None:
            self._http_thread.join(timeout=5.0)
            self._http_thread = None

    # -- worker subprocesses -----------------------------------------------------------

    def _worker_argv(self, worker_id: str) -> list[str]:
        # No run directory, no policy flags: the worker learns the spec,
        # policy and lease from the coordinator's config endpoint, which is
        # exactly what a remote worker with no mount does.
        return [
            sys.executable,
            "-m",
            "repro.cli",
            "dispatch",
            "--worker-only",
            "--coordinator",
            self.http_url,
            "--run-id",
            self.run_id,
            "--worker-id",
            worker_id,
            "--quiet",
        ]

    def _spawn_worker(self) -> None:
        import repro

        self._spawned += 1
        worker_id = f"{socket.gethostname()}-{os.getpid()}-w{self._spawned}"
        package_parent = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [package_parent, env["PYTHONPATH"]]
            if env.get("PYTHONPATH")
            else [package_parent]
        )
        self._children[worker_id] = subprocess.Popen(
            self._worker_argv(worker_id),
            env=env,
            stdout=subprocess.DEVNULL,
        )

    def _reap_and_respawn(self) -> None:
        """Collect exited workers; respawn crashed ones while work remains."""
        for worker_id, child in list(self._children.items()):
            status = child.poll()
            if status is None:
                continue
            del self._children[worker_id]
            if status != 0 and not self._all_work_delivered():
                self._spawn_worker()

    def _all_work_delivered(self) -> bool:
        staged = self.staging.staged()
        pending = range(self.runner.next_interval, self.spec.intervals)
        return all(interval in staged for interval in pending)

    def _terminate_workers(self) -> None:
        for child in self._children.values():
            if child.poll() is None:
                child.terminate()
        deadline = time.monotonic() + 5.0
        for child in self._children.values():
            remaining = max(0.0, deadline - time.monotonic())
            try:
                child.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
        self._children.clear()

    # -- chaos -------------------------------------------------------------------------

    def _chaos_step(self, rng: "random.Random", state: dict[str, Any]) -> None:
        """SIGKILL a live worker on the seeded schedule (prefer mid-interval)."""
        if state["kills_left"] <= 0 or time.monotonic() < state["next_kill"]:
            return
        live = {
            worker_id: child
            for worker_id, child in self._children.items()
            if child.poll() is None
        }
        if not live:
            return
        # Killing a worker that currently holds a claim is a guaranteed
        # mid-interval kill — the interesting case for straggler re-execution.
        holding = sorted(
            {claim.worker for claim in self.claims.claims().values()} & set(live)
        )
        victims = holding if holding else sorted(live)
        victim = rng.choice(victims)
        try:
            os.kill(live[victim].pid, signal.SIGKILL)
        except OSError:
            return
        state["kills_left"] -= 1
        state["next_kill"] = time.monotonic() + rng.uniform(
            self.chaos.min_delay, self.chaos.max_delay
        )

    # -- committing --------------------------------------------------------------------

    def _commit_ready(self) -> int:
        """Commit every commit-ready staged record through the runner, in order."""
        staged = self.staging.staged()
        # A straggler may re-deliver an interval that already committed
        # (claimed before the commit, staged after).  The duplicate must be
        # byte-identical to the committed line; assert, then drop.
        for interval in sorted(staged):
            if interval >= self.runner.next_interval:
                break
            _, line = self.staging.load(interval)
            if line != committed_line(self.store, interval):
                raise DispatchError(
                    f"re-executed interval {interval} disagrees with its "
                    f"committed record; the store or a worker is corrupt"
                )
            self.staging.discard(interval)
        committed = 0
        while not self.runner.completed and self.runner.next_interval in staged:
            interval = self.runner.next_interval
            record, _ = self.staging.load(interval)
            self.runner.commit(record)
            self.staging.discard(interval)
            self.claims.release(interval)
            committed += 1
        return committed

    def _cleanup(self) -> None:
        shutil.rmtree(self.dispatch_dir, ignore_errors=True)

    # -- driving -----------------------------------------------------------------------

    def run(self) -> CampaignRunOutcome:
        """Dispatch until the campaign completes; byte-identical store out.

        Safe to interrupt (SIGINT) and re-invoke: the store's committed
        prefix is durable, staged results survive in the dispatch directory,
        and a fresh coordinator continues from both.
        """
        ran = 0
        rng = self.chaos.delays() if self.chaos is not None else None
        chaos_state = {"kills_left": 0, "next_kill": 0.0}
        if self.chaos is not None:
            chaos_state = {
                "kills_left": self.chaos.kills,
                "next_kill": time.monotonic()
                + rng.uniform(self.chaos.min_delay, self.chaos.max_delay),
            }
        try:
            with self.runner.events(self.on_event):
                for _ in range(self.workers):
                    self._spawn_worker()
                while not self.runner.completed:
                    progressed = self._commit_ready()
                    ran += progressed
                    self._reap_and_respawn()
                    if self.chaos is not None:
                        self._chaos_step(rng, chaos_state)
                    if not progressed:
                        time.sleep(self.poll)
                summary = self.runner.finish()
        finally:
            self._terminate_workers()
            self.close()
        self._cleanup()
        return CampaignRunOutcome(
            completed=True,
            intervals_run=ran,
            next_interval=self.runner.next_interval,
            summary=summary,
        )


def dispatch_campaign(
    run_dir: Path | str,
    spec: CampaignSpec | None = None,
    policy: ExecutionPolicy | None = None,
    workers: int = 2,
    lease: float = DEFAULT_LEASE,
    poll: float = 0.05,
    chaos: ChaosSchedule | None = None,
    on_event: Callable[[CampaignEvent], None] | None = None,
    transport: str = "http",
    http_host: str = "127.0.0.1",
    http_port: int = 0,
) -> CampaignRunOutcome:
    """Run one campaign to completion across ``workers`` local processes.

    With ``spec`` given, a fresh store is created at ``run_dir`` (or, when a
    store already exists there, the spec is validated against it — the
    resume-a-killed-dispatch path).  The local pool reaches the coordinator
    over loopback HTTP (see :class:`DispatchCoordinator`).  The finished
    store is byte-identical to a single-host ``repro run`` of the same spec.

    ``transport`` is accepted for callers written when a second transport
    existed; ``"http"`` is the only value.
    """
    if transport != "http":
        raise ValueError(
            f"transport must be 'http', got {transport!r}; the shared-"
            f"filesystem transport ('fs') was removed — workers reach the "
            f"coordinator over HTTP"
        )
    run_dir = Path(run_dir)
    if (run_dir / SPEC_FILE).exists():
        store = RunStore.open(run_dir)
        if spec is not None:
            store.validate_spec(spec)
    else:
        if spec is None:
            raise DispatchError(
                f"{run_dir} holds no run store; pass a spec to create one"
            )
        store = RunStore.create(run_dir, spec)
    coordinator = DispatchCoordinator(
        store,
        policy=policy,
        workers=workers,
        lease=lease,
        poll=poll,
        chaos=chaos,
        on_event=on_event,
        http_host=http_host,
        http_port=http_port,
    )
    return coordinator.run()
