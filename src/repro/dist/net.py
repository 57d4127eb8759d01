"""The HTTP dispatch protocol: leases, the coordinator's hub, the worker's transport.

This module is both halves of the dispatch protocol the service layer
exposes under ``/api/v1/dispatch/<run_id>/…``:

* **Coordinator side** — :class:`NetworkClaimBoard` arbitrates interval
  leases entirely on the coordinator's **monotonic clock** (workers' clocks
  never enter expiry decisions, so cross-host skew cannot corrupt a lease),
  and :class:`DispatchHub` is the per-run request brain: it answers
  claim/renew/release/upload — uploads are digest-verified over the
  received bytes, staged exactly as received (never re-serialized), and
  duplicates are **byte-asserted** against the staged or committed record
  rather than silently dropped.
* **Worker side** — :class:`HTTPTransport` is what a
  :class:`~repro.dist.dispatch.DispatchWorker` claims, heartbeats and
  delivers through, over :mod:`urllib`.  It learns the spec, execution
  policy and lease from the coordinator's config endpoint (a worker needs
  nothing but the URL and run id), retries transient failures (connection
  errors, timeouts, 5xx) with exponential backoff, and re-uploads
  idempotently — a duplicate upload after a lost response is a
  byte-compare on the coordinator, not a second commit.
  :class:`LeaseRenewer` is its heartbeat while an interval computes.

Protocol (all under ``/api/v1/dispatch/<run_id>``; worker identity travels
in the ``X-Repro-Worker`` header):

========  ======================  ==============================================
Method    Path                    Meaning
========  ======================  ==============================================
GET       ``/``                   live status; ``?config=true`` adds spec/policy
POST      ``/claims/<i>``         acquire the lease on interval ``i``
POST      ``/claims/<i>/renew``   heartbeat the lease
DELETE    ``/claims/<i>``         release the lease
PUT       ``/records/<i>``        upload the record line; ``X-Repro-Digest``
                                  carries ``sha256:<hex>`` over the raw body
========  ======================  ==============================================

Protocol errors ride the service's JSON envelope with machine-readable
codes: ``claim_held`` (409, someone else owns the lease), ``interval_done``
/ ``interval_staged`` (409, nothing left to compute), ``not_holder`` (409,
renew/upload without the lease — benign, the work still lands),
``digest_mismatch`` (400, truncated/corrupt body — retryable),
``record_divergence`` (409, determinism violated — fatal, never retried).
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import socket
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.api.spec import CampaignSpec, ExecutionPolicy
from repro.dist.dispatch import (
    DispatchError,
    StagingArea,
    committed_line,
)
from repro.engine.campaign import CampaignRunner
from repro.store import stable_json

__all__ = [
    "Claim",
    "DispatchHub",
    "HTTPTransport",
    "LeaseRenewer",
    "NetworkClaimBoard",
    "ProtocolError",
    "TransportError",
    "record_digest",
]

#: HTTP statuses a worker retries (the coordinator never emits these for
#: protocol-level rejections, which are 4xx/409).
RETRYABLE_STATUSES = frozenset({500, 502, 503, 504})

DIGEST_HEADER = "X-Repro-Digest"
WORKER_HEADER = "X-Repro-Worker"


class TransportError(DispatchError):
    """The coordinator could not be reached (after retries)."""


class _CoordinatorGone(TransportError):
    """The coordinator refused a connection the caller had marked final."""


def _connection_refused(exc: BaseException) -> bool:
    """True when ``exc`` (possibly wrapped by urllib) is a refused connection."""
    return isinstance(exc, ConnectionRefusedError) or isinstance(
        getattr(exc, "reason", None), ConnectionRefusedError
    )


class ProtocolError(DispatchError):
    """The coordinator answered with a protocol rejection.

    Carries the HTTP ``status``, the machine-readable ``code`` from the
    error envelope, and the optional structured ``detail`` — enough for a
    transport to decide between retry, ignore, and abort.
    """

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        detail: Mapping[str, Any] | None = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.detail = dict(detail) if detail is not None else None


def default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


def record_digest(line: bytes) -> str:
    """The content digest the upload protocol uses: ``sha256:<hex>``."""
    return f"sha256:{hashlib.sha256(line).hexdigest()}"


@dataclass(frozen=True)
class Claim:
    """One interval claim: who owns an interval, and until when.

    ``expires_at`` is a deadline on the :class:`NetworkClaimBoard`'s
    monotonic clock; only that clock may judge it.
    """

    interval: int
    worker: str
    expires_at: float

    def expired(self, now: float) -> bool:
        """Whether the lease has lapsed at ``now`` (the board's clock)."""
        return now >= self.expires_at


class NetworkClaimBoard:
    """Interval leases arbitrated on one process-local monotonic clock.

    Claims live in coordinator memory; deadlines are minted and compared on
    the coordinator's ``time.monotonic()`` — the **only** clock in lease
    arbitration, so cross-host clock skew cannot corrupt a lease.
    A claim lost to a coordinator restart is equivalent to an expired lease:
    the interval is simply re-claimed and recomputed, and determinism plus
    the byte-asserted duplicate path make the re-execution safe.

    ``clock`` is injectable for tests; it must be monotonic.
    """

    def __init__(
        self, lease: float = 30.0, clock: Callable[[], float] = time.monotonic
    ) -> None:
        if lease <= 0:
            raise ValueError(f"lease must be > 0 seconds, got {lease}")
        self.lease = lease
        self.clock = clock
        self._lock = threading.Lock()
        self._claims: dict[int, Claim] = {}

    def try_claim(self, interval: int, worker: str) -> tuple[bool, Claim]:
        """Grant ``worker`` the lease on ``interval`` if free or expired.

        Returns ``(granted, claim)`` — on refusal ``claim`` is the live
        competing claim (so the coordinator can report who holds it and for
        how long).  Re-claiming an interval this worker already holds just
        renews the lease.
        """
        now = self.clock()
        with self._lock:
            existing = self._claims.get(interval)
            if (
                existing is not None
                and existing.worker != worker
                and not existing.expired(now)
            ):
                return False, existing
            claim = Claim(
                interval=interval, worker=worker, expires_at=now + self.lease
            )
            self._claims[interval] = claim
            return True, claim

    def renew(self, interval: int, worker: str) -> bool:
        """Extend ``worker``'s lease; False when another worker holds it.

        An expired-but-unclaimed lease revives on renew: the owner is still
        alive (it just heartbeat late), and nobody else has taken over.
        """
        now = self.clock()
        with self._lock:
            existing = self._claims.get(interval)
            if (
                existing is not None
                and existing.worker != worker
                and not existing.expired(now)
            ):
                return False
            self._claims[interval] = Claim(
                interval=interval, worker=worker, expires_at=now + self.lease
            )
            return True

    def release(self, interval: int, worker: str | None = None) -> None:
        """Drop the claim on ``interval``.

        With ``worker`` given, only that worker's claim is dropped (a
        straggler must not release a takeover's live lease).  Without it the
        release is unconditional — the coordinator's commit path clears the
        claim whoever holds it.
        """
        with self._lock:
            existing = self._claims.get(interval)
            if existing is None:
                return
            if worker is not None and existing.worker != worker:
                return
            del self._claims[interval]

    def holder(self, interval: int) -> Claim | None:
        """The live claim on ``interval``, or None (expired counts as none)."""
        now = self.clock()
        with self._lock:
            existing = self._claims.get(interval)
            if existing is None or existing.expired(now):
                return None
            return existing

    def claims(self) -> dict[int, Claim]:
        """Every live claim (expired ones are purged as a side effect)."""
        now = self.clock()
        with self._lock:
            self._claims = {
                interval: claim
                for interval, claim in self._claims.items()
                if not claim.expired(now)
            }
            return dict(self._claims)


class DispatchHub:
    """One run's coordinator-side dispatch state behind the HTTP endpoints.

    The hub stages accepted uploads into the run's
    :class:`~repro.dist.dispatch.StagingArea` — the coordinator's reorder
    buffer — and keeps leases on a :class:`NetworkClaimBoard`.  It never
    writes the store: the coordinator drains the buffer strictly in interval
    order into the store's one writer, ``runner`` (a
    :class:`~repro.engine.campaign.CampaignRunner`), whose ``next_interval``
    is the hub's committed count.
    """

    def __init__(
        self,
        runner: CampaignRunner,
        claims: NetworkClaimBoard,
        staging: StagingArea,
    ) -> None:
        self.runner = runner
        self.store = runner.store
        self.spec = runner.spec
        self.policy = runner.policy
        self.run_id = Path(self.store.path).resolve().name
        self.claims = claims
        self.staging = staging
        self._lock = threading.Lock()

    # -- read endpoints ----------------------------------------------------------------

    def config(self) -> dict[str, Any]:
        """Everything a mount-less worker needs to start computing."""
        return {
            "spec": self.spec.to_dict(),
            "spec_hash": self.store.spec_hash,
            "policy": self.policy.to_dict(),
            "lease": self.claims.lease,
            "intervals": self.spec.intervals,
        }

    def status(self) -> dict[str, Any]:
        """Live progress: committed prefix, staged set, held claims."""
        now = self.claims.clock()
        committed = self.runner.next_interval
        return {
            "intervals": self.spec.intervals,
            "committed": committed,
            "complete": committed >= self.spec.intervals,
            "staged": sorted(self.staging.staged()),
            "claims": [
                {
                    "interval": claim.interval,
                    "worker": claim.worker,
                    "expires_in": max(0.0, claim.expires_at - now),
                }
                for claim in self.claims.claims().values()
            ],
            "lease": self.claims.lease,
        }

    # -- claim endpoints ---------------------------------------------------------------

    def _check_open(self, interval: int) -> None:
        if not 0 <= interval < self.spec.intervals:
            raise ProtocolError(
                404,
                "no_such_interval",
                f"interval {interval} outside [0, {self.spec.intervals})",
            )
        if interval < self.runner.next_interval:
            raise ProtocolError(
                409, "interval_done", f"interval {interval} is already committed"
            )

    def claim(self, interval: int, worker: str) -> dict[str, Any]:
        self._check_open(interval)
        if interval in self.staging.staged():
            raise ProtocolError(
                409,
                "interval_staged",
                f"interval {interval} is already staged for commit",
            )
        granted, claim = self.claims.try_claim(interval, worker)
        if not granted:
            raise ProtocolError(
                409,
                "claim_held",
                f"interval {interval} is leased to {claim.worker!r}",
                detail={
                    "worker": claim.worker,
                    "expires_in": max(0.0, claim.expires_at - self.claims.clock()),
                },
            )
        return {
            "interval": interval,
            "worker": worker,
            "lease": self.claims.lease,
        }

    def renew(self, interval: int, worker: str) -> dict[str, Any]:
        self._check_open(interval)
        if not self.claims.renew(interval, worker):
            raise ProtocolError(
                409,
                "not_holder",
                f"interval {interval} is no longer leased to {worker!r}",
            )
        return {"interval": interval, "worker": worker, "lease": self.claims.lease}

    def release(self, interval: int, worker: str) -> dict[str, Any]:
        self.claims.release(interval, worker)
        return {"interval": interval, "released": True}

    # -- upload ------------------------------------------------------------------------

    def upload(
        self, interval: int, payload: bytes, digest: str | None, worker: str
    ) -> dict[str, Any]:
        """Verify and stage one uploaded record line.

        The digest is computed over the raw received bytes, so a truncated
        or corrupted body is rejected *before* any byte-assert can fire —
        the worker retries the upload, nothing was staged.  Duplicates
        (already staged, already committed) byte-assert against the existing
        record: identical bytes are acknowledged as ``duplicate: true``,
        divergent bytes are a fatal ``record_divergence``.
        """
        if not 0 <= interval < self.spec.intervals:
            raise ProtocolError(
                404,
                "no_such_interval",
                f"interval {interval} outside [0, {self.spec.intervals})",
            )
        if digest is None:
            raise ProtocolError(
                400,
                "missing_digest",
                f"upload requires a {DIGEST_HEADER} header (sha256:<hex>)",
            )
        expected = record_digest(payload)
        if digest != expected:
            raise ProtocolError(
                400,
                "digest_mismatch",
                f"body digest {expected} does not match declared {digest}; "
                f"the upload was truncated or corrupted in transit — retry",
                detail={"declared": digest, "computed": expected},
            )
        line = self._validate_line(interval, payload)
        with self._lock:
            if interval < self.runner.next_interval:
                if line != committed_line(self.store, interval):
                    raise ProtocolError(
                        409,
                        "record_divergence",
                        f"re-executed interval {interval} disagrees with its "
                        f"committed record; interval records must be pure "
                        f"functions of (spec, interval)",
                    )
                return {
                    "interval": interval,
                    "duplicate": True,
                    "committed": True,
                    **self._outstanding(),
                }
            try:
                fresh = self.staging.stage_line(interval, line)
            except DispatchError as exc:
                raise ProtocolError(409, "record_divergence", str(exc)) from exc
        self.claims.release(interval, worker)
        return {
            "interval": interval,
            "duplicate": not fresh,
            "committed": False,
            **self._outstanding(),
        }

    def _outstanding(self) -> dict[str, int]:
        """Work still owed: ``remaining`` and, of those, ``unclaimed`` intervals.

        ``remaining`` counts intervals neither committed nor staged;
        ``unclaimed`` counts the remaining ones that no live lease covers.
        The staged set is read before the committed count, and the
        coordinator discards a staged file only after ``runner.commit()``
        has folded it (advancing ``next_interval``), so an interval moving
        from staged to committed between the two reads counts as done in at
        least one of them: ``remaining`` may err high, never low.
        """
        staged = self.staging.staged()
        committed = self.runner.next_interval
        remaining = [
            interval
            for interval in range(committed, self.spec.intervals)
            if interval not in staged
        ]
        unclaimed = sum(1 for interval in remaining if self.claims.holder(interval) is None)
        return {"remaining": len(remaining), "unclaimed": unclaimed}

    def _validate_line(self, interval: int, payload: bytes) -> bytes:
        """Check the upload is one stable-JSON record line for ``interval``."""
        try:
            record = json.loads(payload)
        except (ValueError, UnicodeDecodeError):
            raise ProtocolError(
                400, "malformed_record", "upload body is not a JSON record"
            ) from None
        if not isinstance(record, dict):
            raise ProtocolError(
                400, "malformed_record", "upload body must be a JSON object"
            )
        if record.get("interval") != interval:
            raise ProtocolError(
                400,
                "malformed_record",
                f"record says interval {record.get('interval')!r}, "
                f"URL says {interval}",
            )
        canonical = (stable_json(record) + "\n").encode("utf-8")
        if payload not in (canonical, canonical[:-1]):
            raise ProtocolError(
                400,
                "malformed_record",
                "upload body is not in stable JSON form (sorted keys, "
                "compact separators)",
            )
        return canonical


class LeaseRenewer:
    """Background heartbeat renewing one claim while its owner computes.

    Renewal happens every ``lease / 3`` so a single missed beat never lets
    the lease lapse; a SIGKILLed owner simply stops beating and the lease
    expires on schedule.  Each beat is a renew request arbitrated on the
    coordinator's clock.
    """

    def __init__(self, transport: HTTPTransport, interval: int) -> None:
        self._transport = transport
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name=f"repro-lease-renew-{interval}", daemon=True
        )

    def _run(self) -> None:
        period = self._transport.lease / 3.0
        while not self._stop.wait(period):
            self._transport.renew(self._interval)

    def __enter__(self) -> "LeaseRenewer":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        self._thread.join(timeout=self._transport.lease)


class HTTPTransport:
    """A worker's connection to one run's coordinator.

    Construction fetches the coordinator's config endpoint, so ``spec``,
    ``policy`` and ``lease`` are the coordinator's own — a worker needs no
    filesystem access and takes no policy knobs.  Transient failures
    (connection refused, timeouts, 5xx) retry with exponential backoff up to
    ``retries`` attempts; protocol rejections (4xx/409) never retry except
    ``digest_mismatch``, which indicates a corrupted upload body rather than
    a protocol violation.
    """

    def __init__(
        self,
        coordinator_url: str,
        run_id: str,
        worker_id: str | None = None,
        timeout: float = 10.0,
        retries: int = 6,
        backoff: float = 0.25,
        max_backoff: float = 4.0,
    ) -> None:
        self.coordinator_url = coordinator_url.rstrip("/")
        self.run_id = run_id
        self.worker_id = worker_id if worker_id is not None else default_worker_id()
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.max_backoff = max_backoff
        self._base = f"{self.coordinator_url}/api/v1/dispatch/{self.run_id}"
        self._finished = False
        # Set while this worker's latest claim attempt met another worker's
        # live lease and it holds none itself: the run then ends on someone
        # else's upload, and the coordinator may exit before our next poll.
        self._held_elsewhere = False
        config = self._request("GET", "?config=true")
        self.spec = CampaignSpec.from_dict(config["spec"])
        self.policy = ExecutionPolicy.from_dict(config["policy"])
        self.lease = float(config["lease"])

    # -- HTTP plumbing -----------------------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        body: bytes | None = None,
        headers: Mapping[str, str] | None = None,
        retry_digest_mismatch: bool = False,
        refusal_is_final: bool = False,
    ) -> dict[str, Any]:
        """One protocol request with transient-failure retry/backoff.

        Raises :class:`ProtocolError` on a 4xx/409 envelope (never retried,
        except ``digest_mismatch`` when the caller opts in) and
        :class:`TransportError` when the coordinator stays unreachable.  With
        ``refusal_is_final`` a refused connection raises
        :class:`_CoordinatorGone` at once instead of retrying.
        """
        url = self._base + path
        last_error: Exception | None = None
        for attempt in range(self.retries):
            if attempt:
                time.sleep(min(self.max_backoff, self.backoff * 2 ** (attempt - 1)))
            request = urllib.request.Request(url, data=body, method=method)
            request.add_header(WORKER_HEADER, self.worker_id)
            for name, value in (headers or {}).items():
                request.add_header(name, value)
            try:
                with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                    return json.loads(resp.read())
            except urllib.error.HTTPError as exc:
                payload = self._error_payload(exc)
                if exc.code in RETRYABLE_STATUSES:
                    last_error = exc
                    continue
                error = ProtocolError(
                    exc.code,
                    payload.get("code", "error"),
                    payload.get("message", f"HTTP {exc.code}"),
                    detail=payload.get("detail"),
                )
                if retry_digest_mismatch and error.code == "digest_mismatch":
                    last_error = error
                    continue
                raise error from None
            except (
                urllib.error.URLError,
                http.client.HTTPException,
                ConnectionError,
                TimeoutError,
                OSError,
            ) as exc:
                if refusal_is_final and _connection_refused(exc):
                    raise _CoordinatorGone(
                        f"coordinator {self.coordinator_url} refused {method} {path}: {exc}"
                    ) from None
                last_error = exc
                continue
        raise TransportError(
            f"coordinator {self.coordinator_url} unreachable after "
            f"{self.retries} attempts ({method} {path}): {last_error}"
        )

    @staticmethod
    def _error_payload(exc: urllib.error.HTTPError) -> dict[str, Any]:
        try:
            envelope = json.loads(exc.read())
            error = envelope.get("error")
            if isinstance(error, dict):
                return error
        except (ValueError, OSError):
            pass
        return {}

    # -- the worker's view of the protocol -------------------------------------------

    def pending(self) -> list[int]:
        """Committed/staged-free intervals from the coordinator's status.

        Once the coordinator has said that no interval is left to compute —
        a status in which every interval is committed or staged, or the
        response to the upload that staged the last outstanding one —
        nothing is pending ever again, and the worker asks no more: the
        coordinator may already have committed everything and shut down.

        The same holds for an idle worker: when its latest claim attempt
        found the interval held by another worker's live lease, or its latest
        upload reported every remaining interval leased to other workers
        (``unclaimed == 0``), a coordinator that now refuses the connection
        has committed those workers' uploads and exited, so the run is
        complete — the poll returns ``[]`` at once instead of spending the
        retry budget.
        """
        if self._finished:
            return []
        try:
            status = self._request("GET", "", refusal_is_final=self._held_elsewhere)
        except _CoordinatorGone:
            self._finished = True
            return []
        committed = int(status["committed"])
        staged = set(status.get("staged", []))
        pending = [
            interval
            for interval in range(committed, int(status["intervals"]))
            if interval not in staged
        ]
        self._finished = not pending
        return pending

    def try_claim(self, interval: int) -> bool:
        """Acquire the lease on ``interval``; True when this worker owns it."""
        try:
            self._request("POST", f"/claims/{interval}")
        except ProtocolError as exc:
            # claim_held / interval_done / interval_staged: someone else got
            # there first; the scan moves on.
            self._held_elsewhere = self._held_elsewhere or exc.code == "claim_held"
            return False
        self._held_elsewhere = False
        return True

    def heartbeat(self, interval: int) -> LeaseRenewer:
        """A context manager renewing our lease on ``interval`` while it runs."""
        return LeaseRenewer(self, interval)

    def renew(self, interval: int) -> None:
        # Heartbeats are best-effort: a lost renew at worst lets the lease
        # lapse, and re-execution is safe by construction.
        try:
            self._request("POST", f"/claims/{interval}/renew")
        except DispatchError:
            pass

    def release(self, interval: int) -> None:
        try:
            self._request("DELETE", f"/claims/{interval}")
        except DispatchError:
            pass

    def deliver(self, interval: int, record: Mapping[str, Any]) -> bool:
        """Upload the record line; idempotent, digest-checked, byte-asserted.

        A successful upload also releases this worker's lease on the
        coordinator, and its response says how many intervals are still
        owed; when none are, :meth:`pending` is empty from then on.  When
        some are but other workers' live leases cover all of them, the run
        ends on someone else's upload: a refused connection at the next
        poll then means the coordinator committed everything and exited.
        """
        line = (stable_json(dict(record)) + "\n").encode("utf-8")
        try:
            payload = self._request(
                "PUT",
                f"/records/{interval}",
                body=line,
                headers={
                    DIGEST_HEADER: record_digest(line),
                    "Content-Type": "application/json",
                },
                retry_digest_mismatch=True,
            )
        except ProtocolError as exc:
            if exc.code == "record_divergence":
                raise
            if exc.code == "interval_done":
                # Committed while we were uploading — a benign duplicate.
                return False
            raise
        remaining = payload.get("remaining")
        if remaining == 0:
            self._finished = True
        self._held_elsewhere = bool(remaining) and payload.get("unclaimed") == 0
        return not payload.get("duplicate", False)
