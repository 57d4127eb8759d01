"""The measurement service's HTTP surface (pure-WSGI, stdlib only).

:class:`ServiceApp` is an ordinary WSGI callable: development serving uses
:func:`wsgiref.simple_server.make_server` (threaded, via
:func:`make_service_server` / ``repro serve``), and production serving is any
WSGI server pointed at an app instance — the service deliberately adds **no**
dependency beyond the standard library.

The API is versioned: every route lives under ``/api/v1/``.  Any other
``/api/…`` path answers the uniform 404 error envelope, pointing at
``/api/v1/``.

Endpoints (all JSON, byte-stable serialization):

=======  ===================================  ==========================================
Method   Path                                 Meaning
=======  ===================================  ==========================================
GET      ``/``                                the single-file browser dashboard
GET      ``/api/v1/health``                   liveness + queue/store statistics
GET      ``/api/v1/runs``                     list/filter runs (``name``/``complete``/
                                              ``sla``/``spec_hash``); paginated via
                                              ``limit``/``cursor``
GET      ``/api/v1/runs/<id>``                one run's entry + summary + latest job
GET      ``/api/v1/runs/<id>/records``        committed records; ``?since=N`` cursor,
                                              ``?wait=S`` long-poll, ``?full=true``
GET      ``/api/v1/runs/<id>/report``         the machine-readable report
GET      ``/api/v1/runs/<id>/spec``           the run's frozen spec payload
GET      ``/api/v1/compare?runs=a,b``         per-domain side-by-side summaries
POST     ``/api/v1/jobs``                     submit ``{"spec": …, "policy"?: …,
                                              "run_id"?: …, "resume"?: bool}`` → 202
GET      ``/api/v1/jobs``                     accepted jobs; paginated via
                                              ``limit``/``cursor``
GET      ``/api/v1/jobs/<id>``                one job's state/attempts/error
POST     ``/api/v1/jobs/<id>/kill``           SIGINT a running attempt (chaos hook)
GET      ``/api/v1/dispatch/<run_id>``        dispatch status (``?config=true`` for
                                              spec/policy/lease)
POST     ``/api/v1/dispatch/…/claims/<i>``    acquire an interval lease
POST     ``/api/v1/dispatch/…/claims/<i>/renew``  heartbeat the lease
DELETE   ``/api/v1/dispatch/…/claims/<i>``    release the lease
PUT      ``/api/v1/dispatch/…/records/<i>``   upload a digest-checked record line
=======  ===================================  ==========================================

Every error — any route, any status — is one JSON envelope::

    {"error": {"code": "<machine-readable>", "message": "…", "detail"?: {…}}}

Pagination is cursor-based: pass ``limit=N`` to cap a listing, and feed the
response's ``next_cursor`` back as ``cursor`` to continue; ``next_cursor``
is ``null`` on the last page.

Progress polling reads committed records straight off the store (the same
bytes a crash would preserve), submission validates the spec with the spec
layer's own validators (a 400 carries their message verbatim), and a run
executed through the queue — each attempt one ``repro resume`` child, or one
``repro dispatch`` child under ``repro serve --dispatch-workers N`` — produces
a store byte-identical to ``repro run`` with the same spec+policy: the
acceptance criterion CI's ``service-smoke`` job diffs for both.

The ``/api/v1/dispatch/…`` routes answer only in an app built with a
:class:`~repro.dist.net.DispatchHub`, which is what every
:class:`~repro.dist.dispatch.DispatchCoordinator` embeds for its one run;
``repro serve`` hosts none and answers them 503 ``no_dispatch``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Callable, Iterable
from urllib.parse import parse_qs
from wsgiref.simple_server import WSGIRequestHandler, WSGIServer, make_server

from socketserver import ThreadingMixIn

from repro.api.spec import CampaignSpec, ExecutionPolicy
from repro.dist.net import DispatchHub
from repro.service.dashboard import DASHBOARD_HTML
from repro.service.dispatchapi import handle_dispatch
from repro.service.errors import STATUS_TEXT, HTTPError, _body_bytes, error_body
from repro.service.index import RunIndex
from repro.service.jobs import JobQueue, JobRejected
from repro.service.report import compare_runs, run_report
from repro.store import RunStoreError, stable_json

__all__ = ["HTTPError", "ServiceApp", "make_service_server", "serve"]

#: Upper bound on accepted request bodies (a campaign spec is a few KB).
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Upper bound on one long-poll hold (clients re-issue to wait longer).
MAX_WAIT_SECONDS = 25.0

#: The current API version segment.
API_VERSION = "v1"


def _bool_param(params: dict[str, list[str]], key: str) -> bool | None:
    values = params.get(key)
    if not values:
        return None
    value = values[-1].lower()
    if value in ("1", "true", "yes"):
        return True
    if value in ("0", "false", "no"):
        return False
    raise HTTPError(
        400,
        f"query parameter {key!r} must be a boolean, got {value!r}",
        code="bad_parameter",
        detail={"parameter": key},
    )


def _int_param(params: dict[str, list[str]], key: str, default: int) -> int:
    values = params.get(key)
    if not values:
        return default
    try:
        value = int(values[-1])
    except ValueError:
        raise HTTPError(
            400,
            f"query parameter {key!r} must be an integer, got {values[-1]!r}",
            code="bad_parameter",
            detail={"parameter": key},
        ) from None
    if value < 0:
        raise HTTPError(
            400,
            f"query parameter {key!r} must be >= 0, got {value}",
            code="bad_parameter",
            detail={"parameter": key},
        )
    return value


def _float_param(params: dict[str, list[str]], key: str, default: float) -> float:
    values = params.get(key)
    if not values:
        return default
    try:
        value = float(values[-1])
    except ValueError:
        raise HTTPError(
            400,
            f"query parameter {key!r} must be a number, got {values[-1]!r}",
            code="bad_parameter",
            detail={"parameter": key},
        ) from None
    if not value >= 0:  # NaN too: it would defeat the long-poll cap
        raise HTTPError(
            400,
            f"query parameter {key!r} must be >= 0, got {value}",
            code="bad_parameter",
            detail={"parameter": key},
        )
    return value


def _limit_param(params: dict[str, list[str]]) -> int | None:
    """The ``limit`` pagination parameter: a positive int, or None (no cap)."""
    values = params.get("limit")
    if not values:
        return None
    try:
        value = int(values[-1])
    except ValueError:
        raise HTTPError(
            400,
            f"query parameter 'limit' must be an integer, got {values[-1]!r}",
            code="bad_parameter",
            detail={"parameter": "limit"},
        ) from None
    if value < 1:
        raise HTTPError(
            400,
            f"query parameter 'limit' must be >= 1, got {value}",
            code="bad_parameter",
            detail={"parameter": "limit"},
        )
    return value


class ServiceApp:
    """WSGI application over one store root (and optionally a job queue).

    ``dispatch`` is an optional :class:`~repro.dist.net.DispatchHub` whose
    run the app serves under ``/api/v1/dispatch/<run_id>/…`` — every
    :class:`~repro.dist.dispatch.DispatchCoordinator` embeds an app with its
    own hub.
    """

    def __init__(
        self,
        store_root: Path | str,
        queue: JobQueue | None = None,
        index: RunIndex | None = None,
        dispatch: DispatchHub | None = None,
    ) -> None:
        self.store_root = Path(store_root)
        self.index = index if index is not None else RunIndex(self.store_root)
        self.queue = queue
        self.dispatch = dispatch

    # -- WSGI entry point --------------------------------------------------------------

    def __call__(
        self,
        environ: dict[str, Any],
        start_response: Callable[..., Any],
    ) -> Iterable[bytes]:
        try:
            status, content_type, body = self._dispatch(environ)
        except HTTPError as exc:
            status = exc.status
            content_type = "application/json"
            body = (
                stable_json(error_body(exc.code, exc.message, exc.detail)) + "\n"
            ).encode("utf-8")
        except Exception as exc:  # a handler bug must not kill the server
            status = 500
            content_type = "application/json"
            body = (
                stable_json(error_body("internal", f"{type(exc).__name__}: {exc}"))
                + "\n"
            ).encode("utf-8")
        headers = [
            ("Content-Type", f"{content_type}; charset=utf-8"),
            ("Content-Length", str(len(body))),
            ("Cache-Control", "no-store"),
        ]
        start_response(STATUS_TEXT[status], headers)
        return [body]

    # -- routing -----------------------------------------------------------------------

    def _dispatch(self, environ: dict[str, Any]) -> tuple[int, str, bytes]:
        method = environ.get("REQUEST_METHOD", "GET").upper()
        path = environ.get("PATH_INFO", "/") or "/"
        params = parse_qs(environ.get("QUERY_STRING", ""))
        segments = [segment for segment in path.split("/") if segment]

        if not segments:
            self._require(method, "GET", path)
            return (200, "text/html", DASHBOARD_HTML.encode("utf-8"))
        if segments[:2] != ["api", API_VERSION]:
            raise HTTPError(
                404,
                f"no such path: {path} (the API lives under /api/{API_VERSION}/)",
            )
        route = segments[2:]

        if route[:1] == ["dispatch"]:
            if self.dispatch is None:
                raise HTTPError(
                    503,
                    "this service instance hosts no dispatch coordination",
                    code="no_dispatch",
                )
            status, payload = handle_dispatch(
                self.dispatch, route[1:], method, environ, params
            )
            return self._json(status, payload)

        if route == ["health"]:
            self._require(method, "GET", path)
            return self._json(200, self._health())
        if route == ["runs"]:
            self._require(method, "GET", path)
            return self._json(200, self._list_runs(params))
        if len(route) == 2 and route[0] == "runs":
            self._require(method, "GET", path)
            return self._json(200, self._run_detail(route[1]))
        if len(route) == 3 and route[0] == "runs":
            self._require(method, "GET", path)
            run_id, leaf = route[1], route[2]
            if leaf == "records":
                return self._json(200, self._run_records(run_id, params))
            if leaf == "report":
                return self._json(200, run_report(self._store(run_id)))
            if leaf == "spec":
                store = self._store(run_id)
                return self._json(
                    200, {"spec_hash": store.spec_hash, "spec": store.spec().to_dict()}
                )
            raise HTTPError(404, f"no such path: {path}")
        if route == ["compare"]:
            self._require(method, "GET", path)
            return self._json(200, self._compare(params))
        if route == ["jobs"]:
            if method == "POST":
                return self._json(202, {"job": self._submit(environ)})
            self._require(method, "GET", path)
            return self._json(200, self._list_jobs(params))
        if len(route) == 2 and route[0] == "jobs":
            self._require(method, "GET", path)
            queue = self._require_queue()
            return self._json(200, {"job": queue.snapshot(self._job(route[1]))})
        if len(route) == 3 and route[0] == "jobs" and route[2] == "kill":
            self._require(method, "POST", path)
            return self._json(200, self._kill(route[1]))
        raise HTTPError(404, f"no such path: {path}")

    @staticmethod
    def _require(method: str, expected: str, path: str) -> None:
        if method != expected:
            raise HTTPError(405, f"{path} supports {expected} only, got {method}")

    @staticmethod
    def _json(status: int, payload: Any) -> tuple[int, str, bytes]:
        return (
            status,
            "application/json",
            (stable_json(payload) + "\n").encode("utf-8"),
        )

    # -- run handlers ------------------------------------------------------------------

    def _store(self, run_id: str):
        try:
            return self.index.store(run_id)
        except ValueError as exc:
            raise HTTPError(400, str(exc)) from exc
        except RunStoreError as exc:
            status = 404 if "no run" in str(exc) else 409
            raise HTTPError(status, str(exc)) from exc

    def _health(self) -> dict[str, Any]:
        return {
            "status": "ok",
            "store_root": str(self.store_root),
            "runs": len(self.index.entries()),
            "queue": self.queue.stats() if self.queue is not None else None,
            "dispatching": [self.dispatch.run_id] if self.dispatch is not None else [],
        }

    def _list_runs(self, params: dict[str, list[str]]) -> dict[str, Any]:
        sla = params.get("sla", [None])[-1]
        sla_filter: bool | None = None
        if sla is not None:
            try:
                sla_filter = {"compliant": True, "violated": False}[sla]
            except KeyError:
                raise HTTPError(
                    400,
                    f"query parameter 'sla' must be 'compliant' or 'violated', "
                    f"got {sla!r}",
                    code="bad_parameter",
                    detail={"parameter": "sla"},
                ) from None
        entries = self.index.entries(
            name=params.get("name", [None])[-1],
            complete=_bool_param(params, "complete"),
            sla_compliant=sla_filter,
            spec_hash=params.get("spec_hash", [None])[-1],
        )
        limit = _limit_param(params)
        cursor = params.get("cursor", [None])[-1]
        if cursor is not None:
            # Entries are sorted by run id, so the cursor (the last id of the
            # previous page) is a simple strict lower bound.
            entries = [entry for entry in entries if entry.run_id > cursor]
        next_cursor = None
        if limit is not None and len(entries) > limit:
            entries = entries[:limit]
            next_cursor = entries[-1].run_id
        return {
            "runs": [entry.to_dict() for entry in entries],
            "next_cursor": next_cursor,
        }

    def _run_detail(self, run_id: str) -> dict[str, Any]:
        try:
            entry = self.index.entry(run_id)
        except ValueError as exc:
            raise HTTPError(400, str(exc)) from exc
        if entry is None:
            raise HTTPError(404, f"no run {run_id!r} under {self.store_root}")
        job = None
        if self.queue is not None:
            for candidate in self.queue.jobs():
                if candidate.run_id == run_id:
                    job = candidate  # latest submission wins
        detail = entry.to_dict()
        detail["summary"] = self._store(run_id).summary()
        # Serialize through the queue (lock-holding snapshot): workers mutate
        # job state concurrently and a bare to_dict() can tear.
        detail["job"] = self.queue.snapshot(job) if job is not None else None
        return detail

    def _run_records(
        self, run_id: str, params: dict[str, list[str]]
    ) -> dict[str, Any]:
        since = _int_param(params, "since", 0)
        wait = min(_float_param(params, "wait", 0.0), MAX_WAIT_SECONDS)
        full = _bool_param(params, "full") or False
        store = self._store(run_id)
        intervals = store.spec().intervals
        deadline = time.monotonic() + wait
        while True:
            records = store.records()
            if len(records) > since or len(records) >= intervals:
                break
            if time.monotonic() >= deadline:
                break
            time.sleep(0.1)
        fresh = records[since:]
        if not full:
            # Strip the bulk per-interval payload (raw sample hex in exact
            # mode, bucket state in sketch mode) unless explicitly requested.
            fresh = [
                {
                    key: value
                    for key, value in record.items()
                    if key not in ("delay_samples", "delay_sketch")
                }
                for record in fresh
            ]
        return {
            "run": run_id,
            "since": since,
            "next": len(records),
            "complete": len(records) >= intervals,
            "records": fresh,
        }

    def _compare(self, params: dict[str, list[str]]) -> dict[str, Any]:
        raw = ",".join(params.get("runs", []))
        run_ids = [run_id for run_id in raw.split(",") if run_id]
        if len(run_ids) < 2:
            raise HTTPError(
                400, "compare needs at least two run ids: ?runs=<id>,<id>[,...]"
            )
        return compare_runs([self._store(run_id) for run_id in run_ids])

    # -- job handlers ------------------------------------------------------------------

    def _require_queue(self) -> JobQueue:
        if self.queue is None:
            raise HTTPError(503, "this service instance has no job queue")
        return self.queue

    def _job(self, job_id: str):
        job = self._require_queue().job(job_id)
        if job is None:
            raise HTTPError(404, f"no job {job_id!r}")
        return job

    def _list_jobs(self, params: dict[str, list[str]]) -> dict[str, Any]:
        snapshots = self._require_queue().snapshots()
        limit = _limit_param(params)
        cursor = params.get("cursor", [None])[-1]
        if cursor is not None:
            # Jobs list in submission order (ids are not sorted), so the
            # cursor is located by identity rather than comparison.
            positions = [
                index
                for index, snapshot in enumerate(snapshots)
                if snapshot.get("id") == cursor
            ]
            if not positions:
                raise HTTPError(
                    400,
                    f"unknown jobs cursor {cursor!r}",
                    code="invalid_cursor",
                    detail={"parameter": "cursor"},
                )
            snapshots = snapshots[positions[0] + 1 :]
        next_cursor = None
        if limit is not None and len(snapshots) > limit:
            snapshots = snapshots[:limit]
            next_cursor = snapshots[-1].get("id")
        return {"jobs": snapshots, "next_cursor": next_cursor}

    def _kill(self, job_id: str) -> dict[str, Any]:
        queue = self._require_queue()
        job = self._job(job_id)
        killed = queue.kill(job_id)
        return {"job": queue.snapshot(job), "killed": killed}

    def _read_body(self, environ: dict[str, Any]) -> dict[str, Any]:
        payload = _body_bytes(environ, MAX_BODY_BYTES, "request body")
        if not payload:
            raise HTTPError(400, "request body must be a JSON object")
        try:
            body = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise HTTPError(400, f"request body is not valid JSON: {exc}") from exc
        if not isinstance(body, dict):
            raise HTTPError(400, "request body must be a JSON object")
        return body

    def _submit(self, environ: dict[str, Any]) -> dict[str, Any]:
        queue = self._require_queue()
        body = self._read_body(environ)
        if "spec" not in body:
            raise HTTPError(400, "request body must carry a 'spec' object")
        try:
            spec = CampaignSpec.from_dict(body["spec"])
        except (ValueError, TypeError, KeyError) as exc:
            raise HTTPError(400, f"invalid campaign spec: {exc}") from exc
        policy = None
        if body.get("policy") is not None:
            try:
                policy = ExecutionPolicy.from_dict(body["policy"])
            except (ValueError, TypeError, KeyError) as exc:
                raise HTTPError(400, f"invalid execution policy: {exc}") from exc
        run_id = body.get("run_id")
        if run_id is not None and not isinstance(run_id, str):
            raise HTTPError(400, "'run_id' must be a string")
        resume = body.get("resume", False)
        if not isinstance(resume, bool):
            raise HTTPError(400, "'resume' must be a boolean")
        try:
            job = queue.submit(spec, policy=policy, run_id=run_id, resume=resume)
        except JobRejected as exc:
            raise HTTPError(409, str(exc)) from exc
        except (ValueError, RunStoreError) as exc:
            raise HTTPError(400, str(exc)) from exc
        return queue.snapshot(job)


# -- serving -------------------------------------------------------------------------


class _ThreadingWSGIServer(ThreadingMixIn, WSGIServer):
    """Dev server: one thread per request so long-polls don't starve polls."""

    daemon_threads = True

    def handle_error(self, request: Any, client_address: Any) -> None:
        # A worker SIGKILLed mid-request (the chaos schedule) tears its
        # socket; the default handler would dump that traceback to stderr.
        pass


class _QuietHandler(WSGIRequestHandler):
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass


def make_service_server(
    host: str,
    port: int,
    app: ServiceApp,
    quiet: bool = True,
) -> WSGIServer:
    """A threaded :mod:`wsgiref` dev server bound to ``host:port`` (0 = ephemeral)."""
    return make_server(
        host,
        port,
        app,
        server_class=_ThreadingWSGIServer,
        handler_class=_QuietHandler if quiet else WSGIRequestHandler,
    )


def serve(
    store_root: Path | str,
    host: str = "127.0.0.1",
    port: int = 8642,
    workers: int = 2,
    dispatch_workers: int | None = None,
    quiet: bool = False,
) -> None:
    """Run the measurement service until interrupted (the ``repro serve`` body)."""
    queue = JobQueue(store_root, workers=workers, dispatch_workers=dispatch_workers)
    app = ServiceApp(store_root, queue=queue)
    server = make_service_server(host, port, app, quiet=True)
    bound_host, bound_port = server.server_address[:2]
    if not quiet:
        child = "resume" if dispatch_workers is None else "dispatch"
        print(
            f"repro service: store root {Path(store_root).resolve()} — "
            f"dashboard http://{bound_host}:{bound_port}/ "
            f"(API under /api/{API_VERSION}, {workers} worker(s), "
            f"each attempt a `repro {child}` child)",
            flush=True,
        )
    try:
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        queue.shutdown(wait=False)
