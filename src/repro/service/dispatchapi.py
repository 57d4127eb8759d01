"""HTTP handlers for the dispatch protocol (``/api/v1/dispatch/…``).

The service app routes every ``/api/v1/dispatch/<run_id>/…`` request here;
this module translates WSGI mechanics (headers, raw bodies, path segments)
into calls on the run's :class:`~repro.dist.net.DispatchHub` and its
:class:`~repro.dist.net.ProtocolError` rejections into the service's
standard error envelope.

A :class:`DispatchRegistry` maps run ids to live hubs.  The usual host is a
:class:`~repro.dist.dispatch.DispatchCoordinator`, which registers exactly
one run; a long-lived service could register many.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.dist.net import DIGEST_HEADER, WORKER_HEADER, DispatchHub, ProtocolError
from repro.service.errors import HTTPError

__all__ = ["DispatchRegistry", "handle_dispatch"]

#: Upper bound on one uploaded record line (matches the app's body cap).
MAX_UPLOAD_BYTES = 16 * 1024 * 1024

#: WSGI environ key for the worker-identity header.
_WORKER_ENV = "HTTP_" + WORKER_HEADER.upper().replace("-", "_")
_DIGEST_ENV = "HTTP_" + DIGEST_HEADER.upper().replace("-", "_")


class DispatchRegistry:
    """Thread-safe run-id → :class:`~repro.dist.net.DispatchHub` map."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._hubs: dict[str, DispatchHub] = {}

    def register(self, run_id: str, hub: DispatchHub) -> None:
        with self._lock:
            self._hubs[run_id] = hub

    def unregister(self, run_id: str) -> None:
        with self._lock:
            self._hubs.pop(run_id, None)

    def hub(self, run_id: str) -> DispatchHub | None:
        with self._lock:
            return self._hubs.get(run_id)

    def run_ids(self) -> list[str]:
        with self._lock:
            return sorted(self._hubs)


def _require_hub(registry: DispatchRegistry, run_id: str) -> DispatchHub:
    hub = registry.hub(run_id)
    if hub is None:
        raise HTTPError(
            404,
            f"no dispatch in progress for run {run_id!r}",
            code="unknown_run",
            detail={"dispatching": registry.run_ids()},
        )
    return hub


def _require_worker(environ: dict[str, Any]) -> str:
    worker = environ.get(_WORKER_ENV, "").strip()
    if not worker:
        raise HTTPError(
            400,
            f"dispatch requests must carry the {WORKER_HEADER} header",
            code="missing_worker",
        )
    return worker


def _interval(segment: str) -> int:
    try:
        interval = int(segment)
    except ValueError:
        raise HTTPError(
            400,
            f"interval must be an integer, got {segment!r}",
            code="bad_interval",
        ) from None
    if interval < 0:
        raise HTTPError(
            400, f"interval must be >= 0, got {interval}", code="bad_interval"
        )
    return interval


def _read_raw_body(environ: dict[str, Any]) -> bytes:
    try:
        length = int(environ.get("CONTENT_LENGTH") or 0)
    except ValueError:
        raise HTTPError(400, "invalid Content-Length") from None
    if length > MAX_UPLOAD_BYTES:
        raise HTTPError(413, f"upload exceeds {MAX_UPLOAD_BYTES} bytes")
    return environ["wsgi.input"].read(length) if length else b""


def handle_dispatch(
    registry: DispatchRegistry,
    route: list[str],
    method: str,
    environ: dict[str, Any],
    params: dict[str, list[str]],
) -> tuple[int, Any]:
    """Serve one ``dispatch/…`` route; returns ``(status, json_payload)``.

    ``route`` is the path split after the ``dispatch`` segment:
    ``[run_id]``, ``[run_id, "claims", i]``, ``[run_id, "claims", i,
    "renew"]`` or ``[run_id, "records", i]``.
    """
    if not route:
        raise HTTPError(404, "dispatch routes are /dispatch/<run_id>/…")
    hub = _require_hub(registry, route[0])
    tail = route[1:]
    try:
        if not tail:
            if method != "GET":
                raise HTTPError(405, f"dispatch status supports GET, got {method}")
            if params.get("config", [""])[-1] in ("1", "true", "yes"):
                return 200, {"run": route[0], **hub.config()}
            return 200, {"run": route[0], **hub.status()}
        if tail[0] == "claims" and len(tail) in (2, 3):
            interval = _interval(tail[1])
            if len(tail) == 3 and tail[2] == "renew":
                if method != "POST":
                    raise HTTPError(405, f"renew supports POST, got {method}")
                return 200, hub.renew(interval, _require_worker(environ))
            if len(tail) == 2:
                if method == "POST":
                    return 200, hub.claim(interval, _require_worker(environ))
                if method == "DELETE":
                    return 200, hub.release(interval, _require_worker(environ))
                raise HTTPError(
                    405, f"claims supports POST and DELETE, got {method}"
                )
        if tail[0] == "records" and len(tail) == 2:
            if method != "PUT":
                raise HTTPError(405, f"record upload supports PUT, got {method}")
            interval = _interval(tail[1])
            worker = _require_worker(environ)
            payload = _read_raw_body(environ)
            digest = environ.get(_DIGEST_ENV)
            return 200, hub.upload(interval, payload, digest, worker)
        raise HTTPError(404, f"no such dispatch route: {'/'.join(route)}")
    except ProtocolError as exc:
        raise HTTPError(
            exc.status, str(exc), code=exc.code, detail=exc.detail
        ) from exc
