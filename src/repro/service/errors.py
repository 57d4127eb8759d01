"""The service API's single error shape.

Every error the service produces — bad query parameters, missing runs,
unknown or unversioned paths, queue rejections, dispatch protocol
violations, even handler bugs — serializes through one envelope::

    {"error": {"code": "<machine-readable>", "message": "<human-readable>"}}

with an optional structured ``detail`` object (e.g. the offending query
parameter's name, or the declared-vs-computed digests of a rejected
upload).  Clients branch on ``code``; ``message`` is for humans.

This module sits below :mod:`repro.service.app` so the dispatch endpoint
handlers can raise :class:`HTTPError`, and read request bodies the way the
app does, without importing the app (which imports them).
"""

from __future__ import annotations

from typing import Any, Mapping

__all__ = ["HTTPError", "STATUS_TEXT", "error_body"]

STATUS_TEXT = {
    200: "200 OK",
    202: "202 Accepted",
    400: "400 Bad Request",
    404: "404 Not Found",
    405: "405 Method Not Allowed",
    409: "409 Conflict",
    413: "413 Payload Too Large",
    500: "500 Internal Server Error",
    503: "503 Service Unavailable",
}

#: Default ``code`` per status, for raises that don't pick a specific one.
_DEFAULT_CODES = {
    400: "bad_request",
    404: "not_found",
    405: "method_not_allowed",
    409: "conflict",
    413: "payload_too_large",
    500: "internal",
    503: "unavailable",
}


class HTTPError(Exception):
    """An HTTP-visible failure; serialized through the error envelope."""

    def __init__(
        self,
        status: int,
        message: str,
        code: str | None = None,
        detail: Mapping[str, Any] | None = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.code = code if code is not None else _DEFAULT_CODES.get(status, "error")
        self.detail = dict(detail) if detail is not None else None


def _body_bytes(environ: Mapping[str, Any], limit: int, what: str) -> bytes:
    """A request's body, read only after its ``Content-Length`` is checked.

    A missing or empty header reads nothing.  A value that is not a
    non-negative integer answers 400, and one above ``limit`` answers 413
    (``what`` names the body in that message).  Both are raised before any
    read: ``wsgi.input.read(-1)`` would block until the client closes its
    socket.
    """
    try:
        length = int(environ.get("CONTENT_LENGTH") or 0)
    except ValueError:
        length = -1  # rejected with the negative lengths below
    if length < 0:
        raise HTTPError(400, "invalid Content-Length")
    if length > limit:
        raise HTTPError(413, f"{what} exceeds {limit} bytes")
    return environ["wsgi.input"].read(length) if length else b""


def error_body(
    code: str, message: str, detail: Mapping[str, Any] | None = None
) -> dict[str, Any]:
    """The envelope payload (pass to ``stable_json`` for the wire bytes)."""
    error: dict[str, Any] = {"code": code, "message": message}
    if detail is not None:
        error["detail"] = dict(detail)
    return {"error": error}
