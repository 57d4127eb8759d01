"""Unit tests for the service's request readers: the body reader and numeric query parameters.

Both guard a server thread: a body is read only once its ``Content-Length`` is
known to be a bounded, non-negative integer, and a ``wait`` that is not a
number >= 0 (NaN included) is refused before it can reach the long-poll cap.
"""

from __future__ import annotations

import io
import math

import pytest

from repro.service.app import _float_param
from repro.service.errors import HTTPError, _body_bytes

LIMIT = 64


class NeverRead(io.BytesIO):
    """A request stream that fails the test if the handler reads it."""

    def read(self, size=-1):
        raise AssertionError(f"body read with size {size} before the header was checked")


def environ(length: str | None, body: bytes = b"") -> dict:
    env = {"wsgi.input": io.BytesIO(body)}
    if length is not None:
        env["CONTENT_LENGTH"] = length
    return env


class TestBodyBytes:
    @pytest.mark.parametrize(
        ("length", "expected"),
        [(None, b""), ("", b""), ("0", b""), ("5", b"hello"), (str(LIMIT), b"x" * LIMIT)],
    )
    def test_reads_exactly_the_declared_length(self, length, expected):
        body = b"hello world" if length != str(LIMIT) else b"x" * (LIMIT + 10)
        assert _body_bytes(environ(length, body), LIMIT, "request body") == expected

    @pytest.mark.parametrize("length", [None, "", "0"])
    def test_no_body_reads_nothing(self, length):
        env = environ(length)
        env["wsgi.input"] = NeverRead()
        assert _body_bytes(env, LIMIT, "request body") == b""

    @pytest.mark.parametrize("length", ["-1", "-100", "abc", "1.5", " ", "0x10"])
    def test_invalid_length_is_400_before_any_read(self, length):
        env = environ(length)
        env["wsgi.input"] = NeverRead()
        with pytest.raises(HTTPError) as raised:
            _body_bytes(env, LIMIT, "request body")
        assert raised.value.status == 400
        assert raised.value.message == "invalid Content-Length"
        assert raised.value.code == "bad_request"

    def test_oversized_body_is_413_before_any_read(self):
        env = environ(str(LIMIT + 1))
        env["wsgi.input"] = NeverRead()
        with pytest.raises(HTTPError) as raised:
            _body_bytes(env, LIMIT, "upload")
        assert raised.value.status == 413
        assert raised.value.message == f"upload exceeds {LIMIT} bytes"
        assert raised.value.code == "payload_too_large"


class TestFloatParam:
    def test_missing_parameter_gives_the_default(self):
        assert _float_param({}, "wait", 1.5) == 1.5
        assert _float_param({"wait": []}, "wait", 0.0) == 0.0

    @pytest.mark.parametrize(
        ("text", "expected"), [("0", 0.0), ("2.5", 2.5), ("1e3", 1000.0), ("inf", math.inf)]
    )
    def test_non_negative_numbers_are_accepted(self, text, expected):
        assert _float_param({"wait": [text]}, "wait", 0.0) == expected

    def test_last_value_wins(self):
        assert _float_param({"wait": ["1", "3"]}, "wait", 0.0) == 3.0

    @pytest.mark.parametrize("text", ["nan", "NaN", "-nan", "-1", "-0.5", "-inf"])
    def test_nan_and_negative_values_are_rejected(self, text):
        with pytest.raises(HTTPError) as raised:
            _float_param({"wait": [text]}, "wait", 0.0)
        assert raised.value.status == 400
        assert raised.value.code == "bad_parameter"
        assert raised.value.detail == {"parameter": "wait"}
        assert "must be >= 0" in raised.value.message

    @pytest.mark.parametrize("text", ["", "soon", "1s", "0x1"])
    def test_non_numbers_are_rejected(self, text):
        with pytest.raises(HTTPError) as raised:
            _float_param({"wait": [text]}, "wait", 0.0)
        assert raised.value.status == 400
        assert raised.value.code == "bad_parameter"
        assert raised.value.detail == {"parameter": "wait"}
        assert "must be a number" in raised.value.message
