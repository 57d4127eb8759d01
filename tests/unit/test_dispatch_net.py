"""Unit tests for the HTTP dispatch transport's building blocks.

Everything here runs without sockets: the coordinator-side pieces
(:class:`NetworkClaimBoard` on an injected clock, :class:`DispatchHub`
against a real store in a tmp dir) are driven as plain objects, and the
worker-side :class:`HTTPTransport` runs over a faked ``urllib`` so
retry/backoff and protocol-rejection handling are deterministic.  Live
sockets, subprocess pools and chaos kills live in
``tests/integration/test_dispatch_http.py``.
"""

from __future__ import annotations

import io
import json
import pathlib
import urllib.error
import urllib.request

import pytest

from repro.api.spec import (
    CampaignSpec,
    ConditionSpec,
    ExperimentSpec,
    HOPSpec,
    PathSpec,
    ProtocolSpec,
    SLATargetSpec,
    TrafficSpec,
)
from repro.dist import DISPATCH_DIR, StagingArea
from repro.dist.net import (
    DIGEST_HEADER,
    WORKER_HEADER,
    DispatchHub,
    HTTPTransport,
    NetworkClaimBoard,
    ProtocolError,
    TransportError,
    record_digest,
)
from repro.engine.campaign import CampaignRunner, interval_record
from repro.service.app import ServiceApp
from repro.store import RunStore, stable_json
from repro.store.runstore import RECORDS_FILE


def _spec(name: str = "net-test", intervals: int = 3) -> CampaignSpec:
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


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


class TestNetworkClaimBoard:
    def test_single_winner_and_live_lease_refusal(self):
        clock = FakeClock()
        board = NetworkClaimBoard(lease=30.0, clock=clock)
        granted, claim = board.try_claim(0, "a")
        assert granted and claim.worker == "a"
        granted, claim = board.try_claim(0, "b")
        assert not granted and claim.worker == "a"
        assert board.holder(0).worker == "a"

    def test_expiry_is_coordinator_clock_only(self):
        clock = FakeClock()
        board = NetworkClaimBoard(lease=30.0, clock=clock)
        board.try_claim(0, "a")
        clock.now += 29.9
        assert not board.try_claim(0, "b")[0]
        clock.now += 0.2  # past the deadline, on the coordinator's clock
        assert board.holder(0) is None
        granted, claim = board.try_claim(0, "b")
        assert granted and claim.worker == "b"

    def test_reclaim_by_holder_renews(self):
        clock = FakeClock()
        board = NetworkClaimBoard(lease=30.0, clock=clock)
        board.try_claim(0, "a")
        clock.now += 20.0
        granted, claim = board.try_claim(0, "a")
        assert granted and claim.expires_at == clock.now + 30.0

    def test_renew_holder_vs_interloper(self):
        clock = FakeClock()
        board = NetworkClaimBoard(lease=30.0, clock=clock)
        board.try_claim(0, "a")
        assert board.renew(0, "a") is True
        assert board.renew(0, "b") is False
        # An expired-but-unclaimed lease revives for its (slow) owner...
        clock.now += 31.0
        assert board.renew(0, "a") is True
        # ...but never against a live takeover.
        clock.now += 31.0
        board.try_claim(0, "b")
        assert board.renew(0, "a") is False

    def test_release_scoped_and_forced(self):
        board = NetworkClaimBoard(lease=30.0, clock=FakeClock())
        board.try_claim(0, "a")
        board.release(0, "b")  # not the holder: no-op
        assert board.holder(0).worker == "a"
        board.release(0, "a")
        assert board.holder(0) is None
        board.try_claim(0, "a")
        board.release(0)  # coordinator-side force release
        assert board.holder(0) is None

    def test_claims_purges_expired(self):
        clock = FakeClock()
        board = NetworkClaimBoard(lease=30.0, clock=clock)
        board.try_claim(0, "a")
        board.try_claim(1, "b")
        clock.now += 31.0
        board.try_claim(2, "c")
        assert sorted(board.claims()) == [2]

    def test_lease_must_be_positive(self):
        with pytest.raises(ValueError, match="lease"):
            NetworkClaimBoard(lease=0.0)


@pytest.fixture
def hub(tmp_path):
    spec = _spec()
    store = RunStore.create(tmp_path / "run", spec)
    staging = StagingArea(tmp_path / "run" / DISPATCH_DIR)
    claims = NetworkClaimBoard(lease=30.0, clock=FakeClock())
    return DispatchHub(CampaignRunner(store=store), claims=claims, staging=staging)


def _line(hub, interval: int) -> bytes:
    record = interval_record(hub.spec, interval, policy=hub.policy)
    return (stable_json(dict(record)) + "\n").encode("utf-8")


class TestDispatchHubUpload:
    def test_upload_stages_exact_bytes(self, hub):
        line = _line(hub, 0)
        out = hub.upload(0, line, record_digest(line), worker="w0")
        assert out == {
            "interval": 0,
            "duplicate": False,
            "committed": False,
            "remaining": 2,
            "unclaimed": 2,
        }
        assert hub.staging.path(0).read_bytes() == line

    def test_upload_counts_remaining_until_everything_is_staged(self, hub):
        # Staged and committed intervals are both done: the response to the
        # upload that stages the last owed interval says nothing remains.
        hub.runner.commit(json.loads(_line(hub, 0)))
        line = _line(hub, 2)
        assert hub.upload(2, line, record_digest(line), worker="w0")["remaining"] == 1
        line = _line(hub, 1)
        assert hub.upload(1, line, record_digest(line), worker="w1")["remaining"] == 0

    def test_upload_counts_remaining_intervals_no_live_lease_covers(self, hub):
        # Interval 1 is leased to another worker; interval 2 is free.  Once
        # interval 1's lease lapses, it counts as unclaimed again.
        hub.claim(1, "w1")
        line = _line(hub, 0)
        out = hub.upload(0, line, record_digest(line), worker="w0")
        assert (out["remaining"], out["unclaimed"]) == (2, 1)
        hub.claim(2, "w2")
        out = hub.upload(0, line, record_digest(line), worker="w0")
        assert (out["remaining"], out["unclaimed"]) == (2, 0)
        hub.claims.clock.now += 31.0
        out = hub.upload(0, line, record_digest(line), worker="w0")
        assert (out["remaining"], out["unclaimed"]) == (2, 2)

    def test_digest_mismatch_rejected_and_nothing_staged(self, hub):
        line = _line(hub, 0)
        truncated = line[: len(line) // 2]  # a cut-off upload body
        with pytest.raises(ProtocolError) as exc:
            hub.upload(0, truncated, record_digest(line), worker="w0")
        assert exc.value.code == "digest_mismatch"
        assert exc.value.status == 400  # retryable: client error, not conflict
        assert not hub.staging.path(0).exists()

    def test_missing_digest_rejected(self, hub):
        line = _line(hub, 0)
        with pytest.raises(ProtocolError) as exc:
            hub.upload(0, line, None, worker="w0")
        assert exc.value.code == "missing_digest"
        assert not hub.staging.path(0).exists()

    def test_duplicate_reupload_is_idempotent(self, hub):
        line = _line(hub, 0)
        hub.upload(0, line, record_digest(line), worker="w0")
        out = hub.upload(0, line, record_digest(line), worker="w1")
        assert out["duplicate"] is True
        assert hub.staging.path(0).read_bytes() == line

    def test_divergent_duplicate_is_fatal(self, hub):
        line = _line(hub, 0)
        hub.upload(0, line, record_digest(line), worker="w0")
        record = json.loads(_line(hub, 0))
        record["receipts_digest"] = "0" * 64
        forged = (stable_json(record) + "\n").encode("utf-8")
        with pytest.raises(ProtocolError) as exc:
            hub.upload(0, forged, record_digest(forged), worker="w1")
        assert exc.value.code == "record_divergence"
        assert exc.value.status == 409

    def test_committed_duplicate_byte_asserts(self, hub):
        line = _line(hub, 0)
        hub.runner.commit(json.loads(line))
        out = hub.upload(0, line, record_digest(line), worker="w0")
        assert out == {
            "interval": 0,
            "duplicate": True,
            "committed": True,
            "remaining": 2,
            "unclaimed": 2,
        }
        record = json.loads(line)
        record["receipts_digest"] = "0" * 64
        forged = (stable_json(record) + "\n").encode("utf-8")
        with pytest.raises(ProtocolError) as exc:
            hub.upload(0, forged, record_digest(forged), worker="w0")
        assert exc.value.code == "record_divergence"

    def test_malformed_record_rejected(self, hub):
        for payload in (b"not json\n", b'["a", "list"]\n'):
            with pytest.raises(ProtocolError) as exc:
                hub.upload(0, payload, record_digest(payload), worker="w0")
            assert exc.value.code == "malformed_record"
        wrong = _line(hub, 1)
        with pytest.raises(ProtocolError) as exc:
            hub.upload(0, wrong, record_digest(wrong), worker="w0")
        assert exc.value.code == "malformed_record"

    def test_hostile_worker_header_is_only_an_identity(self, hub, tmp_path):
        # The worker id is a header value, never a file name: a path
        # separator or an over-long id must upload like any other worker.
        app = ServiceApp(tmp_path, dispatch=hub)
        for interval, worker in enumerate(("a/b", "w" * 300)):
            line = _line(hub, interval)
            environ = {
                "REQUEST_METHOD": "PUT",
                "PATH_INFO": f"/api/v1/dispatch/run/records/{interval}",
                "QUERY_STRING": "",
                "CONTENT_LENGTH": str(len(line)),
                "wsgi.input": io.BytesIO(line),
                "HTTP_" + WORKER_HEADER.upper().replace("-", "_"): worker,
                "HTTP_" + DIGEST_HEADER.upper().replace("-", "_"): record_digest(line),
            }
            statuses: list[str] = []
            payload = b"".join(
                app(environ, lambda status, headers, *_: statuses.append(status))
            )
            assert statuses == ["200 OK"], payload
            assert json.loads(payload) == {
                "interval": interval,
                "duplicate": False,
                "committed": False,
                "remaining": 2 - interval,
                "unclaimed": 2 - interval,
            }
            assert hub.staging.path(interval).read_bytes() == line

    def test_interval_out_of_range(self, hub):
        line = _line(hub, 0)
        with pytest.raises(ProtocolError) as exc:
            hub.upload(99, line, record_digest(line), worker="w0")
        assert exc.value.code == "no_such_interval"


class TestDispatchHubClaims:
    def test_claim_on_staged_interval_refused(self, hub):
        line = _line(hub, 0)
        hub.upload(0, line, record_digest(line), worker="w0")
        with pytest.raises(ProtocolError) as exc:
            hub.claim(0, "w1")
        assert exc.value.code == "interval_staged"

    def test_claim_on_committed_interval_refused(self, hub):
        hub.runner.commit(json.loads(_line(hub, 0)))
        with pytest.raises(ProtocolError) as exc:
            hub.claim(0, "w1")
        assert exc.value.code == "interval_done"

    def test_claim_conflict_names_the_holder(self, hub):
        hub.claim(1, "w0")
        with pytest.raises(ProtocolError) as exc:
            hub.claim(1, "w1")
        assert exc.value.code == "claim_held"
        assert exc.value.detail["worker"] == "w0"

    def test_renew_requires_holding(self, hub):
        hub.claim(1, "w0")
        assert hub.renew(1, "w0")["interval"] == 1
        with pytest.raises(ProtocolError) as exc:
            hub.renew(1, "w1")
        assert exc.value.code == "not_holder"

    def test_status_reflects_progress(self, hub):
        hub.runner.commit(json.loads(_line(hub, 0)))
        line = _line(hub, 1)
        hub.upload(1, line, record_digest(line), worker="w0")
        hub.claim(2, "w0")
        status = hub.status()
        assert status["committed"] == 1
        assert status["staged"] == [1]
        assert status["complete"] is False
        assert [c["interval"] for c in status["claims"]] == [2]

    def test_config_serves_spec_policy_lease(self, hub):
        config = hub.config()
        assert config["spec"] == hub.spec.to_dict()
        assert config["lease"] == 30.0
        assert config["intervals"] == hub.spec.intervals
        assert config["spec_hash"] == hub.store.spec_hash
        assert CampaignSpec.from_dict(config["spec"]) == hub.spec

    def test_claims_and_uploads_never_read_the_records_file(self, hub, monkeypatch):
        # The committed count is the coordinator runner's next_interval; only
        # the byte-assert of a committed duplicate reads a record line back.
        reads = []
        for name in ("read_bytes", "open"):
            original = getattr(pathlib.Path, name)

            def counting(path, *args, _original=original, **kwargs):
                if path.name == RECORDS_FILE:
                    reads.append(path)
                return _original(path, *args, **kwargs)

            monkeypatch.setattr(pathlib.Path, name, counting)
        hub.runner.commit(json.loads(_line(hub, 0)))
        reads.clear()
        for interval, worker in ((1, "w1"), (2, "w2")):
            hub.claim(interval, worker)
            hub.renew(interval, worker)
            line = _line(hub, interval)
            hub.upload(interval, line, record_digest(line), worker=worker)
            hub.upload(interval, line, record_digest(line), worker=worker)
        assert hub.status()["committed"] == 1
        with pytest.raises(ProtocolError):
            hub.claim(0, "w1")
        assert reads == []


class TestDispatchApp:
    """One hub per app: the routes a run id and an app without a hub get."""

    def _get(self, app, path):
        statuses: list[str] = []
        environ = {"REQUEST_METHOD": "GET", "PATH_INFO": path, "QUERY_STRING": ""}
        body = b"".join(app(environ, lambda status, headers, *_: statuses.append(status)))
        return statuses[0], json.loads(body)

    def test_app_serves_only_its_hubs_run(self, hub, tmp_path):
        app = ServiceApp(tmp_path, dispatch=hub)
        status, body = self._get(app, "/api/v1/dispatch/run")
        assert status == "200 OK" and body["run"] == "run"
        status, body = self._get(app, "/api/v1/dispatch/other/claims/0")
        assert status.startswith("404")
        assert body["error"]["code"] == "unknown_run"
        assert body["error"]["detail"] == {"dispatching": ["run"]}
        assert self._get(app, "/api/v1/health")[1]["dispatching"] == ["run"]

    def test_app_without_a_hub_has_no_dispatch(self, tmp_path):
        app = ServiceApp(tmp_path)
        status, body = self._get(app, "/api/v1/dispatch/run")
        assert status.startswith("503")
        assert body["error"]["code"] == "no_dispatch"
        assert self._get(app, "/api/v1/health")[1]["dispatching"] == []


class FakeHTTP:
    """Scripted ``urllib.request.urlopen`` stand-in.

    Each entry in ``script`` is either a payload dict (a 200 JSON response)
    or an exception instance to raise.  Records every request for asserts.
    """

    def __init__(self, script):
        self.script = list(script)
        self.requests = []

    def __call__(self, request, timeout=None):
        self.requests.append(request)
        step = self.script.pop(0)
        if isinstance(step, Exception):
            raise step

        class _Response:
            def __init__(self, payload):
                self._payload = json.dumps(payload).encode("utf-8")

            def read(self):
                return self._payload

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

        return _Response(step)


def _http_error(status: int, code: str, message: str) -> urllib.error.HTTPError:
    body = json.dumps({"error": {"code": code, "message": message}}).encode("utf-8")
    return urllib.error.HTTPError(
        "http://coordinator/x", status, message, {}, io.BytesIO(body)
    )


def _config_payload(spec: CampaignSpec) -> dict:
    return {
        "spec": spec.to_dict(),
        "spec_hash": spec.spec_hash(),
        "policy": {},
        "lease": 5.0,
        "intervals": spec.intervals,
    }


@pytest.fixture
def no_sleep(monkeypatch):
    delays = []
    monkeypatch.setattr("repro.dist.net.time.sleep", delays.append)
    return delays


def _transport(monkeypatch, script, **kwargs):
    fake = FakeHTTP([_config_payload(_spec())] + list(script))
    monkeypatch.setattr("repro.dist.net.urllib.request.urlopen", fake)
    transport = HTTPTransport(
        "http://coordinator:1", "run", worker_id="w0", **kwargs
    )
    return transport, fake

class TestHTTPTransportRetry:
    def test_config_fetched_at_construction(self, monkeypatch, no_sleep):
        transport, fake = _transport(monkeypatch, [])
        assert transport.spec == _spec()
        assert transport.lease == 5.0
        assert len(fake.requests) == 1
        assert fake.requests[0].get_header("X-repro-worker") == "w0"

    def test_transient_errors_retry_with_backoff(self, monkeypatch, no_sleep):
        transport, fake = _transport(
            monkeypatch,
            [
                urllib.error.URLError("connection refused"),
                _http_error(503, "unavailable", "starting up"),
                {"intervals": 3, "committed": 3, "complete": True, "staged": []},
            ],
        )
        assert transport.pending() == []
        assert len(fake.requests) == 4  # config + three attempts
        assert no_sleep == [0.25, 0.5]  # exponential backoff between retries

    def test_unreachable_after_retries_raises_transport_error(
        self, monkeypatch, no_sleep
    ):
        transport, fake = _transport(
            monkeypatch,
            [urllib.error.URLError("down")] * 6,
            retries=3,
        )
        # Construction consumed the scripted config; reconfigure retries low.
        with pytest.raises(TransportError, match="unreachable after 3"):
            transport.pending()

    def test_protocol_rejection_never_retries(self, monkeypatch, no_sleep):
        transport, fake = _transport(
            monkeypatch, [_http_error(409, "claim_held", "leased to w1")]
        )
        assert transport.try_claim(0) is False
        assert len(fake.requests) == 2  # config + exactly one claim attempt
        assert no_sleep == []

    def test_deliver_retries_digest_mismatch(self, monkeypatch, no_sleep):
        record = dict(interval_record(_spec(), 0))
        transport, fake = _transport(
            monkeypatch,
            [
                _http_error(400, "digest_mismatch", "truncated in transit"),
                {"interval": 0, "duplicate": False, "committed": False},
            ],
        )
        assert transport.deliver(0, record) is True
        upload = fake.requests[-1]
        line = (stable_json(record) + "\n").encode("utf-8")
        assert upload.data == line
        assert upload.get_header("X-repro-digest") == record_digest(line)

    def test_deliver_duplicate_reports_false(self, monkeypatch, no_sleep):
        record = dict(interval_record(_spec(), 0))
        transport, fake = _transport(
            monkeypatch,
            [{"interval": 0, "duplicate": True, "committed": False}],
        )
        assert transport.deliver(0, record) is False

    def test_deliver_divergence_is_fatal(self, monkeypatch, no_sleep):
        record = dict(interval_record(_spec(), 0))
        transport, fake = _transport(
            monkeypatch,
            [_http_error(409, "record_divergence", "determinism violated")],
        )
        with pytest.raises(ProtocolError, match="determinism"):
            transport.deliver(0, record)
        assert len(fake.requests) == 2  # never retried

    def test_pending_after_complete_tolerates_gone_coordinator(
        self, monkeypatch, no_sleep
    ):
        transport, fake = _transport(
            monkeypatch,
            [
                {"intervals": 3, "committed": 3, "complete": True, "staged": []},
                urllib.error.URLError("coordinator exited"),
                urllib.error.URLError("coordinator exited"),
                urllib.error.URLError("coordinator exited"),
            ],
            retries=3,
        )
        assert transport.pending() == []
        assert transport.pending() == []  # we saw complete: no second poll
        assert len(fake.requests) == 2  # config + one status

    def test_everything_staged_finishes_the_worker(self, monkeypatch, no_sleep):
        transport, fake = _transport(
            monkeypatch,
            [
                {"intervals": 3, "committed": 1, "complete": False, "staged": [1, 2]},
                urllib.error.URLError("coordinator exited"),
            ],
        )
        assert transport.pending() == []
        assert transport.pending() == []  # staged is done too: no second poll
        assert len(fake.requests) == 2

    def test_last_upload_finishes_the_worker_without_a_status_poll(
        self, monkeypatch, no_sleep
    ):
        record = dict(interval_record(_spec(), 2))
        transport, fake = _transport(
            monkeypatch,
            [
                {"interval": 2, "duplicate": False, "committed": False, "remaining": 1},
                {"interval": 2, "duplicate": True, "committed": False, "remaining": 0},
                urllib.error.URLError("coordinator exited"),
            ],
        )
        assert transport.deliver(2, record) is True
        assert transport.deliver(2, record) is False
        # Nothing is owed any more: the coordinator may be gone, and the
        # worker does not ask it.
        assert transport.pending() == []
        assert len(fake.requests) == 3  # config + two uploads

    def test_renew_and_release_swallow_failures(self, monkeypatch, no_sleep):
        transport, fake = _transport(
            monkeypatch,
            [
                _http_error(409, "not_holder", "lease lapsed"),
                urllib.error.URLError("down"),
                urllib.error.URLError("down"),
                urllib.error.URLError("down"),
                urllib.error.URLError("down"),
                urllib.error.URLError("down"),
                urllib.error.URLError("down"),
            ],
        )
        transport.renew(0)  # protocol rejection: swallowed
        transport.release(0)  # transport failure after retries: swallowed
