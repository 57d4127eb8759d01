"""Integration tests: the measurement service over a live wsgiref server.

These exercise the ISSUE acceptance criteria end to end — a real HTTP
round-trip (submit as JSON, poll committed records with the ``?since=``
cursor, read the report), the spec validator's message surfacing in a 4xx,
concurrent submissions, and the crash-handoff property: a worker killed
mid-interval is re-dispatched via resume and the finished store is
byte-identical to a direct ``repro run`` of the same spec.
"""

from __future__ import annotations

import json
import threading
import time
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
from repro.engine.campaign import CampaignRunner
from repro.service import JobQueue, ServiceApp, make_service_server
from repro.service.app import MAX_BODY_BYTES
from repro.service.jobs import JOB_STATES
from repro.store import RunStore

from tests.helpers import raw_http_exchange


def _spec(name: str, intervals: int = 2, seed: int = 71) -> CampaignSpec:
    return CampaignSpec(
        name=name,
        intervals=intervals,
        cell=ExperimentSpec(
            seed=seed,
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


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    """A live threaded service (real sockets, subprocess workers)."""
    store_root = tmp_path_factory.mktemp("service-store")
    queue = JobQueue(store_root, workers=2)
    app = ServiceApp(store_root, queue=queue)
    server = make_service_server("127.0.0.1", 0, app)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield {
            "base": f"http://{host}:{port}",
            "store_root": store_root,
            "queue": queue,
        }
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        queue.shutdown(wait=False)


def _request(base, path, method="GET", body=None, timeout=60.0):
    """(status, parsed-JSON) for one API call; 4xx/5xx never raise."""
    data = None
    request = urllib.request.Request(base + path, method=method)
    if body is not None:
        data = json.dumps(body).encode("utf-8")
        request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, data=data, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _wait_complete(service, run_id, timeout=240.0):
    """Drive the ``?since=`` cursor until the run reports complete."""
    deadline = time.monotonic() + timeout
    cursor = 0
    collected = []
    while time.monotonic() < deadline:
        status, page = _request(
            service["base"], f"/api/v1/runs/{run_id}/records?since={cursor}&wait=2"
        )
        assert status == 200, page
        assert page["since"] == cursor
        collected.extend(page["records"])
        cursor = page["next"]
        if page["complete"]:
            return collected
    raise AssertionError(f"run {run_id} did not complete within {timeout}s")


def _wait_job(service, job_id, timeout=240.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, payload = _request(service["base"], f"/api/v1/jobs/{job_id}")
        assert status == 200, payload
        if payload["job"]["state"] in ("completed", "failed"):
            return payload["job"]
        time.sleep(0.2)
    raise AssertionError(f"job {job_id} still active after {timeout}s")


def _store_bytes(store_dir):
    """The byte-identity fingerprint of a run store (every durable file)."""
    return {
        path.name: path.read_bytes()
        for path in sorted(store_dir.iterdir())
        if path.is_file()
    }


def test_dashboard_and_health(service):
    with urllib.request.urlopen(service["base"] + "/", timeout=30) as response:
        assert response.status == 200
        assert response.headers["Content-Type"].startswith("text/html")
        page = response.read().decode("utf-8")
    assert "<html" in page and "repro measurement service" in page

    status, health = _request(service["base"], "/api/v1/health")
    assert status == 200
    assert health["status"] == "ok"
    assert health["queue"]["workers"] == 2


def test_submit_poll_report_round_trip(service, tmp_path):
    spec = _spec("roundtrip", intervals=2)
    status, accepted = _request(
        service["base"],
        "/api/v1/jobs",
        method="POST",
        body={"spec": spec.to_dict(), "run_id": "roundtrip-run"},
    )
    assert status == 202, accepted
    job = accepted["job"]
    assert job["state"] in ("queued", "running")

    records = _wait_complete(service, "roundtrip-run")
    assert [record["interval"] for record in records] == [0, 1]
    assert all("delay_samples" not in record for record in records)
    assert _wait_job(service, job["id"])["state"] == "completed"

    status, report = _request(service["base"], "/api/v1/runs/roundtrip-run/report")
    assert status == 200
    assert report["intervals"]["complete"] is True
    assert report["summary_matches_store"] is True
    assert report["spec_hash"] == spec.spec_hash()

    status, detail = _request(service["base"], "/api/v1/runs/roundtrip-run")
    assert status == 200
    assert detail["intervals"]["complete"] is True and detail["summary"] is not None
    assert detail["job"]["id"] == job["id"]

    status, listing = _request(service["base"], "/api/v1/runs?name=roundtrip")
    assert status == 200
    assert [entry["run"] for entry in listing["runs"]] == ["roundtrip-run"]

    status, frozen = _request(service["base"], "/api/v1/runs/roundtrip-run/spec")
    assert status == 200
    assert frozen["spec"] == spec.to_dict()

    # The acceptance criterion: the HTTP-submitted store is byte-identical
    # to a direct programmatic run of the same spec.
    direct = RunStore.create(tmp_path / "direct", spec)
    CampaignRunner(spec, direct).run()
    assert _store_bytes(service["store_root"] / "roundtrip-run") == _store_bytes(
        tmp_path / "direct"
    )


def test_invalid_spec_carries_validator_message(service):
    payload = _spec("invalid").to_dict()
    payload["intervals"] = 0
    status, body = _request(
        service["base"], "/api/v1/jobs", method="POST", body={"spec": payload}
    )
    assert status == 400
    assert body["error"]["message"].startswith("invalid campaign spec: ")
    assert "intervals must be > 0" in body["error"]["message"]
    assert body["error"]["code"] == "bad_request"


def test_malformed_requests(service):
    assert _request(service["base"], "/api/v1/nowhere")[0] == 404
    assert _request(service["base"], "/api/v1/runs/absent-run/report")[0] == 404
    # %2e%2e decodes to ".." server-side (the client would normalize a
    # literal ".." away before sending); the run-id guard must reject it.
    assert _request(service["base"], "/api/v1/runs/%2e%2e/report")[0] == 400
    status, body = _request(service["base"], "/api/v1/health", method="POST", body={})
    assert status == 405
    assert body["error"]["code"] == "method_not_allowed"
    status, body = _request(service["base"], "/api/v1/jobs", method="POST", body={})
    assert status == 400 and "'spec'" in body["error"]["message"]
    status, body = _request(service["base"], "/api/v1/compare?runs=just-one")
    assert status == 400 and "at least two" in body["error"]["message"]


def _status(reply: bytes) -> int:
    return int(reply.split(b"\r\n", 1)[0].split()[1])


def test_content_length_checked_before_the_body_is_read(service):
    def submit(length: int) -> bytes | None:
        return raw_http_exchange(
            service["base"],
            b"POST /api/v1/jobs HTTP/1.1\r\nHost: localhost\r\n"
            b"Content-Type: application/json\r\nConnection: close\r\n"
            b"Content-Length: %d\r\n\r\n" % length,
        )

    # A negative length must not reach wsgi.input.read(-1), which would wait
    # for the client to hang up.
    reply = submit(-1)
    assert reply is not None, "the handler is still reading the body"
    assert _status(reply) == 400 and b"invalid Content-Length" in reply
    reply = submit(MAX_BODY_BYTES + 1)
    assert reply is not None and _status(reply) == 413


def test_nan_wait_is_rejected_not_held(service, monkeypatch):
    monkeypatch.setattr("repro.service.app.MAX_WAIT_SECONDS", 0.5)
    RunStore.create(service["store_root"] / "dead-run", _spec("dead", intervals=2))
    path = "/api/v1/runs/dead-run/records?since=0&wait="
    # An infinite wait is capped like any other long wait.
    started = time.monotonic()
    status, body = _request(service["base"], path + "inf", timeout=10.0)
    assert status == 200 and body["records"] == [] and not body["complete"]
    assert time.monotonic() - started < 5.0
    # NaN compares false against the cap, so it would hold the thread until
    # the (dead) run finished.
    status, body = _request(service["base"], path + "nan", timeout=3.0)
    assert status == 400
    assert body["error"]["code"] == "bad_parameter"
    assert body["error"]["detail"]["parameter"] == "wait"


def _raw_get(base, path, method="GET"):
    """(status, headers, parsed-JSON) for one call, headers included."""
    request = urllib.request.Request(base + path, method=method)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, dict(response.headers), json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), json.loads(exc.read())


def test_unversioned_paths_answer_404_pointing_at_v1(service):
    v1_status, v1_headers, _ = _raw_get(service["base"], "/api/v1/health")
    assert v1_status == 200
    for path in ("/api/health", "/api/nowhere", "/api/dispatch/some-run", "/api"):
        status, headers, body = _raw_get(service["base"], path)
        assert status == 404, path
        assert body["error"]["code"] == "not_found"
        assert "/api/v1/" in body["error"]["message"]
        assert "Deprecation" not in headers and "Link" not in headers
    # This instance hosts no dispatch registry under v1 either.
    status, _, body = _raw_get(service["base"], "/api/v1/dispatch/some-run")
    assert status == 503 and body["error"]["code"] == "no_dispatch"


def test_error_envelope_names_bad_parameters(service):
    status, body = _request(service["base"], "/api/v1/runs?limit=zero")
    assert status == 400
    assert body["error"]["code"] == "bad_parameter"
    assert body["error"]["detail"]["parameter"] == "limit"
    assert "'limit'" in body["error"]["message"]
    status, body = _request(service["base"], "/api/v1/runs/whatever/records?since=x")
    assert status == 400
    assert body["error"]["detail"]["parameter"] == "since"
    status, body = _request(service["base"], "/api/v1/runs?complete=perhaps")
    assert status == 400
    assert body["error"]["detail"]["parameter"] == "complete"


def test_runs_pagination(service):
    spec = _spec("pagination", intervals=1, seed=200)
    for suffix in ("a", "b", "c"):
        RunStore.create(service["store_root"] / f"page-run-{suffix}", spec)
    status, first = _request(service["base"], "/api/v1/runs?name=pagination&limit=2")
    assert status == 200
    assert [e["run"] for e in first["runs"]] == ["page-run-a", "page-run-b"]
    assert first["next_cursor"] == "page-run-b"
    status, second = _request(
        service["base"],
        f"/api/v1/runs?name=pagination&limit=2&cursor={first['next_cursor']}",
    )
    assert status == 200
    assert [e["run"] for e in second["runs"]] == ["page-run-c"]
    assert second["next_cursor"] is None
    # No limit = the whole listing, next_cursor null.
    status, full = _request(service["base"], "/api/v1/runs?name=pagination")
    assert status == 200
    assert len(full["runs"]) == 3 and full["next_cursor"] is None


def test_jobs_pagination(service):
    # Guarantee at least one job regardless of which tests ran before.
    status, accepted = _request(
        service["base"],
        "/api/v1/jobs",
        method="POST",
        body={"spec": _spec("page-job", intervals=1, seed=210).to_dict()},
    )
    assert status == 202, accepted
    status, full = _request(service["base"], "/api/v1/jobs")
    assert status == 200 and full["next_cursor"] is None
    all_ids = [job["id"] for job in full["jobs"]]
    assert all_ids
    paged, cursor = [], None
    while True:
        path = "/api/v1/jobs?limit=1" + (f"&cursor={cursor}" if cursor else "")
        status, page = _request(service["base"], path)
        assert status == 200 and len(page["jobs"]) <= 1
        paged.extend(job["id"] for job in page["jobs"])
        cursor = page["next_cursor"]
        if cursor is None:
            break
    assert paged == all_ids
    status, body = _request(service["base"], "/api/v1/jobs?cursor=no-such-job")
    assert status == 400 and body["error"]["code"] == "invalid_cursor"
    _wait_job(service, accepted["job"]["id"])


def test_concurrent_submissions(service):
    specs = [_spec(f"burst-{i}", intervals=1, seed=100 + i) for i in range(3)]
    results = [None] * len(specs)

    def submit(i):
        results[i] = _request(
            service["base"],
            "/api/v1/jobs",
            method="POST",
            body={"spec": specs[i].to_dict(), "run_id": f"burst-run-{i}"},
        )

    threads = [threading.Thread(target=submit, args=(i,)) for i in range(len(specs))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    for status, accepted in results:
        assert status == 202, accepted
    # Wait for the *jobs* (not just the records) so the duplicate probe
    # below deterministically hits the held-store rejection, never the
    # transient active-job one.
    for status, accepted in results:
        assert _wait_job(service, accepted["job"]["id"])["state"] == "completed"
    for i in range(len(specs)):
        _wait_complete(service, f"burst-run-{i}")
        status, report = _request(service["base"], f"/api/v1/runs/burst-run-{i}/report")
        assert status == 200 and report["intervals"]["complete"] is True

    # A duplicate of an already-finished run is rejected with a conflict.
    status, body = _request(
        service["base"],
        "/api/v1/jobs",
        method="POST",
        body={"spec": specs[0].to_dict(), "run_id": "burst-run-0"},
    )
    assert status == 409 and "already holds a store" in body["error"]["message"]


def test_compare_across_runs(service):
    for run_id in ("burst-run-0", "burst-run-1"):
        _wait_complete(service, run_id)
    status, body = _request(
        service["base"], "/api/v1/compare?runs=burst-run-0,burst-run-1"
    )
    assert status == 200
    assert [run["run"] for run in body["runs"]] == ["burst-run-0", "burst-run-1"]
    assert "X" in body["domains"]
    per_run = body["domains"]["X"]
    assert set(per_run) == {"burst-run-0", "burst-run-1"}
    for entry in per_run.values():
        assert entry["delay_sample_count"] > 0


def _job_consistent(job) -> bool:
    """Whether one job snapshot is a state the queue's transitions can hold."""
    if job["state"] not in JOB_STATES or not 0 <= job["attempts"] <= job["max_attempts"]:
        return False
    if job["pid"] is not None and job["state"] != "running":
        return False
    if job["state"] in ("running", "completed", "failed") and job["attempts"] < 1:
        return False
    return job["state"] != "completed" or job["error"] is None


def test_job_endpoints_hammered_while_children_run(tmp_path):
    """Hammer /api/v1/jobs while child attempts run and finish.

    Attempts mutate ``state``/``attempts``/``pid`` from worker threads; the
    HTTP layer serializes jobs through the queue's lock-holding snapshots,
    so every response under fire must be a clean 200 holding a consistent
    job, whose attempt count never goes backwards.
    """
    queue = JobQueue(tmp_path / "store", workers=2)
    app = ServiceApp(tmp_path / "store", queue=queue)
    server = make_service_server("127.0.0.1", 0, app)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    base = f"http://{host}:{port}"
    try:
        specs = [_spec(f"hammer-{i}", intervals=3, seed=130 + i) for i in range(2)]
        job_ids = []
        for i, spec in enumerate(specs):
            status, accepted = _request(
                base,
                "/api/v1/jobs",
                method="POST",
                body={"spec": spec.to_dict(), "run_id": f"hammer-run-{i}"},
            )
            assert status == 202, accepted
            job_ids.append(accepted["job"]["id"])

        stop = threading.Event()
        failures = []

        def hammer():
            attempts_seen: dict[str, int] = {}
            while not stop.is_set():
                for path in ("/api/v1/jobs", f"/api/v1/jobs/{job_ids[0]}"):
                    status, payload = _request(base, path, timeout=30.0)
                    if status != 200:
                        failures.append((path, status, payload))
                        return
                    jobs = payload["jobs"] if "jobs" in payload else [payload["job"]]
                    for job in jobs:
                        if not _job_consistent(job):
                            failures.append((path, "inconsistent job", job))
                            return
                        if job["attempts"] < attempts_seen.get(job["id"], 0):
                            failures.append((path, "attempts went back", job))
                            return
                        attempts_seen[job["id"]] = job["attempts"]

        hammers = [threading.Thread(target=hammer) for _ in range(4)]
        for worker in hammers:
            worker.start()
        try:
            for job_id in job_ids:
                deadline = time.monotonic() + 240.0
                while time.monotonic() < deadline:
                    status, payload = _request(base, f"/api/v1/jobs/{job_id}")
                    assert status == 200, payload
                    if payload["job"]["state"] in ("completed", "failed"):
                        break
                    time.sleep(0.1)
                assert payload["job"]["state"] == "completed", payload
        finally:
            stop.set()
            for worker in hammers:
                worker.join(timeout=30.0)
        assert failures == []
        status, payload = _request(base, "/api/v1/jobs")
        assert status == 200
        assert [job["attempts"] for job in payload["jobs"]] == [1, 1]
        # Progress lives in the store: the record cursor holds every commit.
        for i in range(len(specs)):
            status, page = _request(base, f"/api/v1/runs/hammer-run-{i}/records?since=0")
            assert status == 200 and page["complete"] is True
            assert [record["interval"] for record in page["records"]] == [0, 1, 2]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        queue.shutdown(wait=False)


def test_killed_worker_resumes_to_byte_identical_store(service, tmp_path):
    """SIGINT a worker mid-campaign; the re-dispatched resume must converge
    on a store byte-identical to an uninterrupted direct run."""
    spec = _spec("chaos", intervals=3, seed=83)
    # The throttle opens a deterministic kill window after each interval.
    status, accepted = _request(
        service["base"],
        "/api/v1/jobs",
        method="POST",
        body={
            "spec": spec.to_dict(),
            "run_id": "chaos-run",
            "policy": {"throttle": 0.8},
        },
    )
    assert status == 202, accepted
    job_id = accepted["job"]["id"]

    # Wait for at least one committed interval, then kill the child.
    deadline = time.monotonic() + 120.0
    while time.monotonic() < deadline:
        status, page = _request(
            service["base"], "/api/v1/runs/chaos-run/records?since=0&wait=2"
        )
        assert status == 200, page
        if page["next"] >= 1:
            break
    assert page["next"] >= 1, "no interval committed before the kill"
    assert not page["complete"], "campaign finished before the kill window"

    status, killed = _request(
        service["base"], f"/api/v1/jobs/{job_id}/kill", method="POST", body={}
    )
    assert status == 200
    assert killed["killed"] is True, killed

    final = _wait_job(service, job_id)
    assert final["state"] == "completed", final["error"]
    assert final["attempts"] >= 2  # the killed attempt plus the resume

    _wait_complete(service, "chaos-run")
    direct = RunStore.create(tmp_path / "direct", spec)
    CampaignRunner(spec, direct).run()
    assert _store_bytes(service["store_root"] / "chaos-run") == _store_bytes(
        tmp_path / "direct"
    )
