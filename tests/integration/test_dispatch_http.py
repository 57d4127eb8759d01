"""Integration tests: distributed dispatch over real sockets.

The acceptance criterion, end to end: a campaign dispatched over the
``/api/v1/dispatch/…`` protocol — worker subprocesses that share **no**
filesystem with the coordinator, including workers SIGKILLed mid-interval
on a seeded chaos schedule and uploads truncated mid-body — finishes with a
run store **byte-identical** (``RunStore.digest()`` and a full directory
diff) to an uninterrupted single-host ``repro run`` of the same spec.
"""

from __future__ import annotations

import filecmp
import json
import os
import subprocess
import sys
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import repro
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
from repro.dist import ChaosSchedule, DispatchCoordinator, dispatch_campaign
from repro.dist.dispatch import DispatchWorker
from repro.dist.net import DIGEST_HEADER, WORKER_HEADER, HTTPTransport, record_digest
from repro.engine.campaign import CampaignRunner, interval_record
from repro.service.dispatchapi import MAX_UPLOAD_BYTES
from repro.store import RunStore, stable_json

from tests.helpers import raw_http_exchange


def _spec(name: str, intervals: int, seed: int = 97) -> CampaignSpec:
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


def _direct_run(base: Path, spec: CampaignSpec) -> RunStore:
    store = RunStore.create(base / "direct", spec)
    CampaignRunner(spec, store).run()
    return store


def _child_env() -> dict[str, str]:
    package_parent = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [package_parent, env["PYTHONPATH"]]
        if env.get("PYTHONPATH")
        else [package_parent]
    )
    return env


def _assert_stores_identical(dispatched: Path, direct: Path) -> None:
    """Byte-identity both ways: store digests and a full directory diff."""
    assert RunStore.open(dispatched).digest() == RunStore.open(direct).digest()
    comparison = filecmp.dircmp(dispatched, direct)
    assert comparison.left_only == []  # no dispatch scratch left behind
    assert comparison.right_only == []
    mismatched = [
        name
        for name in comparison.common_files
        if (dispatched / name).read_bytes() != (direct / name).read_bytes()
    ]
    assert mismatched == []


class _CommitOnlyCoordinator:
    """A workers=0 HTTP coordinator running in a background thread.

    The multi-host topology in miniature: the coordinator thread owns the
    store and commits; the test body plays the remote, mount-less workers
    against ``coordinator.http_url``.
    """

    def __init__(self, run_dir: Path, spec: CampaignSpec, lease: float = 30.0):
        store = RunStore.create(run_dir, spec)
        self.coordinator = DispatchCoordinator(store, workers=0, lease=lease)
        self.thread = threading.Thread(target=self.coordinator.run, daemon=True)

    def __enter__(self) -> DispatchCoordinator:
        self.thread.start()
        return self.coordinator

    def __exit__(self, *exc_info: object) -> None:
        self.thread.join(timeout=120.0)
        assert not self.thread.is_alive(), "coordinator never finished committing"


class TestHTTPPool:
    def test_http_workers_match_direct_run(self, tmp_path):
        spec = _spec("http-pool", intervals=6)
        direct = _direct_run(tmp_path, spec)
        outcome = dispatch_campaign(
            tmp_path / "dispatched", spec=spec, workers=4, transport="http"
        )  # the one transport value dispatch_campaign still accepts
        assert outcome.completed
        _assert_stores_identical(tmp_path / "dispatched", Path(direct.path))

    def test_seeded_kills_still_byte_identical(self, tmp_path):
        # Chaos SIGKILLs prefer a worker currently holding a claim, so these
        # kills land mid-interval; the coordinator-clock lease must lapse and
        # another HTTP worker must recompute the interval to identical bytes.
        spec = _spec("http-chaos", intervals=8)
        direct = _direct_run(tmp_path, spec)
        outcome = dispatch_campaign(
            tmp_path / "dispatched",
            spec=spec,
            workers=4,
            lease=3.0,  # short lease so a killed worker's claim lapses fast
            chaos=ChaosSchedule(seed=4242, kills=3, min_delay=0.2, max_delay=0.8),
        )
        assert outcome.completed
        _assert_stores_identical(tmp_path / "dispatched", Path(direct.path))


class TestUploadFaults:
    def test_truncated_upload_rejected_then_reupload_idempotent(self, tmp_path):
        spec = _spec("http-truncated", intervals=2)
        direct = _direct_run(tmp_path, spec)
        run_dir = tmp_path / "dispatched"
        with _CommitOnlyCoordinator(run_dir, spec) as coordinator:
            base = (
                f"{coordinator.http_url}/api/v1/dispatch/{coordinator.run_id}"
            )
            line = (
                stable_json(dict(interval_record(spec, 0))) + "\n"
            ).encode("utf-8")

            def upload(body: bytes, digest: str):
                request = urllib.request.Request(
                    f"{base}/records/0", data=body, method="PUT"
                )
                request.add_header(WORKER_HEADER, "test-worker")
                request.add_header(DIGEST_HEADER, digest)
                try:
                    with urllib.request.urlopen(request, timeout=30) as response:
                        return response.status, json.loads(response.read())
                except urllib.error.HTTPError as exc:
                    return exc.code, json.loads(exc.read())

            # A body truncated mid-upload fails the digest check — 400, the
            # retryable class — and nothing is staged for the coordinator.
            status, body = upload(line[: len(line) // 2], record_digest(line))
            assert status == 400
            assert body["error"]["code"] == "digest_mismatch"
            assert "retry" in body["error"]["message"]

            # The intact re-upload lands; a second identical upload (a retry
            # after a lost response) is acknowledged as a duplicate.
            status, body = upload(line, record_digest(line))
            assert status == 200 and body["duplicate"] is False
            status, body = upload(line, record_digest(line))
            assert status == 200 and body["duplicate"] is True

            # An in-process HTTP worker computes whatever remains.
            DispatchWorker(
                HTTPTransport(
                    coordinator.http_url, coordinator.run_id, worker_id="finisher"
                )
            ).run()
        _assert_stores_identical(run_dir, Path(direct.path))

    def test_upload_without_worker_header_rejected(self, tmp_path):
        spec = _spec("http-noworker", intervals=1)
        run_dir = tmp_path / "dispatched"
        with _CommitOnlyCoordinator(run_dir, spec) as coordinator:
            request = urllib.request.Request(
                f"{coordinator.http_url}/api/v1/dispatch/"
                f"{coordinator.run_id}/claims/0",
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as exc:
                urllib.request.urlopen(request, timeout=30)
            assert exc.value.code == 400
            assert json.loads(exc.value.read())["error"]["code"] == "missing_worker"
            # Let the run finish so the context manager can join.
            DispatchWorker(
                HTTPTransport(coordinator.http_url, coordinator.run_id)
            ).run()


class TestUploadBody:
    def test_content_length_checked_before_the_body_is_read(self, tmp_path):
        store = RunStore.create(tmp_path / "run", _spec("http-length", intervals=1))
        coordinator = DispatchCoordinator(store, workers=0)

        def upload(length: int) -> bytes | None:
            return raw_http_exchange(
                coordinator.http_url,
                f"PUT /api/v1/dispatch/{coordinator.run_id}/records/0 HTTP/1.1\r\n"
                f"Host: localhost\r\n{WORKER_HEADER}: w0\r\nConnection: close\r\n"
                f"Content-Length: {length}\r\n\r\n".encode("ascii"),
            )

        try:
            negative, oversized = upload(-1), upload(MAX_UPLOAD_BYTES + 1)
        finally:
            coordinator.close()
        # A negative length must not reach wsgi.input.read(-1), which would
        # wait for the worker to hang up.
        assert negative is not None, "the handler is still reading the body"
        assert negative.split(b"\r\n", 1)[0].split()[1] == b"400"
        assert b"invalid Content-Length" in negative
        assert oversized is not None and oversized.split(b"\r\n", 1)[0].split()[1] == b"413"


class TestEndOfRun:
    def test_last_commit_then_coordinator_exit_then_worker_poll(self, tmp_path):
        # The worker's first exchange after its last upload happens only once
        # the coordinator has committed that upload and shut down: the events
        # are ordered by joining the coordinator thread, not by sleeping.
        spec = _spec("http-end-of-run", intervals=2)
        direct = _direct_run(tmp_path, spec)
        run_dir = tmp_path / "dispatched"
        serving = _CommitOnlyCoordinator(run_dir, spec)
        with serving as coordinator:
            transport = HTTPTransport(
                coordinator.http_url, coordinator.run_id, worker_id="last", retries=1
            )
            upload = transport.deliver

            def deliver_then_await_exit(interval, record):
                delivered = upload(interval, record)
                if interval == spec.intervals - 1:
                    serving.thread.join(timeout=120.0)
                    assert not serving.thread.is_alive()
                return delivered

            transport.deliver = deliver_then_await_exit
            assert DispatchWorker(transport).run() == spec.intervals
        _assert_stores_identical(run_dir, Path(direct.path))

    def test_idle_worker_poll_after_other_workers_last_upload_and_exit(self, tmp_path):
        # The idle worker's claim is refused because another worker holds the
        # last interval; that worker uploads, the coordinator commits and
        # exits, and only then does the idle worker poll again.  The events
        # are ordered by joining the coordinator thread, not by sleeping.
        spec = _spec("http-idle-end-of-run", intervals=1)
        direct = _direct_run(tmp_path, spec)
        run_dir = tmp_path / "dispatched"
        serving = _CommitOnlyCoordinator(run_dir, spec)
        with serving as coordinator:
            busy = HTTPTransport(coordinator.http_url, coordinator.run_id, worker_id="busy")
            idle = HTTPTransport(coordinator.http_url, coordinator.run_id, worker_id="idle")
            assert busy.try_claim(0)
            claim = idle.try_claim

            def refused_then_other_finishes(interval):
                assert not claim(interval)  # held by "busy" under a live lease
                busy.deliver(interval, interval_record(spec, interval))
                serving.thread.join(timeout=120.0)
                assert not serving.thread.is_alive()
                return False

            idle.try_claim = refused_then_other_finishes
            assert DispatchWorker(idle).run() == 0
        _assert_stores_identical(run_dir, Path(direct.path))

    def test_upload_while_rest_is_leased_then_other_workers_last_upload_and_exit(
        self, tmp_path
    ):
        # Worker "a" uploads interval 0 while interval 1, the only one left,
        # is leased to worker "b".  Then "b" makes the last upload, the
        # coordinator commits and exits, and only then does "a" poll.  The
        # events are ordered by joining the coordinator thread, not by
        # sleeping; "a"'s retry budget is kept small so a regression fails
        # fast instead of backing off.
        spec = _spec("http-upload-end-of-run", intervals=2)
        direct = _direct_run(tmp_path, spec)
        run_dir = tmp_path / "dispatched"
        serving = _CommitOnlyCoordinator(run_dir, spec)
        with serving as coordinator:
            first = HTTPTransport(
                coordinator.http_url,
                coordinator.run_id,
                worker_id="a",
                retries=3,
                backoff=0.01,
            )
            last = HTTPTransport(coordinator.http_url, coordinator.run_id, worker_id="b")
            assert last.try_claim(1)
            upload = first.deliver

            def upload_then_other_finishes(interval, record):
                assert interval == 0
                delivered = upload(interval, record)
                last.deliver(1, interval_record(spec, 1))
                serving.thread.join(timeout=120.0)
                assert not serving.thread.is_alive()
                return delivered

            first.deliver = upload_then_other_finishes
            assert DispatchWorker(first).run() == 1
        _assert_stores_identical(run_dir, Path(direct.path))


class TestCLI:
    def test_worker_only_http_cli_no_shared_filesystem(self, tmp_path):
        # The real multi-host shape: the worker subprocess gets a URL and a
        # run id — no run directory, no policy flags, no mount.
        spec = _spec("http-cli-worker", intervals=4)
        direct = _direct_run(tmp_path, spec)
        run_dir = tmp_path / "dispatched"
        with _CommitOnlyCoordinator(run_dir, spec) as coordinator:
            worker = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro.cli",
                    "dispatch",
                    "--worker-only",
                    "--coordinator",
                    coordinator.http_url,
                    "--run-id",
                    coordinator.run_id,
                    "--worker-id",
                    "remote-0",
                ],
                env=_child_env(),
                stdout=subprocess.PIPE,
                text=True,
            )
            stdout, _ = worker.communicate(timeout=240.0)
            assert worker.returncode == 0, stdout
            computed = int(stdout.split("computed ")[1].split(" ")[0])
            assert computed == spec.intervals  # every interval came over HTTP
        _assert_stores_identical(run_dir, Path(direct.path))

    def test_cli_coordinator_http_transport(self, tmp_path):
        spec = _spec("http-cli-coord", intervals=4)
        direct = _direct_run(tmp_path, spec)
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(spec.to_json())
        run_dir = tmp_path / "dispatched"
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "dispatch",
                str(run_dir),
                "--spec",
                str(spec_file),
                "--workers",
                "2",
                "--quiet",
            ],
            env=_child_env(),
            capture_output=True,
            text=True,
            timeout=240.0,
        )
        assert result.returncode == 0, result.stderr
        _assert_stores_identical(run_dir, Path(direct.path))

    def test_http_worker_cli_rejects_filesystem_era_flags(self, tmp_path):
        env = _child_env()
        base = [
            sys.executable,
            "-m",
            "repro.cli",
            "dispatch",
            "--worker-only",
            "--coordinator",
            "http://127.0.0.1:1",
            "--run-id",
            "r",
        ]

        def run(argv):
            return subprocess.run(
                argv, env=env, capture_output=True, text=True, timeout=120.0
            )

        missing = run(base[:-2])  # no --run-id
        assert missing.returncode != 0 and "--run-id" in missing.stderr
        with_dir = run([*base[:4], str(tmp_path / "run"), *base[4:]])
        assert with_dir.returncode != 0 and "no filesystem" in with_dir.stderr
        with_lease = run([*base, "--lease", "5"])
        assert with_lease.returncode != 0
        assert "coordinator-defined" in with_lease.stderr
        with_knobs = run([*base, "--engine", "batch"])
        assert with_knobs.returncode != 0
        assert "config endpoint" in with_knobs.stderr

    def test_coordinator_flags_rejected_without_http_worker(self, tmp_path):
        spec = _spec("http-cli-misuse", intervals=1)
        run_dir = tmp_path / "run"
        RunStore.create(run_dir, spec)
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "dispatch",
                str(run_dir),
                "--coordinator",
                "http://127.0.0.1:1",
            ],
            env=_child_env(),
            capture_output=True,
            text=True,
            timeout=120.0,
        )
        assert result.returncode != 0
        assert "--worker-only" in result.stderr


class TestResume:
    def test_interrupted_http_dispatch_resumes(self, tmp_path):
        # A coordinator that commits a prefix and "dies" must finish from
        # the committed prefix on re-dispatch — the `repro resume` contract.
        spec = _spec("http-resume", intervals=4)
        direct = _direct_run(tmp_path, spec)
        store = RunStore.create(tmp_path / "dispatched", spec)
        CampaignRunner(spec, store).run(max_intervals=2)  # the "first life"
        outcome = dispatch_campaign(tmp_path / "dispatched", workers=2)
        assert outcome.completed
        assert outcome.intervals_run == 2  # only the remaining tail
        _assert_stores_identical(tmp_path / "dispatched", Path(direct.path))
