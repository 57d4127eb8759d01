"""Integration tests: distributed dispatch with real worker subprocesses.

The acceptance criterion, end to end: a campaign dispatched across several
worker processes — including workers SIGKILLed mid-interval, on a seeded
chaos schedule or while holding a claim — finishes with a run store
**byte-identical** (``RunStore.digest()`` and a full directory diff) to an
uninterrupted single-host ``repro run`` of the same spec.  Mount-less
remote workers, truncated uploads and the worker-only CLI live in
``tests/integration/test_dispatch_http.py``.
"""

from __future__ import annotations

import filecmp
import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.api.spec import (
    CampaignSpec,
    ConditionSpec,
    ExecutionPolicy,
    ExperimentSpec,
    HOPSpec,
    PathSpec,
    ProtocolSpec,
    SLATargetSpec,
    TrafficSpec,
)
from repro.dist import (
    DispatchCoordinator,
    DispatchWorker,
    HTTPTransport,
    dispatch_campaign,
)
from repro.engine.campaign import CampaignRunner, IntervalCommitted
from repro.store import RunStore


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


class TestSubprocessPool:
    def test_four_workers_match_direct_run(self, tmp_path):
        # Workers take the execution policy from the coordinator's config
        # endpoint.  A policy never changes a result, so a streaming pool
        # still matches the direct run byte for byte.
        spec = _spec("dispatch-pool", intervals=6)
        direct = _direct_run(tmp_path, spec)
        outcome = dispatch_campaign(
            tmp_path / "dispatched",
            spec=spec,
            policy=ExecutionPolicy(engine="streaming", chunk_size=128),
            workers=4,
        )
        assert outcome.completed
        _assert_stores_identical(tmp_path / "dispatched", Path(direct.path))

    def test_interrupted_dispatch_resumes(self, tmp_path):
        # A coordinator that dies after committing a prefix (its event hook
        # raises on the second commit) leaves the prefix durable and its
        # staged results on disk; a fresh dispatch finishes from there.
        spec = _spec("dispatch-resume", intervals=5)
        direct = _direct_run(tmp_path, spec)

        class CoordinatorDied(Exception):
            pass

        def die_on_second_commit(event) -> None:
            if isinstance(event, IntervalCommitted) and event.interval == 1:
                raise CoordinatorDied

        with pytest.raises(CoordinatorDied):
            dispatch_campaign(
                tmp_path / "dispatched",
                spec=spec,
                workers=2,
                on_event=die_on_second_commit,
            )
        assert RunStore.open(tmp_path / "dispatched").record_count == 2
        outcome = dispatch_campaign(tmp_path / "dispatched", workers=2)
        assert outcome.completed
        assert outcome.intervals_run == 3  # only the remaining tail
        _assert_stores_identical(tmp_path / "dispatched", Path(direct.path))


class TestChaos:
    def test_seeded_kills_still_byte_identical(self, tmp_path):
        # The CLI's chaos hook: seeded SIGKILLs of local workers, with a
        # short lease so a killed worker's claim lapses fast.
        spec = _spec("dispatch-chaos", intervals=8)
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
                "4",
                "--lease",
                "3.0",
                "--chaos-seed",
                "1337",
                "--chaos-kills",
                "3",
                "--quiet",
            ],
            env=_child_env(),
            capture_output=True,
            text=True,
            timeout=240.0,
        )
        assert result.returncode == 0, result.stderr
        _assert_stores_identical(run_dir, Path(direct.path))

    def test_sigkill_while_holding_a_claim(self, tmp_path):
        # Deterministic mid-interval kill: a lone worker-only process is
        # SIGKILLed the moment the coordinator lists its claim (claims are
        # granted *before* computing, so the kill lands mid-interval), then
        # another worker must take the interval over once the lease lapses
        # on the coordinator's clock.
        spec = _spec("dispatch-midkill", intervals=3)
        direct = _direct_run(tmp_path, spec)
        run_dir = tmp_path / "dispatched"
        coordinator = DispatchCoordinator(
            RunStore.create(run_dir, spec), workers=0, lease=2.0
        )
        committer = threading.Thread(target=coordinator.run, daemon=True)
        committer.start()
        status_url = (
            f"{coordinator.http_url}/api/v1/dispatch/{coordinator.run_id}"
        )

        def doomed_claims() -> list[int]:
            with urllib.request.urlopen(status_url, timeout=30) as response:
                claims = json.loads(response.read())["claims"]
            return [c["interval"] for c in claims if c["worker"] == "doomed"]

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
                "doomed",
                "--quiet",
            ],
            env=_child_env(),
            stdout=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                if doomed_claims():
                    break
                if worker.poll() is not None:
                    pytest.fail("worker exited before claiming an interval")
                time.sleep(0.005)
            else:
                pytest.fail("worker never claimed an interval")
            os.kill(worker.pid, signal.SIGKILL)
        finally:
            worker.wait()
        orphaned = doomed_claims()
        assert orphaned  # the dead worker's lease is still live
        # The rescuer idles while the orphaned lease is live, then takes
        # the interval over once it lapses.
        DispatchWorker(
            HTTPTransport(coordinator.http_url, coordinator.run_id, worker_id="rescuer")
        ).run()
        committer.join(timeout=120.0)
        assert not committer.is_alive(), "coordinator never finished committing"
        _assert_stores_identical(run_dir, Path(direct.path))


class TestCLI:
    def test_cli_dispatch_matches_direct_run(self, tmp_path):
        # `repro dispatch RUN_DIR` without --spec on a store that already
        # holds a committed prefix: the CLI form of finishing a run by
        # dispatch.
        spec = _spec("dispatch-cli", intervals=4)
        direct = _direct_run(tmp_path, spec)
        run_dir = tmp_path / "dispatched"
        CampaignRunner(spec, RunStore.create(run_dir, spec)).run(max_intervals=1)
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "dispatch",
                str(run_dir),
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

    def test_cli_rejects_checkpointing_and_chaos_misuse(self, tmp_path):
        spec = _spec("dispatch-reject", intervals=2)
        run_dir = tmp_path / "run"
        RunStore.create(run_dir, spec)
        base = [sys.executable, "-m", "repro.cli", "dispatch", str(run_dir)]
        env = _child_env()
        checkpoint = subprocess.run(
            [*base, "--engine", "streaming", "--checkpoint-every", "1"],
            env=env,
            capture_output=True,
            text=True,
            timeout=120.0,
        )
        assert checkpoint.returncode != 0
        assert "unrecognized arguments: --checkpoint-every 1" in checkpoint.stderr
        chaos = subprocess.run(
            [*base, "--chaos-kills", "2"],
            env=env,
            capture_output=True,
            text=True,
            timeout=120.0,
        )
        assert chaos.returncode != 0
        assert "--chaos-seed" in chaos.stderr
