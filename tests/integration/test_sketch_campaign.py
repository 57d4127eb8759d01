"""End-to-end sketch-mode campaigns: engine invariance, kill/resume, reporting.

Sketch mode changes what a campaign *commits* (bounded sketch state instead
of raw sample hex) — so the invariants the exact tier proves must be re-proven
on the wire: engine invariance byte-for-byte over the mesh conformance
scenario, byte-identical ``repro resume`` after a real SIGINT delivered to a
live ``repro run`` subprocess, and the error-bound annotations surfacing
through reports, ``repro compare`` and :func:`compare_runs`.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import time

import pytest

from repro.analysis.sketch import DelayQuantileSketch
from repro.api.spec import (
    CampaignSpec,
    ConditionSpec,
    EstimationSpec,
    ExperimentSpec,
    HOPSpec,
    PathSpec,
    ProtocolSpec,
    SLATargetSpec,
    TrafficSpec,
)
from repro.cli import main
from repro.engine.campaign import CampaignRunner
from repro.service.report import compare_runs, run_report
from repro.store import RunStore
from tests.conformance.scenarios import MESH_CONFORMANCE_SCENARIOS


def _sketch_campaign(name: str, intervals: int, seed: int, size: int) -> CampaignSpec:
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
                        delay_params={"base_delay": 1e-3, "jitter_std": 0.3e-3},
                        loss="bernoulli",
                        loss_params={"loss_rate": 0.05},
                    )
                }
            ),
            protocol=ProtocolSpec(
                default=HOPSpec(sampling_rate=0.25, marker_rate=0.03, aggregate_size=100)
            ),
            estimation=EstimationSpec(
                observer="S", targets=("X",), mode="sketch", sketch_size=size
            ),
        ),
        sla=SLATargetSpec(delay_bound=8e-3, delay_quantile=0.9, loss_bound=0.2),
    )


def _store_files(path) -> dict[str, bytes]:
    return {
        name: (path / name).read_bytes()
        for name in ("spec.json", "records.jsonl", "summary.json")
    }


def test_sketch_mesh_campaign_is_engine_invariant(tmp_path):
    """Sketch-mode mesh campaign: streaming store == batch store, byte-for-byte."""
    cell = MESH_CONFORMANCE_SCENARIOS["mesh-honest"].with_overrides(
        {"estimation_mode": "sketch", "sketch_size": 128}
    )
    spec = CampaignSpec(
        name="sketch-mesh",
        intervals=2,
        cell=cell,
        sla=SLATargetSpec(delay_bound=50e-3, delay_quantile=0.9, loss_bound=0.3),
    )

    single = RunStore.create(tmp_path / "batch", spec)
    CampaignRunner(spec, single, engine="batch").run()
    streamed = RunStore.create(tmp_path / "streaming", spec)
    CampaignRunner(spec, streamed, engine="streaming", chunk_size=320).run()

    assert single.digest() == streamed.digest()
    assert _store_files(tmp_path / "batch") == _store_files(tmp_path / "streaming")

    # the committed records carry sketch state only — and it decodes
    for record in single.records():
        assert "delay_samples" not in record
        for state in record["delay_sketch"].values():
            assert DelayQuantileSketch.from_state(state).sample_count > 0

    # campaign summary carries the error-bound annotation per domain
    summary = single.summary()
    for entry in summary["domains"].values():
        annotation = entry["estimation"]
        assert annotation["mode"] == "sketch"
        assert annotation["sketch_size"] == 128
        assert annotation["relative_error_bound"] == pytest.approx(1 / 129)
        for quantile_entry in entry["pooled_quantiles"].values():
            assert quantile_entry["lower"] <= quantile_entry["estimate"]
            assert quantile_entry["estimate"] <= quantile_entry["upper"]


def test_cli_sigint_then_resume_reproduces_uninterrupted_store(tmp_path):
    """SIGINT a live ``repro run`` subprocess mid-campaign; ``repro resume``
    must converge on a store byte-identical to an uninterrupted run."""
    spec = _sketch_campaign("sketch-chaos", intervals=3, seed=83, size=64)
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(spec.to_json())

    uninterrupted = tmp_path / "uninterrupted"
    assert main(["run", str(spec_file), "--run-dir", str(uninterrupted), "--quiet"]) == 0

    killed = tmp_path / "killed"
    # The throttle opens a deterministic multi-second kill window after
    # every interval commit.
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "run",
            str(spec_file),
            "--run-dir",
            str(killed),
            "--throttle",
            "3",
            "--quiet",
        ],
    )
    try:
        records = killed / "records.jsonl"
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            if records.exists() and records.read_bytes().count(b"\n") >= 1:
                break
            if process.poll() is not None:
                pytest.fail("repro run exited before the kill window")
            time.sleep(0.05)
        else:
            pytest.fail("no interval committed before the kill deadline")
        process.send_signal(signal.SIGINT)
        returncode = process.wait(timeout=60.0)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()

    assert returncode != 0, "the interrupted run must not report success"
    committed = records.read_bytes().count(b"\n")
    assert 1 <= committed < spec.intervals, "kill landed outside the window"

    assert main(["resume", str(killed), "--quiet"]) == 0
    assert _store_files(killed) == _store_files(uninterrupted)
    assert RunStore.open(killed).digest() == RunStore.open(uninterrupted).digest()


def test_reports_and_compare_surface_error_bounds(tmp_path, capsys):
    runs = []
    for index in range(2):
        spec = _sketch_campaign(f"sketch-{index}", intervals=2, seed=11 + index, size=64)
        store = RunStore.create(tmp_path / f"run-{index}", spec)
        CampaignRunner(spec, store).run()
        runs.append(store)

    report = run_report(runs[0])
    annotation = report["summary"]["domains"]["X"]["estimation"]
    assert annotation == {
        "mode": "sketch",
        "sketch_size": 64,
        "relative_error_bound": 1 / 65,
        "bucket_count": annotation["bucket_count"],
    }
    assert annotation["bucket_count"] > 0

    comparison = compare_runs(runs)
    for entry in comparison["domains"]["X"].values():
        assert entry["estimation"]["relative_error_bound"] == 1 / 65
        for quantile_entry in entry["pooled_quantiles"].values():
            assert set(quantile_entry) >= {"estimate", "lower", "upper"}

    # CLI: ``repro report`` prints the tier line, ``repro compare`` the column
    assert main(["report", str(runs[0].path)]) == 0
    out = capsys.readouterr().out
    assert "estimation tier: sketch (size 64" in out
    assert "±" in out

    assert main(["compare", str(runs[0].path), str(runs[1].path)]) == 0
    out = capsys.readouterr().out
    assert "sketch ±" in out

    assert main(["compare", str(runs[0].path), str(runs[1].path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [run["run"] for run in payload["runs"]] == ["run-0", "run-1"]
