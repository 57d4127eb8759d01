"""Unit tests for the ``repro`` console CLI (run / resume / report)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

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
from repro.cli import main
from repro.store import RunStore

from tests.helpers import rewrite_record_version


@pytest.fixture()
def spec() -> CampaignSpec:
    return CampaignSpec(
        name="cli-test",
        intervals=3,
        cell=ExperimentSpec(
            seed=23,
            traffic=TrafficSpec(workload=None, packet_count=400),
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


@pytest.fixture()
def spec_file(tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(spec.to_json())
    return path


class TestRun:
    def test_run_to_completion(self, tmp_path, spec, spec_file, capsys):
        status = main(
            ["run", str(spec_file), "--runs-dir", str(tmp_path / "runs"), "--quiet"]
        )
        assert status == 0
        run_dir = tmp_path / "runs" / f"cli-test-{spec.spec_hash()[:10]}"
        store = RunStore.open(run_dir)
        assert store.record_count == store.spec().intervals
        assert store.summary() is not None

    def test_run_dir_override_and_partial(self, tmp_path, spec_file, capsys):
        status = main(
            [
                "run",
                str(spec_file),
                "--run-dir",
                str(tmp_path / "partial"),
                "--max-intervals",
                "1",
                "--quiet",
            ]
        )
        assert status == 0
        assert "continue with: repro resume" in capsys.readouterr().out
        assert RunStore.open(tmp_path / "partial").record_count == 1

    def test_run_refuses_existing_store(self, tmp_path, spec_file):
        main(["run", str(spec_file), "--run-dir", str(tmp_path / "run"), "--quiet",
              "--max-intervals", "1"])
        with pytest.raises(SystemExit, match="already holds a run store"):
            main(["run", str(spec_file), "--run-dir", str(tmp_path / "run"), "--quiet"])

    def test_run_rejects_missing_spec(self, tmp_path):
        with pytest.raises(SystemExit, match="does not exist"):
            main(["run", str(tmp_path / "nope.json"), "--quiet"])

    def test_run_rejects_invalid_spec(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"intervals": 0}))
        with pytest.raises(SystemExit, match="cannot load campaign spec"):
            main(["run", str(bad), "--quiet"])

    def test_run_rejects_chunk_size_without_streaming(self, tmp_path, spec_file):
        with pytest.raises(SystemExit, match="streaming engine only"):
            main(["run", str(spec_file), "--run-dir", str(tmp_path / "run"),
                  "--chunk-size", "64", "--quiet"])


class TestPolicyOption:
    def test_policy_file_equals_individual_knobs(self, tmp_path, spec_file):
        from repro.api.spec import ExecutionPolicy

        policy_path = tmp_path / "policy.json"
        policy_path.write_text(
            ExecutionPolicy(engine="streaming", chunk_size=128).to_json()
        )
        main(["run", str(spec_file), "--run-dir", str(tmp_path / "policy"),
              "--policy", str(policy_path), "--quiet"])
        main(["run", str(spec_file), "--run-dir", str(tmp_path / "knobs"),
              "--engine", "streaming", "--chunk-size", "128", "--quiet"])
        assert (
            RunStore.open(tmp_path / "policy").digest()
            == RunStore.open(tmp_path / "knobs").digest()
        )

    def test_policy_plus_knobs_rejected(self, tmp_path, spec_file):
        policy_path = tmp_path / "policy.json"
        policy_path.write_text('{"engine": "streaming"}')
        with pytest.raises(SystemExit, match="not both"):
            main(["run", str(spec_file), "--run-dir", str(tmp_path / "run"),
                  "--policy", str(policy_path), "--engine", "batch", "--quiet"])

    def test_missing_policy_file_rejected(self, tmp_path, spec_file):
        with pytest.raises(SystemExit, match="does not exist"):
            main(["run", str(spec_file), "--run-dir", str(tmp_path / "run"),
                  "--policy", str(tmp_path / "nope.json"), "--quiet"])

    def test_invalid_policy_file_rejected(self, tmp_path, spec_file):
        policy_path = tmp_path / "policy.json"
        policy_path.write_text('{"engine": "warp"}')
        with pytest.raises(SystemExit, match="cannot load execution policy"):
            main(["run", str(spec_file), "--run-dir", str(tmp_path / "run"),
                  "--policy", str(policy_path), "--quiet"])

    @pytest.mark.parametrize("command", ["run", "resume"])
    def test_policy_file_with_checkpoint_every_rejected(
        self, tmp_path, spec_file, command
    ):
        """A policy file from a build that checkpointed mid-interval is refused by name."""
        run_dir = tmp_path / "run"
        if command == "resume":
            main(["run", str(spec_file), "--run-dir", str(run_dir),
                  "--max-intervals", "1", "--quiet"])
        policy_path = tmp_path / "policy.json"
        policy_path.write_text('{"engine": "streaming", "checkpoint_every": 2}')
        target = str(spec_file) if command == "run" else str(run_dir)
        args = [command, target, "--policy", str(policy_path), "--quiet"]
        if command == "run":
            args[2:2] = ["--run-dir", str(run_dir)]
        with pytest.raises(SystemExit, match="cannot load execution policy.*'checkpoint_every'"):
            main(args)
        if command == "run":
            assert not run_dir.exists()
        else:
            assert RunStore.open(run_dir).record_count == 1


class TestResumeAndReport:
    def test_kill_resume_byte_identical(self, tmp_path, spec_file, capsys):
        main(["run", str(spec_file), "--run-dir", str(tmp_path / "full"), "--quiet"])
        main(
            [
                "run",
                str(spec_file),
                "--run-dir",
                str(tmp_path / "part"),
                "--max-intervals",
                "2",
                "--quiet",
            ]
        )
        status = main(["resume", str(tmp_path / "part"), "--quiet"])
        assert status == 0
        full = RunStore.open(tmp_path / "full")
        part = RunStore.open(tmp_path / "part")
        assert full.digest() == part.digest()

    def test_kill_inside_interval_resume_byte_identical(
        self, tmp_path, spec_file, capsys, monkeypatch
    ):
        """Ctrl-C between two chunks of interval 2: resume re-runs it from its start."""
        from repro.engine.streaming import ScenarioStream

        main(["run", str(spec_file), "--run-dir", str(tmp_path / "full"), "--quiet"])
        original_push = ScenarioStream.push
        pushes: list[int] = []

        def push_then_kill(self, chunk):
            pushes.append(1)
            if len(pushes) == 6:  # 400 packets in 128-packet chunks: 4 per interval
                raise KeyboardInterrupt
            return original_push(self, chunk)

        with monkeypatch.context() as patch:
            patch.setattr(ScenarioStream, "push", push_then_kill)
            status = main(["run", str(spec_file), "--run-dir", str(tmp_path / "part"),
                           "--engine", "streaming", "--chunk-size", "128", "--quiet"])
        assert status == 130
        assert "interrupted after 1 completed interval(s)" in capsys.readouterr().err
        assert RunStore.open(tmp_path / "part").record_count == 1

        status = main(["resume", str(tmp_path / "part"), "--engine", "streaming",
                       "--chunk-size", "128", "--quiet"])
        assert status == 0
        for name in ("records.jsonl", "summary.json"):
            assert (tmp_path / "part" / name).read_bytes() == (
                tmp_path / "full" / name
            ).read_bytes()

    def test_resume_with_engine_override(self, tmp_path, spec_file):
        main(["run", str(spec_file), "--run-dir", str(tmp_path / "full"), "--quiet"])
        main(
            ["run", str(spec_file), "--run-dir", str(tmp_path / "mixed"),
             "--max-intervals", "1", "--quiet"]
        )
        status = main(
            ["resume", str(tmp_path / "mixed"), "--engine", "streaming",
             "--chunk-size", "128", "--quiet"]
        )
        assert status == 0
        assert (
            RunStore.open(tmp_path / "mixed").digest()
            == RunStore.open(tmp_path / "full").digest()
        )

    def test_resume_refuses_another_record_version_report_reads_it(
        self, tmp_path, spec_file, capsys
    ):
        main(
            ["run", str(spec_file), "--run-dir", str(tmp_path / "old"),
             "--max-intervals", "2", "--quiet"]
        )
        rewrite_record_version(RunStore.open(tmp_path / "old"), 1)
        with pytest.raises(SystemExit, match="record version 1"):
            main(["resume", str(tmp_path / "old"), "--quiet"])
        capsys.readouterr()
        assert main(["report", str(tmp_path / "old")]) == 0
        assert "2/3 intervals" in capsys.readouterr().out

    def test_resume_rejects_non_store(self, tmp_path):
        with pytest.raises(SystemExit, match="not a run store"):
            main(["resume", str(tmp_path / "nowhere"), "--quiet"])

    def test_report_prints_verdict_table(self, tmp_path, spec_file, capsys):
        main(["run", str(spec_file), "--run-dir", str(tmp_path / "run"), "--quiet"])
        capsys.readouterr()
        status = main(["report", str(tmp_path / "run")])
        assert status == 0
        out = capsys.readouterr().out
        assert "campaign 'cli-test': 3/3 intervals" in out
        assert "SLA" in out and "sla verdict" in out
        assert "COMPLIANT" in out
        # one row per interval plus the campaign-level row
        assert out.count("accepted") >= 3

    def test_report_on_partial_store(self, tmp_path, spec_file, capsys):
        main(
            ["run", str(spec_file), "--run-dir", str(tmp_path / "part"),
             "--max-intervals", "1", "--quiet"]
        )
        capsys.readouterr()
        assert main(["report", str(tmp_path / "part")]) == 0
        assert "1/3 intervals" in capsys.readouterr().out

    def test_report_warns_when_summary_disagrees_with_records(
        self, tmp_path, spec_file, capsys
    ):
        main(["run", str(spec_file), "--run-dir", str(tmp_path / "run"), "--quiet"])
        assert main(["report", str(tmp_path / "run")]) == 0
        assert "WARNING" not in capsys.readouterr().err
        summary_path = tmp_path / "run" / "summary.json"
        summary = json.loads(summary_path.read_text())
        summary["intervals"] += 1
        summary_path.write_text(json.dumps(summary))
        assert main(["report", str(tmp_path / "run")]) == 0
        assert "the store has been edited" in capsys.readouterr().err

    def test_report_json_is_byte_stable(self, tmp_path, spec_file, capsys):
        from repro.service.report import run_report
        from repro.store import stable_json

        main(["run", str(spec_file), "--run-dir", str(tmp_path / "run"), "--quiet"])
        capsys.readouterr()
        assert main(["report", str(tmp_path / "run"), "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["report", str(tmp_path / "run"), "--json"]) == 0
        second = capsys.readouterr().out
        # Byte-stable machine-readable output: repeated invocations emit the
        # identical bytes, and they are exactly the service's report payload.
        assert first == second
        payload = json.loads(first)
        assert first == stable_json(run_report(RunStore.open(tmp_path / "run"))) + "\n"
        assert payload["intervals"] == {"total": 3, "completed": 3, "complete": True}
        assert payload["summary_matches_store"] is True
        assert "delay_samples" not in payload["records"][0]


# Prints one line, waits for stdin to close, then runs ``repro`` on argv.
_AFTER_ONE_LINE = (
    "import sys\n"
    "print('ready', flush=True)\n"
    "sys.stdin.read()\n"
    "from repro.cli import main\n"
    "raise SystemExit(main(sys.argv[1:]))\n"
)


class TestClosedStdout:
    def test_report_into_a_closed_pipe_exits_non_zero_without_traceback(
        self, tmp_path, spec_file
    ):
        main(["run", str(spec_file), "--run-dir", str(tmp_path / "run"), "--quiet"])
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        child = subprocess.Popen(
            [sys.executable, "-c", _AFTER_ONE_LINE, "report", str(tmp_path / "run")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        # The reader takes one line and goes away before the report is written.
        assert child.stdout.readline() == b"ready\n"
        child.stdout.close()
        child.stdin.close()
        status = child.wait(timeout=60)
        with child.stderr:
            stderr = child.stderr.read().decode()
        assert status == 1, stderr
        assert "Traceback" not in stderr
        assert "BrokenPipeError" not in stderr


class TestListCommand:
    def test_list_table_and_json(self, tmp_path, spec, spec_file, capsys):
        runs = tmp_path / "runs"
        main(["run", str(spec_file), "--runs-dir", str(runs), "--quiet"])
        main(["run", str(spec_file), "--run-dir", str(runs / "partial"),
              "--max-intervals", "1", "--quiet"])
        capsys.readouterr()

        assert main(["list", "--runs-dir", str(runs)]) == 0
        out = capsys.readouterr().out
        assert f"cli-test-{spec.spec_hash()[:10]}" in out
        assert "partial" in out
        assert "complete" in out and "in progress" in out

        assert main(["list", "--runs-dir", str(runs), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [entry["run"] for entry in payload["runs"]] == sorted(
            entry["run"] for entry in payload["runs"]
        )
        by_run = {entry["run"]: entry for entry in payload["runs"]}
        assert by_run["partial"]["intervals"] == {
            "total": 3,
            "completed": 1,
            "complete": False,
        }
        full = by_run[f"cli-test-{spec.spec_hash()[:10]}"]
        assert full["intervals"]["complete"] is True
        assert full["sla_compliant"] is True

    def test_list_empty_root(self, tmp_path, capsys):
        assert main(["list", "--runs-dir", str(tmp_path / "nothing")]) == 0
        assert "no run stores" in capsys.readouterr().out
