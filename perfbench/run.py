#!/usr/bin/env python3
"""Benchmark whole measurement campaigns, end to end or layer by layer.

    python3 perfbench/run.py --workload {bulk_stream,fine_batch,mesh_dispatch}
        --seed N --seconds S --trace {0,1}

``--trace 0`` repeats the workload's campaign in fresh processes ("reps",
one campaign at a time, closed loop) for about ``--seconds`` — and at least
3 reps and the workload's minimum interval count — then prints the
end-to-end metrics.  ``--trace 1`` runs the campaign of rep 0
twice, untraced and then with every layer's entry points wrapped, and prints
the per-layer metrics plus the tracing overhead.  Both check every interval
(see ``perfbench/checks.py``); the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` and the exit status is 1
when any check failed.  All scratch files live under ``.perfbench_runs/``
in the repository root and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.layers import PER_LAYER  # noqa: E402
from perfbench.stats import MIN_BEYOND, median, samples_beyond, tail_quantile  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: Fewest reps a timed run makes (set-up time is the median over reps).
MIN_REPS = 3
#: Every rep must end before the run has taken this long.
DEADLINE_S = 170.0

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "pkts_per_s": "pkts/s",
    "interval_s_p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "record_bytes_per_interval": "bytes",
}


class RepFailed(RuntimeError):
    pass


def run_rep(
    workload: str, seed: int, rep: int, scratch: Path, deadline: float, **flags: int
) -> dict:
    """Run one rep in a fresh process (its own session, killed whole on timeout)."""
    out = scratch / f"rep{rep}-{len(list(scratch.iterdir()))}.json"
    run_dir = out.with_suffix("")
    command = [
        sys.executable,
        str(ROOT / "perfbench" / "rep.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--rep", str(rep),
        "--run-dir", str(run_dir),
        "--out", str(out),
        *(arg for name, value in flags.items() for arg in (f"--{name}", str(value))),
    ]
    env = dict(os.environ, TMPDIR=str(scratch))
    launch = time.monotonic()
    child = subprocess.Popen(
        [*command, "--launch", repr(launch)],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        start_new_session=True,
    )
    try:
        status = child.wait(timeout=max(1.0, deadline - launch))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise RepFailed(f"rep {rep} of {workload} ran past the run deadline") from None
    finally:
        # Reap anything the rep left behind (dispatch workers live in its session).
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if status != 0:
        raise RepFailed(f"rep {rep} of {workload} exited with status {status}")
    result = json.loads(out.read_text())
    shutil.rmtree(run_dir, ignore_errors=True)
    return result


def _failed(reps: list[dict]) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    reasons: list[str] = []
    for number, rep in enumerate(reps):
        for interval, failures in enumerate(rep["failures"]):
            attempted += 1
            if failures:
                failed += 1
                reasons.append(f"rep {number} interval {interval}: {'; '.join(failures)}")
    return attempted, failed, reasons


def timed_run(workload, seed: int, seconds: float, scratch: Path) -> tuple[dict, list[dict]]:
    started = time.monotonic()
    deadline = started + DEADLINE_S
    reps: list[dict] = []
    while True:
        rep = len(reps)
        reps.append(
            run_rep(workload.name, seed, rep, scratch, deadline, recompute=int(rep == 0))
        )
        intervals = sum(r["intervals"] for r in reps)
        elapsed = time.monotonic() - started
        # Stop once another rep would end nearer past --seconds than short of it.
        if (
            len(reps) >= MIN_REPS
            and elapsed + elapsed / len(reps) / 2 >= seconds
            and intervals >= workload.min_run_intervals
        ):
            break
    durations = [value for rep in reps for value in rep["interval_s"]]
    metrics = {
        "pkts_per_s": sum(r["packets"] for r in reps) / sum(r["timed_s"] for r in reps),
        "interval_s_p50": median(durations),
        "setup_s": median([r["setup_s"] for r in reps]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
        "record_bytes_per_interval": sum(r["record_bytes"] for r in reps) / intervals,
    }
    p90 = tail_quantile(durations, 0.9)
    beyond = samples_beyond(len(durations), 0.9)
    counts = {
        "pkts_per_s": f"{intervals} intervals over {len(reps)} reps",
        "interval_s_p50": f"n={len(durations)}",
        "setup_s": f"n={len(reps)} reps",
        "peak_rss_mb": f"n={len(reps)} reps",
        "record_bytes_per_interval": f"n={intervals}",
    }
    print(f"{workload.name} seed {seed}: {len(reps)} reps, {intervals} intervals")
    for name, unit in END_TO_END.items():
        print(f"  {name:<28} {metrics[name]:>16.6g} {unit:<7} ({counts[name]})")
    if p90 is None:
        print(
            f"  {'interval_s_p90':<28} {'omitted':>16} {'s':<7} "
            f"(n={len(durations)}: {beyond} beyond p90, needs {MIN_BEYOND})"
        )
    else:
        print(f"  {'interval_s_p90':<28} {p90:>16.6g} {'s':<7} (n={len(durations)})")
    return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()}, reps


def traced_run(workload, seed: int, scratch: Path) -> tuple[dict, list[dict]]:
    deadline = time.monotonic() + DEADLINE_S
    plain = run_rep(workload.name, seed, 0, scratch, deadline)
    traced = run_rep(workload.name, seed, 0, scratch, deadline, trace=1)
    layers = dict(traced["layers"])
    layers["trace.overhead_frac"] = (plain["packets"] / plain["timed_s"]) / (
        traced["packets"] / traced["timed_s"]
    ) - 1.0
    attempted, failed, _ = _failed([plain, traced])
    layers["failed_frac"] = failed / attempted
    print(f"{workload.name} seed {seed}: traced rep 0 ({traced['intervals']} intervals)")
    for name, unit, _ in PER_LAYER:
        print(f"  {name:<32} {layers[name]:>16.6g} {unit}")
    print(
        f"  named-layer coverage of interval time: {layers['trace.coverage_frac']:.1%}; "
        f"tracing overhead {layers['trace.overhead_frac']:+.1%} of untraced pkts/s"
    )
    units = {name: unit for name, unit, _ in PER_LAYER}
    return {name: {"value": layers[name], "unit": units[name]} for name, _, _ in PER_LAYER}, [
        plain,
        traced,
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    scratch = ROOT / ".perfbench_runs" / f"{workload.name}-{args.seed}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            metrics, reps = traced_run(workload, args.seed, scratch)
        else:
            metrics, reps = timed_run(workload, args.seed, args.seconds, scratch)
    except RepFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass
    attempted, failed, reasons = _failed(reps)
    print(f"  failed_frac {failed / attempted:.6g} ({failed} of {attempted} intervals)")
    for reason in reasons:
        print(f"  FAILED {reason}")
    print(
        json.dumps(
            {"correct": not failed, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
