"""One rep: a whole campaign of one workload, in a fresh process.

Started by ``perfbench/run.py``; writes its measurements as JSON to
``--out``.  A fresh process per rep is what keeps every rep cold (no trace
cached by an earlier campaign in the same interpreter) and what makes
``ru_maxrss`` the peak of this campaign alone.

Set-up time runs from ``--launch`` (the orchestrator's ``time.monotonic()``
just before it started this process; the clock is system-wide) to the start
of the first interval: interpreter start, imports, spec build and
validation, ``RunStore.create``, runner or coordinator construction
(including the dispatch HTTP bind and, for dispatch, the workers' start-up
until the first claim is granted).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Intervals the traced mesh rep replays in-process for the compute layers.
MESH_REPLAY_INTERVALS = 4


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep", type=int, required=True)
    parser.add_argument("--launch", type=float, required=True)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--recompute", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _peak_rss_mb(with_children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from repro.api.runner import clear_trace_cache
    from repro.dist.dispatch import dispatch_campaign
    from repro.dist.net import DispatchHub
    from repro.engine import campaign
    from repro.engine.campaign import CampaignRunner, IntervalCommitted, RunComplete
    from repro.store import RunStore, stable_json

    from perfbench.checks import check_intervals
    from perfbench.layers import check_trace_inputs, install, layer_metrics
    from perfbench.tracing import Tracer
    from perfbench.workloads import (
        WORKLOADS,
        campaign_spec,
        chosen_intervals,
        execution_policy,
    )

    workload = WORKLOADS[args.workload]
    spec = campaign_spec(workload, args.seed, args.rep)
    policy = execution_policy(workload)
    run_dir = Path(args.run_dir)
    # One clock for spans and event stamps, comparable with the orchestrator's.
    tracer = Tracer(clock=time.monotonic) if args.trace else None
    if tracer is not None:
        install(tracer)

    starts: dict[int, float] = {}
    committed: dict[int, float] = {}
    commit_order: list[int] = []
    finished: list[float] = []

    def on_event(event) -> None:
        now = time.monotonic()
        if isinstance(event, IntervalCommitted):
            committed[event.interval] = now
            commit_order.append(event.interval)
        elif isinstance(event, RunComplete):
            finished.append(now)

    coordinator_start = None
    if workload.entry == "runner":
        store = RunStore.create(run_dir, spec)
        runner = CampaignRunner(spec, store, policy=policy)
        run_interval = runner.run_interval

        def timed_interval(index: int):
            starts[index] = time.monotonic()
            if tracer is None:
                return run_interval(index)
            span = tracer.start("interval", index)
            try:
                return run_interval(index)
            finally:
                tracer.finish(span)

        runner.run_interval = timed_interval
        runner.run(on_event=on_event)
    else:
        # An interval starts when its (first) claim is granted.
        claim = DispatchHub.claim

        def stamped_claim(self, interval, worker):
            granted = claim(self, interval, worker)
            starts.setdefault(interval, time.monotonic())
            return granted

        DispatchHub.claim = stamped_claim
        coordinator_start = time.monotonic()
        dispatch_campaign(
            run_dir,
            spec,
            policy=policy,
            workers=workload.workers,
            transport="http",
            on_event=on_event,
        )
        DispatchHub.claim = claim

    peak_rss_mb = _peak_rss_mb(with_children=workload.entry == "dispatch")
    first_start = min(starts.values())
    timed_s = finished[0] - first_start
    lines = (run_dir / "records.jsonl").read_bytes().splitlines(keepends=True)
    records = [json.loads(line) for line in lines]
    failures = check_intervals(workload, spec.intervals, commit_order, records)

    def recompute(index: int, engine: str | None) -> None:
        # Looked up at call time so the traced replay goes through the wrapper.
        record = campaign.interval_record(
            spec, index, engine=engine, policy=None if engine else policy
        )
        line = (stable_json(record) + "\n").encode("utf-8")
        if index >= len(lines) or line != lines[index]:
            failures[index].append(
                f"recomputed record ({engine or 'in-process'}) differs from committed line"
            )

    # Outside the timed section: one seed-chosen interval on another engine.
    if args.recompute:
        clear_trace_cache()
        (index,) = chosen_intervals(args.seed, spec.intervals, 1)
        recompute(index, workload.recompute_engine)

    result = {
        "setup_s": first_start - args.launch,
        "timed_s": timed_s,
        "intervals": spec.intervals,
        "packets": spec.intervals * workload.packets_per_interval,
        "interval_s": [committed[i] - starts[i] for i in sorted(committed) if i in starts],
        "peak_rss_mb": peak_rss_mb,
        "record_bytes": sum(len(line) for line in lines),
        "failures": failures,
    }
    if tracer is not None:
        traced_intervals = spec.intervals
        if workload.entry == "dispatch":
            # Workers compute in subprocesses the benchmark cannot wrap:
            # replay a seed-chosen sample in-process under the same wrappers.
            clear_trace_cache()
            sample = chosen_intervals(args.seed, spec.intervals, MESH_REPLAY_INTERVALS)
            for index in sample:
                span = tracer.start("interval", index)
                try:
                    recompute(index, None)
                finally:
                    tracer.finish(span)
            traced_intervals = len(sample)
        check_trace_inputs(tracer, traced_intervals, workload.packets_per_interval)
        tracer.counts["store.bytes"] = result["record_bytes"]
        result["layers"] = layer_metrics(
            tracer,
            committed=committed,
            coordinator_start=coordinator_start,
            timed_seconds=timed_s,
            workers=workload.workers,
        )
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
