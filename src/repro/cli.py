"""The ``repro`` command-line interface.

Campaigns are the protocol's unit of accountability — a spec is contracted,
run over N intervals, and its durable store is what a customer audits later.
The CLI covers that whole lifecycle:

* ``repro run spec.json`` — create a run store and execute the campaign,
  committing every interval; safe to kill at any instant.
* ``repro resume runs/<id>`` — continue a (possibly killed) run from its last
  completed interval, re-running an interrupted interval from its start; the
  finished store is byte-identical to an
  uninterrupted run, whatever engine either invocation used.
* ``repro report runs/<id>`` — the campaign SLA verdict table (per-interval
  history + campaign-level pooled statistics and verdicts); ``--json`` emits
  the byte-stable machine-readable report the service API and dashboard
  consume (:func:`repro.service.report.run_report`).
* ``repro compare runs/<a> runs/<b> ...`` — per-domain statistics side by
  side across runs; sketch-tier runs are annotated with their guaranteed
  quantile error bound so precision differences are visible.
* ``repro list [--runs-dir]`` — every run store under a root, with progress
  and campaign SLA verdicts (the same scan the service's ``RunIndex`` uses).
* ``repro serve`` — the measurement service: HTTP API + job queue + browser
  dashboard over a store root (see :mod:`repro.service`).

Engine selection (``--engine``, ``--chunk-size``, ``--throttle``, or one
declarative ``--policy policy.json`` — an
:class:`~repro.api.spec.ExecutionPolicy`) is an execution-only knob: the
engines produce byte-identical results, so a store written by one engine
resumes and verifies under any other.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Callable, NoReturn, Sequence

from repro.api.spec import ENGINES, CampaignSpec, ExecutionPolicy
from repro.engine.campaign import (
    CampaignEvent,
    CampaignRunner,
    IntervalCommitted,
)
from repro.store import RunStore, RunStoreError, stable_json

__all__ = ["main"]


def _fail(message: str) -> NoReturn:
    raise SystemExit(f"repro: error: {message}")


def _knobs_given(args: argparse.Namespace) -> bool:
    """Whether any individual execution knob was passed."""
    return (
        args.engine is not None
        or args.chunk_size is not None
        or args.throttle != 0.0
    )


def _build_policy(spec: CampaignSpec, args: argparse.Namespace) -> ExecutionPolicy:
    """Build the run's :class:`ExecutionPolicy` and validate it against the
    spec's cell, before any work (and before a store is created)."""
    if args.policy is not None:
        if _knobs_given(args):
            _fail(
                "pass either --policy or the individual --engine/--chunk-size/"
                "--throttle knobs, not both"
            )
        policy_path = Path(args.policy)
        if not policy_path.exists():
            _fail(f"policy file {args.policy} does not exist")
        try:
            policy = ExecutionPolicy.from_json(policy_path.read_text())
        except (ValueError, json.JSONDecodeError) as exc:
            _fail(f"cannot load execution policy from {args.policy}: {exc}")
    else:
        try:
            policy = ExecutionPolicy(
                engine=args.engine,
                chunk_size=args.chunk_size,
                throttle=args.throttle,
            )
        except ValueError as exc:
            _fail(str(exc))
    try:
        return policy.bind(spec.cell)
    except ValueError as exc:
        _fail(str(exc))


def _load_spec(path: str) -> CampaignSpec:
    spec_path = Path(path)
    if not spec_path.exists():
        _fail(f"spec file {path} does not exist")
    try:
        return CampaignSpec.from_json(spec_path.read_text())
    except (ValueError, json.JSONDecodeError) as exc:
        _fail(f"cannot load campaign spec from {path}: {exc}")


def _execution_knobs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--engine",
        choices=ENGINES,
        default=None,
        help="execution-only engine override (results are byte-identical)",
    )
    parser.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        help="trace packets per streaming chunk",
    )
    parser.add_argument(
        "--policy",
        default=None,
        metavar="POLICY.JSON",
        help="load every execution knob from an ExecutionPolicy JSON file "
        "(mutually exclusive with the individual knobs above)",
    )
    parser.add_argument(
        "--max-intervals",
        type=int,
        default=None,
        metavar="K",
        help="stop after K further intervals (deterministic partial run; "
        "resume later with `repro resume`)",
    )
    parser.add_argument(
        "--throttle",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="sleep after each committed interval "
        "(lets a test harness kill the run mid-campaign deterministically)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-interval progress"
    )


def _progress(spec: CampaignSpec, quiet: bool) -> Callable[[CampaignEvent], None]:
    """The progress printer of ``run``, ``resume`` and ``dispatch``."""

    def progress(event: CampaignEvent) -> None:
        if quiet:
            return
        if isinstance(event, IntervalCommitted):
            record = event.record
            flags = " ".join(
                f"{domain}:{'ok' if verdict['accepted'] else 'REJECTED'}"
                if verdict["accepted"] is not None
                else f"{domain}:unverified"
                for domain, verdict in sorted(record["verdicts"].items())
            )
            print(
                f"interval {record['interval'] + 1}/{spec.intervals} done "
                f"[receipts {record['receipts_digest'][:12]}] {flags}",
                flush=True,
            )

    return progress


def _drive(runner: CampaignRunner, args: argparse.Namespace, store: RunStore) -> int:
    spec = runner.spec
    try:
        outcome = runner.run(
            max_intervals=args.max_intervals, on_event=_progress(spec, args.quiet)
        )
    except KeyboardInterrupt:
        print(
            f"\ninterrupted after {runner.next_interval} completed interval(s); "
            f"continue with: repro resume {store.path}",
            file=sys.stderr,
        )
        return 130
    if outcome.completed:
        if not args.quiet:
            print(f"campaign complete: {store.path} ({spec.intervals} intervals)")
            _print_report(store)
    else:
        print(
            f"stopped after {outcome.next_interval}/{spec.intervals} intervals; "
            f"continue with: repro resume {store.path}"
        )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    if args.run_dir is not None:
        run_dir = Path(args.run_dir)
    else:
        run_id = f"{spec.name}-{spec.spec_hash()[:10]}"
        run_dir = Path(args.runs_dir) / run_id
    policy = _build_policy(spec, args)
    try:
        store = RunStore.create(run_dir, spec)
    except RunStoreError as exc:
        _fail(str(exc))
    if not args.quiet:
        print(f"run store: {run_dir} (spec hash {spec.spec_hash()[:12]})")
    runner = CampaignRunner(spec, store, policy=policy)
    return _drive(runner, args, store)


def _worker(args: argparse.Namespace) -> int:
    """The ``--worker-only`` body: a worker with no access to the store.

    Everything but the coordinator URL, run id and worker identity is
    rejected — the spec, execution policy and lease all come from the
    coordinator's config endpoint, so every worker in the pool is guaranteed
    to compute under the coordinator's exact terms.
    """
    from repro.dist.dispatch import DispatchError, DispatchWorker
    from repro.dist.net import HTTPTransport

    if args.coordinator is None or args.run_id is None:
        _fail(
            "--worker-only needs --coordinator URL and --run-id (printed by "
            "the coordinator at startup)"
        )
    if args.run_dir is not None:
        _fail(
            "a worker shares no filesystem with the coordinator; drop the "
            "RUN_DIR argument"
        )
    if args.spec is not None:
        _fail("--spec applies to the coordinator; workers fetch it from it")
    if args.lease is not None:
        _fail("the lease is coordinator-defined; --lease applies to the coordinator")
    if args.chaos_seed is not None or args.chaos_kills:
        _fail("--chaos-seed/--chaos-kills apply to the coordinator only")
    if _knobs_given(args) or args.policy is not None:
        _fail(
            "execution knobs apply to the coordinator; workers compute under "
            "the policy its config endpoint serves"
        )
    try:
        transport = HTTPTransport(
            args.coordinator, args.run_id, worker_id=args.worker_id
        )
        worker = DispatchWorker(transport)
        computed = worker.run()
    except DispatchError as exc:
        _fail(str(exc))
    if not args.quiet:
        print(f"worker {worker.worker_id}: computed {computed} interval(s)")
    return 0


def _cmd_dispatch(args: argparse.Namespace) -> int:
    from repro.dist.dispatch import (
        DEFAULT_LEASE,
        ChaosSchedule,
        DispatchCoordinator,
        DispatchError,
    )

    if args.worker_only:
        return _worker(args)
    if args.coordinator is not None or args.run_id is not None:
        _fail(
            "--coordinator/--run-id describe a remote coordinator and apply "
            "to `--worker-only` workers only"
        )
    if args.run_dir is None:
        _fail(
            "dispatch needs the run-store directory (RUN_DIR) except for "
            "`--worker-only` workers"
        )
    run_dir = Path(args.run_dir).resolve()
    if args.spec is not None and not (run_dir / "spec.json").exists():
        spec = _load_spec(args.spec)
        try:
            store = RunStore.create(run_dir, spec)
        except RunStoreError as exc:
            _fail(str(exc))
        if not args.quiet:
            print(f"run store: {run_dir} (spec hash {spec.spec_hash()[:12]})")
    else:
        try:
            store = RunStore.open(run_dir)
        except RunStoreError as exc:
            _fail(str(exc))
        if args.spec is not None:
            try:
                store.validate_spec(_load_spec(args.spec))
            except RunStoreError as exc:
                _fail(str(exc))
    lease = args.lease if args.lease is not None else DEFAULT_LEASE
    if lease <= 0:
        _fail(f"--lease must be > 0 seconds, got {lease}")
    if args.max_intervals is not None:
        _fail(
            "dispatch runs a campaign to completion; --max-intervals applies "
            "to `repro run`/`repro resume`"
        )
    policy = _build_policy(store.spec(), args)
    if args.chaos_kills and args.chaos_seed is None:
        _fail("--chaos-kills needs --chaos-seed so the kill schedule reproduces")
    chaos = None
    if args.chaos_seed is not None:
        chaos = ChaosSchedule(seed=args.chaos_seed, kills=args.chaos_kills)
    spec = store.spec()
    try:
        coordinator = DispatchCoordinator(
            store,
            policy=policy,
            workers=args.workers,
            lease=lease,
            chaos=chaos,
            on_event=_progress(spec, args.quiet),
            http_host=args.http_host,
            http_port=args.http_port,
        )
    except RunStoreError as exc:
        _fail(str(exc))
    if not args.quiet:
        print(
            f"dispatch coordinator: {coordinator.http_url}/api/v1/dispatch/"
            f"{coordinator.run_id} (workers connect with: repro dispatch "
            f"--worker-only --coordinator {coordinator.http_url} "
            f"--run-id {coordinator.run_id})",
            flush=True,
        )
    try:
        coordinator.run()
    except KeyboardInterrupt:
        print(
            f"\ninterrupted after {store.next_interval} committed interval(s); "
            f"continue with: repro dispatch {store.path}",
            file=sys.stderr,
        )
        return 130
    except (DispatchError, RunStoreError) as exc:
        _fail(str(exc))
    if not args.quiet:
        print(f"campaign complete: {store.path} ({spec.intervals} intervals)")
        _print_report(store)
    return 0


def _cmd_resume(args: argparse.Namespace) -> int:
    try:
        store = RunStore.open(args.run_dir)
    except RunStoreError as exc:
        _fail(str(exc))
    policy = _build_policy(store.spec(), args)
    try:
        runner = CampaignRunner.resume(store, policy=policy)
    except RunStoreError as exc:
        _fail(str(exc))
    if not args.quiet:
        print(
            f"resuming {store.path} from interval "
            f"{runner.next_interval + 1}/{runner.spec.intervals}"
        )
    return _drive(runner, args, store)


def _format_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [
        max(len(str(header)), *(len(str(row[i])) for row in rows)) if rows else len(header)
        for i, header in enumerate(headers)
    ]
    lines = [
        "  ".join(str(header).ljust(width) for header, width in zip(headers, widths)),
        "  ".join("-" * width for width in widths),
    ]
    for row in rows:
        lines.append("  ".join(str(cell).ljust(width) for cell, width in zip(row, widths)))
    return "\n".join(lines)


def _print_report(store: RunStore) -> None:
    """The text rendering of :func:`repro.service.report.run_report`."""
    from repro.service.report import run_report

    report = run_report(store)
    intervals = report["intervals"]
    summary = report["summary"] or {"domains": {}}
    sla = report["sla"]
    quantile_key = repr(float(sla["delay_quantile"])) if sla is not None else None

    print(f"campaign {report['name']!r}: {intervals['completed']}/{intervals['total']} "
          f"intervals (spec hash {report['spec_hash'][:12]})")
    if sla is not None:
        print(
            f"SLA {sla['name']!r}: delay <= {sla['delay_bound'] * 1e3:g} ms at "
            f"q={sla['delay_quantile']:g}, loss <= {sla['loss_bound'] * 100:g} %"
        )

    rows = []
    for record in report["records"]:
        for domain, estimate in sorted(record["estimates"].items()):
            verdict = record["verdicts"][domain]
            delay_text = "n/a"
            quantile_payload = estimate["quantiles"]
            if quantile_payload:
                key = (
                    quantile_key
                    if quantile_key in quantile_payload
                    else sorted(quantile_payload)[0]
                )
                delay_text = f"{quantile_payload[key]['estimate'] * 1e3:.3f}"
            rows.append(
                (
                    record["interval"],
                    domain,
                    delay_text,
                    f"{estimate['loss_rate'] * 100:.3f}",
                    {True: "accepted", False: "REJECTED", None: "unverified"}[
                        verdict["accepted"]
                    ],
                    {True: "ok", False: "VIOLATED", None: "-"}[
                        verdict["sla_compliant"]
                    ],
                )
            )
    print()
    print(
        _format_table(
            ("interval", "domain", "delay[ms]", "loss[%]", "receipts", "sla"), rows
        )
    )

    print()
    campaign_rows = []
    sketch_tiers = set()
    for domain, entry in sorted(summary["domains"].items()):
        delay_text = "n/a"
        if entry["pooled_quantiles"]:
            key = (
                quantile_key
                if quantile_key in entry["pooled_quantiles"]
                else sorted(entry["pooled_quantiles"])[0]
            )
            payload = entry["pooled_quantiles"][key]
            delay_text = f"{payload['estimate'] * 1e3:.3f}"
            if entry.get("estimation") is not None:
                # Sketch estimates are honest about their guaranteed error.
                delay_text += f" ±{(payload['upper'] - payload['estimate']) * 1e3:.3f}"
        if entry.get("estimation") is not None:
            tier = entry["estimation"]
            sketch_tiers.add((tier["sketch_size"], tier["relative_error_bound"]))
        campaign_rows.append(
            (
                domain,
                entry["delay_sample_count"],
                delay_text,
                f"{entry['loss_rate'] * 100:.3f}",
                f"{entry['acceptance_rate'] * 100:.0f}%",
                {True: "COMPLIANT", False: "IN VIOLATION", None: "-"}[
                    entry["sla_compliant"]
                ],
            )
        )
    print(
        _format_table(
            ("domain", "samples", "pooled delay[ms]", "loss[%]", "accepted", "sla verdict"),
            campaign_rows,
        )
    )
    for size, bound in sorted(sketch_tiers):
        print(
            f"estimation tier: sketch (size {size}, guaranteed relative "
            f"error <= {bound:.3%})"
        )

    if report["summary_matches_store"] is False:
        print(
            "\nWARNING: persisted summary.json disagrees with the summary "
            "recomputed from the records — the store has been edited",
            file=sys.stderr,
        )


def _cmd_report(args: argparse.Namespace) -> int:
    try:
        store = RunStore.open(args.run_dir)
    except RunStoreError as exc:
        _fail(str(exc))
    if args.json:
        from repro.service.report import run_report

        # stable_json makes the emitted bytes a pure function of the store:
        # CI, the dashboard and scripts all diff this exact serialization.
        print(stable_json(run_report(store)))
        return 0
    _print_report(store)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.service.report import compare_runs

    if len(args.run_dirs) < 2:
        _fail("compare needs at least two run stores")
    try:
        stores = [RunStore.open(run_dir) for run_dir in args.run_dirs]
    except RunStoreError as exc:
        _fail(str(exc))
    payload = compare_runs(stores)
    if args.json:
        print(stable_json(payload))
        return 0
    for run in payload["runs"]:
        state = "complete" if run["intervals"]["complete"] else "in progress"
        verdict = {True: "COMPLIANT", False: "IN VIOLATION", None: "-"}[
            run["sla_compliant"]
        ]
        print(
            f"run {run['run']!r}: campaign {run['name']!r}, "
            f"{run['intervals']['completed']}/{run['intervals']['total']} "
            f"intervals ({state}), sla {verdict}"
        )
    for domain, per_run in sorted(payload["domains"].items()):
        rows = []
        for run_id, entry in per_run.items():
            delay_text = "n/a"
            if entry["pooled_quantiles"]:
                key = sorted(entry["pooled_quantiles"])[0]
                quantile = entry["pooled_quantiles"][key]
                delay_text = f"{quantile['estimate'] * 1e3:.3f}"
                if entry.get("estimation") is not None:
                    delay_text += (
                        f" ±{(quantile['upper'] - quantile['estimate']) * 1e3:.3f}"
                    )
            tier = entry.get("estimation")
            tier_text = (
                f"sketch ±{tier['relative_error_bound']:.3%}"
                if tier is not None
                else "exact"
            )
            rows.append(
                (
                    run_id,
                    entry["delay_sample_count"],
                    delay_text,
                    f"{entry['loss_rate'] * 100:.3f}",
                    f"{entry['acceptance_rate'] * 100:.0f}%",
                    tier_text,
                    {True: "COMPLIANT", False: "IN VIOLATION", None: "-"}[
                        entry["sla_compliant"]
                    ],
                )
            )
        print()
        print(f"domain {domain}:")
        print(
            _format_table(
                (
                    "run",
                    "samples",
                    "delay[ms]",
                    "loss[%]",
                    "accepted",
                    "estimation",
                    "sla verdict",
                ),
                rows,
            )
        )
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.service.index import RunIndex

    root = Path(args.runs_dir)
    entries = RunIndex(root).entries()
    if args.json:
        print(stable_json({"runs": [entry.to_dict() for entry in entries]}))
        return 0
    if not entries:
        print(f"no run stores under {root}")
        return 0
    rows = [
        (
            entry.run_id,
            entry.name,
            f"{entry.completed}/{entry.intervals}",
            "complete" if entry.complete else "in progress",
            {True: "COMPLIANT", False: "IN VIOLATION", None: "-"}[
                entry.sla_compliant
            ],
            entry.spec_hash[:12],
        )
        for entry in entries
    ]
    print(
        _format_table(
            ("run", "campaign", "intervals", "state", "sla verdict", "spec hash"),
            rows,
        )
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.app import serve

    if args.port < 0 or args.port > 65535:
        _fail(f"--port must be in [0, 65535], got {args.port}")
    if args.workers < 1:
        _fail(f"--workers must be >= 1, got {args.workers}")
    if args.dispatch_workers is not None and args.dispatch_workers < 1:
        _fail(f"--dispatch-workers must be >= 1, got {args.dispatch_workers}")
    serve(
        store_root=args.store_root,
        host=args.host,
        port=args.port,
        workers=args.workers,
        dispatch_workers=args.dispatch_workers,
        quiet=args.quiet,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Verifiable network-performance measurement campaigns "
        "(resumable runs, durable stores).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser(
        "run", help="run a campaign spec into a fresh run store"
    )
    run_parser.add_argument("spec", help="path to a CampaignSpec JSON file")
    run_parser.add_argument(
        "--runs-dir",
        default="runs",
        help="directory holding run stores (default: ./runs)",
    )
    run_parser.add_argument(
        "--run-dir",
        default=None,
        help="explicit run-store directory (overrides --runs-dir/<id>)",
    )
    _execution_knobs(run_parser)
    run_parser.set_defaults(handler=_cmd_run)

    resume_parser = commands.add_parser(
        "resume", help="continue a (possibly killed) run from its store"
    )
    resume_parser.add_argument("run_dir", help="the run-store directory")
    _execution_knobs(resume_parser)
    resume_parser.set_defaults(handler=_cmd_resume)

    dispatch_parser = commands.add_parser(
        "dispatch",
        help="run a campaign across a pool of workers (distributed dispatch); "
        "the finished store is byte-identical to a single-host `repro run`",
    )
    dispatch_parser.add_argument(
        "run_dir",
        nargs="?",
        default=None,
        help="the run-store directory the coordinator writes (create it here "
        "with --spec if it does not exist yet).  Omitted for `--worker-only` "
        "workers, which need no filesystem access at all",
    )
    dispatch_parser.add_argument(
        "--spec",
        default=None,
        metavar="SPEC.JSON",
        help="create the run store from this CampaignSpec when RUN_DIR holds "
        "none (validated against the store otherwise)",
    )
    dispatch_parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="local worker processes to spawn (default: 2; 0 = commit-only "
        "coordinator fed by --worker-only processes on other hosts)",
    )
    dispatch_parser.add_argument(
        "--lease",
        type=float,
        default=None,
        metavar="SECONDS",
        help="interval claim lease, timed on the coordinator's clock; a worker "
        "that stops heartbeating for this long is presumed dead and its "
        "interval is re-claimed (default: 30; coordinator only)",
    )
    dispatch_parser.add_argument(
        "--coordinator",
        default=None,
        metavar="URL",
        help="the coordinator's base URL (with --worker-only; printed by the "
        "coordinator at startup)",
    )
    dispatch_parser.add_argument(
        "--run-id",
        default=None,
        help="the dispatching run's id on the coordinator (with --worker-only)",
    )
    dispatch_parser.add_argument(
        "--http-host",
        default="127.0.0.1",
        metavar="HOST",
        help="bind address for the coordinator's dispatch endpoints "
        "(default: 127.0.0.1; use 0.0.0.0 for remote workers)",
    )
    dispatch_parser.add_argument(
        "--http-port",
        type=int,
        default=0,
        metavar="PORT",
        help="bind port for the coordinator's dispatch endpoints "
        "(default: 0 = ephemeral)",
    )
    dispatch_parser.add_argument(
        "--worker-only",
        action="store_true",
        help="run one claim/compute/upload worker against --coordinator URL "
        "--run-id ID and exit when no work remains (the remote-host role; "
        "the coordinator commits)",
    )
    dispatch_parser.add_argument(
        "--worker-id",
        default=None,
        help="stable worker identity for claims (default: <host>-<pid>)",
    )
    dispatch_parser.add_argument(
        "--chaos-seed",
        type=int,
        default=None,
        metavar="SEED",
        help="chaos hook: SIGKILL local workers mid-interval on a seeded, "
        "reproducible schedule (testing/CI)",
    )
    dispatch_parser.add_argument(
        "--chaos-kills",
        type=int,
        default=0,
        metavar="K",
        help="number of chaos kills to deliver (requires --chaos-seed)",
    )
    _execution_knobs(dispatch_parser)
    dispatch_parser.set_defaults(handler=_cmd_dispatch)

    report_parser = commands.add_parser(
        "report", help="print the campaign SLA verdict table for a run store"
    )
    report_parser.add_argument("run_dir", help="the run-store directory")
    report_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the byte-stable machine-readable report (the same "
        "serialization the service API and dashboard consume)",
    )
    report_parser.set_defaults(handler=_cmd_report)

    compare_parser = commands.add_parser(
        "compare",
        help="compare per-domain campaign statistics across run stores "
        "(sketch-tier runs are annotated with their error bound)",
    )
    compare_parser.add_argument(
        "run_dirs", nargs="+", metavar="RUN_DIR", help="two or more run stores"
    )
    compare_parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    compare_parser.set_defaults(handler=_cmd_compare)

    list_parser = commands.add_parser(
        "list", help="list every run store under a runs directory"
    )
    list_parser.add_argument(
        "--runs-dir",
        default="runs",
        help="directory holding run stores (default: ./runs)",
    )
    list_parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    list_parser.set_defaults(handler=_cmd_list)

    serve_parser = commands.add_parser(
        "serve",
        help="run the measurement service (HTTP API + job queue + dashboard) "
        "over a store root",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve_parser.add_argument(
        "--port", type=int, default=8642, help="bind port (default: 8642; 0 = ephemeral)"
    )
    serve_parser.add_argument(
        "--store-root",
        default="runs",
        help="directory holding run stores (default: ./runs; created if missing)",
    )
    serve_parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="concurrent campaign workers (default: 2)",
    )
    serve_parser.add_argument(
        "--dispatch-workers",
        type=int,
        default=None,
        help="run each campaign attempt as a `repro dispatch` coordinator with "
        "this many worker processes (default: a kill-safe `repro resume` child)",
    )
    serve_parser.add_argument(
        "--quiet", action="store_true", help="suppress the startup banner"
    )
    serve_parser.set_defaults(handler=_cmd_serve)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.handler(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone (``repro report ... | head``): point stdout at
        # the null device, so the flush at exit cannot fail again, and exit
        # non-zero without a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
