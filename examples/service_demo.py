#!/usr/bin/env python3
"""The measurement service end to end: submit over HTTP, poll, audit.

The paper's system is something customers *query* — providers emit receipts,
users check SLA compliance against them.  This example drives that loop
against a real (ephemeral-port) service instance, entirely over HTTP:

1. starts the service — the threaded stdlib WSGI server, a
   :class:`~repro.service.JobQueue` whose every attempt is a ``repro resume``
   child process, one store root;
2. submits a campaign spec as JSON (``POST /api/v1/jobs``) and shows a bad spec
   dying at the door with the validator's message;
3. follows execution live with the ``?since=`` record cursor (the long-poll
   the dashboard uses) as workers commit intervals;
4. reads the machine-readable report (the same bytes as
   ``repro report --json``) and prints the campaign SLA verdicts;
5. proves the service changed nothing about the science: the HTTP-submitted
   store is byte-identical to a direct in-process run of the same spec.

The same service from the shell::

    repro serve --store-root runs      # dashboard at http://127.0.0.1:8642/

Run:  python examples/service_demo.py
"""

from __future__ import annotations

import json
import tempfile
import threading
import urllib.error
import urllib.request
from pathlib import Path

from repro.api import (
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
from repro.engine.campaign import CampaignRunner
from repro.service import JobQueue, ServiceApp, make_service_server
from repro.store import RunStore

SPEC = CampaignSpec(
    name="service-demo",
    intervals=3,
    cell=ExperimentSpec(
        name="service-demo-cell",
        seed=97,
        traffic=TrafficSpec(workload=None, packet_count=1500),
        path=PathSpec(
            conditions={
                "X": ConditionSpec(
                    delay="jitter",
                    delay_params={"base_delay": 1.2e-3, "jitter_std": 0.4e-3},
                    loss="gilbert-elliott-rate",
                    loss_params={"target_rate": 0.02},
                ),
            }
        ),
        protocol=ProtocolSpec(
            default=HOPSpec(sampling_rate=0.05, marker_rate=0.005, aggregate_size=800)
        ),
        estimation=EstimationSpec(observer="S", targets=("X",)),
    ),
    sla=SLATargetSpec(
        delay_bound=5e-3, delay_quantile=0.9, loss_bound=0.05, name="monthly-gold"
    ),
)


def call(base: str, path: str, body: dict | None = None) -> tuple[int, dict]:
    """One API round-trip; 4xx responses return instead of raising."""
    request = urllib.request.Request(
        base + path, method="POST" if body is not None else "GET"
    )
    data = None
    if body is not None:
        data = json.dumps(body).encode("utf-8")
        request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, data=data, timeout=120) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-service-") as store_root:
        demo(Path(store_root))


def demo(store_root: Path) -> None:

    # --- 1. the service: WSGI app + job queue on an ephemeral port ----------
    queue = JobQueue(store_root, workers=2)
    app = ServiceApp(store_root, queue=queue)
    server = make_service_server("127.0.0.1", 0, app)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    host, port = server.server_address[:2]
    base = f"http://{host}:{port}"
    print(f"service up at {base} (dashboard at /, API under /api/v1)")

    try:
        # --- 2. submission is validated at the door -------------------------
        broken = SPEC.to_dict()
        broken["intervals"] = 0
        status, body = call(base, "/api/v1/jobs", {"spec": broken})
        print(f"bad spec -> {status}: {body['error']}")

        status, accepted = call(
            base, "/api/v1/jobs", {"spec": SPEC.to_dict(), "run_id": "demo-run"}
        )
        assert status == 202, accepted
        job = accepted["job"]
        print(f"accepted {job['id']} -> run {job['run']!r} "
              f"(store already on disk: the acceptance record)")

        # --- 3. follow committed intervals with the ?since= cursor ----------
        cursor = 0
        while True:
            status, page = call(
                base, f"/api/v1/runs/demo-run/records?since={cursor}&wait=10"
            )
            assert status == 200, page
            for record in page["records"]:
                verdicts = record["verdicts"]["X"]
                print(f"  interval {record['interval']}: receipts "
                      f"{record['receipts_digest'][:12]}…, "
                      f"accepted={verdicts['accepted']}, "
                      f"sla_compliant={verdicts['sla_compliant']}")
            cursor = page["next"]
            if page["complete"]:
                break
        print(f"run complete after {cursor} intervals")

        # --- 4. the machine-readable report ---------------------------------
        status, report = call(base, "/api/v1/runs/demo-run/report")
        assert status == 200 and report["summary_matches_store"] is True
        sla = SPEC.sla
        for domain, entry in sorted(report["summary"]["domains"].items()):
            verdict = "COMPLIANT" if entry["sla_compliant"] else "IN VIOLATION"
            print(f"  {domain}: loss {entry['loss_rate'] * 100:.3f}%, "
                  f"{entry['delay_sample_count']} pooled delay samples, "
                  f"SLA {sla.name!r} -> {verdict}")

        # --- 5. the service perturbed nothing: byte-identity ----------------
        direct = RunStore.create(store_root / "direct", SPEC)
        CampaignRunner(SPEC, direct).run()
        via_http = RunStore.open(store_root / "demo-run")
        assert via_http.digest() == direct.digest(), (
            "HTTP-submitted store must be byte-identical to a direct run"
        )
        print("byte-identity holds: the HTTP path and the library path "
              "produce the same store")
    finally:
        server.shutdown()
        server.server_close()
        # Wait for the job's child process, so nothing writes into the store
        # root while it is removed.
        queue.shutdown(wait=True)


if __name__ == "__main__":
    main()
