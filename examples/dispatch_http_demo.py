#!/usr/bin/env python3
"""Distributed dispatch without a shared mount.

The dispatch coordinator serves the versioned dispatch protocol
(``/api/v1/dispatch/<run_id>/…``), and workers need nothing but its URL and
the run id — spec, policy and lease all come from the coordinator's config
endpoint, and no worker ever touches the run directory.  This example
drives the whole story in one process:

1. starts a commit-only coordinator (``workers=0``) over a fresh store;
2. plays a *hostile network* against the protocol by hand: a truncated
   upload is rejected by its digest (``400 digest_mismatch``), the intact
   re-upload lands, and an identical duplicate (a retry after a lost
   response) is acknowledged idempotently instead of re-staged;
3. runs mount-less :class:`~repro.dist.HTTPTransport` workers to compute the
   remaining intervals — claims and leases timed on the *coordinator's*
   monotonic clock, so worker clock skew is irrelevant;
4. proves the network changed nothing about the science: the dispatched
   store is **byte-identical** to an uninterrupted single-host run.

The same topology from the shell::

    repro dispatch runs/big --spec campaign.json --workers 0
    # on each worker host — no mount, no spec file:
    repro dispatch --worker-only --coordinator http://coordinator:PORT --run-id big

Run:  python examples/dispatch_http_demo.py
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
    ExperimentSpec,
    HOPSpec,
    PathSpec,
    ProtocolSpec,
    SLATargetSpec,
    TrafficSpec,
)
from repro.dist import DispatchCoordinator, HTTPTransport
from repro.dist.dispatch import DispatchWorker
from repro.dist.net import DIGEST_HEADER, WORKER_HEADER, record_digest
from repro.engine.campaign import CampaignRunner, interval_record
from repro.store import RunStore, stable_json

SPEC = CampaignSpec(
    name="dispatch-http-demo",
    intervals=4,
    cell=ExperimentSpec(
        name="dispatch-http-demo-cell",
        seed=83,
        traffic=TrafficSpec(workload=None, packet_count=1500),
        path=PathSpec(
            conditions={
                "X": ConditionSpec(
                    delay="jitter",
                    delay_params={"base_delay": 1.2e-3, "jitter_std": 0.4e-3},
                ),
            }
        ),
        protocol=ProtocolSpec(
            default=HOPSpec(sampling_rate=0.05, marker_rate=0.005, aggregate_size=800)
        ),
    ),
    sla=SLATargetSpec(delay_bound=5e-3, delay_quantile=0.9, loss_bound=0.05),
)


def upload(base: str, interval: int, body: bytes, digest: str) -> tuple[int, dict]:
    """One raw record upload; 4xx responses return instead of raising."""
    request = urllib.request.Request(
        f"{base}/records/{interval}", data=body, method="PUT"
    )
    request.add_header(WORKER_HEADER, "demo-by-hand")
    request.add_header(DIGEST_HEADER, digest)
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-dispatch-http-") as root:
        demo(Path(root))


def demo(root: Path) -> None:

    # --- 1. a commit-only coordinator serving the dispatch protocol ---------
    store = RunStore.create(root / "dispatched", SPEC)
    coordinator = DispatchCoordinator(store, workers=0)
    committer = threading.Thread(target=coordinator.run, daemon=True)
    committer.start()
    base = f"{coordinator.http_url}/api/v1/dispatch/{coordinator.run_id}"
    print(f"coordinator up, dispatch protocol at {base}")

    # --- 2. the hostile network, by hand ------------------------------------
    line = (stable_json(dict(interval_record(SPEC, 0))) + "\n").encode("utf-8")
    digest = record_digest(line)

    status, body = upload(base, 0, line[: len(line) // 2], digest)
    print(f"truncated upload   -> {status} {body['error']['code']} "
          f"(nothing staged; the digest caught it)")

    status, body = upload(base, 0, line, digest)
    print(f"intact re-upload   -> {status} duplicate={body['duplicate']}")

    status, body = upload(base, 0, line, digest)
    print(f"identical retry    -> {status} duplicate={body['duplicate']} "
          f"(byte-asserted, acknowledged, not re-staged)")

    # --- 3. mount-less workers finish the campaign --------------------------
    workers = [
        threading.Thread(
            target=DispatchWorker(
                HTTPTransport(
                    coordinator.http_url, coordinator.run_id, worker_id=f"remote-{i}"
                )
            ).run,
            daemon=True,
        )
        for i in range(2)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=300)
    committer.join(timeout=300)
    assert not committer.is_alive(), "coordinator never finished committing"
    print(f"campaign complete: {SPEC.intervals} intervals committed in order")

    # --- 4. the network perturbed nothing: byte-identity --------------------
    direct = RunStore.create(root / "direct", SPEC)
    CampaignRunner(SPEC, direct).run()
    dispatched = RunStore.open(root / "dispatched")
    assert dispatched.digest() == direct.digest(), (
        "HTTP-dispatched store must be byte-identical to a single-host run"
    )
    assert (
        dispatched.records_path.read_bytes() == direct.records_path.read_bytes()
    )
    print("byte-identity holds: digest-checked uploads, byte-asserted "
          "duplicates and ordered commits leave no trace of the network")


if __name__ == "__main__":
    main()
