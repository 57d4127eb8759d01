"""Per-layer tracing of a campaign: which functions are wrapped, what they report.

:func:`install` wraps the public entry points of every layer of the program
(``traffic``, ``net``, ``simulation``, ``core``, ``reporting``,
``analysis``, ``engine``, ``store``, ``dist``, ``service``) with
:class:`~perfbench.tracing.Tracer` spans and counters; :func:`layer_metrics`
folds the recorded spans into the benchmark's per-layer metric names.

Spans named ``interval`` are the roots: one per campaign interval, opened
by the benchmark around ``CampaignRunner.run_interval`` (or around an
in-process ``interval_record`` replay).  Interval time that no layer span
covers — the self time of the ``interval`` root and of the cell runner
(``run_cell_full`` / ``run_mesh_cell_full``) — is ``engine.other_s``.
"""

from __future__ import annotations

from typing import Any, Mapping

from perfbench.stats import median, tail_quantile
from perfbench.tracing import Patcher, Tracer, self_times

__all__ = ["PER_LAYER", "install", "layer_metrics", "route_class"]

#: Span name -> per-layer metric carrying the spans' summed self time.
SELF_TIME_METRICS = {
    "traffic.first_batch": "traffic.first_batch_s",
    "traffic.rest": "traffic.rest_s",
    "net.digest": "net.digest_s",
    "simulation.propagate": "simulation.propagate_s",
    "core.sample": "core.sample_s",
    "core.aggregate": "core.aggregate_s",
    "core.collect": "core.collect_s",
    "core.report": "core.report_s",
    "core.verify": "core.verify_s",
    "core.estimate": "core.estimate_s",
    "reporting.receipts_digest": "reporting.receipts_digest_s",
    "analysis.sketch": "analysis.sketch_s",
    "analysis.localize": "analysis.localize_s",
    "engine.record": "engine.record_self_s",
    "engine.fold": "engine.fold_s",
    "engine.summary": "engine.summary_s",
    "store.append": "store.append_s",
    "dist.claim": "dist.claim_s",
    "dist.upload": "dist.upload_s",
}

#: Spans whose self time is interval time no layer accounts for.
UNATTRIBUTED = ("interval", "engine.cell")

#: Counters reported as they stand.
COUNT_METRICS = (
    "traffic.pkts",
    "net.digest_pkts",
    "core.samples",
    "core.aggregates",
    "core.receipt_bytes",
    "store.bytes",
    "dist.claims_granted",
    "dist.claims_refused",
    "dist.uploads",
    "dist.duplicate_uploads",
    "dist.digest_mismatches",
    "service.requests",
    "service.errors",
)

COUNT_UNITS = {"core.receipt_bytes": "bytes", "store.bytes": "bytes"}
#: Counts of delivered work; every other count is a cost.
COUNT_BETTER = {"traffic.pkts": "higher", "dist.claims_granted": "higher", "dist.uploads": "higher"}

#: Route classes whose request latency is reported on its own.
ROUTE_CLASSES = ("claim", "upload", "status")

#: Every per-layer metric with its unit and better direction, in report order.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    *((metric, "s", "lower") for metric in SELF_TIME_METRICS.values()),
    ("engine.other_s", "s", "lower"),
    *((metric, COUNT_UNITS.get(metric, "count"), COUNT_BETTER.get(metric, "lower"))
      for metric in COUNT_METRICS),
    ("dist.commit_lag_s", "s", "lower"),
    ("dist.first_claim_s", "s", "lower"),
    ("dist.worker_busy_frac", "fraction", "higher"),
    ("service.request_s_p50", "s", "lower"),
    ("service.request_s_p90", "s", "lower"),
    *((f"service.{route}.request_s_p50", "s", "lower") for route in ROUTE_CLASSES),
    ("trace.coverage_frac", "fraction", "higher"),
    ("trace.overhead_frac", "fraction", "lower"),
    ("failed_frac", "fraction", "lower"),
)


def route_class(environ: Mapping[str, Any]) -> str:
    """The dispatch route class of one WSGI request."""
    method = environ.get("REQUEST_METHOD", "GET").upper()
    segments = [part for part in environ.get("PATH_INFO", "").split("/") if part]
    if "claims" in segments:
        if segments[-1] == "renew":
            return "renew"
        return "release" if method == "DELETE" else "claim"
    if "records" in segments:
        return "upload"
    if "dispatch" in segments:
        return "config" if "config" in environ.get("QUERY_STRING", "") else "status"
    return "other"


def _receipt_counts(collected: list[Mapping[int, Any]]) -> dict[str, int]:
    """Sample records, aggregate receipts and wire bytes of the collected reports."""
    counts = {"core.samples": 0, "core.aggregates": 0, "core.receipt_bytes": 0}
    for reports in collected:
        for report in reports.values():
            counts["core.samples"] += sum(len(r.samples) for r in report.sample_receipts)
            counts["core.aggregates"] += len(report.aggregate_receipts)
            counts["core.receipt_bytes"] += report.wire_bytes
    return counts


def install(tracer: Tracer) -> Patcher:
    """Wrap every layer's entry points; returns the patcher that undoes it."""
    from repro.analysis.sketch import DelayQuantileSketch
    from repro.core.aggregation import Aggregator
    from repro.core.hop import HOPCollector
    from repro.core.protocol import MeshSession, VPMSession
    from repro.core.sampling import DelaySampler
    from repro.core.verifier import Verifier
    from repro.dist.net import DispatchHub, ProtocolError
    from repro.engine.campaign import CampaignAccumulator
    from repro.engine.streaming import ScenarioStream
    from repro.net.hashing import PacketDigester
    from repro.service.app import ServiceApp
    from repro.simulation.mesh import MeshScenario
    from repro.simulation.scenario import PathScenario
    from repro.store import RunStore
    from repro.traffic.trace import SyntheticTrace

    patcher = Patcher()
    count = tracer.count

    def timed(name: str):
        return lambda original: tracer.wrap(name, original)

    # -- traffic: the first batch carries the whole draw plan -------------------------
    def packet_batch(original):
        def wrapper(self):
            span = tracer.start("traffic.first_batch")
            try:
                batch = original(self)
            finally:
                tracer.finish(span)
            count("traffic.pkts", len(batch))
            return batch

        return wrapper

    def iter_batches(original):
        def wrapper(self, chunk_size, start_chunk=0):
            chunks = original(self, chunk_size, start_chunk)
            name = "traffic.first_batch"
            while True:
                span = tracer.start(name)
                try:
                    batch = next(chunks)
                except StopIteration:
                    return
                finally:
                    tracer.finish(span)
                count("traffic.pkts", len(batch))
                name = "traffic.rest"
                yield batch

        return wrapper

    patcher.method(SyntheticTrace, "packet_batch", packet_batch)
    patcher.method(SyntheticTrace, "iter_batches", iter_batches)

    # -- net: count packets only where the hash runs (not memo hits) ------------------
    def digest_batch(original):
        def wrapper(self, batch):
            cache = getattr(batch, "_digest_cache", None)
            hit = cache is not None and cache.get((self.seed, self.payload_prefix)) is not None
            hashes = not hit and getattr(batch, "_digest_root", None) is None
            span = tracer.start("net.digest")
            try:
                values = original(self, batch)
            finally:
                tracer.finish(span)
            if hashes:
                count("net.digest_pkts", len(values))
            return values

        return wrapper

    patcher.method(PacketDigester, "digest_batch", digest_batch)

    # -- simulation ---------------------------------------------------------------------
    for owner, attribute in (
        (PathScenario, "run_batch"),
        (ScenarioStream, "push"),
        (ScenarioStream, "flush"),
        (MeshScenario, "run_batch"),
    ):
        patcher.method(owner, attribute, timed("simulation.propagate"))

    # -- core -----------------------------------------------------------------------------
    patcher.method(DelaySampler, "observe_batch", timed("core.sample"))
    patcher.method(Aggregator, "observe_batch", timed("core.aggregate"))
    patcher.method(HOPCollector, "observe_batch", timed("core.collect"))

    def collect_reports(original):
        traced = tracer.wrap("core.report", original)

        def wrapper(self):
            reports = traced(self)
            tracer.kept.append(reports)
            return reports

        return wrapper

    patcher.method(VPMSession, "collect_reports", collect_reports)
    patcher.method(MeshSession, "collect_reports", collect_reports)
    patcher.method(Verifier, "check_consistency", timed("core.verify"))
    patcher.method(Verifier, "verify_domain", timed("core.verify"))
    patcher.method(Verifier, "estimate_domain", timed("core.estimate"))
    patcher.method(Verifier, "estimate_domain_via_neighbors", timed("core.estimate"))

    # -- reporting, analysis ----------------------------------------------------------
    patcher.function(
        "repro.reporting.serialization", "receipts_digest", timed("reporting.receipts_digest")
    )
    patcher.method(DelayQuantileSketch, "__init__", timed("analysis.sketch"))
    patcher.method(DelayQuantileSketch, "to_state", timed("analysis.sketch"))
    patcher.function("repro.analysis.localization", "identify_suspects", timed("analysis.localize"))
    patcher.function(
        "repro.analysis.localization", "triangulate_suspects", timed("analysis.localize")
    )

    # -- engine, store ------------------------------------------------------------------
    patcher.function("repro.engine.campaign", "interval_record", timed("engine.record"))
    patcher.function("repro.api.runner", "run_cell_full", timed("engine.cell"))
    patcher.function("repro.api.runner", "run_mesh_cell_full", timed("engine.cell"))
    patcher.method(CampaignAccumulator, "fold", timed("engine.fold"))
    patcher.method(CampaignAccumulator, "summary", timed("engine.summary"))
    patcher.method(RunStore, "append", timed("store.append"))

    # -- dist: coordinator side of the HTTP dispatch protocol ------------------------
    def claim(original):
        def wrapper(self, interval, worker):
            span = tracer.start("dist.claim", interval)
            try:
                granted = original(self, interval, worker)
            except ProtocolError:
                count("dist.claims_refused")
                raise
            finally:
                tracer.finish(span)
            count("dist.claims_granted")
            tracer.mark("claim", interval)
            return granted

        return wrapper

    def upload(original):
        def wrapper(self, interval, payload, digest, worker):
            span = tracer.start("dist.upload", interval)
            count("dist.uploads")
            try:
                outcome = original(self, interval, payload, digest, worker)
            except ProtocolError as exc:
                if exc.code == "digest_mismatch":
                    count("dist.digest_mismatches")
                raise
            finally:
                tracer.finish(span)
            if outcome.get("duplicate"):
                count("dist.duplicate_uploads")
            else:
                tracer.mark("upload", interval)
            return outcome

        return wrapper

    patcher.method(DispatchHub, "claim", claim)
    patcher.method(DispatchHub, "upload", upload)

    # -- service ------------------------------------------------------------------------
    def service_call(original):
        def wrapper(self, environ, start_response):
            statuses: list[str] = []

            def recording_start_response(status, headers, *exc_info):
                statuses.append(status)
                return start_response(status, headers, *exc_info)

            span = tracer.start("service.request")
            try:
                return original(self, environ, recording_start_response)
            finally:
                tracer.finish(span)
                tracer.sample(route_class(environ), span.duration)
                count("service.requests")
                if not statuses or not statuses[0].startswith("2"):
                    count("service.errors")

        return wrapper

    patcher.method(ServiceApp, "__call__", service_call)
    return patcher


def layer_metrics(
    tracer: Tracer,
    committed: Mapping[int, float] | None = None,
    coordinator_start: float | None = None,
    timed_seconds: float = 0.0,
    workers: int = 0,
) -> dict[str, float]:
    """Fold the recorded spans and counters into the per-layer metric names.

    ``committed`` maps interval -> ``IntervalCommitted`` time (for the commit
    lag); ``coordinator_start``, ``timed_seconds`` and ``workers`` describe a
    dispatch run (for first-claim time and worker busy fraction).  Layers that
    did no work on a workload report 0.
    """
    own = self_times(tracer.spans)
    metrics: dict[str, float] = {name: 0.0 for name, _, _ in PER_LAYER}
    interval_wall = 0.0
    unattributed = 0.0
    for span in tracer.spans:
        metric = SELF_TIME_METRICS.get(span.name)
        if metric is not None:
            metrics[metric] += own[span.id]
        if span.name == "interval":
            interval_wall += span.duration
        if span.name in UNATTRIBUTED and span.interval is not None:
            unattributed += own[span.id]
    metrics["engine.other_s"] = unattributed
    metrics["trace.coverage_frac"] = (
        1.0 - unattributed / interval_wall if interval_wall else 0.0
    )

    counts = {**tracer.counts, **_receipt_counts(tracer.kept)}
    for name in COUNT_METRICS:
        metrics[name] = float(counts.get(name, 0))

    claims = tracer.marks.get("claim", {})
    uploads = tracer.marks.get("upload", {})
    if committed and uploads:
        metrics["dist.commit_lag_s"] = median(
            [committed[i] - uploads[i] for i in uploads if i in committed]
        )
    if claims and coordinator_start is not None:
        metrics["dist.first_claim_s"] = min(claims.values()) - coordinator_start
    if claims and uploads and workers and timed_seconds:
        busy = sum(uploads[i] - claims[i] for i in uploads if i in claims)
        metrics["dist.worker_busy_frac"] = busy / (workers * timed_seconds)

    samples = tracer.samples
    every = [value for values in samples.values() for value in values]
    if every:
        metrics["service.request_s_p50"] = median(every)
        metrics["service.request_s_p90"] = tail_quantile(every, 0.9) or 0.0
    for route in ROUTE_CLASSES:
        if samples.get(route):
            metrics[f"service.{route}.request_s_p50"] = median(samples[route])
    return metrics


def check_trace_inputs(tracer: Tracer, intervals: int, packets: int) -> None:
    """The traced run generated every input packet itself (no cache served it)."""
    expected = intervals * packets
    if tracer.counts.get("traffic.pkts", 0) != expected:
        raise AssertionError(
            f"traffic.pkts = {tracer.counts.get('traffic.pkts', 0)}, expected "
            f"{expected} (intervals x packets x paths): a cached trace served "
            f"part of the run"
        )

