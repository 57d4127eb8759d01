"""Canonical receipt serialization shared by conformance and engine tests.

:func:`canonical_receipts` is the JSON-stable spelling of an interval's
receipts that the committed goldens (and ``pytest --regen-goldens``) write:
exact float hex for every timestamp; ``time_sum`` rounded to 10 significant
digits — the one field whose float accumulation order legitimately differs
between the object oracle (:mod:`tests.oracle`), the batch and streaming
engines (and between chunk sizes).  :func:`reports_from_canonical` reads
that spelling back into reports, so a golden can be digested.  The run
store's digest, :func:`~repro.reporting.serialization.receipts_digest`, hashes
a binary encoding of the same fields (``VPM2``), not this JSON.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.api.runner import _build_cell
from repro.core.hop import HOPReport
from repro.core.receipts import AggregateReceipt, PathID, SampleReceipt
from repro.engine import DEFAULT_CHUNK_SIZE, StreamingRunner
from repro.net.prefixes import OriginPrefix, PrefixPair

__all__ = [
    "canonical_receipts",
    "reports_from_canonical",
    "run_batch_reports",
    "run_streaming_reports",
    "run_batch_mesh_reports",
    "run_mesh_streaming_reports",
]


def canonical_receipts(reports: Mapping[int, HOPReport]) -> dict[str, Any]:
    """Receipts of every HOP in a canonical, JSON-stable form.

    Timestamps are rendered as exact float hex so the form is bit-faithful;
    ``time_sum`` is rounded to its documented 10-significant-digit tolerance.
    Everything else — sample sets and order, thresholds, aggregate
    boundaries, packet counts, AggTrans windows — is engine-invariant, so two
    engines (or an interrupted-and-resumed campaign interval and an
    uninterrupted one) agree on this form byte-for-byte.
    """
    canonical: dict[str, Any] = {}
    for hop_id in sorted(reports):
        report = reports[hop_id]
        canonical[str(hop_id)] = {
            "samples": [
                {
                    "path": str(receipt.path_id.prefix_pair),
                    "reporting_hop": receipt.path_id.reporting_hop,
                    "threshold": receipt.sampling_threshold,
                    "records": [
                        [pkt_id, time.hex()] for pkt_id, time in receipt.samples.tolist()
                    ],
                }
                for receipt in report.sample_receipts
            ],
            "aggregates": [
                {
                    "first_pkt_id": receipt.first_pkt_id,
                    "last_pkt_id": receipt.last_pkt_id,
                    "pkt_count": receipt.pkt_count,
                    "start_time": receipt.start_time.hex(),
                    "end_time": receipt.end_time.hex(),
                    "time_sum": f"{receipt.time_sum:.9e}",
                    "trans_before": receipt.trans_before.tolist(),
                    "trans_after": receipt.trans_after.tolist(),
                }
                for receipt in report.aggregate_receipts
            ],
        }
    return canonical


def _canonical_path_id(path: str, reporting_hop: int) -> PathID:
    """A PathID carrying what the canonical form keeps: prefix pair and reporting HOP.

    The neighbours and ``MaxDiff`` are not in the form (nor in the digest);
    they are filled with placeholders.
    """
    source, destination = path.split("->")
    return PathID(
        prefix_pair=PrefixPair(
            source=OriginPrefix.parse(source), destination=OriginPrefix.parse(destination)
        ),
        reporting_hop=reporting_hop,
        previous_hop=None,
        next_hop=reporting_hop + 1,
        max_diff=0.0,
    )


def reports_from_canonical(canonical: Mapping[str, Any]) -> dict[int, HOPReport]:
    """Reports whose :func:`canonical_receipts` is ``canonical`` (a golden's ``receipts``)."""
    reports = {}
    for key, form in canonical.items():
        hop = int(key)
        aggregate_path = _canonical_path_id("0.0.0.0/0->0.0.0.0/0", hop)
        reports[hop] = HOPReport(
            hop_id=hop,
            sample_receipts=tuple(
                SampleReceipt(
                    path_id=_canonical_path_id(sample["path"], sample["reporting_hop"]),
                    samples=[
                        (pkt_id, float.fromhex(time)) for pkt_id, time in sample["records"]
                    ],
                    sampling_threshold=sample["threshold"],
                )
                for sample in form["samples"]
            ),
            aggregate_receipts=tuple(
                AggregateReceipt(
                    path_id=aggregate_path,
                    first_pkt_id=aggregate["first_pkt_id"],
                    last_pkt_id=aggregate["last_pkt_id"],
                    pkt_count=aggregate["pkt_count"],
                    start_time=float.fromhex(aggregate["start_time"]),
                    end_time=float.fromhex(aggregate["end_time"]),
                    time_sum=float(aggregate["time_sum"]),
                    trans_before=aggregate["trans_before"],
                    trans_after=aggregate["trans_after"],
                )
                for aggregate in form["aggregates"]
            ),
        )
    return reports


def run_batch_reports(spec):
    """The batch engine's receipts for a spec: one whole-trace pass."""
    return StreamingRunner(_build_cell(spec), chunk_size=None).run().reports


def run_streaming_reports(spec, chunk_size: int = DEFAULT_CHUNK_SIZE):
    """The streaming engine's receipts for a spec."""
    runner = StreamingRunner(_build_cell(spec), chunk_size=chunk_size)
    return runner.run().reports


def run_batch_mesh_reports(spec):
    """The batch mesh engine's receipts for a MeshSpec: one pass per path."""
    return StreamingRunner(_build_cell(spec), chunk_size=None).run().reports


def run_mesh_streaming_reports(spec, chunk_size: int = DEFAULT_CHUNK_SIZE):
    """The streaming mesh engine's receipts for a MeshSpec."""
    runner = StreamingRunner(_build_cell(spec), chunk_size=chunk_size)
    return runner.run().reports
