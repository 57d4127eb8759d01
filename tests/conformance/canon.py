"""Canonical receipt serialization shared by conformance and engine tests.

The canonical form itself lives in :mod:`repro.reporting.serialization`
(:func:`~repro.reporting.serialization.canonical_receipts`) beside
:func:`~repro.reporting.serialization.receipts_digest`, the per-interval
digest the campaign run store records, which streams the same form's JSON
into its hash; re-exported here so the conformance/engine tests keep one
import site.  Exact float hex
for every timestamp; ``time_sum`` rounded to 10 significant digits — the one
field whose float accumulation order legitimately differs between the object
oracle (:mod:`tests.oracle`), the batch and streaming engines (and between
chunk sizes).
"""

from __future__ import annotations

from repro.api.runner import _build_cell
from repro.engine import DEFAULT_CHUNK_SIZE, StreamingRunner
from repro.reporting.serialization import canonical_receipts

__all__ = [
    "canonical_receipts",
    "run_batch_reports",
    "run_streaming_reports",
    "run_batch_mesh_reports",
    "run_mesh_streaming_reports",
]


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

