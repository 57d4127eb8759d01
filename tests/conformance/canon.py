"""Canonical receipt serialization shared by conformance and engine tests.

The canonical form itself lives in :mod:`repro.reporting.serialization`
(:func:`~repro.reporting.serialization.canonical_receipts`) beside
:func:`~repro.reporting.serialization.receipts_digest`, the per-interval
digest the campaign run store records, which streams the same form's JSON
into its hash; re-exported here so the conformance/engine tests keep one
import site.  Exact float hex
for every timestamp; ``time_sum`` rounded to 10 significant digits — the one
field whose float accumulation order legitimately differs between the scalar,
batch and streaming engines (and between chunk sizes).
"""

from __future__ import annotations

import numpy as np

from repro.api.runner import _build_cell, _build_mesh_cell
from repro.engine import DEFAULT_CHUNK_SIZE, StreamingRunner
from repro.reporting.serialization import canonical_receipts

__all__ = [
    "assert_same_propagation",
    "canonical_receipts",
    "run_scalar_reports",
    "run_batch_reports",
    "run_streaming_reports",
    "run_batch_mesh_reports",
    "run_mesh_streaming_reports",
]


def run_scalar_reports(spec):
    """The scalar (per-packet object) engine's receipts for a spec."""
    cell = _build_cell(spec)
    observation = cell.scenarios[0].run(cell.traces[0].packets())
    return cell.session.run(observation)


def run_batch_reports(spec):
    """The batch engine's receipts for a spec: one whole-trace pass."""
    return StreamingRunner(_build_cell(spec), chunk_size=None).run().reports


def run_streaming_reports(spec, chunk_size: int = DEFAULT_CHUNK_SIZE):
    """The streaming engine's receipts for a spec."""
    runner = StreamingRunner(_build_cell(spec), chunk_size=chunk_size)
    return runner.run().reports


def run_batch_mesh_reports(spec):
    """The batch mesh engine's receipts for a MeshSpec: one pass per path."""
    return StreamingRunner(_build_mesh_cell(spec), chunk_size=None).run().reports


def run_mesh_streaming_reports(spec, chunk_size: int = DEFAULT_CHUNK_SIZE):
    """The streaming mesh engine's receipts for a MeshSpec."""
    runner = StreamingRunner(_build_mesh_cell(spec), chunk_size=chunk_size)
    return runner.run().reports


def assert_same_propagation(observation, batch_observation):
    """A scalar and a batch run agree per HOP (uids, times) and per domain (truth)."""
    for hop in observation.path.hops:
        listed = observation.at_hop(hop)
        batch, times = batch_observation.at_hop(hop)
        assert [packet.uid for packet, _ in listed] == batch.uid.tolist()
        assert np.array_equal(np.array([moment for _, moment in listed]), times)
    for segment in observation.path.domain_segments():
        truth = observation.truth_for(segment[0])
        batch_truth = batch_observation.truth_for(segment[0])
        assert len(truth.lost) == batch_truth.lost_packets
        assert truth.offered_packets == batch_truth.offered_packets
        assert np.array_equal(truth.delays(), batch_truth.delays())
