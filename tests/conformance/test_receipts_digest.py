"""The streaming receipts digest equals the canonical-JSON oracle.

:func:`~repro.reporting.serialization.receipts_digest` writes the canonical
JSON straight into its hash; :func:`~repro.reporting.serialization.canonical_receipts`
plus ``json.dumps`` is its specification.  Every conformance scenario, both
mesh cells and a set of hand-built hostile reports must hash identically on
both paths.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.hop import HOPReport
from repro.core.receipts import AggregateReceipt, PathID, SampleReceipt, SampleRecord
from repro.reporting.serialization import canonical_receipts, receipts_digest

from tests.conformance.canon import run_batch_mesh_reports, run_batch_reports
from tests.conformance.scenarios import CONFORMANCE_SCENARIOS, MESH_CONFORMANCE_SCENARIOS

SUBNORMAL = 5e-324
LARGEST_ID = (1 << 64) - 1


def oracle_digest(reports) -> str:
    payload = json.dumps(canonical_receipts(reports), sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(payload.encode("utf-8"), digest_size=16).hexdigest()


@pytest.mark.parametrize("name", sorted(CONFORMANCE_SCENARIOS))
def test_conformance_scenario(name):
    reports = run_batch_reports(CONFORMANCE_SCENARIOS[name])
    assert receipts_digest(reports) == oracle_digest(reports)


@pytest.mark.parametrize("name", sorted(MESH_CONFORMANCE_SCENARIOS))
def test_mesh_cell(name):
    reports = run_batch_mesh_reports(MESH_CONFORMANCE_SCENARIOS[name])
    assert receipts_digest(reports) == oracle_digest(reports)


def _path_id(prefix_pair, hop: int) -> PathID:
    return PathID(
        prefix_pair=prefix_pair,
        reporting_hop=hop,
        previous_hop=hop - 1,
        next_hop=None,
        max_diff=1e-3,
    )


def _report(prefix_pair, hop: int, threshold: int | None) -> HOPReport:
    path_id = _path_id(prefix_pair, hop)
    window = (LARGEST_ID, 0, 7, LARGEST_ID)
    return HOPReport(
        hop_id=hop,
        sample_receipts=(
            SampleReceipt(
                path_id=path_id,
                samples=(
                    SampleRecord(pkt_id=LARGEST_ID, time=-0.0),
                    SampleRecord(pkt_id=0, time=SUBNORMAL),
                    SampleRecord(pkt_id=hop, time=2.5),
                ),
                sampling_threshold=threshold,
            ),
            SampleReceipt(path_id=path_id, samples=(), sampling_threshold=threshold),
        ),
        aggregate_receipts=(
            AggregateReceipt(
                path_id=path_id,
                first_pkt_id=LARGEST_ID,
                last_pkt_id=0,
                pkt_count=3,
                start_time=-0.0,
                end_time=SUBNORMAL,
                time_sum=-0.0,
                trans_before=window,
                trans_after=(),
            ),
            AggregateReceipt(
                path_id=path_id,
                first_pkt_id=hop,
                last_pkt_id=hop,
                pkt_count=0,
                start_time=SUBNORMAL,
                end_time=1.0,
                time_sum=SUBNORMAL,
                trans_before=(),
                # The same window again, and once as a list.
                trans_after=list(window),
            ),
        ),
    )


HOSTILE_HOPS = (2, 9, 10, 11, 100)


def test_hop_ids_in_string_order(prefix_pair):
    # "10" < "100" < "11" < "2" < "9": the digest must follow JSON's key sort,
    # not numeric order.
    assert sorted(map(str, HOSTILE_HOPS)) != [str(hop) for hop in sorted(HOSTILE_HOPS)]
    reports = {hop: _report(prefix_pair, hop, threshold=hop * 1000) for hop in HOSTILE_HOPS}
    assert receipts_digest(reports) == oracle_digest(reports)
    numeric_order = {hop: reports[hop] for hop in sorted(HOSTILE_HOPS)}
    assert receipts_digest(numeric_order) == receipts_digest(reports)


def test_signed_zero_subnormal_and_no_threshold(prefix_pair):
    reports = {10: _report(prefix_pair, 10, threshold=None), 3: _report(prefix_pair, 3, None)}
    assert receipts_digest(reports) == oracle_digest(reports)
    positive_zero = {
        hop: HOPReport(
            hop_id=hop,
            sample_receipts=tuple(
                SampleReceipt(
                    path_id=receipt.path_id,
                    samples=tuple(
                        SampleRecord(pkt_id=record.pkt_id, time=abs(record.time))
                        for record in receipt.samples
                    ),
                    sampling_threshold=receipt.sampling_threshold,
                )
                for receipt in report.sample_receipts
            ),
            aggregate_receipts=report.aggregate_receipts,
        )
        for hop, report in reports.items()
    }
    # -0.0 and 0.0 are different bytes in the canonical form.
    assert receipts_digest(positive_zero) == oracle_digest(positive_zero)
    assert receipts_digest(positive_zero) != receipts_digest(reports)


def test_reports_without_receipts():
    assert receipts_digest({}) == oracle_digest({})
    empty = {12: HOPReport(hop_id=12), 4: HOPReport(hop_id=4)}
    assert receipts_digest(empty) == oracle_digest(empty)
    assert receipts_digest(empty) != receipts_digest({})
