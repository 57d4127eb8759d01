"""Unit tests for repro.reporting.serialization: the receipts digest.

``canonical_receipts`` (the goldens' spelling) lists what an interval's
digest binds; ``receipts_digest`` must change whenever any field of that form
changes and only then, and must equal the independent ``VPM2`` encoder in
:mod:`tests.oracle.receipts_codec`.  The Section 7.1 byte accounting
(``wire_bytes``) is checked here too, since it is the only size the receipts
are given.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.core.hop import HOPReport
from repro.core.receipts import (
    AGGREGATE_RECEIPT_BYTES,
    SAMPLE_RECORD_BYTES,
    AggregateReceipt,
    PathID,
    SampleReceipt,
)
from repro.net.prefixes import OriginPrefix, PrefixPair
from repro.reporting.serialization import receipts_digest

from tests.conformance.canon import canonical_receipts
from tests.helpers import feed_session
from tests.oracle.receipts_codec import encode_receipts, oracle_digest


@pytest.fixture()
def path_id(prefix_pair) -> PathID:
    return PathID(
        prefix_pair=prefix_pair, reporting_hop=5, previous_hop=4, next_hop=6, max_diff=1e-3
    )


@pytest.fixture()
def sample_receipt(path_id) -> SampleReceipt:
    return SampleReceipt(
        path_id=path_id,
        samples=(
            (0xDEADBEEF, 1.25),
            (0xFEEDFACE12345678, 2.5),
        ),
        sampling_threshold=12345678901234567,
    )


@pytest.fixture()
def aggregate_receipt(path_id) -> AggregateReceipt:
    return AggregateReceipt(
        path_id=path_id,
        first_pkt_id=0x1111,
        last_pkt_id=0x2222,
        pkt_count=4242,
        start_time=10.0,
        end_time=11.5,
        time_sum=45000.25,
        trans_before=(1, 2, 3),
        trans_after=(4, 5),
    )


@pytest.fixture()
def full_report(sample_receipt, aggregate_receipt) -> HOPReport:
    return HOPReport(
        hop_id=5,
        sample_receipts=(sample_receipt,),
        aggregate_receipts=(aggregate_receipt,),
    )


def _replace_sample(report: HOPReport, **changes) -> HOPReport:
    (receipt,) = report.sample_receipts
    return dataclasses.replace(report, sample_receipts=(dataclasses.replace(receipt, **changes),))


def _replace_aggregate(report: HOPReport, **changes) -> HOPReport:
    (receipt,) = report.aggregate_receipts
    return dataclasses.replace(
        report, aggregate_receipts=(dataclasses.replace(receipt, **changes),)
    )


def _replace_record(report: HOPReport, **changes) -> HOPReport:
    (receipt,) = report.sample_receipts
    (pkt_id, time), *rest = receipt.samples.tolist()
    first = {"pkt_id": pkt_id, "time": time} | changes
    return _replace_sample(report, samples=[(first["pkt_id"], first["time"]), *rest])


def _other_path(report: HOPReport, **changes) -> HOPReport:
    (receipt,) = report.sample_receipts
    return _replace_sample(report, path_id=dataclasses.replace(receipt.path_id, **changes))


_OTHER_PREFIXES = PrefixPair(
    source=OriginPrefix.parse("10.1.0.0/16"), destination=OriginPrefix.parse("10.3.0.0/16")
)

# Every field of the canonical form, each changed on its own.
FIELD_CHANGES = {
    "sample pkt_id": lambda r: _replace_record(r, pkt_id=0xDEADBEF0),
    "sample time": lambda r: _replace_record(r, time=1.25 + 2**-40),
    "sample order": lambda r: _replace_sample(
        r, samples=r.sample_receipts[0].samples[::-1]
    ),
    "sample dropped": lambda r: _replace_sample(r, samples=r.sample_receipts[0].samples[1:]),
    "sampling threshold": lambda r: _replace_sample(r, sampling_threshold=12345678901234568),
    "no sampling threshold": lambda r: _replace_sample(r, sampling_threshold=None),
    "sample prefix pair": lambda r: _other_path(r, prefix_pair=_OTHER_PREFIXES),
    "sample reporting hop": lambda r: _other_path(r, reporting_hop=6),
    "sample receipt dropped": lambda r: dataclasses.replace(r, sample_receipts=()),
    "first_pkt_id": lambda r: _replace_aggregate(r, first_pkt_id=0x1112),
    "last_pkt_id": lambda r: _replace_aggregate(r, last_pkt_id=0x2223),
    "pkt_count": lambda r: _replace_aggregate(r, pkt_count=4241),
    "start_time": lambda r: _replace_aggregate(r, start_time=10.0 + 2**-40),
    "end_time": lambda r: _replace_aggregate(r, end_time=11.5 - 2**-40),
    "time_sum beyond its tolerance": lambda r: _replace_aggregate(r, time_sum=45000.26),
    "trans_before": lambda r: _replace_aggregate(r, trans_before=(1, 2)),
    "trans_after": lambda r: _replace_aggregate(r, trans_after=(4, 5, 6)),
    "window order": lambda r: _replace_aggregate(r, trans_before=(3, 2, 1)),
    "window side": lambda r: _replace_aggregate(r, trans_before=(4, 5), trans_after=(1, 2, 3)),
    "aggregate receipt dropped": lambda r: dataclasses.replace(r, aggregate_receipts=()),
    "hop id": lambda r: dataclasses.replace(r, hop_id=6),
}


class TestCanonicalForm:
    def test_sample_receipt_fields(self, full_report):
        (sample,) = canonical_receipts({5: full_report})["5"]["samples"]
        assert sample == {
            "path": "10.1.0.0/16->10.2.0.0/16",
            "reporting_hop": 5,
            "threshold": 12345678901234567,
            "records": [[0xDEADBEEF, (1.25).hex()], [0xFEEDFACE12345678, (2.5).hex()]],
        }

    def test_aggregate_receipt_fields(self, full_report):
        (aggregate,) = canonical_receipts({5: full_report})["5"]["aggregates"]
        assert aggregate == {
            "first_pkt_id": 0x1111,
            "last_pkt_id": 0x2222,
            "pkt_count": 4242,
            "start_time": (10.0).hex(),
            "end_time": (11.5).hex(),
            "time_sum": "4.500025000e+04",
            "trans_before": [1, 2, 3],
            "trans_after": [4, 5],
        }

    def test_times_are_bit_exact(self, path_id):
        times = (1.2345678, 1e-300, 5e-324, 123456.789012345678)
        receipt = SampleReceipt(
            path_id=path_id,
            samples=list(enumerate(times)),
        )
        form = canonical_receipts({5: HOPReport(hop_id=5, sample_receipts=(receipt,))})
        records = form["5"]["samples"][0]["records"]
        assert [float.fromhex(spelled) for _, spelled in records] == list(times)

    def test_no_threshold_is_null(self, path_id):
        receipt = SampleReceipt(
            path_id=path_id, samples=[(7, 1.0)], sampling_threshold=None
        )
        form = canonical_receipts({5: HOPReport(hop_id=5, sample_receipts=(receipt,))})
        assert form["5"]["samples"][0]["threshold"] is None
        assert '"threshold":null' in json.dumps(form, separators=(",", ":"))

    def test_edge_hop_receipts_have_the_same_form(self, prefix_pair, full_report):
        edge = PathID(
            prefix_pair=prefix_pair, reporting_hop=5, previous_hop=None, next_hop=6, max_diff=2e-3
        )
        edge_report = dataclasses.replace(
            full_report,
            sample_receipts=(dataclasses.replace(full_report.sample_receipts[0], path_id=edge),),
            aggregate_receipts=(
                dataclasses.replace(full_report.aggregate_receipts[0], path_id=edge),
            ),
        )
        assert canonical_receipts({5: edge_report}) == canonical_receipts({5: full_report})

    def test_empty_report(self):
        assert canonical_receipts({3: HOPReport(hop_id=3)}) == {
            "3": {"samples": [], "aggregates": []}
        }
        assert canonical_receipts({}) == {}

    def test_json_is_stable_and_readable(self, full_report):
        form = canonical_receipts({5: full_report, 10: HOPReport(hop_id=10)})
        text = json.dumps(form, sort_keys=True, indent=2)
        assert '"pkt_count": 4242' in text
        assert json.loads(text) == form
        assert text == json.dumps(
            canonical_receipts({10: HOPReport(hop_id=10), 5: full_report}),
            sort_keys=True,
            indent=2,
        )


class TestDigest:
    def test_digest_is_blake2b_of_the_vpm2_bytes(self, full_report):
        reports = {5: full_report, 3: HOPReport(hop_id=3)}
        digest = receipts_digest(reports)
        encoded = encode_receipts(reports)
        assert encoded.startswith(b"VPM2")
        assert digest == hashlib.blake2b(encoded, digest_size=16).hexdigest()
        assert len(digest) == 32 and int(digest, 16) >= 0

    def test_digest_is_deterministic(self, full_report):
        copy = dataclasses.replace(full_report)
        assert receipts_digest({5: full_report}) == receipts_digest({5: copy})

    def test_insertion_order_of_hops_does_not_matter(self, full_report):
        other = dataclasses.replace(full_report, hop_id=6)
        assert receipts_digest({5: full_report, 6: other}) == receipts_digest(
            {6: other, 5: full_report}
        )

    def test_time_sum_within_its_tolerance_is_not_bound(self, full_report):
        nudged = _replace_aggregate(full_report, time_sum=45000.25 + 1e-9)
        assert receipts_digest({5: nudged}) == receipts_digest({5: full_report})
        assert canonical_receipts({5: nudged}) == canonical_receipts({5: full_report})

    @pytest.mark.parametrize("change", sorted(FIELD_CHANGES))
    def test_every_field_is_bound(self, full_report, change):
        changed = FIELD_CHANGES[change](full_report)
        key = changed.hop_id
        assert canonical_receipts({key: changed}) != canonical_receipts({5: full_report})
        assert receipts_digest({key: changed}) != receipts_digest({5: full_report})
        assert receipts_digest({key: changed}) == oracle_digest({key: changed})


class TestFieldRanges:
    """A value its VPM2 field cannot hold raises, naming the field."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("first_pkt_id", -1),
            ("last_pkt_id", 1 << 64),
            ("pkt_count", 1 << 64),
            ("first_pkt_id", 2.0),
        ],
    )
    def test_aggregate_field(self, full_report, field, value):
        with pytest.raises(ValueError, match=field):
            receipts_digest({5: _replace_aggregate(full_report, **{field: value})})

    @pytest.mark.parametrize("value", [-1, 1 << 64])
    def test_sampling_threshold(self, full_report, value):
        with pytest.raises(ValueError, match="sampling_threshold"):
            receipts_digest({5: _replace_sample(full_report, sampling_threshold=value)})

    def test_record_pkt_id(self, full_report):
        with pytest.raises(ValueError, match="pkt_id"):
            receipts_digest({5: _replace_record(full_report, pkt_id=1 << 64)})

    def test_reporting_hop(self, full_report):
        with pytest.raises(ValueError, match="reporting_hop"):
            receipts_digest({5: _other_path(full_report, reporting_hop=1 << 63)})

    def test_hop_id(self, full_report):
        with pytest.raises(ValueError, match="HOP id"):
            receipts_digest({1 << 63: full_report})

    def test_extremes_that_fit(self, full_report):
        widest = _replace_sample(
            _replace_aggregate(full_report, first_pkt_id=0, last_pkt_id=(1 << 64) - 1),
            sampling_threshold=(1 << 64) - 1,
        )
        reports = {-(1 << 63): widest, (1 << 63) - 1: HOPReport(hop_id=3)}
        assert receipts_digest(reports) == oracle_digest(reports)


class TestWireBytes:
    """The Section 7.1 accounting: 7 bytes per sample record."""

    def test_sample_record_is_seven_bytes(self, sample_receipt):
        assert SAMPLE_RECORD_BYTES == 7
        one = SampleReceipt(path_id=sample_receipt.path_id, samples=[(1, 0.5)])
        assert one.wire_bytes == 8 + SAMPLE_RECORD_BYTES
        assert sample_receipt.wire_bytes == 8 + 2 * SAMPLE_RECORD_BYTES

    def test_report_bytes_sum_its_receipts(self, full_report):
        assert full_report.wire_bytes == (8 + 2 * SAMPLE_RECORD_BYTES) + (
            AGGREGATE_RECEIPT_BYTES + 4 * 5
        )
        assert HOPReport(hop_id=3).wire_bytes == 0

    def test_bytes_do_not_depend_on_values(self, full_report):
        """The model counts fields, not the magnitude of what is in them."""
        small = _replace_record(
            _replace_aggregate(full_report, first_pkt_id=0, pkt_count=0, time_sum=0.0),
            pkt_id=0,
            time=0.0,
        )
        assert small.wire_bytes == full_report.wire_bytes


class TestEndToEndSerialization:
    @pytest.fixture(scope="class")
    def session_reports(self, path, small_trace_batch):
        from repro.core.aggregation import AggregatorConfig
        from repro.core.hop import HOPConfig
        from repro.core.protocol import VPMSession
        from repro.core.sampling import SamplerConfig
        from repro.simulation.scenario import PathScenario

        scenario = PathScenario()
        observation = scenario.run_batch(small_trace_batch.take(slice(0, 500)))
        config = HOPConfig(
            sampler=SamplerConfig(sampling_rate=0.2, marker_rate=0.05),
            aggregator=AggregatorConfig(expected_aggregate_size=100),
        )
        session = VPMSession(path, configs={d.name: config for d in path.domains})
        return feed_session(session, observation)

    def test_session_reports_digest_matches_the_oracle(self, session_reports):
        assert any(report.sample_receipts for report in session_reports.values())
        assert any(report.aggregate_receipts for report in session_reports.values())
        assert receipts_digest(session_reports) == oracle_digest(session_reports)

    def test_session_reports_survive_the_canonical_form(self, session_reports):
        form = json.loads(json.dumps(canonical_receipts(session_reports)))
        assert sorted(form) == sorted(str(hop) for hop in session_reports)
        for hop_id, report in session_reports.items():
            hop_form = form[str(hop_id)]
            assert [
                [(pkt_id, float.fromhex(time)) for pkt_id, time in sample["records"]]
                for sample in hop_form["samples"]
            ] == [
                receipt.samples.tolist()
                for receipt in report.sample_receipts
            ]
            assert [aggregate["pkt_count"] for aggregate in hop_form["aggregates"]] == [
                receipt.pkt_count for receipt in report.aggregate_receipts
            ]
