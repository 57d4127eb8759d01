"""Unit tests for repro.core.consistency."""

from __future__ import annotations

import pytest

from repro.core.consistency import (
    check_aggregate_consistency,
    check_link_consistency,
    check_sample_consistency,
)
from repro.core.receipts import AggregateReceipt, PathID, SampleReceipt


@pytest.fixture()
def upstream_path_id(prefix_pair) -> PathID:
    """PathID of the egress HOP delivering onto the inter-domain link."""
    return PathID(
        prefix_pair=prefix_pair, reporting_hop=5, previous_hop=4, next_hop=6, max_diff=1e-3
    )


@pytest.fixture()
def downstream_path_id(prefix_pair) -> PathID:
    """PathID of the ingress HOP receiving from the inter-domain link."""
    return PathID(
        prefix_pair=prefix_pair, reporting_hop=6, previous_hop=5, next_hop=7, max_diff=1e-3
    )


def sample_receipt(path_id, records, threshold=1000) -> SampleReceipt:
    return SampleReceipt(
        path_id=path_id,
        samples=records,
        sampling_threshold=threshold,
    )


def aggregate_receipt(path_id, count, first=1, last=2) -> AggregateReceipt:
    return AggregateReceipt(
        path_id=path_id, first_pkt_id=first, last_pkt_id=last, pkt_count=count,
        start_time=0.0, end_time=1.0,
    )


class TestSampleConsistency:
    def test_consistent_receipts_produce_no_findings(self, upstream_path_id, downstream_path_id):
        upstream = sample_receipt(upstream_path_id, [(1, 1.0), (2, 2.0)])
        downstream = sample_receipt(downstream_path_id, [(1, 1.0005), (2, 2.0003)])
        assert check_sample_consistency(upstream, downstream) == []

    def test_delay_bound_violation_detected(self, upstream_path_id, downstream_path_id):
        upstream = sample_receipt(upstream_path_id, [(1, 1.0)])
        downstream = sample_receipt(downstream_path_id, [(1, 1.01)])  # 10 ms > MaxDiff
        findings = check_sample_consistency(upstream, downstream)
        assert len(findings) == 1
        assert findings[0].kind == "delay-bound-violation"
        assert findings[0].pkt_id == 1

    def test_negative_time_difference_is_violation(self, upstream_path_id, downstream_path_id):
        upstream = sample_receipt(upstream_path_id, [(1, 2.0)])
        downstream = sample_receipt(downstream_path_id, [(1, 1.0)])
        findings = check_sample_consistency(upstream, downstream)
        assert findings[0].kind == "delay-bound-violation"

    def test_max_diff_mismatch_detected(self, prefix_pair, downstream_path_id):
        upstream_path = PathID(
            prefix_pair=prefix_pair, reporting_hop=5, previous_hop=4, next_hop=6,
            max_diff=5e-3,
        )
        upstream = sample_receipt(upstream_path, [(1, 1.0)])
        downstream = sample_receipt(downstream_path_id, [(1, 1.0001)])
        kinds = {finding.kind for finding in check_sample_consistency(upstream, downstream)}
        assert "max-diff-mismatch" in kinds

    def test_missing_downstream_detected_with_equal_thresholds(
        self, upstream_path_id, downstream_path_id
    ):
        upstream = sample_receipt(upstream_path_id, [(1, 1.0), (2, 2.0)])
        downstream = sample_receipt(downstream_path_id, [(1, 1.0001)])
        findings = check_sample_consistency(upstream, downstream)
        assert [finding.kind for finding in findings] == ["missing-downstream"]
        assert findings[0].pkt_id == 2

    def test_missing_downstream_not_flagged_when_downstream_samples_less(
        self, upstream_path_id, downstream_path_id
    ):
        # Downstream samples a subset (higher threshold): absence is expected.
        upstream = sample_receipt(upstream_path_id, [(1, 1.0), (2, 2.0)], threshold=1000)
        downstream = sample_receipt(downstream_path_id, [(1, 1.0001)], threshold=2000)
        assert check_sample_consistency(upstream, downstream) == []

    def test_missing_upstream_detected(self, upstream_path_id, downstream_path_id):
        upstream = sample_receipt(upstream_path_id, [(1, 1.0)])
        downstream = sample_receipt(downstream_path_id, [(1, 1.0001), (9, 2.0)])
        kinds = [finding.kind for finding in check_sample_consistency(upstream, downstream)]
        assert kinds == ["missing-upstream"]

    def test_missing_upstream_not_flagged_when_upstream_samples_less(
        self, upstream_path_id, downstream_path_id
    ):
        upstream = sample_receipt(upstream_path_id, [(1, 1.0)], threshold=2000)
        downstream = sample_receipt(
            downstream_path_id, [(1, 1.0001), (9, 2.0)], threshold=1000
        )
        assert check_sample_consistency(upstream, downstream) == []

    def test_finding_str_is_informative(self, upstream_path_id, downstream_path_id):
        upstream = sample_receipt(upstream_path_id, [(1, 1.0)])
        downstream = sample_receipt(downstream_path_id, [(1, 1.01)])
        text = str(check_sample_consistency(upstream, downstream)[0])
        assert "HOP5" in text and "HOP6" in text


class TestAggregateConsistency:
    def test_equal_counts_consistent(self, upstream_path_id, downstream_path_id):
        upstream = aggregate_receipt(upstream_path_id, 100)
        downstream = aggregate_receipt(downstream_path_id, 100)
        assert check_aggregate_consistency(upstream, downstream) == []

    def test_count_mismatch_detected(self, upstream_path_id, downstream_path_id):
        upstream = aggregate_receipt(upstream_path_id, 100)
        downstream = aggregate_receipt(downstream_path_id, 97)
        findings = check_aggregate_consistency(upstream, downstream)
        assert len(findings) == 1
        assert findings[0].kind == "count-mismatch"
        assert "100" in findings[0].detail and "97" in findings[0].detail


class TestLinkConsistency:
    def test_clean_link_has_no_findings(self, upstream_path_id, downstream_path_id):
        upstream_samples = [sample_receipt(upstream_path_id, [(1, 1.0)])]
        downstream_samples = [sample_receipt(downstream_path_id, [(1, 1.0002)])]
        upstream_aggs = [aggregate_receipt(upstream_path_id, 10)]
        downstream_aggs = [aggregate_receipt(downstream_path_id, 10)]
        findings = check_link_consistency(
            upstream_samples, downstream_samples, upstream_aggs, downstream_aggs
        )
        assert findings == []

    def test_combined_findings_from_both_kinds(self, upstream_path_id, downstream_path_id):
        upstream_samples = [sample_receipt(upstream_path_id, [(1, 1.0), (2, 1.0)])]
        downstream_samples = [sample_receipt(downstream_path_id, [(1, 1.05)])]
        upstream_aggs = [aggregate_receipt(upstream_path_id, 10)]
        downstream_aggs = [aggregate_receipt(downstream_path_id, 8)]
        kinds = {
            finding.kind
            for finding in check_link_consistency(
                upstream_samples, downstream_samples, upstream_aggs, downstream_aggs
            )
        }
        assert "delay-bound-violation" in kinds
        assert "missing-downstream" in kinds
        assert "count-mismatch" in kinds

    def test_missing_side_skips_sample_check(self, upstream_path_id, downstream_path_id):
        findings = check_link_consistency(
            [], [sample_receipt(downstream_path_id, [(1, 1.0)])], [], []
        )
        assert findings == []

    def test_prealigned_aggregate_pairs_used(self, upstream_path_id, downstream_path_id):
        pairs = [
            (aggregate_receipt(upstream_path_id, 5), aggregate_receipt(downstream_path_id, 4))
        ]
        findings = check_link_consistency([], [], aggregate_pairs=pairs)
        assert len(findings) == 1
        assert findings[0].kind == "count-mismatch"
