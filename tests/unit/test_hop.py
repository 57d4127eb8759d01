"""Unit tests for repro.core.hop (collector and processor modules)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.aggregation import AggregatorConfig
from repro.core.hop import HOPCollector, HOPConfig, HOPProcessor
from repro.core.sampling import SamplerConfig
from tests.conftest import make_packet
from tests.helpers import batch_from_packets, sampled_ids


@pytest.fixture()
def hop4(topology):
    return topology.hop(4)


@pytest.fixture()
def collector(hop4, path) -> HOPCollector:
    config = HOPConfig(
        sampler=SamplerConfig(sampling_rate=0.2, marker_rate=0.05),
        aggregator=AggregatorConfig(expected_aggregate_size=100),
    )
    collector = HOPCollector(hop4, config)
    collector.register_path(path, max_diff=1e-3)
    return collector


class TestRegisterPath:
    def test_path_id_reflects_hop_position(self, collector, path):
        state = collector.path_state(path)
        assert state.path_id.reporting_hop == 4
        assert state.path_id.previous_hop == 3
        assert state.path_id.next_hop == 5
        assert state.path_id.max_diff == 1e-3

    def test_edge_hops_have_one_sided_path_ids(self, topology, path):
        source = HOPCollector(topology.hop(1))
        path_id = source.register_path(path)
        assert path_id.previous_hop is None
        assert path_id.next_hop == 2
        destination = HOPCollector(topology.hop(8))
        path_id = destination.register_path(path)
        assert path_id.previous_hop == 7
        assert path_id.next_hop is None

    def test_register_foreign_hop_rejected(self, path):
        from repro.net.topology import HOP, Domain

        hop_not_on_path = HOP(hop_id=99, domain=Domain("S"))
        bad_collector = HOPCollector(hop_not_on_path)
        with pytest.raises(ValueError):
            bad_collector.register_path(path)


class TestObserve:
    def test_matching_packets_counted(self, collector, small_trace_batch):
        head = small_trace_batch.take(np.arange(500))
        assert collector.observe_batch(head) == 500
        assert collector.observed_packets == 500
        assert collector.observed_bytes == int(head.length.sum())

    def test_unmatched_packets_ignored(self, collector):
        alien = make_packet(src_ip=0xC0A80001, dst_ip=0xC0A80002)
        untouched = collector.state_digest()
        assert collector.observe_batch(batch_from_packets([alien]), [0.0]) == 0
        assert collector.observed_packets == 0
        assert collector.state_digest() == untouched

    def test_timestamps_are_the_observation_times(self, path, small_trace_batch):
        collector = HOPCollector(
            path.hops[3], HOPConfig(sampler=SamplerConfig(sampling_rate=1.0, marker_rate=1.0))
        )
        collector.register_path(path)
        collector.observe_batch(small_trace_batch.take(np.arange(1)), [1.5])
        report = HOPProcessor(collector).generate_report(flush=True)
        assert report.sample_receipts[0].samples["time"][0] == 1.5

    def test_times_must_match_the_batch(self, collector, small_trace_batch):
        with pytest.raises(ValueError, match=r"times must have shape \(3,\)"):
            collector.observe_batch(small_trace_batch.take(np.arange(3)), [0.0, 1.0])

    def test_active_paths_counter(self, collector):
        assert collector.active_paths == 1


class TestProcessor:
    def test_report_contains_samples_and_aggregates(self, collector, small_trace_batch):
        collector.observe_batch(small_trace_batch)
        processor = HOPProcessor(collector)
        report = processor.generate_report(flush=True)
        assert report.hop_id == 4
        assert len(report.sample_receipts) == 1
        assert len(report.sample_receipts[0]) > 0
        assert len(report.aggregate_receipts) > 0
        assert report.wire_bytes > 0

    def test_flush_accounts_for_every_packet(self, collector, small_trace_batch):
        collector.observe_batch(small_trace_batch)
        report = HOPProcessor(collector).generate_report(flush=True)
        assert sum(receipt.pkt_count for receipt in report.aggregate_receipts) == len(
            small_trace_batch
        )

    def test_periodic_reports_do_not_double_count(self, collector, small_trace_batch):
        processor = HOPProcessor(collector)
        half = len(small_trace_batch) // 2
        collector.observe_batch(small_trace_batch.take(np.arange(half)))
        first = processor.generate_report(flush=False)
        collector.observe_batch(small_trace_batch.take(np.arange(half, len(small_trace_batch))))
        second = processor.generate_report(flush=True)
        total = sum(r.pkt_count for r in first.aggregate_receipts) + sum(
            r.pkt_count for r in second.aggregate_receipts
        )
        assert total == len(small_trace_batch)
        first_ids = set()
        for receipt in first.sample_receipts:
            first_ids |= sampled_ids(receipt)
        second_ids = set()
        for receipt in second.sample_receipts:
            second_ids |= sampled_ids(receipt)
        assert not (first_ids & second_ids)

    def test_empty_report_when_nothing_observed(self, hop4, path):
        collector = HOPCollector(hop4)
        collector.register_path(path)
        report = HOPProcessor(collector).generate_report(flush=True)
        assert report.sample_receipts == ()
        assert report.aggregate_receipts == ()
        assert report.wire_bytes == 0
