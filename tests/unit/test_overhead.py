"""Unit tests for repro.reporting.overhead (the Section 7.1 models)."""

from __future__ import annotations

import pytest

from repro.reporting.overhead import (
    BandwidthOverheadModel,
    CollectorMemoryModel,
    PerPacketProcessingModel,
)


class TestCollectorMemory:
    def test_monitoring_cache_matches_paper(self):
        # 100,000 active paths at ~20 bytes each -> a 2 MB monitoring cache.
        model = CollectorMemoryModel(active_paths=100_000)
        assert model.monitoring_cache_bytes == pytest.approx(2e6, rel=0.05)

    def test_temp_buffer_typical_case_matches_paper(self):
        # 10 Gbps at 400-byte packets, J = 10 ms -> ~436 KB (paper's figure is
        # computed with 3.125 Mpps and 7+ bytes of per-packet state).
        model = CollectorMemoryModel(
            interface_gbps=10, mean_packet_size=400, reorder_window=0.01
        )
        assert model.temp_buffer_bytes == pytest.approx(436e3, rel=0.5)
        assert model.packets_per_second == pytest.approx(3.125e6)

    def test_temp_buffer_worst_case_within_sram(self):
        # Worst case (all minimum-size packets, ~20 Mpps) stays within one
        # SRAM chip — "even assuming worst-case traffic, the amount of
        # buffering we need fits into a single SRAM chip".
        model = CollectorMemoryModel(
            interface_gbps=10, mean_packet_size=62, reorder_window=0.01
        )
        assert model.temp_buffer_bytes == pytest.approx(2.8e6, rel=0.5)
        assert model.fits_in_sram_chip()

    def test_total_is_sum(self):
        model = CollectorMemoryModel()
        assert model.total_bytes == model.monitoring_cache_bytes + model.temp_buffer_bytes

    def test_validation(self):
        with pytest.raises(ValueError):
            CollectorMemoryModel(active_paths=0)
        with pytest.raises(ValueError):
            CollectorMemoryModel(reorder_window=0)


class TestProcessing:
    def test_access_count_matches_paper(self):
        # Three accesses per packet plus one amortized marker-scan access.
        model = PerPacketProcessingModel()
        assert model.total_memory_accesses_per_packet == 4

    def test_accesses_per_second_scales(self):
        model = PerPacketProcessingModel()
        assert model.accesses_per_second(3.125e6) == pytest.approx(12.5e6)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            PerPacketProcessingModel().accesses_per_second(-1)


class TestBandwidth:
    def test_paper_scenario_aggregate_only(self):
        # 10-domain path, 1000-packet aggregates, 22-byte receipts:
        # ~0.2 receipt bytes per packet, ~0.05% of 400-byte packets.
        model = BandwidthOverheadModel()
        assert model.aggregate_only_bytes_per_packet == pytest.approx(0.22, rel=0.05)
        assert model.aggregate_only_bandwidth_overhead == pytest.approx(0.00055, rel=0.05)

    def test_full_accounting_includes_samples(self):
        model = BandwidthOverheadModel(sampling_rate=0.01)
        assert model.receipt_bytes_per_packet > model.aggregate_only_bytes_per_packet
        # Still well below 1%.
        assert model.bandwidth_overhead < 0.01

    def test_overhead_decreases_with_larger_aggregates(self):
        small = BandwidthOverheadModel(packets_per_aggregate=100)
        large = BandwidthOverheadModel(packets_per_aggregate=10_000)
        assert large.receipt_bytes_per_packet < small.receipt_bytes_per_packet

    def test_overhead_scales_with_hops(self):
        short = BandwidthOverheadModel(hops_on_path=4)
        long = BandwidthOverheadModel(hops_on_path=10)
        assert long.receipt_bytes_per_packet == pytest.approx(
            2.5 * short.receipt_bytes_per_packet
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            BandwidthOverheadModel(hops_on_path=0)
        with pytest.raises(ValueError):
            BandwidthOverheadModel(sampling_rate=0.0)

