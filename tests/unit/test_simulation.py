"""Unit tests for the simulation substrate: queueing, congestion."""

from __future__ import annotations

import numpy as np
import pytest

from repro.simulation.congestion import CongestionScenario
from repro.simulation.queueing import BottleneckQueue, TCPSawtoothSource, UDPBurstSource


class TestBottleneckQueue:
    def test_uncontended_delay_is_transmission_time(self):
        queue = BottleneckQueue(bandwidth_bps=8_000_000)  # 1 MB/s
        arrivals = np.array([0.0, 1.0, 2.0])
        sizes = np.array([1000.0, 1000.0, 1000.0])
        delays, stats = queue.run(arrivals, sizes, np.array([]), np.array([]))
        assert np.allclose(delays, 1000 * 8 / 8_000_000)
        assert stats.dropped_cross_packets == 0

    def test_back_to_back_arrivals_queue_up(self):
        queue = BottleneckQueue(bandwidth_bps=8_000_000)
        arrivals = np.zeros(5)
        sizes = np.full(5, 1000.0)
        delays, _ = queue.run(arrivals, sizes, np.array([]), np.array([]))
        service = 1000 * 8 / 8_000_000
        assert delays.tolist() == pytest.approx([service * (k + 1) for k in range(5)])

    def test_cross_traffic_increases_monitored_delay(self):
        queue = BottleneckQueue(bandwidth_bps=8_000_000)
        arrivals = np.linspace(0, 0.1, 50)
        sizes = np.full(50, 400.0)
        base_delays, _ = queue.run(arrivals, sizes, np.array([]), np.array([]))
        cross_arrivals = np.linspace(0, 0.1, 2000)
        cross_sizes = np.full(2000, 1000.0)
        loaded_delays, _ = queue.run(arrivals, sizes, cross_arrivals, cross_sizes)
        assert loaded_delays.mean() > base_delays.mean()

    def test_monitored_packets_never_dropped(self):
        queue = BottleneckQueue(bandwidth_bps=1_000_000, capacity_packets=5)
        arrivals = np.linspace(0, 0.01, 20)
        sizes = np.full(20, 400.0)
        cross_arrivals = np.linspace(0, 0.01, 500)
        cross_sizes = np.full(500, 1500.0)
        delays, stats = queue.run(arrivals, sizes, cross_arrivals, cross_sizes)
        assert np.all(np.isfinite(delays))
        assert stats.dropped_cross_packets > 0

    def test_mismatched_lengths_rejected(self):
        queue = BottleneckQueue(bandwidth_bps=1e6)
        with pytest.raises(ValueError):
            queue.run(np.array([0.0]), np.array([1.0, 2.0]), np.array([]), np.array([]))

    def test_stats_utilization_bounded(self):
        queue = BottleneckQueue(bandwidth_bps=1e8)
        arrivals = np.linspace(0, 0.1, 100)
        sizes = np.full(100, 400.0)
        _, stats = queue.run(arrivals, sizes, np.array([]), np.array([]))
        assert 0.0 <= stats.utilization <= 1.0


class TestCrossTrafficSources:
    def test_udp_burst_produces_on_off_pattern(self):
        source = UDPBurstSource(bandwidth_bps=100e6, seed=1)
        arrivals, sizes = source.arrivals(0.0, 1.0)
        assert len(arrivals) > 0
        assert np.all(np.diff(np.sort(arrivals)) >= 0)
        assert set(sizes.tolist()) == {source.packet_size}
        # On/off behaviour: the arrival process should have quiet gaps much
        # longer than the typical inter-arrival time.
        gaps = np.diff(np.sort(arrivals))
        assert gaps.max() > 20 * np.median(gaps)

    def test_udp_burst_empty_interval(self):
        source = UDPBurstSource(bandwidth_bps=100e6, seed=2)
        arrivals, sizes = source.arrivals(1.0, 1.0)
        assert len(arrivals) == 0 and len(sizes) == 0

    def test_tcp_sawtooth_rate_near_target(self):
        source = TCPSawtoothSource(
            bandwidth_bps=100e6, target_utilization=0.5, packet_size=1500, seed=3
        )
        arrivals, sizes = source.arrivals(0.0, 2.0)
        offered_bps = sizes.sum() * 8 / 2.0
        assert offered_bps == pytest.approx(0.5 * 100e6, rel=0.3)

    def test_tcp_sawtooth_sorted_within_slots(self):
        source = TCPSawtoothSource(bandwidth_bps=50e6, seed=4)
        arrivals, _ = source.arrivals(0.0, 0.5)
        assert np.all(np.diff(arrivals) >= -1e-9)


class TestCongestionScenario:
    def test_monitored_delays_positive_and_variable(self):
        scenario = CongestionScenario(seed=1)
        arrivals = np.arange(5000) / 100_000.0
        delays = scenario.monitored_delays(arrivals, packet_size=400)
        assert np.all(delays > 0)
        assert delays.std() > 0
        assert scenario.last_stats is not None

    def test_higher_utilization_means_higher_delay(self):
        arrivals = np.arange(5000) / 100_000.0
        light = CongestionScenario(utilization=0.3, seed=2).monitored_delays(arrivals)
        heavy = CongestionScenario(utilization=1.2, seed=2).monitored_delays(arrivals)
        assert heavy.mean() > light.mean()

    def test_unsorted_arrivals_rejected(self):
        scenario = CongestionScenario(seed=3)
        with pytest.raises(ValueError):
            scenario.monitored_delays(np.array([0.0, 2.0, 1.0]))

    def test_per_packet_sizes_accepted(self):
        scenario = CongestionScenario(seed=4)
        arrivals = np.arange(1000) / 100_000.0
        sizes = np.full(1000, 1500.0)
        delays = scenario.monitored_delays(arrivals, packet_size=sizes)
        assert len(delays) == 1000

    def test_size_length_mismatch_rejected(self):
        scenario = CongestionScenario(seed=5)
        with pytest.raises(ValueError):
            scenario.monitored_delays(np.arange(10) / 1e5, packet_size=np.ones(5))

    def test_empty_arrivals(self):
        assert CongestionScenario(seed=6).monitored_delays(np.array([])).size == 0

    def test_invalid_scenario_rejected(self):
        with pytest.raises(ValueError):
            CongestionScenario(scenario="quantum")

    @pytest.mark.parametrize("kind", ["udp-burst", "tcp-mix", "mixed"])
    def test_all_scenarios_run(self, kind):
        scenario = CongestionScenario(scenario=kind, seed=7)
        arrivals = np.arange(2000) / 100_000.0
        delays = scenario.monitored_delays(arrivals)
        assert len(delays) == 2000
