"""Unit tests for the columnar packet batch and the batch collector pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.hop import HOPCollector, HOPConfig
from repro.core.protocol import VPMSession
from repro.core.sampling import SamplerConfig
from repro.core.aggregation import AggregatorConfig
from repro.engine.streaming import StreamingCell, StreamingRunner
from repro.net.clock import PerfectClock
from repro.net.packet import HEADER_PACK_BYTES, Packet, PacketHeaders, pack_header_columns
from repro.net.topology import figure1_topology
from repro.simulation.scenario import PathScenario, SegmentCondition
from repro.traffic.delay_models import JitterDelayModel
from repro.traffic.loss_models import BernoulliLossModel
from repro.traffic.trace import SyntheticTrace, TraceConfig

from tests.conformance.canon import assert_same_propagation
from tests.helpers import ClockModel, batch_from_packets


@pytest.fixture(scope="module")
def small_trace():
    return SyntheticTrace(config=TraceConfig(packet_count=4000), seed=11)


@pytest.fixture(scope="module")
def small_batch(small_trace):
    return small_trace.packet_batch()


class TestPacketBatch:
    def test_round_trip_preserves_everything(self, small_batch):
        packets = small_batch.to_packets()
        rebuilt = batch_from_packets(packets)
        for column in ("src_ip", "dst_ip", "src_port", "dst_port", "protocol",
                       "ip_id", "length", "payload", "uid", "send_time", "flow_id"):
            assert np.array_equal(getattr(rebuilt, column), getattr(small_batch, column)), column

    def test_packets_equals_packet_batch(self, small_trace):
        listed = SyntheticTrace(config=small_trace.config, seed=11).packets()
        batched = SyntheticTrace(config=small_trace.config, seed=11).packet_batch()
        assert len(listed) == len(batched)
        assert batched.to_packets() == listed

    def test_pack_header_columns_matches_pack(self, small_batch):
        matrix = pack_header_columns(
            small_batch.src_ip, small_batch.dst_ip, small_batch.src_port,
            small_batch.dst_port, small_batch.protocol, small_batch.ip_id,
            small_batch.length,
        )
        assert matrix.shape == (len(small_batch), HEADER_PACK_BYTES)
        for index in (0, 17, len(small_batch) - 1):
            assert matrix[index].tobytes() == small_batch.to_packets()[index].headers.pack()

    def test_take_preserves_order_and_content(self, small_batch):
        indices = np.array([5, 3, 3, 100])
        taken = small_batch.take(indices)
        assert len(taken) == 4
        assert list(taken.uid) == [int(small_batch.uid[i]) for i in indices]


class TestClockBatch:
    def test_perfect_clock_batch(self):
        times = np.array([0.0, 1.5, 2.25])
        assert np.array_equal(PerfectClock().read_batch(times), times)

    def test_clock_model_batch_matches_scalar(self):
        clock_a = ClockModel(offset=1e-3, drift_ppm=15.0, jitter_std=2e-6, seed=9)
        clock_b = ClockModel(offset=1e-3, drift_ppm=15.0, jitter_std=2e-6, seed=9)
        times = np.linspace(0.0, 10.0, 257)
        batch = clock_a.read_batch(times)
        scalar = np.array([clock_b.read(float(value)) for value in times])
        assert np.array_equal(batch, scalar)


class TestHOPConfigDefaults:
    def test_default_sub_configs_are_independent_instances(self):
        first, second = HOPConfig(), HOPConfig()
        assert first.sampler is not second.sampler
        assert first.aggregator is not second.aggregator
        assert first.digester is not second.digester


class TestCollectorBatch:
    def test_observe_batch_matches_scalar_loop(self, small_batch):
        _, path = figure1_topology()
        config = HOPConfig(
            sampler=SamplerConfig(sampling_rate=0.05, marker_rate=0.01),
            aggregator=AggregatorConfig(expected_aggregate_size=500, reorder_window=1e-3),
        )
        scalar = HOPCollector(path.hops[3], config)
        scalar.register_path(path)
        batched = HOPCollector(path.hops[3], config)
        batched.register_path(path)

        for packet in small_batch.to_packets():
            scalar.observe(packet, packet.send_time)
        assert batched.observe_batch(small_batch) == len(small_batch)

        state_scalar = scalar.states()[0]
        state_batched = batched.states()[0]
        assert state_scalar.observed_packets == state_batched.observed_packets
        assert state_scalar.observed_bytes == state_batched.observed_bytes
        assert state_scalar.sampler.state_digest() == state_batched.sampler.state_digest()
        state_scalar.aggregator.flush()
        state_batched.aggregator.flush()
        scalar_receipts = state_scalar.aggregator.receipts(state_scalar.path_id)
        batched_receipts = state_batched.aggregator.receipts(state_batched.path_id)
        assert [
            (r.first_pkt_id, r.last_pkt_id, r.pkt_count, r.trans_before, r.trans_after)
            for r in scalar_receipts
        ] == [
            (r.first_pkt_id, r.last_pkt_id, r.pkt_count, r.trans_before, r.trans_after)
            for r in batched_receipts
        ]

    def test_unmatched_packets_are_counted(self, small_batch):
        _, path = figure1_topology()
        collector = HOPCollector(path.hops[0])
        # No registered path: everything is unclassified.
        assert collector.observe_batch(small_batch) == 0
        assert collector._unclassified_packets == len(small_batch)

    def test_multi_path_jittery_clock_matches_scalar(self):
        """Clock RNG draws stay in observation order across interleaved paths."""
        from repro.net.prefixes import OriginPrefix, PrefixPair
        from repro.net.topology import HOP, HOPPath

        _, base_path = figure1_topology()
        other_pair = PrefixPair(
            source=OriginPrefix.parse("10.3.0.0/16"),
            destination=OriginPrefix.parse("10.4.0.0/16"),
        )

        def make_collector():
            base = base_path.hops[2]
            hop = HOP(
                hop_id=base.hop_id,
                domain=base.domain,
                role=base.role,
                clock=ClockModel(offset=1e-4, drift_ppm=5.0, jitter_std=1e-3, seed=7),
            )
            hops = tuple(hop if h.hop_id == base.hop_id else h for h in base_path.hops)
            collector = HOPCollector(hop, HOPConfig(sampler=SamplerConfig(sampling_rate=0.2, marker_rate=0.05)))
            collector.register_path(HOPPath(prefix_pair=base_path.prefix_pair, hops=hops))
            collector.register_path(HOPPath(prefix_pair=other_pair, hops=hops))
            return collector

        pairs = [base_path.prefix_pair, other_pair]
        packets = [
            Packet(
                headers=PacketHeaders(
                    src_ip=pairs[index % 2].source.host(index),
                    dst_ip=pairs[index % 2].destination.host(index),
                    src_port=1000 + index,
                    dst_port=80,
                    protocol=6,
                    ip_id=index & 0xFFFF,
                    length=100,
                ),
                payload=bytes(8),
                uid=index,
                send_time=index * 1e-5,
            )
            for index in range(400)
        ]
        scalar = make_collector()
        batched = make_collector()
        for packet in packets:
            scalar.observe(packet, packet.send_time)
        batched.observe_batch(batch_from_packets(packets))
        for state_scalar, state_batched in zip(scalar.states(), batched.states()):
            assert state_scalar.sampler.state_digest() == state_batched.sampler.state_digest()

    def test_take_shares_digests_with_root(self, small_batch):
        from repro.net.hashing import PacketDigester

        digester = PacketDigester(seed=77)
        derived = small_batch.take(np.arange(100, 300)).take(np.arange(10, 50))
        derived_digests = digester.digest_batch(derived)
        # The root batch's cache was populated by the derived lookup.
        assert (77, 8) in small_batch._digest_cache
        expected = digester.digest_batch(small_batch)[np.arange(100, 300)[np.arange(10, 50)]]
        assert np.array_equal(derived_digests, expected)


class TestScenarioBatch:
    def test_run_batch_matches_run(self, small_batch):
        def build():
            scenario = PathScenario(seed=5)
            scenario.configure_domain(
                "X",
                SegmentCondition(
                    delay_model=JitterDelayModel(base_delay=1e-3, jitter_std=0.5e-3, seed=6),
                    loss_model=BernoulliLossModel(0.05, seed=7),
                ),
            )
            return scenario

        observation = build().run(small_batch.to_packets())
        batch_observation = build().run_batch(small_batch)
        assert batch_observation.truth_for("X").lost_packets > 0
        assert_same_propagation(observation, batch_observation)

    def test_session_reports_identical_for_both_paths(self, small_batch):
        def build():
            scenario = PathScenario(seed=5)
            scenario.configure_domain(
                "X",
                SegmentCondition(
                    delay_model=JitterDelayModel(base_delay=1e-3, jitter_std=0.5e-3, seed=6),
                    loss_model=BernoulliLossModel(0.05, seed=7),
                ),
            )
            return scenario

        config = HOPConfig(
            sampler=SamplerConfig(sampling_rate=0.05),
            aggregator=AggregatorConfig(expected_aggregate_size=1000),
        )

        scenario = build()
        session_scalar = VPMSession(
            scenario.path, configs={d.name: config for d in scenario.path.domains}
        )
        session_scalar.run(scenario.run(small_batch.to_packets()))

        scenario = build()
        session_batch = VPMSession(
            scenario.path, configs={d.name: config for d in scenario.path.domains}
        )
        trace = SyntheticTrace(config=TraceConfig(packet_count=4000), seed=11)
        cell = StreamingCell((scenario,), (trace,), session_batch)
        StreamingRunner(cell, chunk_size=None).run()

        performance_scalar = session_scalar.estimate("L", "X")
        performance_batch = session_batch.estimate("L", "X")
        assert performance_scalar.loss_rate == performance_batch.loss_rate
        assert performance_scalar.delay_sample_count == performance_batch.delay_sample_count
        assert session_scalar.verify("L", "X").accepted == session_batch.verify("L", "X").accepted
        assert (
            session_scalar.overhead().receipt_bytes == session_batch.overhead().receipt_bytes
        )

    def test_batch_predicates_must_return_masks(self, small_batch):
        scenario = PathScenario(seed=5)
        scenario.configure_domain(
            "X",
            SegmentCondition(drop_predicate=lambda packet: True),  # object-style predicate
        )
        with pytest.raises(TypeError, match="boolean mask"):
            scenario.run_batch(small_batch)

    def test_batch_drop_predicate_drops_marked_packets(self, small_batch):
        scenario = PathScenario(seed=5)
        scenario.configure_domain(
            "X",
            SegmentCondition(drop_predicate=lambda batch: batch.uid % 100 == 0),
        )
        observation = scenario.run_batch(small_batch)
        marked = {int(uid) for uid in small_batch.uid if uid % 100 == 0}
        x_hops = observation.path.hops_of("X")
        ingress_uids = set(observation.at_hop(x_hops[0])[0].uid.tolist())
        egress_uids = set(observation.at_hop(x_hops[-1])[0].uid.tolist())
        assert marked and marked <= ingress_uids
        assert not marked & egress_uids
        assert observation.truth_for("X").lost_packets == len(marked)

    def test_run_batch_on_empty_batch(self, small_batch):
        empty = small_batch.take(np.empty(0, dtype=np.int64))
        observation = PathScenario(seed=5).run_batch(empty)
        assert all(len(observation.at_hop(hop)[0]) == 0 for hop in observation.path.hops)
        # Equal to the scalar run: empty spans and zero offered packets everywhere.
        assert_same_propagation(PathScenario(seed=5).run([]), observation)

    def test_run_batch_all_lost_interval(self, small_batch):
        def build():
            scenario = PathScenario(seed=5)
            scenario.configure_domain(
                "X", SegmentCondition(loss_model=BernoulliLossModel(1.0, seed=7))
            )
            return scenario

        observation = build().run_batch(small_batch)
        hops = observation.path.hops
        x_egress = observation.path.hops_of("X")[-1]
        assert len(observation.at_hop(hops[0])[0]) == len(small_batch)
        for hop in hops[hops.index(x_egress):]:
            assert len(observation.at_hop(hop)[0]) == 0
        assert observation.truth_for("X").loss_rate == 1.0
        assert observation.truth_for("N").offered_packets == 0
        assert_same_propagation(build().run(small_batch.to_packets()), observation)
