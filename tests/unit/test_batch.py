"""Unit tests for the columnar packet batch and the batch collector pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.hop import HOPCollector, HOPConfig
from repro.core.protocol import VPMSession
from repro.core.sampling import SamplerConfig
from repro.core.aggregation import AggregatorConfig
from repro.engine.streaming import StreamingCell, StreamingRunner
from repro.net.packet import HEADER_PACK_BYTES, Packet, PacketHeaders, pack_header_columns
from repro.net.topology import figure1_topology
from repro.simulation.scenario import PathScenario, SegmentCondition
from repro.traffic.delay_models import JitterDelayModel
from repro.traffic.loss_models import BernoulliLossModel
from repro.traffic.trace import SyntheticTrace, TraceConfig

from tests.helpers import batch_from_packets
from tests.oracle.collectors import ReferenceCollector
from tests.oracle.objects import assert_same_propagation, run_path, run_session


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


class TestHOPConfigDefaults:
    def test_default_sub_configs_are_independent_instances(self):
        first, second = HOPConfig(), HOPConfig()
        assert first.sampler is not second.sampler
        assert first.aggregator is not second.aggregator
        assert first.digester is not second.digester


class TestCollectorBatch:
    def test_observe_batch_matches_reference(self, small_batch):
        _, path = figure1_topology()
        config = HOPConfig(
            sampler=SamplerConfig(sampling_rate=0.05, marker_rate=0.01),
            aggregator=AggregatorConfig(expected_aggregate_size=500, reorder_window=1e-3),
        )
        batched = HOPCollector(path.hops[3], config)
        batched.register_path(path)
        reference = ReferenceCollector(batched)

        reference.observe_sequence(
            (packet, packet.send_time) for packet in small_batch.to_packets()
        )
        assert batched.observe_batch(small_batch) == len(small_batch)
        assert batched.state_digest() == reference.state_digest()

        state_reference = reference.states()[0]
        state_batched = batched.states()[0]
        assert state_reference.observed_packets == state_batched.observed_packets
        assert state_reference.observed_bytes == state_batched.observed_bytes
        state_reference.aggregator.flush()
        state_batched.aggregator.flush()
        reference_receipts = state_reference.aggregator.receipts(state_reference.path_id)
        batched_receipts = state_batched.aggregator.receipts(state_batched.path_id)
        def fields(r):
            windows = (r.trans_before.tolist(), r.trans_after.tolist())
            return (r.first_pkt_id, r.last_pkt_id, r.pkt_count, *windows)

        assert [fields(r) for r in reference_receipts] == [fields(r) for r in batched_receipts]

    def test_unmatched_packets_are_ignored(self, small_batch):
        _, path = figure1_topology()
        collector = HOPCollector(path.hops[0])
        untouched = collector.state_digest()
        # No registered path: everything is unclassified and leaves no state.
        assert collector.observe_batch(small_batch) == 0
        assert collector.observed_packets == 0
        assert collector.state_digest() == untouched

    @staticmethod
    def two_path_collector() -> tuple[HOPCollector, list[Packet]]:
        """A collector with two paths registered and 400 packets alternating between them."""
        from repro.net.prefixes import OriginPrefix, PrefixPair
        from repro.net.topology import HOPPath

        _, base_path = figure1_topology()
        other_pair = PrefixPair(
            source=OriginPrefix.parse("10.3.0.0/16"),
            destination=OriginPrefix.parse("10.4.0.0/16"),
        )
        collector = HOPCollector(
            base_path.hops[2], HOPConfig(sampler=SamplerConfig(sampling_rate=0.2, marker_rate=0.05))
        )
        collector.register_path(base_path)
        collector.register_path(HOPPath(prefix_pair=other_pair, hops=base_path.hops))
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
        return collector, packets

    def test_multi_path_matches_reference(self):
        """Interleaved paths are classified apart and each fed in its own order."""
        batched, packets = self.two_path_collector()
        reference = ReferenceCollector(batched)
        reference.observe_sequence((packet, packet.send_time) for packet in packets)
        batch = batch_from_packets(packets)
        batched.observe_batch(batch.take(np.arange(150)))
        batched.observe_batch(batch.take(np.arange(150, 400)))
        assert [state.observed_packets for state in batched.states()] == [200, 200]
        assert batched.state_digest() == reference.state_digest()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, "decrease", "carry"])
    def test_bad_time_on_any_path_changes_no_path(self, bad):
        """The times of every path are checked before the first path is fed."""
        collector, packets = self.two_path_collector()
        batch = batch_from_packets(packets)
        collector.observe_batch(batch.take(np.arange(100)))
        before = collector.state_digest()
        rest = batch.take(np.arange(100, 400))
        times = rest.send_time.copy()
        # Packet 5 of the rest is on the second path, which is fed last.
        if bad == "decrease":
            times[5] = times[3] - 1e-6
            message = r"times\[2\] = .* decreases from"
        elif bad == "carry":
            times[:] = times[0] - 1.0 + np.arange(len(times)) * 1e-5
            message = r"times\[0\] = .* decreases from"
        else:
            times[5] = bad
            message = r"times\[2\] is .*must be finite"
        with pytest.raises(ValueError, match=message):
            collector.observe_batch(rest, times)
        assert collector.state_digest() == before

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
            scenario = PathScenario()
            scenario.configure_domain(
                "X",
                SegmentCondition(
                    delay_model=JitterDelayModel(base_delay=1e-3, jitter_std=0.5e-3, seed=6),
                    loss_model=BernoulliLossModel(0.05, seed=7),
                ),
            )
            return scenario

        observation = run_path(build(), small_batch.to_packets())
        batch_observation = build().run_batch(small_batch)
        assert batch_observation.truth_for("X").lost_packets > 0
        assert_same_propagation(observation, batch_observation)

    def test_session_reports_identical_for_both_paths(self, small_batch):
        def build():
            scenario = PathScenario()
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
        session_oracle = VPMSession(
            scenario.path, configs={d.name: config for d in scenario.path.domains}
        )
        run_session(session_oracle, run_path(scenario, small_batch.to_packets()))

        scenario = build()
        session_batch = VPMSession(
            scenario.path, configs={d.name: config for d in scenario.path.domains}
        )
        trace = SyntheticTrace(config=TraceConfig(packet_count=4000), seed=11)
        cell = StreamingCell((scenario,), (trace,), session_batch)
        StreamingRunner(cell, chunk_size=None).run()

        performance_oracle = session_oracle.estimate("L", "X")
        performance_batch = session_batch.estimate("L", "X")
        assert performance_oracle.loss_rate == performance_batch.loss_rate
        assert performance_oracle.delay_sample_count == performance_batch.delay_sample_count
        assert session_oracle.verify("L", "X").accepted == session_batch.verify("L", "X").accepted
        assert (
            session_oracle.overhead().receipt_bytes == session_batch.overhead().receipt_bytes
        )

    def test_batch_predicates_must_return_masks(self, small_batch):
        scenario = PathScenario()
        scenario.configure_domain(
            "X",
            SegmentCondition(drop_predicate=lambda batch: True),  # not a mask
        )
        with pytest.raises(TypeError, match="boolean mask"):
            scenario.run_batch(small_batch)

    def test_batch_drop_predicate_drops_marked_packets(self, small_batch):
        scenario = PathScenario()
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
        observation = PathScenario().run_batch(empty)
        assert all(len(observation.at_hop(hop)[0]) == 0 for hop in observation.path.hops)
        # Equal to the object oracle: empty spans and zero offered packets everywhere.
        assert_same_propagation(run_path(PathScenario(), []), observation)

    def test_run_batch_all_lost_interval(self, small_batch):
        def build():
            scenario = PathScenario()
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
        assert_same_propagation(run_path(build(), small_batch.to_packets()), observation)
