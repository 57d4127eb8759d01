"""Unit tests for repro.traffic.flows and repro.traffic.trace."""

from __future__ import annotations

import numpy as np
import pytest

from repro.traffic.flows import Flow, FlowGenerator, FlowGeneratorConfig
from repro.traffic.trace import SyntheticTrace, TraceConfig, default_prefix_pair
from repro.traffic.workload import WORKLOADS, make_workload


def as_flows(columns) -> list[Flow]:
    """Flow objects from :meth:`FlowGenerator.generate`'s columns."""
    fields = (column.tolist() for column in vars(columns).values())
    return [Flow(*row) for row in zip(*fields)]


class TestFlowGenerator:
    def test_generates_enough_packets(self, prefix_pair):
        generator = FlowGenerator(prefix_pair, seed=1)
        flows = as_flows(generator.generate(5000))
        assert sum(flow.packet_count for flow in flows) >= 5000

    def test_flow_addresses_inside_prefixes(self, prefix_pair):
        generator = FlowGenerator(prefix_pair, seed=2)
        for flow in as_flows(generator.generate(500)):
            assert prefix_pair.source.contains(flow.src_ip)
            assert prefix_pair.destination.contains(flow.dst_ip)

    def test_flow_sizes_heavy_tailed(self, prefix_pair):
        generator = FlowGenerator(prefix_pair, seed=3)
        sizes = np.array([flow.packet_count for flow in as_flows(generator.generate(20000))])
        # A heavy-tailed distribution has max far above the mean.
        assert sizes.max() > 5 * sizes.mean()

    def test_tcp_fraction_respected(self, prefix_pair):
        config = FlowGeneratorConfig(tcp_fraction=1.0)
        generator = FlowGenerator(prefix_pair, config=config, seed=4)
        assert all(flow.protocol == 6 for flow in as_flows(generator.generate(1000)))

    def test_packet_sizes_from_modes(self, prefix_pair):
        generator = FlowGenerator(prefix_pair, seed=5)
        sizes = set(generator.draw_packet_sizes(500).tolist())
        assert sizes <= {40, 576, 1500}

    def test_invalid_total_rejected(self, prefix_pair):
        with pytest.raises(ValueError):
            as_flows(FlowGenerator(prefix_pair, seed=6).generate(0))

    def test_flow_validation(self):
        with pytest.raises(ValueError):
            Flow(
                flow_id=1, src_ip=1, dst_ip=2, src_port=3, dst_port=4, protocol=6,
                packet_count=0, start_time=0.0, mean_interarrival=1e-3,
            )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FlowGeneratorConfig(tcp_fraction=1.5)
        with pytest.raises(ValueError):
            FlowGeneratorConfig(mean_flow_size=0)


def _scalar_generate(generator: FlowGenerator, total: int, monkeypatch) -> list[Flow]:
    """The per-flow ``_make_flow`` loop: generate with the columnar path off."""
    with monkeypatch.context() as patch:
        patch.setattr(FlowGenerator, "_columnar_flows", lambda self, sizes: None)
        return as_flows(generator.generate(total))


class TestColumnarFlowsMatchScalarLoop:
    """The columnar PCG64 draw consumes exactly the scalar loop's stream."""

    @staticmethod
    def _assert_same(columnar: FlowGenerator, scalar: FlowGenerator, flows, expected):
        assert flows == expected
        assert columnar._next_flow_id == scalar._next_flow_id == len(expected)
        # repr: Philox's state holds arrays.
        assert repr(columnar._rng.bit_generator.state) == repr(scalar._rng.bit_generator.state)
        # The generator continues identically, 32-bit buffer included.
        assert columnar._rng.integers(0, 1000, 9).tolist() == (
            scalar._rng.integers(0, 1000, 9).tolist()
        )
        assert columnar._rng.random() == scalar._rng.random()

    # Totals from one flow to many pareto batches; both exit parities of the
    # 32-bit buffer occur across the seeds.
    @pytest.mark.parametrize("total", [1, 3, 57, 1000, 12_345])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 17])
    @pytest.mark.parametrize("buffered_on_entry", [False, True])
    def test_same_flows_and_generator_state(
        self, prefix_pair, monkeypatch, total, seed, buffered_on_entry
    ):
        columnar = FlowGenerator(prefix_pair, seed=seed)
        scalar = FlowGenerator(prefix_pair, seed=seed)
        if buffered_on_entry:
            # A 32-bit draw leaves the high half of its word buffered.
            for generator in (columnar, scalar):
                generator._rng.integers(0, 7)
                assert generator._rng.bit_generator.state["has_uint32"] == 1
        flows = as_flows(columnar.generate(total))
        expected = _scalar_generate(scalar, total, monkeypatch)
        self._assert_same(columnar, scalar, flows, expected)

    def test_consecutive_calls_continue_the_stream(self, prefix_pair, monkeypatch):
        columnar = FlowGenerator(prefix_pair, seed=8)
        scalar = FlowGenerator(prefix_pair, seed=8)
        for total in (5, 777, 2):
            flows = as_flows(columnar.generate(total))
            expected = _scalar_generate(scalar, total, monkeypatch)
            assert flows == expected
        assert columnar._next_flow_id == scalar._next_flow_id
        assert columnar._rng.bit_generator.state == scalar._rng.bit_generator.state

    def test_lemire_rejection_falls_back_to_the_scalar_loop(self, prefix_pair, monkeypatch):
        # Seed 49 draws a source port (bounded over 64512) in the rejection
        # zone of numpy's Lemire sampler: that batch must take the loop.
        fallbacks = []
        scalar_flows = FlowGenerator._scalar_flows

        def spy(self, sizes):
            fallbacks.append(len(sizes))
            return scalar_flows(self, sizes)

        columnar = FlowGenerator(prefix_pair, seed=49)
        with monkeypatch.context() as patch:
            patch.setattr(FlowGenerator, "_scalar_flows", spy)
            flows = as_flows(columnar.generate(20_000))
        assert len(fallbacks) == 1

        scalar = FlowGenerator(prefix_pair, seed=49)
        self._assert_same(
            columnar, scalar, flows, _scalar_generate(scalar, 20_000, monkeypatch)
        )

    def test_other_bit_generators_take_the_scalar_loop(self, prefix_pair, monkeypatch):
        columnar = FlowGenerator(prefix_pair, seed=np.random.Generator(np.random.Philox(4)))
        scalar = FlowGenerator(prefix_pair, seed=np.random.Generator(np.random.Philox(4)))
        flows = as_flows(columnar.generate(500))
        self._assert_same(
            columnar, scalar, flows, _scalar_generate(scalar, 500, monkeypatch)
        )


class TestSyntheticTrace:
    def test_packet_count_and_ordering(self):
        config = TraceConfig(packet_count=3000, packets_per_second=100_000.0)
        packets = SyntheticTrace(config=config, seed=1).packet_batch().to_packets()
        assert len(packets) == 3000
        times = [packet.send_time for packet in packets]
        assert times == sorted(times)

    def test_uids_unique_and_sequential(self):
        config = TraceConfig(packet_count=1000)
        packets = SyntheticTrace(config=config, seed=2).packet_batch().to_packets()
        assert [packet.uid for packet in packets] == list(range(1000))

    def test_rate_approximately_configured(self):
        config = TraceConfig(packet_count=20_000, packets_per_second=100_000.0)
        packets = SyntheticTrace(config=config, seed=3).packet_batch().to_packets()
        duration = packets[-1].send_time - packets[0].send_time
        measured_rate = len(packets) / duration
        assert measured_rate == pytest.approx(100_000.0, rel=0.1)

    def test_addresses_match_prefix_pair(self):
        pair = default_prefix_pair()
        config = TraceConfig(packet_count=500)
        trace = SyntheticTrace(config=config, prefix_pair=pair, seed=4)
        packets = trace.packet_batch().to_packets()
        for packet in packets:
            assert pair.matches(packet.headers.src_ip, packet.headers.dst_ip)

    def test_digests_are_diverse(self, digester):
        config = TraceConfig(packet_count=2000)
        packets = SyntheticTrace(config=config, seed=5).packet_batch().to_packets()
        digests = {digester.digest(packet) for packet in packets}
        # Payload randomization should make virtually every digest unique.
        assert len(digests) > 1990

    def test_deterministic_for_seed(self):
        config = TraceConfig(packet_count=200)
        a = SyntheticTrace(config=config, seed=6).packet_batch().to_packets()
        b = SyntheticTrace(config=config, seed=6).packet_batch().to_packets()
        assert [p.headers for p in a] == [p.headers for p in b]
        assert [p.send_time for p in a] == [p.send_time for p in b]

    def test_mean_packet_size_near_400(self):
        config = TraceConfig(packet_count=20_000)
        packets = SyntheticTrace(config=config, seed=7).packet_batch().to_packets()
        mean_size = np.mean([packet.size for packet in packets])
        assert 300 <= mean_size <= 550

    @pytest.mark.parametrize("process", ["poisson", "cbr", "mmpp"])
    def test_arrival_processes_supported(self, process):
        config = TraceConfig(packet_count=2000, arrival_process=process)
        packets = SyntheticTrace(config=config, seed=8).packet_batch().to_packets()
        assert len(packets) == 2000

    def test_mmpp_burstier_than_cbr(self):
        cbr = SyntheticTrace(
            config=TraceConfig(packet_count=10_000, arrival_process="cbr"), seed=9
        ).packet_batch().to_packets()
        mmpp = SyntheticTrace(
            config=TraceConfig(packet_count=10_000, arrival_process="mmpp"), seed=9
        ).packet_batch().to_packets()

        def gap_cv(packets) -> float:
            gaps = np.diff([packet.send_time for packet in packets])
            return gaps.std() / gaps.mean()

        assert gap_cv(mmpp) > gap_cv(cbr)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TraceConfig(packet_count=0)
        with pytest.raises(ValueError):
            TraceConfig(arrival_process="fractal")
        with pytest.raises(ValueError):
            TraceConfig(payload_bytes=-1)


class TestTraceSeek:
    """``iter_batches(start_chunk=k)`` starts a pass at a chunk boundary."""

    _COLUMNS = (
        "src_ip", "dst_ip", "src_port", "dst_port", "protocol",
        "ip_id", "length", "uid", "send_time", "flow_id",
    )

    def test_start_chunk_yields_bitwise_identical_suffix(self):
        config = TraceConfig(packet_count=1000, arrival_process="mmpp")
        full = list(SyntheticTrace(config=config, seed=11).iter_batches(128))
        for start in (0, 1, 3, len(full)):
            suffix = list(
                SyntheticTrace(config=config, seed=11).iter_batches(
                    128, start_chunk=start
                )
            )
            assert len(suffix) == len(full) - start
            for expected, actual in zip(full[start:], suffix):
                for column in self._COLUMNS:
                    assert np.array_equal(
                        getattr(actual, column), getattr(expected, column)
                    ), column
                assert np.array_equal(actual.payload, expected.payload)

    def test_start_chunk_past_the_end_yields_nothing(self):
        config = TraceConfig(packet_count=300)
        chunks = list(
            SyntheticTrace(config=config, seed=12).iter_batches(128, start_chunk=99)
        )
        assert chunks == []

    def test_negative_start_chunk_rejected(self):
        trace = SyntheticTrace(config=TraceConfig(packet_count=300), seed=13)
        with pytest.raises(ValueError, match="start_chunk"):
            list(trace.iter_batches(128, start_chunk=-1))


class TestChunkSpans:
    """The chunk arithmetic the streaming engine and ``start_chunk`` rely on."""

    @pytest.mark.parametrize("packet_count", [1, 5, 17, 100])
    @pytest.mark.parametrize("chunk_size", [1, 2, 3, 7])
    def test_chunks_are_full_but_the_last_and_cover_everything(
        self, chunk_size, packet_count
    ):
        config = TraceConfig(packet_count=packet_count)
        chunks = list(SyntheticTrace(config=config, seed=21).iter_batches(chunk_size))
        whole = SyntheticTrace(config=config, seed=21).packet_batch()

        assert len(chunks) == -(-packet_count // chunk_size)
        assert all(len(chunk) == chunk_size for chunk in chunks[:-1])
        assert 1 <= len(chunks[-1]) <= chunk_size
        assert np.array_equal(
            np.concatenate([chunk.uid for chunk in chunks]), whole.uid
        )


class TestWorkloads:
    def test_known_workloads_materialize(self):
        trace = make_workload("smoke-sequence", seed=1)
        assert trace.config.packet_count == WORKLOADS["smoke-sequence"].packet_count

    def test_unknown_workload_raises_with_hint(self):
        with pytest.raises(KeyError, match="known workloads"):
            make_workload("no-such-workload")

    def test_paper_sequence_rate(self):
        spec = WORKLOADS["paper-sequence"]
        assert spec.packets_per_second == 100_000.0
        assert spec.packet_count == 100_000
