"""Experiment E5 — Section 7.1: per-packet processing cost of the collector.

The paper's prototype loads the VPM modules into a Click/Nehalem software
router and observes no forwarding-rate degradation (the server is I/O-bound at
25 Gbps either way).  A pure-Python reproduction cannot make line-rate claims,
so this benchmark measures the *relative* cost that matters for the argument:
the per-packet work of the collector hot path (classification + digest +
sampler + aggregator) compared against the digest computation alone, plus the
analytic operation counts of Section 7.1.  The collectors take array batches;
the per-packet baseline they are compared against is the reference collector
of ``tests/oracle/collectors.py``, which runs Algorithms 1 and 2 one
``Packet`` at a time.

These are genuine repeated-timing benchmarks (not single-shot sweeps).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from benchmarks.conftest import bench_packet_count, make_hop_config, print_table
from repro.core.aggregation import Aggregator
from repro.core.hop import HOPCollector
from repro.core.sampling import DelaySampler
from repro.net.hashing import MASK64, PacketDigester
from repro.reporting.overhead import PerPacketProcessingModel
from repro.traffic.trace import SyntheticTrace, TraceConfig
from tests.oracle.collectors import ReferenceCollector


@pytest.fixture(scope="module")
def hot_path_batch(bench_packets):
    """A 5,000-packet slice of the benchmark trace, for the timing loops."""
    return bench_packets.take(slice(0, 5000)).detach_root()


@pytest.fixture(scope="module")
def hot_path_packets(hot_path_batch):
    """The same slice as packet objects, for the per-packet digest loop."""
    return hot_path_batch.to_packets()


def test_collector_observe_throughput(benchmark, hot_path_batch, path):
    """Time the full collector hot path (``observe_batch`` on one batch)."""
    config = make_hop_config(sampling_rate=0.01, aggregate_size=5000)

    def run_once():
        collector = HOPCollector(path.hops_of("X")[0], config)
        collector.register_path(path)
        # Fresh digests each round would be ideal, but digest memoization
        # reflects how the simulation actually amortizes the hash; the
        # digest-only benchmarks isolate the hash cost.
        collector.observe_batch(hot_path_batch)
        return collector.observed_packets

    observed = benchmark(run_once)
    assert observed == len(hot_path_batch)


def test_packet_digest_throughput(benchmark, hot_path_packets):
    """Time the digest computation alone (the dominant arithmetic cost)."""
    digester = PacketDigester(seed=12345)  # distinct seed: no memoized values

    def run_once():
        total = 0
        for packet in hot_path_packets:
            total ^= digester.digest(packet)
        return total

    benchmark(run_once)


def _batch_trace_packet_count() -> int:
    """Size of the reference-vs-batch comparison trace (env-overridable).

    Defaults to max(4x the regular bench size, 120k); set
    ``REPRO_BENCH_BATCH_PACKETS=1000000`` (or more) to reproduce the paper-scale
    ≥1M-packet measurement recorded in CHANGES.md.
    """
    default = max(4 * bench_packet_count(), 120_000)
    return int(os.environ.get("REPRO_BENCH_BATCH_PACKETS", default))


def test_batch_vs_scalar_speedup(benchmark, path):
    """Measure the batch collector against the per-packet reference collector.

    Both run the identical digest + marker-sampling + aggregation pipeline on
    the same synthetic trace; the reference's per-packet cost is timed on a
    prefix of the trace (it is rate-constant) and both are reported as
    packets/second.  The batch path must be at least 10x faster — this is the
    line CI holds for the Section 7.1 "cheap per-packet work" argument.
    """
    total = _batch_trace_packet_count()
    scalar_count = min(total, max(20_000, total // 10))
    config = make_hop_config(sampling_rate=0.01, aggregate_size=100_000)
    trace = SyntheticTrace(config=TraceConfig(packet_count=total), seed=4242)
    batch = trace.packet_batch()
    hop = path.hops_of("X")[0]

    def time_scalar() -> float:
        packets = batch.take(np.arange(scalar_count)).to_packets()
        registered = HOPCollector(hop, config)
        registered.register_path(path)
        collector = ReferenceCollector(registered)
        started = time.perf_counter()
        for packet in packets:
            collector.observe(packet, packet.send_time)
        elapsed = time.perf_counter() - started
        assert collector.observed_packets == scalar_count
        return scalar_count / elapsed

    def time_batch() -> float:
        best = 0.0
        for _ in range(3):  # best-of-3 absorbs first-touch page faults
            batch._digest_cache.clear()
            collector = HOPCollector(hop, config)
            collector.register_path(path)
            started = time.perf_counter()
            collector.observe_batch(batch)
            elapsed = time.perf_counter() - started
            assert collector.observed_packets == total
            best = max(best, total / elapsed)
        return best

    def run_comparison():
        scalar_rate = time_scalar()
        batch_rate = time_batch()
        return scalar_rate, batch_rate

    scalar_rate, batch_rate = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    speedup = batch_rate / scalar_rate
    print_table(
        "Section 7.1: collector hot path, per-packet reference vs batch",
        ["path", "packets", "packets/s", "speedup"],
        [
            ["reference observe()", scalar_count, f"{scalar_rate:,.0f}", "1.0x"],
            ["batch observe_batch()", total, f"{batch_rate:,.0f}", f"{speedup:.1f}x"],
        ],
    )
    assert speedup >= 10.0, (
        f"batch path is only {speedup:.1f}x faster than the per-packet reference "
        f"({batch_rate:,.0f} vs {scalar_rate:,.0f} packets/s)"
    )


def test_batch_digest_throughput(benchmark, path):
    """Time the vectorized digest kernel alone (the batch twin of the scalar
    digest benchmark above)."""
    total = _batch_trace_packet_count()
    trace = SyntheticTrace(config=TraceConfig(packet_count=total), seed=4242)
    batch = trace.packet_batch()
    digester = PacketDigester(seed=12345)

    def run_once():
        batch._digest_cache.clear()
        return int(digester.digest_batch(batch)[-1])

    benchmark(run_once)


#: Chunk size of the streaming engine's bulk workload.
COLLECTOR_CHUNK_PACKETS = 32_768


def test_chunked_collector_observe_batch_throughput(benchmark, path):
    """Time ``HOPCollector.observe_batch`` over the trace in 32,768-packet chunks.

    One collector sees every chunk in order, so its sampler buffer and its
    aggregator's J = 10 ms window and pending AggTrans carry across chunk
    boundaries, as in the streaming engine.  Classification, digests,
    sampling and aggregation are all timed (best of 3, fresh digest caches
    each time).  The printed per-packet cost is the chunked counterpart of the
    single 5,000-packet batch timed in ``test_collector_observe_throughput``.
    """
    total = _batch_trace_packet_count()
    config = make_hop_config(
        sampling_rate=0.005, aggregate_size=100_000, reorder_window=0.01
    )
    trace = SyntheticTrace(config=TraceConfig(packet_count=total), seed=4242)
    batch = trace.packet_batch()
    # Each chunk is its own batch, hashed on its own, as a stream delivers it.
    chunks = [
        batch.take(slice(start, start + COLLECTOR_CHUNK_PACKETS)).detach_root()
        for start in range(0, total, COLLECTOR_CHUNK_PACKETS)
    ]
    hop = path.hops_of("X")[0]

    def time_chunked() -> float:
        best = float("inf")
        for _ in range(3):
            for chunk in chunks:
                chunk._digest_cache.clear()
            collector = HOPCollector(hop, config)
            collector.register_path(path)
            started = time.perf_counter()
            for chunk in chunks:
                collector.observe_batch(chunk)
            best = min(best, time.perf_counter() - started)
            assert collector.observed_packets == total
        return best

    elapsed = benchmark.pedantic(time_chunked, rounds=1, iterations=1)
    print_table(
        "Section 7.1: batch collector in 32,768-packet chunks (J = 10 ms)",
        ["packets", "chunks", "packets/s", "ns/packet"],
        [[total, len(chunks), f"{total / elapsed:,.0f}", f"{1e9 * elapsed / total:,.0f}"]],
    )


#: One HOP batch of the streaming engine's bulk workload (four 32k chunks).
SAMPLER_KERNEL_PACKETS = 131_072


def test_batch_sampler_aggregator_throughput(benchmark):
    """Time the per-path batch kernels alone: ``DelaySampler.observe_batch``
    then ``Aggregator.observe_batch`` on one 131k-packet digest array.

    The digests are precomputed, so this isolates the marker/SampleFcn pass
    and the partition cut from hashing and classification (the whole-collector
    benchmark above includes both).
    """
    config = make_hop_config(sampling_rate=0.005, aggregate_size=100_000)
    rng = np.random.default_rng(4242)
    digests = rng.integers(0, MASK64, size=SAMPLER_KERNEL_PACKETS, dtype=np.uint64)
    times = np.cumsum(rng.exponential(1e-5, size=SAMPLER_KERNEL_PACKETS))

    def run_once():
        sampler = DelaySampler(config.sampler)
        aggregator = Aggregator(config.aggregator)
        sampler.observe_batch(digests, times)
        aggregator.observe_batch(digests, times)
        return sampler.sample_count

    assert benchmark(run_once) > 0


def test_processing_operation_counts(benchmark):
    """Report the analytic per-packet operation counts of Section 7.1."""
    model = benchmark.pedantic(PerPacketProcessingModel, rounds=1, iterations=1)
    rows = [
        ["memory accesses / packet", model.memory_accesses_per_packet],
        ["amortized marker-scan accesses / packet", model.marker_scan_accesses_per_packet],
        ["hash computations / packet", model.hashes_per_packet],
        ["timestamp reads / packet", model.timestamps_per_packet],
        ["accesses/s at 10G, 400B packets", f"{model.accesses_per_second(3.125e6):.3e}"],
    ]
    print_table("Section 7.1: per-packet processing model", ["operation", "count"], rows)
    assert model.total_memory_accesses_per_packet == 4
