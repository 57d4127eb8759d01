"""Experiment E3 — Section 7.1: collector memory requirements.

Regenerates the paper's back-of-the-envelope memory numbers:

* monitoring cache: ~20 B of per-path state, 2 MB for 100,000 active paths;
* temporary packet buffer: ~436 KB per 10 Gbps interface at 400-byte average
  packets, ~2.8 MB in the all-minimum-size worst case — both within a single
  SRAM chip.

The analytic model is cross-checked against the running implementation: the
measured per-entry sizes and the observed peak temporary-buffer occupancy of a
real collector run are compared with the model's predictions.
"""

from __future__ import annotations

from benchmarks.conftest import make_hop_config, print_table
from benchmarks.experiment_lib import build_congested_scenario
from repro.core.hop import HOPCollector, HOPProcessor
from repro.reporting.overhead import CollectorMemoryModel
from repro.util.units import bytes_to_human


def _run_models():
    scenarios = {
        "paper typical (10G, 400B pkts)": CollectorMemoryModel(
            active_paths=100_000, interface_gbps=10, mean_packet_size=400
        ),
        "paper worst case (10G, min pkts)": CollectorMemoryModel(
            active_paths=100_000, interface_gbps=10, mean_packet_size=62
        ),
        "edge router (1G, 400B pkts)": CollectorMemoryModel(
            active_paths=10_000, interface_gbps=1, mean_packet_size=400
        ),
        "core router (100G, 400B pkts)": CollectorMemoryModel(
            active_paths=500_000, interface_gbps=100, mean_packet_size=400
        ),
    }
    return scenarios


def test_overhead_memory_models(benchmark):
    """Regenerate the Section 7.1 memory table."""
    scenarios = benchmark.pedantic(_run_models, rounds=1, iterations=1)

    rows = [
        [
            name,
            bytes_to_human(model.monitoring_cache_bytes),
            bytes_to_human(model.temp_buffer_bytes),
            bytes_to_human(model.total_bytes),
            "yes" if model.fits_in_sram_chip() else "no",
        ]
        for name, model in scenarios.items()
    ]
    print_table(
        "Section 7.1: collector memory (monitoring cache + temporary buffer)",
        ["scenario", "monitoring cache", "temp buffer", "total", "fits 32MB SRAM"],
        rows,
    )

    typical = scenarios["paper typical (10G, 400B pkts)"]
    worst = scenarios["paper worst case (10G, min pkts)"]
    # Paper's numbers: 2 MB cache, ~436 KB typical buffer, ~2.8 MB worst case.
    assert typical.monitoring_cache_bytes == 2_000_000
    assert 350_000 < typical.temp_buffer_bytes < 550_000
    assert 2_000_000 < worst.temp_buffer_bytes < 3_500_000
    assert worst.fits_in_sram_chip()


def test_overhead_memory_measured_collector(benchmark, bench_packets, path):
    """Cross-check the model against a running collector at HOP 4."""

    def run_collector():
        scenario = build_congested_scenario(loss_rate=0.0, seed=9017)
        observation = scenario.run_batch(bench_packets)
        collector = HOPCollector(
            path.hops_of("X")[0], make_hop_config(sampling_rate=0.01, aggregate_size=5000)
        )
        collector.register_path(path)
        collector.observe_batch(*observation.at_hop(4))
        HOPProcessor(collector).generate_report(flush=True)
        return collector

    collector = benchmark.pedantic(run_collector, rounds=1, iterations=1)
    peak_entries = collector.max_temp_buffer_occupancy
    # The temporary buffer holds at most the packets observed between markers
    # (1/marker_rate = 1000 expected); its peak should stay within a small
    # multiple of that expectation, confirming the model's sizing assumption
    # that per-packet state lives for only "ten milliseconds or so".
    print_table(
        "Measured collector state (HOP 4)",
        ["metric", "value"],
        [
            ["observed packets", collector.observed_packets],
            ["peak temp-buffer entries", peak_entries],
            ["peak temp-buffer bytes (7 B/entry)", peak_entries * 7],
            ["active paths", collector.active_paths],
        ],
    )
    assert peak_entries < 20_000
    assert collector.active_paths == 1
