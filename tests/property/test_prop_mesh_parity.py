"""Property tests for mesh/isolation parity and mesh streaming parity.

The mesh workload layer rests on two exactness claims, hammered here with
hypothesis-generated topologies, path sets, traffic and chunk sizes:

* **mesh == isolation, per path** — running N paths together through a
  :class:`~repro.simulation.mesh.MeshScenario` + shared-collector
  :class:`~repro.core.protocol.MeshSession` and slicing each shared HOP's
  report down to one prefix pair yields receipts *bit-identical* (including
  ``time_sum``: per-path sub-streams feed the samplers/aggregators the same
  arrays in the same order) to running that path alone through
  :class:`PathScenario` + :class:`VPMSession` with identically seeded
  conditions.  CBR traffic at one shared rate manufactures exact timestamp
  ties at shared HOPs — the stable merge must keep per-path order intact
  through them.

* **mesh streaming == mesh batch** — the chunked lockstep runner
  (:class:`~repro.engine.streaming.StreamingRunner`), at any chunk size,
  reproduces the one-pass mesh run's receipts (``time_sum`` at its documented
  10-significant-digit tolerance, everything else exact).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.runner import _build_cell
from repro.api.spec import (
    ConditionSpec,
    HOPSpec,
    MeshSpec,
    ProtocolSpec,
    TopologySpec,
    TrafficSpec,
)
from repro.core.protocol import VPMSession
from repro.engine.streaming import StreamingCell, StreamingRunner
from repro.reporting.dissemination import _report_for_pair
from repro.simulation.mesh import MeshScenario
from repro.simulation.scenario import PathScenario
from repro.traffic.trace import SyntheticTrace

from tests.conformance.canon import canonical_receipts, run_batch_mesh_reports

# Aggressive knobs so a few hundred packets exercise sampler buffers,
# aggregate boundaries and AggTrans windows at every HOP.
_PROTOCOL = ProtocolSpec(
    default=HOPSpec(sampling_rate=0.2, aggregate_size=64, reorder_window=0.004)
)

_DELAY_CHOICES = (
    ("constant", {"delay": 0.9e-3}),
    ("jitter", {"base_delay": 0.8e-3, "jitter_std": 0.3e-3}),
)
_LOSS_CHOICES = (
    ("none", {}),
    ("bernoulli", {"loss_rate": 0.06}),
)
_REORDERING_CHOICES = (
    ("none", {}),
    ("window", {"window": 0.3e-3, "reorder_probability": 0.15}),
)


@st.composite
def mesh_case(draw):
    """A topology spec + per-transit-domain conditions + traffic + chunking."""
    if draw(st.booleans()):
        topology = TopologySpec(
            kind="star",
            params={"path_count": draw(st.integers(min_value=2, max_value=3))},
            seed=0,
        )
    else:
        stub_domains = draw(st.integers(min_value=2, max_value=4))
        path_count = draw(
            st.integers(min_value=1, max_value=min(4, stub_domains * (stub_domains - 1)))
        )
        topology = TopologySpec(
            kind="mesh-random",
            params={
                "transit_domains": draw(st.integers(min_value=1, max_value=3)),
                "stub_domains": stub_domains,
                "transit_degree": draw(
                    st.sampled_from([1.0, 2.0, 3.0])
                ),
                "path_count": path_count,
            },
            seed=draw(st.integers(min_value=0, max_value=10_000)),
        )
    # CBR at a shared rate gives every path the identical send-time grid —
    # exact timestamp ties wherever paths share a HOP.
    arrival = draw(st.sampled_from(["poisson", "cbr"]))
    traffic = TrafficSpec(
        workload=None,
        packet_count=draw(st.integers(min_value=80, max_value=220)),
        packets_per_second=50_000.0,
        arrival_process=arrival,
    )
    condition_seed = draw(st.integers(min_value=0, max_value=3))
    chunk_size = draw(st.integers(min_value=32, max_value=160))
    root_seed = draw(st.integers(min_value=0, max_value=10_000))
    return topology, traffic, condition_seed, chunk_size, root_seed


def _spec_for(topology, traffic, condition_seed, root_seed) -> MeshSpec:
    """Build the mesh spec, with conditions on every transit domain."""
    built_topology, paths = topology.build(root_seed)
    scenario = MeshScenario(built_topology, paths, seed=root_seed)
    conditions = {}
    for offset, name in enumerate(scenario.transit_domain_names()):
        pick = condition_seed + offset
        delay, delay_params = _DELAY_CHOICES[pick % len(_DELAY_CHOICES)]
        loss, loss_params = _LOSS_CHOICES[pick % len(_LOSS_CHOICES)]
        reordering, reordering_params = _REORDERING_CHOICES[
            pick % len(_REORDERING_CHOICES)
        ]
        conditions[name] = ConditionSpec(
            delay=delay,
            delay_params=delay_params,
            loss=loss,
            loss_params=loss_params,
            reordering=reordering,
            reordering_params=reordering_params,
        )
    return MeshSpec(
        name="prop-mesh",
        seed=root_seed,
        topology=topology,
        traffic=traffic,
        conditions=conditions,
        protocol=_PROTOCOL,
    )


class TestMeshIsolationParity:
    @settings(max_examples=20, deadline=None)
    @given(mesh_case())
    def test_per_path_receipts_byte_match_isolated_runs(self, case):
        topology, traffic, condition_seed, _, root_seed = case
        spec = _spec_for(topology, traffic, condition_seed, root_seed)
        cell = _build_cell(spec)
        mesh_reports = StreamingRunner(cell, chunk_size=None).run().reports

        for index, path in enumerate(cell.session.paths):
            isolated = PathScenario(cell.scenarios[index].topology, path, seed=spec.seed)
            for name in sorted(spec.conditions):
                if any(seg[0].name == name for seg in path.domain_segments()):
                    isolated.configure_domain(
                        name,
                        spec.conditions[name].build(
                            spec.seed, domain=f"{name}.path{index}"
                        ),
                    )
            trace = SyntheticTrace(
                config=spec.traffic.trace_config(),
                prefix_pair=path.prefix_pair,
                seed=spec.traffic_seed(index),
            )
            session = VPMSession(
                path,
                configs=spec.protocol.build_configs_for([d.name for d in path.domains]),
                max_diff=spec.protocol.max_diff,
            )
            isolated_cell = StreamingCell((isolated,), (trace,), session)
            isolated_reports = StreamingRunner(isolated_cell, chunk_size=None).run().reports

            for hop in path.hops:
                mesh_slice = _report_for_pair(
                    mesh_reports[hop.hop_id], path.prefix_pair
                )
                isolated_report = isolated_reports[hop.hop_id]
                # Bit-exact, time_sum included: the shared collector feeds each
                # per-path sampler/aggregator the identical sub-arrays.
                assert mesh_slice.sample_receipts == isolated_report.sample_receipts, (
                    f"sample receipts diverged at shared HOP {hop.hop_id} "
                    f"for path {path.prefix_pair}"
                )
                assert (
                    mesh_slice.aggregate_receipts == isolated_report.aggregate_receipts
                ), (
                    f"aggregate receipts diverged at shared HOP {hop.hop_id} "
                    f"for path {path.prefix_pair}"
                )


class TestMeshStreamingParity:
    @settings(max_examples=15, deadline=None)
    @given(mesh_case())
    def test_streaming_mesh_matches_batch_mesh_for_any_chunking(self, case):
        topology, traffic, condition_seed, chunk_size, root_seed = case
        spec = _spec_for(topology, traffic, condition_seed, root_seed)

        batch_receipts = canonical_receipts(run_batch_mesh_reports(spec))

        runner = StreamingRunner(_build_cell(spec), chunk_size=chunk_size)
        streamed = runner.run()
        assert canonical_receipts(streamed.reports) == batch_receipts
