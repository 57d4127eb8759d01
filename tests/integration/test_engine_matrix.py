"""Differential test matrices: object oracle vs batch vs streaming, path and mesh.

Every registered delay model, loss model and adversary runs under both
execution engines and the per-packet object oracle (:mod:`tests.oracle`) on
the same spec; all three must produce

* byte-identical ``CellResult.to_json()`` (estimates, truth, verdicts,
  overhead — the embedded spec is the same object, so any divergence is a
  genuine result difference), and
* identical receipts at every HOP (``time_sum`` at its documented
  10-significant-digit tolerance, everything else bit-exact).

The one declared exception: ``CongestionDelayModel`` simulates the whole
arrival series per call and is not streamable — the streaming engine must
refuse it with a clear error rather than silently produce different traffic,
and the oracle/batch pair is still compared.  The batch engine is one
whole-trace pass of the same ``ScenarioStream``, so the refusal sits in the
stream's first ``push``, not its constructor.

The mesh matrix runs every registered *topology* through the runner on both
mesh engines (batch vs streaming), with the same byte-identity requirements
on ``MeshResult.to_json()`` and receipts, and a registry-completeness guard
so new topologies cannot silently skip it.  A congested mesh runs on the
batch engine only, like a congested path.  The
acceptance-scale case — a ≥8-domain, ≥6-path random mesh — lives here too.
"""

from __future__ import annotations

import pytest

from repro.api import ExperimentSpec
from repro.api.registry import ADVERSARIES, DELAY_MODELS, LOSS_MODELS, TOPOLOGIES
from repro.api.runner import _build_cell, run_cell, run_mesh_cell
from repro.api.spec import (
    AdversarySpec,
    ConditionSpec,
    MeshSpec,
    PathSpec,
    TopologySpec,
    TrafficSpec,
)
from repro.engine.streaming import ScenarioStream

from tests.conformance.canon import (
    canonical_receipts,
    run_batch_mesh_reports,
    run_batch_reports,
    run_mesh_streaming_reports,
    run_streaming_reports,
)
from tests.oracle.objects import (
    assert_same_propagation,
    run_oracle_cell,
    run_oracle_reports,
    run_path,
)

CHUNK_SIZE = 512

# Minimal valid parameters per registered component (defaults where possible).
DELAY_PARAMS: dict[str, dict] = {
    "constant": {},
    "jitter": {"base_delay": 0.8e-3, "jitter_std": 0.3e-3},
    "empirical": {"series": [0.5e-3, 1.2e-3, 0.7e-3, 2.0e-3]},
    "congestion": {"utilization": 0.9},
}
LOSS_PARAMS: dict[str, dict] = {
    "none": {},
    "bernoulli": {"loss_rate": 0.04},
    "gilbert-elliott": {"p": 0.01, "r": 0.2},
    "gilbert-elliott-rate": {"target_rate": 0.05},
}
ADVERSARY_SPECS: dict[str, tuple[AdversarySpec, ...]] = {
    "lying": (AdversarySpec(kind="lying", domain="X"),),
    "colluding": (
        AdversarySpec(kind="lying", domain="X"),
        AdversarySpec(kind="colluding", domain="N", params={"colluding_with": "X"}),
    ),
    "marker-drop": (AdversarySpec(kind="marker-drop", domain="X"),),
    "biased-treatment": (
        AdversarySpec(kind="biased-treatment", domain="X", params={"guess_rate": 0.02}),
    ),
}

NON_STREAMABLE_DELAY = {"congestion"}


def _spec(condition: ConditionSpec, adversaries=()) -> ExperimentSpec:
    return ExperimentSpec(
        name="engine-matrix",
        seed=42,
        traffic=TrafficSpec(workload="smoke-sequence", packet_count=1500),
        path=PathSpec(conditions={"X": condition}),
        adversaries=adversaries,
    )


def _assert_three_way(spec: ExperimentSpec, streaming_ok: bool = True) -> None:
    batch = run_cell(spec, engine="batch")
    assert run_oracle_cell(spec).to_json() == batch.to_json()

    batch_receipts = canonical_receipts(run_batch_reports(spec))
    assert canonical_receipts(run_oracle_reports(spec)) == batch_receipts

    if not streaming_ok:
        with pytest.raises(ValueError, match="not streamable"):
            run_cell(spec, engine="streaming", chunk_size=CHUNK_SIZE)
        _assert_one_pass_only(spec)
        return

    streaming = run_cell(spec, engine="streaming", chunk_size=CHUNK_SIZE)
    assert streaming.to_json() == batch.to_json()
    assert (
        canonical_receipts(run_streaming_reports(spec, chunk_size=CHUNK_SIZE))
        == batch_receipts
    )


def _assert_one_pass_only(spec: ExperimentSpec) -> None:
    """A non-streamable scenario runs as one pass; only ``push`` refuses it."""
    cell = _build_cell(spec)
    stream = ScenarioStream(cell.scenarios[0])

    oracle = _build_cell(spec)
    one_pass = _build_cell(spec)
    assert_same_propagation(
        run_path(oracle.scenarios[0], oracle.traces[0].packet_batch().to_packets()),
        one_pass.scenarios[0].run_batch(one_pass.traces[0].packet_batch()),
    )

    with pytest.raises(ValueError, match="not streamable"):
        stream.push(next(cell.traces[0].iter_batches(CHUNK_SIZE)))


class TestRegistryCoverage:
    """The matrix must stay complete as components are registered."""

    def test_all_registered_delay_models_covered(self):
        assert set(DELAY_MODELS.names()) == set(DELAY_PARAMS)

    def test_all_registered_loss_models_covered(self):
        assert set(LOSS_MODELS.names()) == set(LOSS_PARAMS)

    def test_all_registered_adversaries_covered(self):
        assert set(ADVERSARIES.names()) == set(ADVERSARY_SPECS)


@pytest.mark.parametrize("delay", sorted(DELAY_PARAMS))
def test_delay_model_engine_parity(delay):
    condition = ConditionSpec(delay=delay, delay_params=DELAY_PARAMS[delay])
    _assert_three_way(_spec(condition), streaming_ok=delay not in NON_STREAMABLE_DELAY)


@pytest.mark.parametrize("loss", sorted(LOSS_PARAMS))
def test_loss_model_engine_parity(loss):
    condition = ConditionSpec(
        delay="jitter",
        delay_params={"base_delay": 0.8e-3, "jitter_std": 0.2e-3},
        loss=loss,
        loss_params=LOSS_PARAMS[loss],
    )
    _assert_three_way(_spec(condition))


@pytest.mark.parametrize("adversary", sorted(ADVERSARY_SPECS))
def test_adversary_engine_parity(adversary):
    condition = ConditionSpec(
        delay="jitter",
        delay_params={"base_delay": 0.8e-3, "jitter_std": 0.2e-3},
        loss="bernoulli",
        loss_params={"loss_rate": 0.03},
    )
    _assert_three_way(_spec(condition, ADVERSARY_SPECS[adversary]))


def test_reordering_engine_parity():
    condition = ConditionSpec(
        delay="jitter",
        delay_params={"base_delay": 0.8e-3, "jitter_std": 0.2e-3},
        reordering="window",
        reordering_params={"window": 0.4e-3, "reorder_probability": 0.15},
    )
    _assert_three_way(_spec(condition))


# -- mesh matrix ----------------------------------------------------------------------

MESH_CHUNK_SIZE = 256

# One pinned TopologySpec per registered topology (parameters chosen so every
# generator actually shares HOPs where it can), plus the transit domains the
# matrix installs conditions on for that pinned instance.
TOPOLOGY_SPECS: dict[str, tuple[TopologySpec, tuple[str, ...]]] = {
    "figure1": (TopologySpec(kind="figure1", seed=0), ("X",)),
    "star": (TopologySpec(kind="star", params={"path_count": 3}, seed=0), ("X",)),
    "mesh-random": (
        TopologySpec(
            kind="mesh-random",
            params={"transit_domains": 3, "stub_domains": 4, "path_count": 4},
            seed=2026,
        ),
        ("T1", "T2", "T3"),
    ),
}

_MESH_CONDITION = ConditionSpec(
    delay="jitter",
    delay_params={"base_delay": 0.9e-3, "jitter_std": 0.3e-3},
    loss="bernoulli",
    loss_params={"loss_rate": 0.04},
)


def _mesh_spec(name: str, lying_domain: str | None = None) -> MeshSpec:
    topology, transit_domains = TOPOLOGY_SPECS[name]
    return MeshSpec(
        name=f"mesh-matrix-{name}",
        seed=42,
        topology=topology,
        traffic=TrafficSpec(workload="smoke-sequence", packet_count=1200),
        conditions={domain: _MESH_CONDITION for domain in transit_domains},
        adversaries=(
            (AdversarySpec(kind="lying", domain=lying_domain),)
            if lying_domain is not None
            else ()
        ),
    )


def _assert_mesh_two_way(spec: MeshSpec) -> None:
    batch = run_mesh_cell(spec, engine="batch")
    streaming = run_mesh_cell(spec, engine="streaming", chunk_size=MESH_CHUNK_SIZE)
    assert streaming.to_json() == batch.to_json()
    assert canonical_receipts(
        run_mesh_streaming_reports(spec, chunk_size=MESH_CHUNK_SIZE)
    ) == canonical_receipts(run_batch_mesh_reports(spec))


class TestMeshRegistryCoverage:
    """The mesh matrix must stay complete as topologies are registered."""

    def test_all_registered_topologies_covered(self):
        assert set(TOPOLOGIES.names()) == set(TOPOLOGY_SPECS)

    def test_every_matrix_condition_domain_is_transit(self):
        for name, (topology, transit_domains) in TOPOLOGY_SPECS.items():
            _, paths = topology.build(42)
            actual = {
                segment[0].name
                for path in paths
                for segment in path.domain_segments()
            }
            assert set(transit_domains) <= actual, (
                f"{name}: matrix names non-transit domains "
                f"{sorted(set(transit_domains) - actual)}"
            )


@pytest.mark.parametrize("name", sorted(TOPOLOGY_SPECS))
def test_topology_mesh_engine_parity(name):
    _assert_mesh_two_way(_mesh_spec(name))


def test_star_mesh_lying_engine_parity():
    _assert_mesh_two_way(_mesh_spec("star", lying_domain="X"))


def test_star_mesh_congestion_runs_one_pass_only():
    """A non-streamable mesh runs on the batch engine; streaming names the domain."""
    spec = MeshSpec(
        name="mesh-matrix-star-congestion",
        seed=42,
        topology=TOPOLOGY_SPECS["star"][0],
        traffic=TrafficSpec(workload="smoke-sequence", packet_count=1200),
        conditions={
            "X": ConditionSpec(delay="congestion", delay_params=DELAY_PARAMS["congestion"])
        },
    )
    batch = run_mesh_cell(spec, engine="batch")
    assert batch.to_json() == run_mesh_cell(spec, engine="batch").to_json()
    for path in batch.paths:
        (congested,) = [target for target in path.targets if target.estimate.domain == "X"]
        assert congested.estimate.offered_packets == congested.truth.offered_packets > 0
    with pytest.raises(
        ValueError, match="domain 'X': delay model CongestionDelayModel is not streamable"
    ):
        run_mesh_cell(spec, engine="streaming", chunk_size=MESH_CHUNK_SIZE)


def test_acceptance_scale_mesh_byte_identical():
    """A ≥8-domain, ≥6-path mesh: batch vs streaming, byte-identical.

    Per-HOP receipts equal across engines at mesh scale, with the
    isolation-parity machinery already covered by the property suite.
    """
    topology = TopologySpec(
        kind="mesh-random",
        params={
            "transit_domains": 4,
            "stub_domains": 6,
            "transit_degree": 2.5,
            "path_count": 6,
        },
        seed=77,
    )
    built, paths = topology.build(7)
    domains = {hop.domain.name for path in paths for hop in path.hops}
    assert len(domains) >= 8, f"only {len(domains)} domains on paths: {sorted(domains)}"
    assert len(paths) >= 6
    transit = sorted(
        {segment[0].name for path in paths for segment in path.domain_segments()}
    )
    spec = MeshSpec(
        name="mesh-acceptance",
        seed=7,
        topology=topology,
        traffic=TrafficSpec(workload="smoke-sequence", packet_count=1000),
        conditions={domain: _MESH_CONDITION for domain in transit},
    )
    cell = _build_cell(spec)
    shared = {
        hop_id
        for hop_id in {
            hop.hop_id for path in cell.session.paths for hop in path.hops
        }
        if sum(
            any(hop.hop_id == hop_id for hop in path.hops)
            for path in cell.session.paths
        )
        > 1
    }
    assert shared, "acceptance mesh must actually share HOPs between paths"
    _assert_mesh_two_way(spec)
