"""Property tests: spec ⇄ dict ⇄ JSON round trips are the identity.

An :class:`ExperimentSpec`, :class:`MeshSpec`, :class:`CampaignSpec` or
:class:`ExecutionPolicy` assembled from arbitrary registered components and
random (valid) parameters must survive ``from_dict(to_dict())`` and a full
JSON encode/decode unchanged — that is the contract that makes specs storable,
diffable and shippable to worker processes.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sketch import DEFAULT_SKETCH_SIZE, MIN_SKETCH_SIZE
from repro.api import (
    AdversarySpec,
    CampaignSpec,
    ConditionSpec,
    EstimationSpec,
    ExecutionPolicy,
    ExperimentSpec,
    HOPSpec,
    MeshSpec,
    PathSpec,
    ProtocolSpec,
    SLATargetSpec,
    TopologySpec,
    TrafficSpec,
)

seeds = st.integers(min_value=0, max_value=2**31 - 1)
rates = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False)
# check_fraction-validated knobs live in (0, 1] — zero is not a valid rate.
fractions = st.floats(
    min_value=0.0, max_value=1.0, exclude_min=True, allow_nan=False, allow_infinity=False
)
small_delays = st.floats(
    min_value=0.0, max_value=0.1, allow_nan=False, allow_infinity=False
)


@st.composite
def delay_specs(draw) -> tuple[str, dict]:
    name = draw(st.sampled_from(["constant", "jitter", "congestion", "empirical"]))
    if name == "constant":
        return name, {"delay": draw(small_delays)}
    if name == "jitter":
        return name, {
            "base_delay": draw(small_delays),
            "jitter_std": draw(small_delays),
            "seed": draw(seeds),
        }
    if name == "congestion":
        return name, {
            "scenario": draw(st.sampled_from(["udp-burst", "tcp-mix", "mixed"])),
            "utilization": draw(
                st.floats(min_value=0.1, max_value=1.5, allow_nan=False)
            ),
            "seed": draw(seeds),
        }
    series = draw(
        st.lists(small_delays, min_size=1, max_size=5).filter(
            lambda values: all(value >= 0 for value in values)
        )
    )
    return name, {"series": series}


@st.composite
def loss_specs(draw) -> tuple[str, dict]:
    name = draw(
        st.sampled_from(["none", "bernoulli", "gilbert-elliott", "gilbert-elliott-rate"])
    )
    if name == "none":
        return name, {}
    if name == "bernoulli":
        return name, {"loss_rate": draw(rates), "seed": draw(seeds)}
    if name == "gilbert-elliott":
        return name, {"p": draw(rates), "r": draw(rates), "seed": draw(seeds)}
    return name, {
        "target_rate": draw(rates),
        "mean_burst_length": draw(st.floats(min_value=1.0, max_value=50.0, allow_nan=False)),
        "seed": draw(seeds),
    }


@st.composite
def reordering_specs(draw) -> tuple[str, dict]:
    name = draw(st.sampled_from(["none", "window"]))
    if name == "none":
        return name, {}
    return name, {
        "window": draw(small_delays),
        "reorder_probability": draw(rates),
        "seed": draw(seeds),
    }


@st.composite
def condition_specs(draw) -> ConditionSpec:
    delay, delay_params = draw(delay_specs())
    loss, loss_params = draw(loss_specs())
    reordering, reordering_params = draw(reordering_specs())
    return ConditionSpec(
        delay=delay,
        delay_params=delay_params,
        loss=loss,
        loss_params=loss_params,
        reordering=reordering,
        reordering_params=reordering_params,
    )


@st.composite
def hop_specs(draw) -> HOPSpec:
    return HOPSpec(
        sampling_rate=draw(fractions),
        aggregate_size=draw(st.integers(min_value=1, max_value=100_000)),
        marker_rate=draw(fractions),
        reorder_window=draw(small_delays),
    )


@st.composite
def adversary_specs(draw) -> tuple[AdversarySpec, ...]:
    which = draw(st.sampled_from(["none", "lying", "lying+colluding", "condition"]))
    if which == "none":
        return ()
    if which == "condition":
        return (
            AdversarySpec(
                kind=draw(st.sampled_from(["marker-drop", "biased-treatment"])),
                domain="X",
            ),
        )
    lying = AdversarySpec(
        kind="lying", domain="X", params={"claimed_delay": draw(small_delays)}
    )
    if which == "lying":
        return (lying,)
    return (
        lying,
        AdversarySpec(kind="colluding", domain="N", params={"colluding_with": "X"}),
    )


# Unique lists, not sorted sets: the codec must keep a tuple's order.
quantile_sets = st.lists(
    st.sampled_from([0.5, 0.75, 0.9, 0.95, 0.99]), min_size=1, unique=True
).map(tuple)

traffic_specs = st.one_of(
    st.builds(
        TrafficSpec,
        workload=st.sampled_from(["smoke-sequence", "bench-sequence"]),
        seed=st.one_of(st.none(), seeds),
    ),
    st.builds(
        TrafficSpec,
        workload=st.none(),
        packet_count=st.integers(min_value=1, max_value=10_000),
        arrival_process=st.sampled_from(["poisson", "cbr", "mmpp"]),
        seed=st.one_of(st.none(), seeds),
    ),
)


@st.composite
def protocol_specs(draw, domain_names: list[str]) -> ProtocolSpec:
    """A protocol with non-deployed (``None``) domains among the overrides."""
    override_domains = draw(st.sets(st.sampled_from(domain_names), max_size=3))
    return ProtocolSpec(
        default=draw(st.one_of(st.none(), hop_specs())),
        domains={
            domain: draw(st.one_of(st.none(), hop_specs())) for domain in override_domains
        },
        max_diff=draw(st.floats(min_value=1e-6, max_value=1e-2, allow_nan=False)),
    )


@st.composite
def estimation_tiers(draw, mode_field: str) -> dict:
    """Exact mode (the sketch knobs at their defaults) or a sketch budget."""
    if draw(st.booleans()):
        return {}
    return {
        mode_field: "sketch",
        "sketch_size": draw(
            st.integers(min_value=MIN_SKETCH_SIZE, max_value=4 * DEFAULT_SKETCH_SIZE)
        ),
    }


@st.composite
def experiment_specs(draw) -> ExperimentSpec:
    transit = ["L", "X", "N"]
    condition_domains = draw(st.sets(st.sampled_from(transit), max_size=3))
    conditions = {domain: draw(condition_specs()) for domain in condition_domains}

    return ExperimentSpec(
        name=draw(st.text(min_size=0, max_size=12)),
        seed=draw(seeds),
        engine=draw(st.sampled_from(["batch", "streaming"])),
        traffic=draw(traffic_specs),
        path=PathSpec(conditions=conditions, seed=draw(st.one_of(st.none(), seeds))),
        protocol=draw(protocol_specs(["S", "L", "X", "N", "D"])),
        adversaries=draw(adversary_specs()),
        estimation=EstimationSpec(
            observer=draw(st.sampled_from(["S", "L", "N"])),
            targets=tuple(draw(st.sets(st.sampled_from(transit), min_size=1, max_size=3))),
            quantiles=draw(quantile_sets),
            verify=draw(st.booleans()),
            independent=draw(st.booleans()),
            **draw(estimation_tiers("mode")),
        ),
    )


@settings(max_examples=60, deadline=None)
@given(spec=experiment_specs())
def test_dict_round_trip_is_identity(spec: ExperimentSpec):
    assert ExperimentSpec.from_dict(spec.to_dict()) == spec


@settings(max_examples=60, deadline=None)
@given(spec=experiment_specs())
def test_json_round_trip_is_identity(spec: ExperimentSpec):
    decoded = json.loads(json.dumps(spec.to_dict()))
    assert ExperimentSpec.from_dict(decoded) == spec


@settings(max_examples=60, deadline=None)
@given(spec=experiment_specs())
def test_to_dict_is_pure_json(spec: ExperimentSpec):
    payload = spec.to_dict()
    assert json.loads(json.dumps(payload)) == payload


@st.composite
def mesh_specs(draw) -> MeshSpec:
    kind = draw(st.sampled_from(["star", "mesh-random"]))
    condition_domains = draw(st.sets(st.sampled_from(["X", "T0", "T1"]), max_size=2))
    return MeshSpec(
        name=draw(st.text(min_size=0, max_size=12)),
        seed=draw(seeds),
        engine=draw(st.sampled_from(["batch", "streaming"])),
        topology=TopologySpec(
            kind=kind,
            params={"path_count": draw(st.integers(min_value=1, max_value=6))},
            seed=draw(st.one_of(st.none(), seeds)),
        ),
        traffic=draw(traffic_specs),
        conditions={domain: draw(condition_specs()) for domain in condition_domains},
        protocol=draw(protocol_specs(["S0", "X", "T0", "D0"])),
        adversaries=draw(adversary_specs()),
        quantiles=draw(quantile_sets),
        **draw(estimation_tiers("estimation_mode")),
    )


@st.composite
def campaign_specs(draw) -> CampaignSpec:
    cell = draw(st.one_of(experiment_specs(), mesh_specs()))
    quantiles = cell.quantiles if isinstance(cell, MeshSpec) else cell.estimation.quantiles
    sla = None
    if draw(st.booleans()):
        sla = SLATargetSpec(
            delay_bound=draw(small_delays),
            delay_quantile=draw(st.sampled_from(quantiles)),
            loss_bound=draw(rates),
            name=draw(st.text(min_size=1, max_size=8)),
        )
    return CampaignSpec(
        name=draw(st.text(min_size=1, max_size=12)),
        intervals=draw(st.integers(min_value=1, max_value=10_000)),
        cell=cell,
        sla=sla,
    )


@st.composite
def execution_policies(draw) -> ExecutionPolicy:
    engine = draw(st.sampled_from([None, "batch", "streaming"]))
    chunked = engine in (None, "streaming")
    optional_counts = st.one_of(st.none(), st.integers(min_value=1, max_value=1 << 20))
    return ExecutionPolicy(
        engine=engine,
        chunk_size=draw(optional_counts) if chunked else None,
        throttle=draw(st.floats(min_value=0.0, max_value=60.0, allow_nan=False)),
        checkpoint_every=draw(optional_counts) if chunked else None,
    )


def _assert_json_round_trip(cls, spec) -> None:
    text = spec.to_json()
    assert cls.from_json(text) == spec
    assert cls.from_json(text).to_json() == text
    assert cls.from_dict(json.loads(text)) == spec


@settings(max_examples=60, deadline=None)
@given(spec=mesh_specs())
def test_mesh_spec_json_round_trip(spec: MeshSpec):
    _assert_json_round_trip(MeshSpec, spec)


@settings(max_examples=60, deadline=None)
@given(spec=campaign_specs())
def test_campaign_spec_json_round_trip(spec: CampaignSpec):
    _assert_json_round_trip(CampaignSpec, spec)
    assert CampaignSpec.from_json(spec.to_json()).spec_hash() == spec.spec_hash()


@settings(max_examples=60, deadline=None)
@given(policy=execution_policies())
def test_execution_policy_json_round_trip(policy: ExecutionPolicy):
    _assert_json_round_trip(ExecutionPolicy, policy)
