"""Unit tests for the declarative experiment specs and registries."""

from __future__ import annotations

import inspect
import json
from collections import Counter

import pytest

import repro.api.spec as spec_module
from repro.api import (
    ADVERSARIES,
    DELAY_MODELS,
    LOSS_MODELS,
    REORDERING_MODELS,
    TOPOLOGIES,
    AdversarySpec,
    ConditionSpec,
    EstimationSpec,
    ExperimentSpec,
    HOPSpec,
    PathSpec,
    ProtocolSpec,
    Registry,
    TrafficSpec,
    derive_seed,
)
from repro.core.hop import HOPConfig
from repro.simulation.scenario import PathScenario, SegmentCondition
from repro.traffic.delay_models import ConstantDelayModel, JitterDelayModel
from repro.traffic.loss_models import GilbertElliottLossModel


class TestRegistry:
    def test_builtin_models_registered(self):
        assert {"constant", "jitter", "congestion", "empirical"} <= set(
            DELAY_MODELS.names()
        )
        assert {"none", "bernoulli", "gilbert-elliott", "gilbert-elliott-rate"} <= set(
            LOSS_MODELS.names()
        )
        assert {"none", "window"} <= set(REORDERING_MODELS.names())
        assert {"lying", "colluding", "marker-drop", "biased-treatment"} <= set(
            ADVERSARIES.names()
        )
        assert "figure1" in TOPOLOGIES

    def test_unknown_key_error_lists_known_keys(self):
        with pytest.raises(ValueError, match="unknown delay model 'nope'"):
            DELAY_MODELS.get("nope")
        with pytest.raises(ValueError, match="constant"):
            DELAY_MODELS.get("nope")

    def test_duplicate_registration_rejected(self):
        registry = Registry("thing")
        registry.register("a", lambda: None)
        with pytest.raises(ValueError, match="already registered"):
            registry.register("a", lambda: None)
        registry.register("a", lambda: 1, overwrite=True)
        assert registry.get("a")() == 1

    def test_decorator_registration(self):
        @DELAY_MODELS.register("test-spike")
        class SpikeDelayModel(ConstantDelayModel):
            pass

        try:
            assert DELAY_MODELS.get("test-spike") is SpikeDelayModel
            condition = ConditionSpec(delay="test-spike").build()
            assert isinstance(condition.delay_model, SpikeDelayModel)
        finally:
            DELAY_MODELS._entries.pop("test-spike")


class TestDeriveSeed:
    def test_deterministic_and_label_sensitive(self):
        assert derive_seed(1, "traffic") == derive_seed(1, "traffic")
        assert derive_seed(1, "traffic") != derive_seed(2, "traffic")
        assert derive_seed(1, "traffic") != derive_seed(1, "path")
        assert 0 <= derive_seed(123, "x") < 2**63

    def test_component_seeds_are_spaced(self):
        seeds = {
            derive_seed(7, f"condition.X.{component}")
            for component in ("delay", "loss", "reordering")
        }
        assert len(seeds) == 3


class TestTrafficSpec:
    def test_workload_and_explicit_forms(self):
        named = TrafficSpec(workload="smoke-sequence")
        assert named.trace_config().packet_count == 3000
        scaled = TrafficSpec(workload="smoke-sequence", packet_count=100)
        assert scaled.trace_config().packet_count == 100
        explicit = TrafficSpec(workload=None, packet_count=500, arrival_process="cbr")
        assert explicit.trace_config().arrival_process == "cbr"

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown workload"):
            TrafficSpec(workload="no-such-workload")
        with pytest.raises(ValueError, match="workload name or an explicit"):
            TrafficSpec(workload=None, packet_count=None)
        with pytest.raises(ValueError):
            TrafficSpec(workload=None, packet_count=-5)
        with pytest.raises(ValueError):
            TrafficSpec(workload=None, packet_count=10, arrival_process="fractal")
        with pytest.raises(ValueError, match="no effect when a workload"):
            TrafficSpec(workload="smoke-sequence", packets_per_second=10.0)

    def test_seed_pinning_beats_derivation(self):
        pinned = TrafficSpec(workload="smoke-sequence", seed=42)
        assert pinned.effective_seed(root_seed=0) == 42
        derived = TrafficSpec(workload="smoke-sequence")
        assert derived.effective_seed(0) == derive_seed(0, "traffic")

    def test_registered_workloads_usable_in_specs(self):
        from repro.traffic.workload import WORKLOADS, WorkloadSpec

        WORKLOADS["test-tiny"] = WorkloadSpec(
            name="test-tiny", packet_count=64, packets_per_second=1000.0
        )
        try:
            spec = TrafficSpec(workload="test-tiny")
            assert spec.trace_config().packet_count == 64
            assert len(spec.build(root_seed=0).packet_batch()) == 64
        finally:
            WORKLOADS.pop("test-tiny", None)


class TestConditionSpec:
    def test_builds_registered_models(self):
        spec = ConditionSpec(
            delay="jitter",
            delay_params={"base_delay": 1e-3, "jitter_std": 0.2e-3},
            loss="gilbert-elliott-rate",
            loss_params={"target_rate": 0.25},
            reordering="window",
            reordering_params={"window": 1e-3},
        )
        condition = spec.build(root_seed=3, domain="X")
        assert isinstance(condition, SegmentCondition)
        assert isinstance(condition.delay_model, JitterDelayModel)
        assert isinstance(condition.loss_model, GilbertElliottLossModel)
        model, reference = condition.loss_model, GilbertElliottLossModel.from_target_rate(0.25)
        assert (model.p, model.r, model.loss_good, model.loss_bad) == (
            reference.p, reference.r, reference.loss_good, reference.loss_bad
        )

    def test_unknown_registry_keys_raise(self):
        with pytest.raises(ValueError, match="unknown delay model"):
            ConditionSpec(delay="warp")
        with pytest.raises(ValueError, match="unknown loss model"):
            ConditionSpec(loss="quantum")
        with pytest.raises(ValueError, match="unknown reordering model"):
            ConditionSpec(reordering="shuffle")

    def test_invalid_rates_raise_at_spec_construction(self):
        with pytest.raises(ValueError):
            ConditionSpec(loss="bernoulli", loss_params={"loss_rate": 1.5})
        with pytest.raises(ValueError):
            ConditionSpec(delay="constant", delay_params={"delay": -1.0})
        with pytest.raises(ValueError, match="invalid parameters"):
            ConditionSpec(delay="constant", delay_params={"dealy": 1e-3})

    def test_params_must_be_jsonable(self):
        with pytest.raises(ValueError, match="JSON-serializable"):
            ConditionSpec(delay="constant", delay_params={"delay": object()})

    def test_scenario_params_validated_eagerly(self):
        with pytest.raises(ValueError, match="invalid parameters for topology"):
            PathSpec(scenario_params={"topology": "bad"})
        with pytest.raises(ValueError, match="unknown topology"):
            PathSpec(scenario="figure9")

    def test_identical_specs_build_identical_random_models(self):
        spec = ConditionSpec(loss="bernoulli", loss_params={"loss_rate": 0.5})
        first = spec.build(root_seed=9, domain="X").loss_model
        second = spec.build(root_seed=9, domain="X").loss_model
        assert [first.drops(i) for i in range(64)] == [
            second.drops(i) for i in range(64)
        ]


class TestFactorySignatureCache:
    def test_cell_rebuild_reads_each_signature_once(self, monkeypatch):
        from perfbench.workloads import WORKLOADS, campaign_spec

        cell = campaign_spec(WORKLOADS["fine_batch"], seed=7, rep=1).interval_cell(0)
        spec_module._factory_signature.cache_clear()
        calls: Counter = Counter()
        read_signature = inspect.signature

        def counting_signature(obj, *args, **kwargs):
            calls[obj] += 1
            return read_signature(obj, *args, **kwargs)

        monkeypatch.setattr(inspect, "signature", counting_signature)
        for _ in range(2):
            spec = ExperimentSpec.from_dict(cell.to_dict())
            spec.path.build(spec.seed)
        assert calls
        assert set(calls.values()) == {1}

    def test_reregistered_name_reads_the_new_factory(self):
        seeds = []

        def seedless(delay: float = 1e-3):
            return ConstantDelayModel(delay)

        def seeded(delay: float = 1e-3, seed: int = 0):
            seeds.append(seed)
            return ConstantDelayModel(delay)

        DELAY_MODELS.register("signature-probe", seedless)
        try:
            ConditionSpec(delay="signature-probe").build(root_seed=5, domain="X")
            DELAY_MODELS.register("signature-probe", seeded, overwrite=True)
            ConditionSpec(delay="signature-probe").build(root_seed=5, domain="X")
        finally:
            DELAY_MODELS._entries.pop("signature-probe")
        assert seeds == [
            derive_seed(0, "condition.__validate__.delay"),
            derive_seed(5, "condition.X.delay"),
        ]


class TestProtocolSpec:
    def test_build_configs_with_default_and_overrides(self):
        scenario = PathScenario()
        spec = ProtocolSpec(
            default=HOPSpec(sampling_rate=0.02),
            domains={"S": None, "X": HOPSpec(sampling_rate=0.05)},
        )
        configs = spec.build_configs_for([d.name for d in scenario.path.domains])
        assert configs["S"] is None
        assert configs["X"].sampler.sampling_rate == 0.05
        assert configs["L"].sampler.sampling_rate == 0.02

    def test_none_default_means_undeployed(self):
        scenario = PathScenario()
        spec = ProtocolSpec(default=None, domains={"X": HOPSpec()})
        configs = spec.build_configs_for([d.name for d in scenario.path.domains])
        assert configs["L"] is None
        assert isinstance(configs["X"], HOPConfig)

    def test_unknown_domain_override_rejected_at_build(self):
        scenario = PathScenario()
        spec = ProtocolSpec(domains={"x": HOPSpec(sampling_rate=0.05)})
        with pytest.raises(ValueError, match=r"names \['x'\], which are not on"):
            spec.build_configs_for([d.name for d in scenario.path.domains])

    def test_validation(self):
        with pytest.raises(ValueError):
            HOPSpec(sampling_rate=1.5)
        with pytest.raises(ValueError):
            HOPSpec(aggregate_size=0)
        with pytest.raises(ValueError, match="max_diff"):
            ProtocolSpec(max_diff=0.0)
        with pytest.raises(ValueError, match="HOPSpec or None"):
            ProtocolSpec(domains={"X": 3})


class TestRoundTrips:
    def _full_spec(self) -> ExperimentSpec:
        return ExperimentSpec(
            name="round-trip",
            seed=5,
            engine="streaming",
            traffic=TrafficSpec(workload=None, packet_count=1234, seed=99),
            path=PathSpec(
                seed=17,
                conditions={
                    "X": ConditionSpec(
                        delay="congestion",
                        delay_params={"scenario": "udp-burst", "seed": 18},
                        loss="gilbert-elliott-rate",
                        loss_params={"target_rate": 0.1},
                        reordering="window",
                        reordering_params={"window": 5e-4},
                    ),
                    "N": ConditionSpec(delay="jitter"),
                },
            ),
            protocol=ProtocolSpec(
                default=HOPSpec(sampling_rate=0.02),
                domains={"S": None, "X": HOPSpec(aggregate_size=777)},
            ),
            adversaries=(
                AdversarySpec(kind="lying", domain="X", params={"claimed_delay": 1e-3}),
                AdversarySpec(kind="colluding", domain="N", params={"colluding_with": "X"}),
            ),
            estimation=EstimationSpec(
                observer="S", targets=("X", "N"), quantiles=(0.5, 0.9), verify=True
            ),
        )

    def test_dict_round_trip_is_identity(self):
        spec = self._full_spec()
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip_is_identity(self):
        spec = self._full_spec()
        payload = json.dumps(spec.to_dict())
        assert ExperimentSpec.from_dict(json.loads(payload)) == spec

    def test_unknown_keys_rejected(self):
        data = self._full_spec().to_dict()
        data["enginee"] = "batch"
        with pytest.raises(ValueError, match="unknown ExperimentSpec keys"):
            ExperimentSpec.from_dict(data)
        with pytest.raises(ValueError, match="unknown TrafficSpec keys"):
            TrafficSpec.from_dict({"pakcet_count": 5})

    def test_engine_validation(self):
        with pytest.raises(ValueError, match="engine"):
            ExperimentSpec(engine="turbo")

    def test_estimation_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            EstimationSpec(targets=())
        with pytest.raises(ValueError):
            EstimationSpec(quantiles=(1.5,))

    def test_repeated_estimation_target_rejected(self):
        # A repeated target would be listed twice in the cell result and
        # double its offered and lost packets in a campaign record.
        with pytest.raises(ValueError, match=r"names \['X'\] more than once"):
            EstimationSpec(targets=("X", "N", "X"))

    def test_estimation_mode_validation(self):
        with pytest.raises(ValueError, match="mode"):
            EstimationSpec(mode="approximate")
        with pytest.raises(ValueError, match="sketch_size"):
            EstimationSpec(mode="sketch", sketch_size=4)
        with pytest.raises(ValueError, match="sketch_size"):
            EstimationSpec(mode="sketch", sketch_size=True)

    def test_sketch_mode_round_trips(self):
        spec = EstimationSpec(mode="sketch", sketch_size=128)
        data = spec.to_dict()
        assert data["mode"] == "sketch"
        assert data["sketch_size"] == 128
        assert EstimationSpec.from_dict(json.loads(json.dumps(data))) == spec

    def test_exact_mode_serialization_is_unchanged(self):
        """Byte-stability: default exact mode must not add keys to to_dict.

        spec_hash and the conformance goldens embed this serialization —
        adding keys for the default mode would invalidate every golden.
        """
        data = EstimationSpec().to_dict()
        assert "mode" not in data
        assert "sketch_size" not in data

    def test_adversary_validation(self):
        with pytest.raises(ValueError, match="unknown adversary"):
            AdversarySpec(kind="bribery", domain="X")


class TestOverrides:
    def test_dotted_paths_through_specs_and_dicts(self):
        spec = ExperimentSpec(
            path=PathSpec(
                conditions={"X": ConditionSpec(loss="bernoulli", loss_params={"loss_rate": 0.1})}
            )
        )
        updated = spec.with_overrides(
            {
                "protocol.default.sampling_rate": 0.05,
                "path.conditions.X.loss_params.loss_rate": 0.4,
                "seed": 7,
            }
        )
        assert updated.protocol.default.sampling_rate == 0.05
        assert updated.path.conditions["X"].loss_params["loss_rate"] == 0.4
        assert updated.seed == 7
        # the original spec is untouched
        assert spec.protocol.default.sampling_rate == 0.01
        assert spec.seed == 0

    def test_override_revalidates(self):
        spec = ExperimentSpec(
            path=PathSpec(
                conditions={"X": ConditionSpec(loss="bernoulli", loss_params={"loss_rate": 0.1})}
            )
        )
        with pytest.raises(ValueError):
            spec.with_overrides({"path.conditions.X.loss_params.loss_rate": 2.0})

    def test_bad_paths_raise(self):
        spec = ExperimentSpec()
        with pytest.raises(ValueError, match="no field"):
            spec.with_overrides({"protocol.defualt": None})
        with pytest.raises(ValueError, match="not present"):
            spec.with_overrides({"path.conditions.Z.loss": "none"})
