"""Integration tests for the declarative experiment runner.

The contracts under test:

* an ``Experiment`` cell reproduces, value for value, what the hand-wired
  engine pipeline (scenario → session → verifier) computes for the same
  seeds — the API is a front door, not a different implementation;
* the batch engine and the per-packet object oracle produce identical cells;
* a parallel sweep serializes byte-identically to a serial sweep;
* adversary specs reproduce the paper's lying/collusion outcomes;
* campaigns built from specs run and accumulate.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import (
    AdversarySpec,
    CellResult,
    ConditionSpec,
    EstimationSpec,
    Experiment,
    ExperimentSpec,
    HOPSpec,
    PathSpec,
    ProtocolSpec,
    SweepResult,
    TrafficSpec,
)
from repro.api import runner as runner_module
from repro.api.spec import CampaignSpec
from repro.core.protocol import VPMSession
from repro.engine.campaign import CampaignRunner
from repro.engine.streaming import StreamingCell, StreamingRunner
from repro.simulation.scenario import PathScenario, SegmentCondition
from repro.traffic.delay_models import JitterDelayModel
from repro.traffic.loss_models import BernoulliLossModel
from repro.traffic.workload import make_workload

from tests.helpers import feed_session
from tests.oracle.objects import run_oracle_cell


def _smoke_spec(**overrides) -> ExperimentSpec:
    base = dict(
        name="api-integration",
        seed=13,
        traffic=TrafficSpec(workload="smoke-sequence"),
        path=PathSpec(
            conditions={
                "X": ConditionSpec(
                    delay="jitter",
                    delay_params={"base_delay": 2e-3, "jitter_std": 0.5e-3},
                    loss="bernoulli",
                    loss_params={"loss_rate": 0.1},
                )
            }
        ),
        protocol=ProtocolSpec(default=HOPSpec(sampling_rate=0.02, aggregate_size=500)),
        estimation=EstimationSpec(observer="L", targets=("X",)),
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestCellEquivalence:
    def test_cell_matches_hand_wired_pipeline(self):
        """The API front door computes exactly what the engine layer computes."""
        spec = _smoke_spec()
        cell = Experiment(spec).run()

        # Hand-wire the same experiment: same traffic seed, same model seeds
        # (the spec derives them, so we build the spec's own condition), same
        # protocol knobs.
        trace = spec.traffic.build(spec.seed)
        scenario = PathScenario()
        scenario.configure_domain("X", spec.path.conditions["X"].build(spec.seed, "X"))
        session = VPMSession(
            scenario.path,
            configs=spec.protocol.build_configs_for([d.name for d in scenario.path.domains]),
        )
        streamed = StreamingRunner(
            StreamingCell((scenario,), (trace,), session), chunk_size=None
        ).run()
        performance = session.verifier_for("L", quantiles=spec.estimation.quantiles
                                           ).estimate_domain("X")

        target = cell.target("X")
        assert target.estimate.loss_rate == performance.loss_rate
        assert target.estimate.delay_sample_count == performance.delay_sample_count
        for entry in target.estimate.delay_quantiles:
            assert entry.estimate == performance.delay_quantiles[entry.quantile].estimate
            assert entry.lower == performance.delay_quantiles[entry.quantile].lower
            assert entry.upper == performance.delay_quantiles[entry.quantile].upper
        truth = streamed.truth_for("X")
        assert target.truth.loss_rate == truth.loss_rate
        assert target.truth.offered_packets == truth.offered_packets

    def test_batch_engine_matches_object_oracle(self):
        spec = _smoke_spec()
        assert Experiment(spec).run().to_dict() == run_oracle_cell(spec).to_dict()

    def test_estimate_is_close_to_truth(self):
        cell = Experiment(_smoke_spec()).run()
        target = cell.target("X")
        assert target.verification.accepted
        assert target.estimate.loss_rate == pytest.approx(
            target.truth.loss_rate, abs=0.02
        )
        assert target.delay_accuracy((0.5, 0.9)) < 1e-3
        assert cell.overhead.receipt_bytes_per_packet > 0

    def test_result_json_round_trip(self):
        cell = Experiment(_smoke_spec()).run()
        assert CellResult.from_json(cell.to_json()).to_json() == cell.to_json()
        respawned = ExperimentSpec.from_dict(cell.spec)
        assert Experiment(respawned).run().to_json() == cell.to_json()


class TestSweepDeterminism:
    GRID = {
        "protocol.default.sampling_rate": [0.05, 0.01],
        "path.conditions.X.loss_params.loss_rate": [0.0, 0.25],
    }

    def test_parallel_sweep_byte_identical_to_serial(self):
        """A 2x2 sweep with workers=4 serializes exactly like workers=1."""
        serial = Experiment(_smoke_spec()).sweep(self.GRID, workers=1)
        parallel = Experiment(_smoke_spec()).sweep(self.GRID, workers=4)
        assert len(serial) == 4
        assert serial.to_json() == parallel.to_json()

    def test_sweep_grid_order_and_overrides(self):
        sweep = Experiment(_smoke_spec()).sweep(self.GRID, workers=1)
        overrides = [cell.overrides for cell in sweep]
        assert overrides == [
            {"protocol.default.sampling_rate": 0.05,
             "path.conditions.X.loss_params.loss_rate": 0.0},
            {"protocol.default.sampling_rate": 0.05,
             "path.conditions.X.loss_params.loss_rate": 0.25},
            {"protocol.default.sampling_rate": 0.01,
             "path.conditions.X.loss_params.loss_rate": 0.0},
            {"protocol.default.sampling_rate": 0.01,
             "path.conditions.X.loss_params.loss_rate": 0.25},
        ]
        # Higher sampling rate ⇒ at least as many matched samples.
        assert (
            sweep.cells[0].result.target("X").estimate.delay_sample_count
            >= sweep.cells[2].result.target("X").estimate.delay_sample_count
        )
        # Lossy cells see the loss.
        assert sweep.cells[1].result.target("X").truth.loss_rate > 0.15
        assert sweep.cells[0].result.target("X").truth.loss_rate == 0.0

    def test_sweep_json_round_trip(self):
        sweep = Experiment(_smoke_spec()).sweep(
            {"protocol.default.sampling_rate": [0.05, 0.01]}, workers=1
        )
        assert SweepResult.from_json(sweep.to_json()).to_json() == sweep.to_json()

    def test_workers_validation(self):
        with pytest.raises(ValueError, match="workers"):
            Experiment(_smoke_spec()).sweep(self.GRID, workers=0)


class TestAdversarySpecs:
    def _base(self) -> ExperimentSpec:
        return _smoke_spec(
            path=PathSpec(
                conditions={
                    "X": ConditionSpec(
                        delay="constant",
                        delay_params={"delay": 15e-3},
                        loss="bernoulli",
                        loss_params={"loss_rate": 0.2},
                    )
                }
            ),
            estimation=EstimationSpec(observer="L", targets=("X", "N")),
        )

    def test_lying_domain_is_exposed(self):
        spec = dataclasses.replace(
            self._base(),
            adversaries=(
                AdversarySpec(kind="lying", domain="X", params={"claimed_delay": 0.5e-3}),
            ),
        )
        cell = Experiment(spec).run()
        target = cell.target("X")
        # The lie hides the loss ...
        assert target.estimate.loss_rate < 0.01
        assert target.truth.loss_rate > 0.15
        # ... but the receipts no longer verify.
        assert not target.verification.accepted
        assert cell.consistency_findings > 0

    def test_collusion_shifts_blame_to_the_accomplice(self):
        spec = dataclasses.replace(
            self._base(),
            adversaries=(
                AdversarySpec(kind="lying", domain="X", params={"claimed_delay": 0.5e-3}),
                AdversarySpec(kind="colluding", domain="N", params={"colluding_with": "X"}),
            ),
        )
        cell = Experiment(spec).run()
        assert cell.consistency_findings == 0
        assert cell.target("X").estimate.loss_rate < 0.01
        assert cell.target("N").estimate.loss_rate == pytest.approx(
            cell.target("X").truth.loss_rate, abs=0.02
        )

    def test_agent_adversary_at_non_deployed_domain_rejected(self):
        spec = dataclasses.replace(
            self._base(),
            protocol=ProtocolSpec(default=HOPSpec(), domains={"X": None}),
            adversaries=(AdversarySpec(kind="lying", domain="X"),),
        )
        with pytest.raises(ValueError, match="declares that domain non-deployed"):
            Experiment(spec).run()

    def test_agent_adversary_off_path_rejected(self):
        spec = dataclasses.replace(
            self._base(),
            adversaries=(AdversarySpec(kind="lying", domain="Q"),),
        )
        with pytest.raises(ValueError, match="not on the path"):
            Experiment(spec).run()

    def test_off_path_observer_rejected(self):
        # An off-path observer sees no receipts, so it would report 0 offered
        # packets and accept every target; the builder refuses it instead.
        spec = dataclasses.replace(
            self._base(), estimation=EstimationSpec(observer="Q", targets=("X",))
        )
        with pytest.raises(ValueError, match=r"observer 'Q' is not on the path.*'X'"):
            Experiment(spec).run()

    @pytest.mark.parametrize("target", ["Q", "S"])
    def test_off_path_or_edge_target_rejected_before_any_trace(self, monkeypatch, target):
        # An edge domain has one HOP and an off-path one none, so neither has
        # an ingress/egress pair; the builder refuses it before any traffic.
        built = []
        monkeypatch.setattr(
            runner_module, "SyntheticTrace", lambda *args, **kwargs: built.append(kwargs)
        )
        spec = dataclasses.replace(
            self._base(), estimation=EstimationSpec(observer="S", targets=("X", target))
        )
        with pytest.raises(
            ValueError,
            match=rf"target '{target}' is not a transit domain.*\['L', 'N', 'X'\]",
        ):
            Experiment(spec).run()
        assert built == []

    def test_colluder_without_liar_is_rejected(self):
        spec = dataclasses.replace(
            self._base(),
            adversaries=(
                AdversarySpec(kind="colluding", domain="N", params={"colluding_with": "X"}),
            ),
        )
        with pytest.raises(ValueError, match="list the 'lying' spec first"):
            Experiment(spec).run()

    @pytest.mark.parametrize("engine", ["batch", "streaming"])
    def test_condition_adversaries_run_under_both_engines(self, engine):
        spec = dataclasses.replace(
            self._base(),
            engine=engine,
            adversaries=(
                AdversarySpec(kind="marker-drop", domain="X"),
                AdversarySpec(kind="biased-treatment", domain="X",
                              params={"guess_rate": 0.02}),
            ),
        )
        cell = Experiment(spec).run()
        assert cell.target("X").truth.offered_packets > 0

    def test_condition_adversaries_identical_across_engines(self):
        cells = {}
        for engine in ("batch", "streaming"):
            spec = dataclasses.replace(
                self._base(),
                engine=engine,
                adversaries=(AdversarySpec(kind="marker-drop", domain="X"),),
            )
            payload = Experiment(spec).run().to_dict()
            payload["spec"].pop("engine")
            cells[engine] = payload
        assert cells["batch"] == cells["streaming"]


def _campaign(cell: ExperimentSpec, intervals: int) -> CampaignRunner:
    return CampaignRunner(CampaignSpec(name="campaign", intervals=intervals, cell=cell))


class TestCampaignFromSpec:
    def test_campaign_accumulates_intervals(self):
        spec = _smoke_spec(
            traffic=TrafficSpec(workload=None, packet_count=2000),
            estimation=EstimationSpec(observer="S", targets=("X",)),
        )
        runner = _campaign(spec, intervals=2)
        outcome = runner.run()
        assert outcome.completed
        assert outcome.summary["intervals"] == 2
        entry = outcome.summary["domains"]["X"]
        assert entry["offered_packets"] > 0
        assert entry["loss_rate"] == pytest.approx(0.1, abs=0.05)
        assert entry["acceptance_rate"] == 1.0

    def test_interval_traffic_is_seed_spaced_and_reproducible(self):
        spec = _smoke_spec(traffic=TrafficSpec(workload=None, packet_count=500))
        first = _campaign(spec, intervals=2)
        second = _campaign(spec, intervals=2)
        first.run()
        second.run()
        assert first.records() == second.records()
        zero, one = first.records()
        assert zero["seed"] != one["seed"]
        assert zero["receipts_digest"] != one["receipts_digest"]

    def test_campaign_domains_follow_the_estimation_targets(self):
        spec = _smoke_spec(
            traffic=TrafficSpec(workload=None, packet_count=500),
            estimation=EstimationSpec(observer="L", targets=("X", "N")),
        )
        runner = _campaign(spec, intervals=1)
        summary = runner.run().summary
        assert sorted(summary["domains"]) == ["N", "X"]
        assert sorted(runner.records()[0]["verdicts"]) == ["N", "X"]


class TestSessionErgonomics:
    def test_single_hop_config_applies_to_every_domain(self):
        """Satellite: VPMSession accepts one HOPConfig for all domains."""
        from repro.core.aggregation import AggregatorConfig
        from repro.core.hop import HOPConfig
        from repro.core.sampling import SamplerConfig

        batch = make_workload("smoke-sequence", seed=1).packet_batch()
        scenario = PathScenario()
        scenario.configure_domain(
            "X",
            SegmentCondition(
                delay_model=JitterDelayModel(2e-3, 0.5e-3, seed=3),
                loss_model=BernoulliLossModel(0.1, seed=4),
            ),
        )
        observation = scenario.run_batch(batch)
        config = HOPConfig(
            sampler=SamplerConfig(sampling_rate=0.02),
            aggregator=AggregatorConfig(expected_aggregate_size=500),
        )
        single = VPMSession(scenario.path, configs=config)
        feed_session(single, observation)
        mapping = VPMSession(
            scenario.path,
            configs={domain.name: config for domain in scenario.path.domains},
        )
        feed_session(mapping, observation)
        assert set(single.agents) == set(mapping.agents)
        assert single.estimate("L", "X").loss_rate == mapping.estimate("L", "X").loss_rate
