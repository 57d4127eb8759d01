"""Unit tests for the checkpointable campaign engine (CampaignRunner)."""

from __future__ import annotations

import copy
import dataclasses
import time

import numpy as np
import pytest

from repro.api.spec import (
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
from repro.core.estimation import estimate_delay_quantiles
from repro.engine.campaign import (
    CampaignAccumulator,
    CampaignRunner,
    IntervalCommitted,
    interval_record,
)
from repro.store import RunStore, RunStoreError

from tests.helpers import rewrite_record_version


def _cell(packet_count: int = 500) -> ExperimentSpec:
    return ExperimentSpec(
        name="campaign-cell",
        seed=17,
        traffic=TrafficSpec(workload=None, packet_count=packet_count),
        path=PathSpec(
            conditions={
                "X": ConditionSpec(
                    delay="jitter",
                    delay_params={"base_delay": 1e-3, "jitter_std": 0.3e-3},
                    loss="bernoulli",
                    loss_params={"loss_rate": 0.03},
                )
            }
        ),
        protocol=ProtocolSpec(
            default=HOPSpec(sampling_rate=0.2, marker_rate=0.02, aggregate_size=200)
        ),
        estimation=EstimationSpec(observer="S", targets=("X",)),
    )


def _spec(intervals: int = 3, sla: bool = True, **cell_kwargs) -> CampaignSpec:
    return CampaignSpec(
        name="unit-campaign",
        intervals=intervals,
        cell=_cell(**cell_kwargs),
        sla=SLATargetSpec(delay_bound=10e-3, delay_quantile=0.9, loss_bound=0.1)
        if sla
        else None,
    )


class TestIntervalDerivation:
    def test_intervals_are_distinct_and_deterministic(self):
        spec = _spec()
        seeds = {spec.interval_seed(index) for index in range(3)}
        assert len(seeds) == 3
        assert spec.interval_cell(1) == spec.interval_cell(1)
        assert spec.interval_cell(0) != spec.interval_cell(1)

    def test_pinned_traffic_seed_is_respaced_per_interval(self):
        cell = _cell()
        pinned = dataclasses.replace(
            cell, traffic=dataclasses.replace(cell.traffic, seed=777)
        )
        spec = CampaignSpec(intervals=2, cell=pinned)
        seeds = {spec.interval_cell(index).traffic.seed for index in range(2)}
        assert len(seeds) == 2
        assert 777 not in seeds

    def test_interval_record_is_pure(self):
        spec = _spec(intervals=2)
        assert interval_record(spec, 0) == interval_record(spec, 0)
        assert interval_record(spec, 0) != interval_record(spec, 1)

    def test_interval_index_bounds(self):
        spec = _spec(intervals=2)
        with pytest.raises(ValueError, match="out of range"):
            spec.interval_seed(2)

    def test_sla_quantile_must_be_estimated(self):
        """An SLA at a never-estimated quantile would silently always pass."""
        with pytest.raises(ValueError, match="only estimates"):
            CampaignSpec(
                intervals=1,
                cell=_cell(),
                sla=SLATargetSpec(delay_quantile=0.999),
            )

    def test_mesh_topology_is_fixed_across_intervals(self):
        """Intervals vary traffic/conditions, never the network under contract."""
        spec = CampaignSpec(
            intervals=3,
            cell=MeshSpec(
                seed=11,
                topology=TopologySpec(kind="mesh-random", params={"path_count": 3}),
                traffic=TrafficSpec(workload=None, packet_count=300),
            ),
        )
        built = [
            spec.interval_cell(index).topology.build(
                spec.interval_cell(index).seed
            )
            for index in range(3)
        ]
        reference_paths = [str(path) for _, paths in built[:1] for path in paths]
        for _, paths in built[1:]:
            assert [str(path) for path in paths] == reference_paths
        # while traffic still differs per interval
        seeds = {
            spec.interval_cell(index).traffic_seed(0) for index in range(3)
        }
        assert len(seeds) == 3


class TestCampaignRunner:
    def test_resume_equals_uninterrupted_byte_for_byte(self, tmp_path):
        spec = _spec(intervals=4)
        full = RunStore.create(tmp_path / "full", spec)
        CampaignRunner(spec, full).run()

        part = RunStore.create(tmp_path / "part", spec)
        CampaignRunner(spec, part).run(max_intervals=2)
        assert part.record_count == 2
        outcome = CampaignRunner.resume(str(tmp_path / "part")).run()
        assert outcome.completed and outcome.intervals_run == 2
        assert part.digest() == full.digest()
        assert (tmp_path / "part" / "records.jsonl").read_bytes() == (
            tmp_path / "full" / "records.jsonl"
        ).read_bytes()
        assert (tmp_path / "part" / "summary.json").read_bytes() == (
            tmp_path / "full" / "summary.json"
        ).read_bytes()

    def test_engines_write_identical_stores(self, tmp_path):
        spec = _spec(intervals=2)
        stores = {}
        for label, knobs in {
            "batch": {},
            "streaming": {"engine": "streaming", "chunk_size": 128},
        }.items():
            store = RunStore.create(tmp_path / label, spec)
            CampaignRunner(spec, store, **knobs).run()
            stores[label] = store.digest()
        assert stores["batch"] == stores["streaming"]

    def test_resume_on_different_engine(self, tmp_path):
        spec = _spec(intervals=3)
        full = RunStore.create(tmp_path / "full", spec)
        CampaignRunner(spec, full).run()
        mixed = RunStore.create(tmp_path / "mixed", spec)
        CampaignRunner(spec, mixed, engine="streaming", chunk_size=100).run(
            max_intervals=1
        )
        CampaignRunner.resume(mixed, engine="batch").run(max_intervals=1)
        CampaignRunner.resume(mixed).run()
        assert mixed.digest() == full.digest()

    def test_resume_validates_spec_hash(self, tmp_path):
        spec = _spec(intervals=2)
        store = RunStore.create(tmp_path / "run", spec)
        from repro.store import SpecMismatchError

        with pytest.raises(SpecMismatchError):
            CampaignRunner(_spec(intervals=3), store)

    def test_store_of_another_record_version_is_refused(self, tmp_path):
        spec = _spec(intervals=3)
        store = RunStore.create(tmp_path / "run", spec)
        CampaignRunner(spec, store).run(max_intervals=2)
        rewrite_record_version(store, 1)
        before = store.records_path.read_bytes()
        with pytest.raises(RunStoreError, match="record version 1 .*version 2 records only"):
            CampaignRunner.resume(str(tmp_path / "run"))
        with pytest.raises(RunStoreError, match="record version 1"):
            CampaignRunner(spec, store)
        assert store.records_path.read_bytes() == before
        # Readers still fold it.
        assert CampaignAccumulator.from_records(spec, store.records()).intervals_folded == 2

    def test_memory_mode_without_store(self):
        spec = _spec(intervals=2)
        runner = CampaignRunner(spec)
        outcome = runner.run()
        assert outcome.completed
        assert len(runner.records()) == 2
        assert runner.summary()["intervals"] == 2

    def test_summary_is_pure_function_of_records(self, tmp_path):
        spec = _spec(intervals=3)
        store = RunStore.create(tmp_path / "run", spec)
        runner = CampaignRunner(spec, store)
        runner.run()
        recomputed = CampaignAccumulator.from_records(spec, store.records()).summary()
        assert recomputed == store.summary()

    def test_run_interval_enforces_order(self):
        runner = CampaignRunner(_spec(intervals=2))
        with pytest.raises(ValueError, match="strictly in order"):
            runner.run_interval(1)

    def test_progress_callback_sees_every_record(self):
        seen = []
        CampaignRunner(_spec(intervals=2)).run(
            on_event=lambda event: (
                seen.append(event.record) if isinstance(event, IntervalCommitted) else None
            )
        )
        assert [record["interval"] for record in seen] == [0, 1]

    def test_throttle_sleeps_once_per_interval(self, monkeypatch):
        # The library runner paces itself; no CLI callback is needed.
        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        CampaignRunner(_spec(intervals=2), policy=ExecutionPolicy(throttle=0.25)).run()
        assert sleeps == [0.25, 0.25]

    def test_needs_spec_or_store(self):
        with pytest.raises(ValueError, match="spec, a store, or both"):
            CampaignRunner()

    def test_negative_max_intervals_rejected(self):
        with pytest.raises(ValueError, match="max_intervals must be >= 0"):
            CampaignRunner(_spec(intervals=1)).run(max_intervals=-1)

    def test_memory_mode_runs_in_slices(self):
        spec = _spec(intervals=3)
        whole = CampaignRunner(spec)
        whole.run()

        sliced = CampaignRunner(spec)
        first = sliced.run(max_intervals=1)
        assert not first.completed
        assert first.intervals_run == 1 and first.next_interval == 1
        assert first.summary is None
        rest = sliced.run()
        assert rest.completed and rest.intervals_run == 2
        assert sliced.records() == whole.records()
        assert rest.summary == whole.summary()

    def test_rerunning_a_completed_campaign_runs_nothing(self, tmp_path):
        spec = _spec(intervals=2)
        store = RunStore.create(tmp_path / "run", spec)
        runner = CampaignRunner(spec, store)
        first = runner.run()
        digest = store.digest()
        again = runner.run()
        assert again.completed and again.intervals_run == 0
        assert again.summary == first.summary
        assert store.digest() == digest

    def test_memory_and_store_modes_produce_the_same_records(self, tmp_path):
        spec = _spec(intervals=2)
        memory = CampaignRunner(spec)
        memory.run()
        store = RunStore.create(tmp_path / "run", spec)
        CampaignRunner(spec, store).run()
        assert memory.records() == store.records()
        assert memory.summary() == store.summary()


class TestCampaignStatistics:
    def test_record_carries_auditable_fields(self):
        spec = _spec(intervals=1)
        record = interval_record(spec, 0)
        assert record["interval"] == 0
        assert record["spec_hash"] == spec.spec_hash()
        assert record["seed"] == spec.interval_seed(0)
        assert len(record["receipts_digest"]) == 32
        assert len(record["result_digest"]) == 32
        estimate = record["estimates"]["X"]
        assert estimate["offered_packets"] > 0
        assert estimate["delay_sample_count"] == len(record["delay_samples"]["X"])
        assert record["verdicts"]["X"]["accepted"] is True
        assert record["verdicts"]["X"]["sla_compliant"] is True

    def test_summary_pools_across_intervals(self):
        spec = _spec(intervals=3)
        runner = CampaignRunner(spec)
        runner.run()
        summary = runner.summary()
        entry = summary["domains"]["X"]
        records = runner.records()
        offered = sum(r["estimates"]["X"]["offered_packets"] for r in records)
        samples = [
            float.fromhex(value)
            for record in records
            for value in record["delay_samples"]["X"]
        ]
        assert entry["offered_packets"] == offered
        assert entry["delay_sample_count"] == len(samples)
        pooled = np.sort(np.asarray(samples))
        quantile_key = "0.9"
        assert entry["pooled_quantiles"][quantile_key]["estimate"] == float(
            np.quantile(pooled, 0.9)
        )
        assert entry["acceptance_rate"] == 1.0
        assert entry["sla_compliant"] is True

    def test_sla_violation_detected(self):
        spec = CampaignSpec(
            intervals=1,
            cell=_cell(),
            sla=SLATargetSpec(delay_bound=0.1e-3, delay_quantile=0.9, loss_bound=1e-6),
        )
        summary = CampaignRunner(spec).run().summary
        assert summary["domains"]["X"]["sla_compliant"] is False

    def test_no_sla_means_no_verdict(self):
        spec = _spec(intervals=1, sla=False)
        summary = CampaignRunner(spec).run().summary
        assert summary["domains"]["X"]["sla_compliant"] is None
        assert summary["sla"] is None

    def test_lying_domain_is_rejected_in_every_interval(self):
        cell = dataclasses.replace(
            _cell(packet_count=1500),
            adversaries=(AdversarySpec(kind="lying", domain="X"),),
            estimation=EstimationSpec(observer="L", targets=("X",)),
        )
        runner = CampaignRunner(CampaignSpec(intervals=2, cell=cell))
        runner.run()
        records = runner.records()
        assert len(records) == 2
        assert all(record["verdicts"]["X"]["accepted"] is False for record in records)
        assert runner.summary()["domains"]["X"]["acceptance_rate"] == 0.0

    def test_empty_accumulator_summary_is_benign(self):
        summary = CampaignAccumulator(_spec()).summary()
        assert summary["intervals"] == 0
        assert summary["domains"] == {}

    def test_pooled_loss_tracks_the_configured_loss_rate(self):
        runner = CampaignRunner(_spec(intervals=3, packet_count=1500))
        runner.run()
        entry = runner.summary()["domains"]["X"]
        records = runner.records()
        lost = sum(r["estimates"]["X"]["lost_packets"] for r in records)
        offered = sum(r["estimates"]["X"]["offered_packets"] for r in records)
        assert entry["lost_packets"] == lost
        assert entry["loss_rate"] == lost / offered
        # X drops 3 % of its packets (Bernoulli); jitter is centred on 1 ms.
        assert entry["loss_rate"] == pytest.approx(0.03, abs=0.015)
        assert entry["pooled_quantiles"]["0.5"]["estimate"] == pytest.approx(
            1e-3, rel=0.2
        )

    def test_pooled_quantiles_equal_one_shot_estimate(self):
        """Folding interval by interval equals estimating over all samples at once."""
        spec = _spec(intervals=3)
        runner = CampaignRunner(spec)
        runner.run()
        raw = np.asarray(
            [
                float.fromhex(value)
                for record in runner.records()
                for value in record["delay_samples"]["X"]
            ]
        )
        pool = runner.accumulator.pools["X"]
        assert np.array_equal(np.asarray(pool.sorted_samples), np.sort(raw))
        one_shot = estimate_delay_quantiles(raw, spec.cell.estimation.quantiles)
        pooled = runner.summary()["domains"]["X"]["pooled_quantiles"]
        assert set(pooled) == {repr(q) for q in spec.cell.estimation.quantiles}
        for quantile, estimate in one_shot.items():
            entry = pooled[repr(quantile)]
            assert entry["estimate"] == estimate.estimate
            assert entry["lower"] == estimate.lower
            assert entry["upper"] == estimate.upper

    def test_sla_target_changes_verdicts_not_measurements(self):
        def campaign(sla: SLATargetSpec) -> CampaignRunner:
            runner = CampaignRunner(CampaignSpec(intervals=2, cell=_cell(), sla=sla))
            runner.run()
            return runner

        strict = campaign(
            SLATargetSpec(delay_bound=0.5e-3, delay_quantile=0.9, loss_bound=0.01)
        )
        relaxed = campaign(
            SLATargetSpec(delay_bound=50e-3, delay_quantile=0.9, loss_bound=0.5)
        )
        for mine, theirs in zip(strict.records(), relaxed.records()):
            assert mine["estimates"] == theirs["estimates"]
            assert mine["receipts_digest"] == theirs["receipts_digest"]
        assert strict.summary()["domains"]["X"]["sla_compliant"] is False
        assert relaxed.summary()["domains"]["X"]["sla_compliant"] is True

    def test_summary_snapshot_is_not_mutated_by_later_intervals(self):
        runner = CampaignRunner(_spec(intervals=2))
        runner.run_interval(0)
        first = runner.summary()
        frozen = copy.deepcopy(first)
        runner.run_interval(1)
        assert first == frozen
        later = runner.summary()["domains"]["X"]
        assert later["delay_sample_count"] > first["domains"]["X"]["delay_sample_count"]
        assert later["pool_digest"] != first["domains"]["X"]["pool_digest"]

    def test_acceptance_rate_counts_only_verified_intervals(self):
        spec = _spec(intervals=3)
        runner = CampaignRunner(spec)
        runner.run()
        records = copy.deepcopy(runner.records())
        records[1]["verdicts"]["X"]["accepted"] = False
        records[2]["verdicts"]["X"]["accepted"] = None
        summary = CampaignAccumulator.from_records(spec, records).summary()
        # one accepted and one rejected verified interval; the unverified
        # interval still contributes packets but no verdict
        assert summary["domains"]["X"]["acceptance_rate"] == 0.5
        assert summary["domains"]["X"]["offered_packets"] == sum(
            r["estimates"]["X"]["offered_packets"] for r in records
        )


class TestCampaignAccumulator:
    def test_fold_rejects_out_of_order_records(self):
        spec = _spec(intervals=2)
        accumulator = CampaignAccumulator(spec)
        with pytest.raises(ValueError, match="expected record for interval 0"):
            accumulator.fold(interval_record(spec, 1))
        assert accumulator.intervals_folded == 0

    def test_sketch_mode_rejects_exact_mode_records(self):
        exact = _spec(intervals=1)
        sketch = dataclasses.replace(
            exact,
            cell=dataclasses.replace(
                exact.cell,
                estimation=dataclasses.replace(exact.cell.estimation, mode="sketch"),
            ),
        )
        with pytest.raises(ValueError, match="carries no delay_sketch"):
            CampaignAccumulator(sketch).fold(interval_record(exact, 0))

    def test_every_prefix_summary_equals_a_refold(self):
        spec = _spec(intervals=3)
        runner = CampaignRunner(spec)
        prefixes = []
        for index in range(spec.intervals):
            runner.run_interval(index)
            prefixes.append(runner.summary())
        records = runner.records()
        for count, summary in enumerate(prefixes, start=1):
            refolded = CampaignAccumulator.from_records(spec, records[:count])
            assert refolded.summary() == summary
            assert summary["intervals"] == count


class TestMeshCampaign:
    def _mesh_spec(self, intervals: int = 2) -> CampaignSpec:
        return CampaignSpec(
            name="mesh-campaign",
            intervals=intervals,
            cell=MeshSpec(
                seed=5,
                topology=TopologySpec(kind="star", params={"path_count": 3}, seed=3),
                traffic=TrafficSpec(workload=None, packet_count=400),
                conditions={
                    "X": ConditionSpec(
                        delay="jitter",
                        delay_params={"base_delay": 1e-3, "jitter_std": 0.2e-3},
                    )
                },
                protocol=ProtocolSpec(
                    default=HOPSpec(
                        sampling_rate=0.2, marker_rate=0.02, aggregate_size=150
                    )
                ),
            ),
            sla=SLATargetSpec(delay_bound=10e-3, loss_bound=0.1),
        )

    def test_mesh_campaign_resume_byte_identical(self, tmp_path):
        spec = self._mesh_spec()
        full = RunStore.create(tmp_path / "full", spec)
        CampaignRunner(spec, full).run()
        part = RunStore.create(tmp_path / "part", spec)
        CampaignRunner(spec, part).run(max_intervals=1)
        CampaignRunner.resume(part, engine="streaming", chunk_size=128).run()
        assert part.digest() == full.digest()

    def test_mesh_pools_across_paths(self):
        spec = self._mesh_spec(intervals=1)
        record = CampaignRunner(spec).run_interval(0)
        # The shared core X is crossed by every path; its estimate sums the
        # per-path offered packets (3 paths x 400 packets).
        assert record["estimates"]["X"]["offered_packets"] == 3 * 400
        assert record["verdicts"]["X"]["accepted"] is True


class TestStreamingCampaign:
    def test_streaming_campaign_runs_the_interval_records(self):
        runner = CampaignRunner(_spec(intervals=2, sla=False), engine="streaming")
        runner.run()
        assert runner.records() == [
            interval_record(runner.spec, index) for index in range(2)
        ]
