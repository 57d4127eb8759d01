"""Self-tests of the benchmark's own arithmetic and bookkeeping.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy

import pytest

from perfbench.checks import check_intervals
from perfbench.layers import PER_LAYER, layer_metrics, route_class
from perfbench.run import _failed
from perfbench.stats import median, quantile, samples_beyond, tail_quantile
from perfbench.tracing import Patcher, Span, Tracer, self_times
from perfbench.workloads import WORKLOADS, X_LOSS_RATE, campaign_spec


class TestSelfTime:
    def test_nested_tree(self):
        # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 9] > b1 [6, 7], b2 [6.5, 8].
        # b's overlapping children cover [6, 8] once.
        spans = [
            Span(1, None, "root", 0.0, 10.0),
            Span(2, 1, "a", 1.0, 4.0),
            Span(3, 2, "a1", 2.0, 3.0),
            Span(4, 1, "b", 5.0, 9.0),
            Span(5, 4, "b1", 6.0, 7.0),
            Span(6, 4, "b2", 6.5, 8.0),
        ]
        own = self_times(spans)
        assert own == pytest.approx({1: 3.0, 2: 2.0, 3: 1.0, 4: 2.0, 5: 1.0, 6: 1.5})

    def test_tracer_nests_per_thread_and_inherits_interval(self):
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(ticks)))
        root = tracer.start("interval", 7)
        child = tracer.start("core.verify")
        tracer.finish(child)
        tracer.finish(root)
        assert child.parent == root.id and child.interval == 7
        assert self_times(tracer.spans) == {child.id: 1.0, root.id: 2.0}

    def test_layer_metrics_attribute_self_time_and_other(self):
        tracer = Tracer()
        tracer.spans = [
            Span(1, None, "interval", 0.0, 10.0, interval=0),
            Span(2, 1, "engine.record", 0.0, 9.0, interval=0),
            Span(3, 2, "engine.cell", 0.0, 8.0, interval=0),
            Span(4, 3, "core.verify", 1.0, 6.0, interval=0),
            Span(5, 4, "core.estimate", 2.0, 3.0, interval=0),
        ]
        metrics = layer_metrics(tracer)
        assert set(metrics) == {name for name, _, _ in PER_LAYER}
        assert metrics["core.verify_s"] == pytest.approx(4.0)
        assert metrics["core.estimate_s"] == pytest.approx(1.0)
        assert metrics["engine.record_self_s"] == pytest.approx(1.0)
        # interval self 1 s + cell runner self 3 s are not any layer's.
        assert metrics["engine.other_s"] == pytest.approx(4.0)
        assert metrics["trace.coverage_frac"] == pytest.approx(0.6)


class TestPercentileRule:
    def test_p90_needs_ten_samples_beyond(self):
        assert samples_beyond(100, 0.9) == 10
        assert samples_beyond(99, 0.9) == 9
        assert tail_quantile([float(i) for i in range(99)], 0.9) is None
        values = [float(i) for i in range(100)]
        assert tail_quantile(values, 0.9) == pytest.approx(quantile(values, 0.9))

    def test_quantile_interpolates_like_numpy(self):
        assert median([3.0, 1.0, 2.0, 4.0]) == pytest.approx(2.5)
        assert quantile([0.0, 10.0], 0.9) == pytest.approx(9.0)

    def test_omitted_p90_is_reported_with_its_count(self, capsys, monkeypatch):
        from perfbench import run

        rep = {
            "setup_s": 0.5,
            "timed_s": 2.0,
            "intervals": 3,
            "packets": 300,
            "interval_s": [0.6, 0.7, 0.7],
            "peak_rss_mb": 90.0,
            "record_bytes": 300,
            "failures": [[], [], []],
        }
        monkeypatch.setattr(run, "run_rep", lambda *args, **kwargs: copy.deepcopy(rep))
        metrics, reps = run.timed_run(WORKLOADS["bulk_stream"], 1, 0.0, None)
        out = capsys.readouterr().out
        assert "interval_s_p90" not in metrics
        assert "omitted" in out and "(n=9: 0 beyond p90, needs 10)" in out
        assert metrics["pkts_per_s"]["value"] == pytest.approx(150.0)
        assert len(reps) == run.MIN_REPS


def _record(index: int, x_accepted=True, n_accepted=False, x_loss=X_LOSS_RATE):
    return {
        "interval": index,
        "verdicts": {"X": {"accepted": x_accepted}, "N": {"accepted": n_accepted}},
        "estimates": {"X": {"loss_rate": x_loss}, "N": {"loss_rate": 0.0}},
    }


class TestChecks:
    workload = WORKLOADS["fine_batch"]

    def test_clean_campaign_passes(self):
        records = [_record(i) for i in range(4)]
        assert check_intervals(self.workload, 4, [0, 1, 2, 3], records) == [[]] * 4

    def test_injected_wrong_verdicts_count_in_failed_frac(self):
        records = [_record(i) for i in range(4)]
        records[1] = _record(1, n_accepted=True)  # the liar got through
        records[2] = _record(2, x_accepted=False)  # the honest domain was rejected
        failures = check_intervals(self.workload, 4, [0, 1, 2, 3], records)
        assert failures[1] == ["liar N not rejected"]
        assert failures[2] == ["honest X not accepted"]
        attempted, failed, reasons = _failed([{"failures": failures}])
        assert (attempted, failed) == (4, 2)
        assert failed / attempted == 0.5
        assert reasons[0].startswith("rep 0 interval 1")

    def test_missing_out_of_order_and_loss_band(self):
        records = [_record(0), _record(1, x_loss=0.5)]
        failures = check_intervals(self.workload, 3, [1, 0], records)
        assert "committed out of order" in failures[0]
        assert any("outside" in reason for reason in failures[1])
        assert failures[2] == ["record missing"]


class TestWorkloadSeeds:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_seed_changes_only_the_spec_seeds(self, name):
        workload = WORKLOADS[name]
        first = campaign_spec(workload, 1, 0).to_dict()
        second = campaign_spec(workload, 2, 0).to_dict()
        assert first["cell"]["seed"] != second["cell"]["seed"]
        first["cell"]["seed"] = second["cell"]["seed"] = None
        assert first == second
        assert campaign_spec(workload, 1, 0).to_dict() == campaign_spec(workload, 1, 0).to_dict()

    def test_reps_of_one_run_get_distinct_seeds(self):
        workload = WORKLOADS["fine_batch"]
        seeds = {campaign_spec(workload, 1, rep).cell.seed for rep in range(4)}
        assert len(seeds) == 4


class TestPlumbing:
    def test_route_classes(self):
        base = "/api/v1/dispatch/run-1"
        assert route_class({"PATH_INFO": base, "QUERY_STRING": "config=true"}) == "config"
        assert route_class({"PATH_INFO": base}) == "status"
        assert route_class({"PATH_INFO": base + "/claims/3", "REQUEST_METHOD": "POST"}) == "claim"
        assert (
            route_class({"PATH_INFO": base + "/claims/3", "REQUEST_METHOD": "DELETE"})
            == "release"
        )
        assert route_class({"PATH_INFO": base + "/claims/3/renew"}) == "renew"
        assert route_class({"PATH_INFO": base + "/records/3", "REQUEST_METHOD": "PUT"}) == "upload"

    def test_patcher_restores_methods_and_rebound_functions(self):
        import repro.engine.campaign as engine
        import repro.dist.dispatch as dispatch
        from repro.store import RunStore

        original_append = RunStore.append
        original_record = engine.interval_record
        patcher = Patcher()
        patcher.method(RunStore, "append", lambda original: "wrapped")
        patcher.function("repro.engine.campaign", "interval_record", lambda original: "wrapped")
        assert RunStore.append == "wrapped"
        assert engine.interval_record == dispatch.interval_record == "wrapped"
        patcher.restore()
        assert RunStore.append is original_append
        assert engine.interval_record is dispatch.interval_record is original_record


def test_benchmark_json_names_what_the_benchmark_prints():
    import json
    from pathlib import Path

    from perfbench.run import END_TO_END

    bench = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(PER_LAYER)
