"""Unit tests for repro.api.codec: malformed input, pinned hashes, result round trips."""

from __future__ import annotations

import io
import json
from pathlib import Path

import pytest

from repro.api import Experiment
from repro.api.results import CellResult, MeshResult, SweepResult
from repro.api.spec import (
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
from repro.cli import main
from repro.service import JobQueue, ServiceApp

EXAMPLE_SPECS = Path(__file__).resolve().parents[2] / "examples" / "specs"

#: (record, payload, the dotted path the error must name).  Every payload
#: has the wrong JSON shape somewhere; each must fail as a ValueError.
MALFORMED = [
    ("spec", {"cell": {"adversaries": [1]}}, "cell.adversaries[0]"),
    ("spec", {"cell": 5}, "cell"),
    ("spec", {"sla": 3}, "sla"),
    ("spec", {"intervals": "6"}, "intervals"),
    ("spec", {"cell": {"path": {"conditions": {"X": 7}}}}, "cell.path.conditions.X"),
    ("spec", {"cell": {"estimation": {"targets": "XY"}}}, "cell.estimation.targets"),
    ("spec", {"cell": {"seed": "3"}}, "cell.seed"),
    ("spec", {"cell": {"seed": True}}, "cell.seed"),
    ("spec", {"cell": {"traffic": {"pakcet_count": 5}}}, "cell.traffic"),
    ("spec", {"cell": {"topology": {"kind": "star"}, "quantiles": 0.5}}, "cell.quantiles"),
    ("policy", {"chunk_size": "5"}, "chunk_size"),
    ("policy", {"throttle": "fast"}, "throttle"),
    ("policy", [1, 2], "ExecutionPolicy"),
]
IDS = [f"{kind}-{path}" for kind, _, path in MALFORMED]


def _small_spec() -> CampaignSpec:
    return CampaignSpec(
        name="codec",
        intervals=1,
        cell=ExperimentSpec(seed=3, traffic=TrafficSpec(workload=None, packet_count=200)),
    )


def _decode(kind: str, payload):
    if kind == "spec":
        return CampaignSpec.from_dict(payload)
    return ExecutionPolicy.from_dict(payload)


class TestMalformedInput:
    @pytest.mark.parametrize(("kind", "payload", "path"), MALFORMED, ids=IDS)
    def test_from_dict_names_the_path(self, kind, payload, path):
        with pytest.raises(ValueError) as excinfo:
            _decode(kind, payload)
        assert path in str(excinfo.value)

    @pytest.mark.parametrize(("kind", "payload", "path"), MALFORMED, ids=IDS)
    def test_cli_run_fails_cleanly(self, tmp_path, kind, payload, path):
        spec_file = tmp_path / "spec.json"
        args = ["run", str(spec_file), "--run-dir", str(tmp_path / "run"), "--quiet"]
        if kind == "spec":
            spec_file.write_text(json.dumps(payload))
        else:
            spec_file.write_text(_small_spec().to_json())
            policy_file = tmp_path / "policy.json"
            policy_file.write_text(json.dumps(payload))
            args += ["--policy", str(policy_file)]
        with pytest.raises(SystemExit) as excinfo:
            main(args)
        message = str(excinfo.value.code)
        assert message.startswith("repro: error: ")
        assert path in message
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(("kind", "payload", "path"), MALFORMED, ids=IDS)
    def test_service_answers_400(self, tmp_path, kind, payload, path):
        body = (
            {"spec": payload}
            if kind == "spec"
            else {"spec": _small_spec().to_dict(), "policy": payload}
        )
        raw = json.dumps(body).encode("utf-8")
        environ = {
            "REQUEST_METHOD": "POST",
            "PATH_INFO": "/api/v1/jobs",
            "QUERY_STRING": "",
            "CONTENT_TYPE": "application/json",
            "CONTENT_LENGTH": str(len(raw)),
            "wsgi.input": io.BytesIO(raw),
        }
        statuses: list[str] = []
        queue = JobQueue(tmp_path / "runs", workers=1)
        try:
            app = ServiceApp(tmp_path / "runs", queue=queue)
            reply = b"".join(app(environ, lambda status, *_: statuses.append(status)))
        finally:
            queue.shutdown(wait=True)
        assert statuses[0].startswith("400")
        assert path in json.loads(reply)["error"]["message"]
        assert not list((tmp_path / "runs").glob("*"))

    def test_unknown_key_wording_is_kept(self):
        with pytest.raises(ValueError, match=r"unknown TrafficSpec keys \['pakcet_count'\]"):
            CampaignSpec.from_dict({"cell": {"traffic": {"pakcet_count": 5}}})

    def test_missing_required_key_is_named(self):
        with pytest.raises(ValueError, match=r"cell.adversaries\[0\]: missing AdversarySpec"):
            CampaignSpec.from_dict({"cell": {"adversaries": [{"kind": "lying"}]}})

    def test_domain_check_failure_names_the_path(self):
        with pytest.raises(ValueError, match="cell.traffic: unknown workload"):
            CampaignSpec.from_dict({"cell": {"traffic": {"workload": "nope"}}})


class TestScalarsKeptAsWritten:
    def test_float_field_keeps_an_int(self):
        traffic = {"workload": None, "packet_count": 100, "packets_per_second": 50000}
        payload = {"cell": {"traffic": traffic}}
        spec = CampaignSpec.from_dict(payload)
        assert spec.cell.traffic.packets_per_second == 50000
        assert isinstance(spec.to_dict()["cell"]["traffic"]["packets_per_second"], int)

    def test_exact_mode_omits_the_sketch_knobs(self):
        assert "mode" not in EstimationSpec().to_dict()
        mesh = MeshSpec(topology=TopologySpec(kind="star")).to_dict()
        assert "estimation_mode" not in mesh and "sketch_size" not in mesh


class TestBuildAndReadAgree:
    """What can be built can be read back: the field-type check runs on both."""

    def test_float_in_int_field_fails_at_construction(self):
        with pytest.raises(ValueError, match="HOPSpec.aggregate_size: expected an int"):
            HOPSpec(aggregate_size=5e3)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_float_sweep_grid_is_rejected_serial_and_parallel(self, workers):
        experiment = Experiment(_small_spec().cell)
        with pytest.raises(ValueError, match="aggregate_size: expected an int"):
            experiment.sweep(
                {"protocol.default.aggregate_size": [1e3, 5e3]}, workers=workers
            )

    @pytest.mark.parametrize(
        "cls, payload",
        [
            (PathSpec, {"conditions": None}),
            (ProtocolSpec, {"domains": None}),
            (MeshSpec, {"topology": {"kind": "star"}, "conditions": None}),
        ],
    )
    def test_null_mapping_reads_as_empty(self, cls, payload):
        spec = cls.from_dict(payload)
        without_null = {key: value for key, value in payload.items() if value is not None}
        assert spec == cls.from_dict(without_null)


class TestPinnedHashes:
    """``spec_hash`` literals: a codec change that moves a byte fails here."""

    @pytest.mark.parametrize(
        ("name", "digest"),
        [
            ("campaign_smoke.json", "935e1e62570be2125c5c761631ead430"),
            ("campaign_mesh_smoke.json", "29ca9d72a42f6563231f2c496f82f7f0"),
            ("campaign_liar_smoke.json", "07cbed290b359fed356e45091f8f0582"),
        ],
    )
    def test_example_specs(self, name, digest):
        text = (EXAMPLE_SPECS / name).read_text()
        assert CampaignSpec.from_json(text).spec_hash() == digest

    def test_sketch_mode_single_path(self):
        spec = CampaignSpec(
            name="pinned-sketch",
            intervals=4,
            cell=ExperimentSpec(
                seed=11,
                traffic=TrafficSpec(workload=None, packet_count=500),
                path=PathSpec(
                    conditions={
                        "X": ConditionSpec(
                            delay="jitter",
                            delay_params={"base_delay": 1e-3, "jitter_std": 2e-4},
                        )
                    }
                ),
                estimation=EstimationSpec(
                    observer="S", targets=("X",), mode="sketch", sketch_size=256
                ),
            ),
            sla=SLATargetSpec(delay_bound=5e-3, delay_quantile=0.9, loss_bound=0.05),
        )
        assert spec.spec_hash() == "9f552c4a2dc3c2f05df938149bd5a2e4"

    def test_sketch_mode_mesh(self):
        spec = CampaignSpec(
            name="pinned-mesh-sketch",
            intervals=3,
            cell=MeshSpec(
                seed=13,
                topology=TopologySpec(kind="star", params={"path_count": 2}, seed=3),
                traffic=TrafficSpec(workload=None, packet_count=400),
                estimation_mode="sketch",
                sketch_size=128,
            ),
        )
        assert spec.spec_hash() == "d1d9f02e6f52b0e8be5d7801e99478d0"


class TestResultRoundTrips:
    """Results of real runs survive ``from_json(to_json())`` unchanged."""

    def test_cell_result(self):
        spec = ExperimentSpec(
            seed=5,
            traffic=TrafficSpec(workload=None, packet_count=400),
            estimation=EstimationSpec(observer="S", targets=("X", "N")),
        )
        result = spec.run()
        text = result.to_json()
        assert CellResult.from_json(text) == result
        assert CellResult.from_json(text).to_json() == text

    def test_mesh_result(self):
        spec = MeshSpec(
            seed=7,
            topology=TopologySpec(kind="star", params={"path_count": 2}, seed=1),
            traffic=TrafficSpec(workload=None, packet_count=300),
        )
        result = spec.run()
        text = result.to_json()
        assert MeshResult.from_json(text) == result
        assert MeshResult.from_json(text).to_json() == text
        assert "exposed_domains" in result.to_dict()["triangulation"]

    def test_sweep_result_of_both_cell_kinds(self):
        single = Experiment(
            ExperimentSpec(seed=2, traffic=TrafficSpec(workload=None, packet_count=300))
        ).sweep({"protocol.default.sampling_rate": [0.05, 0.1]}, workers=1)
        mesh = Experiment(
            MeshSpec(
                topology=TopologySpec(kind="star", params={"path_count": 2}, seed=1),
                traffic=TrafficSpec(workload=None, packet_count=300),
            )
        ).sweep({"seed": [1]}, workers=1)
        for sweep in (single, mesh):
            text = sweep.to_json()
            assert SweepResult.from_json(text) == sweep
            assert SweepResult.from_json(text).to_json() == text
        assert isinstance(SweepResult.from_json(mesh.to_json()).cells[0].result, MeshResult)
