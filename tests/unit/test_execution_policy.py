"""Unit tests for :class:`ExecutionPolicy`."""

from __future__ import annotations

import dataclasses
import io
import json
import math

import pytest

from repro.api.spec import (
    ENGINES,
    CampaignSpec,
    ConditionSpec,
    ExecutionPolicy,
    ExperimentSpec,
    MeshSpec,
    PathSpec,
    TopologySpec,
    TrafficSpec,
)
from repro.cli import main
from repro.service import JobQueue, ServiceApp


def _path_spec(engine: str = "batch") -> ExperimentSpec:
    return ExperimentSpec(
        traffic=TrafficSpec(workload=None, packet_count=100),
        path=PathSpec(conditions={"X": ConditionSpec()}),
        engine=engine,
    )


def _mesh_spec() -> MeshSpec:
    return MeshSpec(
        seed=3,
        topology=TopologySpec(kind="star", params={"path_count": 2}, seed=0),
        traffic=TrafficSpec(workload=None, packet_count=100),
    )


class TestValidation:
    def test_defaults_are_valid(self):
        policy = ExecutionPolicy()
        assert policy.engine is None
        assert policy.chunk_size is None
        assert policy.throttle == 0.0

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="engine must be"):
            ExecutionPolicy(engine="warp")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"chunk_size": 0},
            {"throttle": -1.0},
            {"chunk_size": -5},
            {"throttle": float("nan")},
            {"throttle": float("inf")},
        ],
    )
    def test_out_of_range_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ExecutionPolicy(engine="streaming", **kwargs)

    @pytest.mark.parametrize(
        "kwargs", [{"chunk_size": 64}, {"chunk_size": 64, "throttle": 0.5}]
    )
    def test_streaming_knobs_rejected_on_explicit_batch(self, kwargs):
        with pytest.raises(ValueError, match="use engine='streaming'"):
            ExecutionPolicy(engine="batch", **kwargs)

    def test_streaming_knobs_allowed_when_engine_deferred(self):
        # engine=None defers the decision to bind(); the knobs stay legal
        # until the effective engine turns out not to be streaming.
        policy = ExecutionPolicy(chunk_size=64)
        assert policy.bind(_path_spec(engine="streaming")).engine == "streaming"
        with pytest.raises(ValueError, match="does not support chunk_size"):
            policy.bind(_path_spec(engine="batch"))


class TestEngineValues:
    """``batch`` and ``streaming`` are the only engines; ``scalar`` is gone."""

    def test_every_input_shares_one_tuple(self):
        assert ENGINES == ("batch", "streaming")
        for engine in ENGINES:
            assert ExecutionPolicy(engine=engine).engine == engine
            assert _path_spec(engine=engine).engine == engine

    def test_scalar_engine_rejected_by_name(self, tmp_path):
        message = "engine must be 'batch' or 'streaming', got 'scalar'"
        with pytest.raises(ValueError, match=message):
            ExecutionPolicy(engine="scalar")
        with pytest.raises(ValueError, match=message):
            ExecutionPolicy.from_dict({"engine": "scalar"})
        with pytest.raises(ValueError, match=message):
            _path_spec(engine="scalar")
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(_mesh_spec(), engine="scalar")
        # A stored campaign spec that names it does not load.
        stored = CampaignSpec(name="stored", intervals=1, cell=_path_spec()).to_dict()
        stored["cell"]["engine"] = "scalar"
        with pytest.raises(ValueError, match=message):
            CampaignSpec.from_dict(stored)

    def test_cli_rejects_scalar_engine_before_creating_a_store(self, tmp_path, capsys):
        spec = CampaignSpec(name="cli", intervals=1, cell=_path_spec())
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(spec.to_json())
        with pytest.raises(SystemExit):
            main(["run", str(spec_file), "--run-dir", str(tmp_path / "run"),
                  "--engine", "scalar", "--quiet"])
        assert "invalid choice: 'scalar'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


class TestThrottle:
    """``throttle`` is a finite number of seconds on every input."""

    @pytest.mark.parametrize("throttle", [math.inf, math.nan, -math.inf])
    def test_non_finite_throttle_rejected(self, throttle):
        with pytest.raises(ValueError, match="throttle"):
            ExecutionPolicy(throttle=throttle)

    @pytest.mark.parametrize("token", ["Infinity", "NaN"])
    def test_json_policy_with_non_finite_throttle_rejected(self, token):
        with pytest.raises(ValueError, match="throttle"):
            ExecutionPolicy.from_json('{"throttle": %s}' % token)

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_cli_rejects_non_finite_throttle_before_creating_a_store(self, tmp_path, value):
        spec = CampaignSpec(name="cli", intervals=2, cell=_path_spec())
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(spec.to_json())
        with pytest.raises(SystemExit, match="repro: error: throttle"):
            main(["run", str(spec_file), "--run-dir", str(tmp_path / "run"),
                  "--throttle", value, "--quiet"])
        assert not (tmp_path / "run").exists()


class TestCoerce:
    def test_kwargs_build_a_policy(self):
        policy = ExecutionPolicy.coerce(None, engine="streaming", chunk_size=64)
        assert policy == ExecutionPolicy(engine="streaming", chunk_size=64)

    def test_ready_policy_passes_through(self):
        policy = ExecutionPolicy(engine="streaming")
        assert ExecutionPolicy.coerce(policy) is policy

    def test_policy_plus_kwargs_is_ambiguous(self):
        with pytest.raises(ValueError, match="not both"):
            ExecutionPolicy.coerce(ExecutionPolicy(), chunk_size=64)

    def test_non_policy_rejected(self):
        with pytest.raises(ValueError, match="must be an ExecutionPolicy"):
            ExecutionPolicy.coerce({"engine": "batch"})


class TestBind:
    def test_fills_engine_from_spec(self):
        bound = ExecutionPolicy().bind(_path_spec(engine="streaming"))
        assert bound.engine == "streaming"

    def test_explicit_engine_wins(self):
        bound = ExecutionPolicy(engine="streaming").bind(_path_spec(engine="batch"))
        assert bound.engine == "streaming"


class TestRoundTrip:
    def test_json_round_trip_is_identity(self):
        policy = ExecutionPolicy(
            engine="streaming", chunk_size=512, throttle=0.5,
        )
        assert ExecutionPolicy.from_json(policy.to_json()) == policy
        assert ExecutionPolicy.from_dict(policy.to_dict()) == policy

    def test_json_is_byte_stable(self):
        assert ExecutionPolicy().to_json() == ExecutionPolicy().to_json()

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            ExecutionPolicy.from_dict({"engine": "batch", "workers": 4})

    def test_with_overrides(self):
        policy = ExecutionPolicy(engine="streaming").with_overrides({"chunk_size": 64})
        assert policy.chunk_size == 64
        assert policy.engine == "streaming"


class TestRemovedKnobs:
    """``shards`` and ``checkpoint_every`` are no execution knobs: every
    outside input rejects them by name, before any store exists."""

    def test_policy_fields(self):
        assert [field.name for field in dataclasses.fields(ExecutionPolicy)] == [
            "engine", "chunk_size", "throttle"
        ]

    @pytest.mark.parametrize("knob", ["shards", "checkpoint_every"])
    def test_knob_rejected_on_every_outside_input(self, tmp_path, capsys, knob):
        # 1. the declarative policy
        with pytest.raises(ValueError, match=f"'{knob}'"):
            ExecutionPolicy.from_dict({knob: 2})

        # 2. the CLI
        flag = "--" + knob.replace("_", "-")
        spec = CampaignSpec(name="no-removed-knob", intervals=1, cell=_path_spec())
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(spec.to_json())
        with pytest.raises(SystemExit):
            main(["run", str(spec_file), "--run-dir", str(tmp_path / "run"),
                  "--engine", "streaming", flag, "2", "--quiet"])
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

        # 3. the service: the uniform 400 error envelope, not a 500
        queue = JobQueue(tmp_path / "runs", workers=1)
        try:
            app = ServiceApp(tmp_path / "runs", queue=queue)
            body = json.dumps(
                {"spec": spec.to_dict(), "policy": {"engine": "streaming", knob: 2}}
            ).encode("utf-8")
            environ = {
                "REQUEST_METHOD": "POST",
                "PATH_INFO": "/api/v1/jobs",
                "QUERY_STRING": "",
                "CONTENT_TYPE": "application/json",
                "CONTENT_LENGTH": str(len(body)),
                "wsgi.input": io.BytesIO(body),
            }
            statuses: list[str] = []
            payload = b"".join(
                app(environ, lambda status, headers, *_: statuses.append(status))
            )
        finally:
            queue.shutdown(wait=True)
        assert statuses[0].startswith("400")
        error = json.loads(payload)["error"]
        assert error["code"] == "bad_request"
        assert error["message"].startswith("invalid execution policy: ")
        assert f"'{knob}'" in error["message"]
        assert not list((tmp_path / "runs").glob("*"))  # no store created
