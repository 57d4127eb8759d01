"""Unit tests for the durable campaign run store."""

from __future__ import annotations

import dataclasses
import json
import os
import stat

import pytest

from repro.api.spec import CampaignSpec, ExperimentSpec, TrafficSpec
from repro.dist import StagingArea
from repro.store import (
    RECORDS_FILE,
    SPEC_FILE,
    RunStore,
    RunStoreError,
    SpecMismatchError,
    stable_json,
)


@pytest.fixture()
def spec() -> CampaignSpec:
    return CampaignSpec(
        name="store-test",
        intervals=3,
        cell=ExperimentSpec(traffic=TrafficSpec(workload=None, packet_count=400)),
    )


def _record(spec: CampaignSpec, interval: int) -> dict:
    return {
        "version": 1,
        "interval": interval,
        "spec_hash": spec.spec_hash(),
        "seed": spec.interval_seed(interval),
        "receipts_digest": "d" * 32,
        "result_digest": "e" * 32,
        "estimates": {},
        "verdicts": {},
        "delay_samples": {},
    }


class TestRunStoreLifecycle:
    def test_create_open_round_trip(self, tmp_path, spec):
        store = RunStore.create(tmp_path / "run", spec)
        reopened = RunStore.open(tmp_path / "run")
        assert reopened.spec() == spec
        assert reopened.spec_hash == spec.spec_hash()
        assert reopened.record_count == 0
        assert reopened.record_count < reopened.spec().intervals

    def test_create_refuses_existing_store(self, tmp_path, spec):
        RunStore.create(tmp_path / "run", spec)
        with pytest.raises(RunStoreError, match="already holds a run store"):
            RunStore.create(tmp_path / "run", spec)

    def test_open_requires_a_store(self, tmp_path):
        with pytest.raises(RunStoreError, match="not a run store"):
            RunStore.open(tmp_path / "nowhere")

    def test_open_rejects_edited_spec(self, tmp_path, spec):
        RunStore.create(tmp_path / "run", spec)
        spec_path = tmp_path / "run" / SPEC_FILE
        payload = json.loads(spec_path.read_text())
        payload["spec"]["intervals"] = 99
        spec_path.write_text(stable_json(payload))
        with pytest.raises(SpecMismatchError, match="has been edited"):
            RunStore.open(tmp_path / "run")

    def test_open_rejects_unknown_format(self, tmp_path, spec):
        RunStore.create(tmp_path / "run", spec)
        spec_path = tmp_path / "run" / SPEC_FILE
        payload = json.loads(spec_path.read_text())
        payload["format"] = 999
        spec_path.write_text(stable_json(payload))
        with pytest.raises(RunStoreError, match="store format"):
            RunStore.open(tmp_path / "run")

    def test_validate_spec_mismatch(self, tmp_path, spec):
        store = RunStore.create(tmp_path / "run", spec)
        other = dataclasses.replace(spec, intervals=5)
        with pytest.raises(SpecMismatchError):
            store.validate_spec(other)
        store.validate_spec(spec)  # identity passes


class TestRunStoreRecords:
    def test_append_and_read_back(self, tmp_path, spec):
        store = RunStore.create(tmp_path / "run", spec)
        for interval in range(3):
            store.append(_record(spec, interval))
        assert store.record_count == 3
        assert store.record_count == store.spec().intervals
        assert [record["interval"] for record in store.records()] == [0, 1, 2]
        # one canonical JSON line per record, newline-terminated
        lines = (tmp_path / "run" / RECORDS_FILE).read_text().splitlines()
        assert len(lines) == 3
        assert all(json.loads(line)["spec_hash"] == spec.spec_hash() for line in lines)

    def test_append_rejects_out_of_order(self, tmp_path, spec):
        store = RunStore.create(tmp_path / "run", spec)
        with pytest.raises(RunStoreError, match="interval 0"):
            store.append(_record(spec, 1))

    def test_append_rejects_duplicate(self, tmp_path, spec):
        store = RunStore.create(tmp_path / "run", spec)
        store.append(_record(spec, 0))
        with pytest.raises(RunStoreError, match="interval 1"):
            store.append(_record(spec, 0))

    def test_append_rejects_foreign_spec_hash(self, tmp_path, spec):
        store = RunStore.create(tmp_path / "run", spec)
        record = _record(spec, 0)
        record["spec_hash"] = "0" * 32
        with pytest.raises(SpecMismatchError):
            store.append(record)

    def test_append_is_atomic_no_temp_left_behind(self, tmp_path, spec):
        store = RunStore.create(tmp_path / "run", spec)
        store.append(_record(spec, 0))
        leftovers = [path.name for path in (tmp_path / "run").iterdir()]
        assert sorted(leftovers) == [RECORDS_FILE, SPEC_FILE]

    def test_append_bytes_are_append_only(self, tmp_path, spec):
        store = RunStore.create(tmp_path / "run", spec)
        store.append(_record(spec, 0))
        first = (tmp_path / "run" / RECORDS_FILE).read_bytes()
        store.append(_record(spec, 1))
        second = (tmp_path / "run" / RECORDS_FILE).read_bytes()
        assert second.startswith(first)

    def test_readers_ignore_torn_tail_without_mutating(self, tmp_path, spec):
        """Reading a store mid-append must neither fail nor rewrite it."""
        store = RunStore.create(tmp_path / "run", spec)
        store.append(_record(spec, 0))
        with open(tmp_path / "run" / RECORDS_FILE, "ab") as handle:
            handle.write(b'{"interval": 1, "spec_ha')  # in-flight append
        dirty = (tmp_path / "run" / RECORDS_FILE).read_bytes()
        reader = RunStore.open(tmp_path / "run")
        assert reader.record_count == 1  # only the committed record
        assert (tmp_path / "run" / RECORDS_FILE).read_bytes() == dirty  # untouched

    def test_repair_truncates_torn_tail_line(self, tmp_path, spec):
        """The writer's repair drops a newline-less tail before appending."""
        store = RunStore.create(tmp_path / "run", spec)
        store.append(_record(spec, 0))
        committed = (tmp_path / "run" / RECORDS_FILE).read_bytes()
        with open(tmp_path / "run" / RECORDS_FILE, "ab") as handle:
            handle.write(b'{"interval": 1, "spec_ha')  # torn write
        reopened = RunStore.open(tmp_path / "run")
        reopened.repair_torn_tail()
        assert reopened.record_count == 1
        assert (tmp_path / "run" / RECORDS_FILE).read_bytes() == committed
        reopened.append(_record(spec, 1))  # resumes cleanly after repair

    def test_repair_removes_fully_torn_first_record(self, tmp_path, spec):
        store = RunStore.create(tmp_path / "run", spec)
        (store.path / RECORDS_FILE).write_bytes(b'{"interval": 0')  # torn write
        reopened = RunStore.open(tmp_path / "run")
        reopened.repair_torn_tail()
        assert reopened.record_count == 0
        # byte-shape matches a store that never appended at all
        assert not (tmp_path / "run" / RECORDS_FILE).exists()


class TestRunStoreDigest:
    def test_digest_reflects_content(self, tmp_path, spec):
        a = RunStore.create(tmp_path / "a", spec)
        b = RunStore.create(tmp_path / "b", spec)
        assert a.digest() == b.digest()
        a.append(_record(spec, 0))
        assert a.digest() != b.digest()
        b.append(_record(spec, 0))
        assert a.digest() == b.digest()

    def test_summary_round_trip_and_digest(self, tmp_path, spec):
        store = RunStore.create(tmp_path / "run", spec)
        assert store.summary() is None
        before = store.digest()
        store.write_summary({"intervals": 3, "domains": {}})
        assert store.summary() == {"intervals": 3, "domains": {}}
        assert store.digest() != before


class TestDurableWrites:
    def test_staged_record_fsyncs_its_directory(self, tmp_path, monkeypatch):
        fsync = os.fsync
        fsynced_dirs: list[tuple[int, int]] = []

        def recording_fsync(fd):
            info = os.fstat(fd)
            if stat.S_ISDIR(info.st_mode):
                fsynced_dirs.append((info.st_dev, info.st_ino))
            fsync(fd)

        def identity(path):
            info = os.stat(path)
            return (info.st_dev, info.st_ino)

        monkeypatch.setattr(os, "fsync", recording_fsync)

        staging = StagingArea(tmp_path / "dispatch")
        staging.stage_line(0, b'{"interval":0}\n')
        assert identity(staging.staging_dir) in fsynced_dirs
