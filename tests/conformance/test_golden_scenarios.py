"""Golden-file conformance regression tests.

For each canonical scenario the suite freezes, as JSON fixtures under
``goldens/``:

* the full :class:`~repro.api.results.CellResult` (estimates, truth,
  verification verdicts, overhead) as its byte-stable ``to_json`` string;
* every HOP's receipts in a canonical form (sample times and aggregate
  boundary timestamps as exact float hex; ``time_sum`` rounded to its
  documented 10-significant-digit tolerance).

``pytest --regen-goldens`` rewrites the fixtures from the current batch
engine instead of comparing.  On top of the golden comparison, the streaming
engine must reproduce the batch engine's cell result **byte-identically** and
its receipts exactly — also when a campaign over the scenario is killed
between two chunks of an interval and resumed at that interval's start.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.api.runner import run_cell
from repro.api.spec import CampaignSpec, ExecutionPolicy
from repro.engine.campaign import CampaignRunner
from repro.engine.streaming import ScenarioStream
from repro.store import RunStore

from tests.conformance.canon import (
    canonical_receipts,
    run_batch_reports,
    run_streaming_reports,
)
from tests.conformance.scenarios import CONFORMANCE_SCENARIOS

# REPRO_GOLDEN_DIR redirects regeneration (and comparison) to another
# directory — how the CI golden-drift step regenerates into a scratch
# directory and `diff -r`s it against the committed goldens without touching
# the working tree.
GOLDEN_DIR = Path(
    os.environ.get("REPRO_GOLDEN_DIR") or Path(__file__).parent / "goldens"
)

# Small enough to slice the 3000-packet conformance traces into several
# chunks, so the holdback machinery is actually exercised.
CHUNK_SIZE = 640


@pytest.fixture(scope="session")
def regen(request) -> bool:
    return bool(request.config.getoption("--regen-goldens"))


@pytest.mark.parametrize("name", sorted(CONFORMANCE_SCENARIOS))
class TestConformance:
    def test_batch_matches_golden(self, name, regen):
        spec = CONFORMANCE_SCENARIOS[name]
        cell_json = run_cell(spec, engine="batch").to_json()
        receipts = canonical_receipts(run_batch_reports(spec))
        golden_path = GOLDEN_DIR / f"{name}.json"

        if regen:
            GOLDEN_DIR.mkdir(exist_ok=True)
            golden_path.write_text(
                json.dumps(
                    {"scenario": name, "cell_json": cell_json, "receipts": receipts},
                    indent=1,
                    sort_keys=True,
                )
                + "\n"
            )
            pytest.skip(f"regenerated {golden_path.name}")

        assert golden_path.exists(), (
            f"missing golden fixture {golden_path.name}; "
            f"run `pytest tests/conformance --regen-goldens` to create it"
        )
        golden = json.loads(golden_path.read_text())
        assert cell_json == golden["cell_json"], (
            f"{name}: batch-engine cell result drifted from the golden fixture"
        )
        assert receipts == golden["receipts"], (
            f"{name}: batch-engine receipts drifted from the golden fixture"
        )

    def test_streaming_single_process_byte_identical(self, name, regen):
        if regen:
            pytest.skip("regenerating goldens")
        spec = CONFORMANCE_SCENARIOS[name]
        batch_json = run_cell(spec, engine="batch").to_json()
        streaming_json = run_cell(
            spec, engine="streaming", chunk_size=CHUNK_SIZE
        ).to_json()
        assert streaming_json == batch_json
        assert canonical_receipts(run_streaming_reports(spec, chunk_size=CHUNK_SIZE)) == (
            canonical_receipts(run_batch_reports(spec))
        )

    def test_streaming_resumed_mid_run_byte_identical(
        self, name, regen, tmp_path, monkeypatch
    ):
        if regen:
            pytest.skip("regenerating goldens")
        spec = CampaignSpec(
            name=f"golden-{name}", intervals=2, cell=CONFORMANCE_SCENARIOS[name]
        )
        full = RunStore.create(tmp_path / "full", spec)
        CampaignRunner(spec, full, engine="batch").run()

        part = RunStore.create(tmp_path / "part", spec)
        policy = ExecutionPolicy(engine="streaming", chunk_size=CHUNK_SIZE)
        killed = CampaignRunner(spec, part, policy=policy)
        original_push = ScenarioStream.push
        pushes: list[int] = []

        def push_then_kill(stream, chunk):
            if killed.next_interval == 1:
                pushes.append(1)
                if len(pushes) == 3:
                    raise KeyboardInterrupt  # between chunks 2 and 3 of interval 1
            return original_push(stream, chunk)

        monkeypatch.setattr(ScenarioStream, "push", push_then_kill)
        with pytest.raises(KeyboardInterrupt):
            killed.run()
        monkeypatch.setattr(ScenarioStream, "push", original_push)
        assert part.record_count == 1 and part.summary() is None

        outcome = CampaignRunner.resume(part.path, policy=policy).run()
        assert outcome.completed and outcome.intervals_run == 1
        for file_name in ("records.jsonl", "summary.json"):
            assert (part.path / file_name).read_bytes() == (
                full.path / file_name
            ).read_bytes()
