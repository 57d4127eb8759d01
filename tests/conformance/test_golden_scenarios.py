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
its receipts exactly — also when the run is killed between chunks and resumed
from a pickled mid-run checkpoint.
"""

from __future__ import annotations

import json
import os
import pickle
from pathlib import Path

import pytest

from repro.api.runner import run_cell, run_cell_full
from repro.api.spec import ExecutionPolicy

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

    def test_streaming_resumed_mid_run_byte_identical(self, name, regen):
        if regen:
            pytest.skip("regenerating goldens")
        spec = CONFORMANCE_SCENARIOS[name]
        blobs: list[bytes] = []
        run_cell_full(
            spec,
            policy=ExecutionPolicy(
                engine="streaming", chunk_size=CHUNK_SIZE, checkpoint_every=1
            ),
            checkpoint_sink=lambda ckpt: blobs.append(pickle.dumps(ckpt)),
        )
        assert len(blobs) >= 2, "the trace must span several chunk boundaries"
        checkpoint = pickle.loads(blobs[len(blobs) // 2])
        assert checkpoint.stream.chunk_index == len(blobs) // 2 + 1

        resumed = run_cell_full(
            spec,
            policy=ExecutionPolicy(engine="streaming", chunk_size=CHUNK_SIZE),
            resume_from=checkpoint,
        )
        assert resumed.result.to_json() == run_cell(spec, engine="batch").to_json()
        assert canonical_receipts(resumed.reports) == (
            canonical_receipts(run_batch_reports(spec))
        )
