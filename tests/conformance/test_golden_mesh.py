"""Golden-file conformance regression tests for the mesh engines.

For each canonical mesh scenario the suite freezes, as JSON fixtures under
``goldens/``:

* the full :class:`~repro.api.results.MeshResult` (per-path estimates, truth,
  verification verdicts, suspect links, cross-path triangulation, overhead)
  as its byte-stable ``to_json`` string;
* every HOP's receipts — for shared HOPs that is the receipts of *all* paths
  crossing them — in the same canonical form as the single-path goldens.

``pytest --regen-goldens`` rewrites the fixtures from the current batch mesh
engine instead of comparing.  On top of the golden comparison, the streaming
mesh engine must reproduce the batch engine's mesh result
**byte-identically** and its receipts exactly (``time_sum`` at its documented
tolerance) — both over several lockstep rounds and in the degenerate single
round where every path's whole trace is one chunk.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.api.runner import _build_cell, run_cell
from repro.engine import StreamingRunner

from tests.conformance.canon import (
    canonical_receipts,
    run_batch_mesh_reports,
    run_mesh_streaming_reports,
)
from tests.conformance.scenarios import MESH_CONFORMANCE_SCENARIOS

# REPRO_GOLDEN_DIR redirects regeneration to another directory (see
# test_golden_scenarios.py and the CI golden-drift step).
GOLDEN_DIR = Path(
    os.environ.get("REPRO_GOLDEN_DIR") or Path(__file__).parent / "goldens"
)

# Small enough to slice the 1500-packet per-path traces into several chunks,
# so the lockstep merge and the holdback machinery are actually exercised.
CHUNK_SIZE = 320
# Larger than every per-path trace: the whole interval is one lockstep round.
ONE_ROUND_CHUNK_SIZE = 1 << 16


@pytest.fixture(scope="session")
def regen(request) -> bool:
    return bool(request.config.getoption("--regen-goldens"))


@pytest.mark.parametrize("name", sorted(MESH_CONFORMANCE_SCENARIOS))
class TestMeshConformance:
    def test_batch_matches_golden(self, name, regen):
        spec = MESH_CONFORMANCE_SCENARIOS[name]
        mesh_json = run_cell(spec, engine="batch").to_json()
        receipts = canonical_receipts(run_batch_mesh_reports(spec))
        golden_path = GOLDEN_DIR / f"{name}.json"

        if regen:
            GOLDEN_DIR.mkdir(exist_ok=True)
            golden_path.write_text(
                json.dumps(
                    {"scenario": name, "mesh_json": mesh_json, "receipts": receipts},
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
        assert mesh_json == golden["mesh_json"], (
            f"{name}: batch mesh result drifted from the golden fixture"
        )
        assert receipts == golden["receipts"], (
            f"{name}: batch mesh receipts drifted from the golden fixture"
        )

    def test_lying_core_exposed_by_triangulation(self, name, regen):
        if regen:
            pytest.skip("regenerating goldens")
        spec = MESH_CONFORMANCE_SCENARIOS[name]
        result = run_cell(spec, engine="batch")
        lying_domains = {adversary.domain for adversary in spec.adversaries}
        if not lying_domains:
            assert result.triangulation.exposed_domains == ()
            assert all(path.consistency_findings == 0 for path in result.paths)
            return
        # Every path alone only implicates a pair containing the liar...
        for path in result.paths:
            assert path.suspect_links, f"{path.pair}: the lie went unflagged"
            for link in path.suspect_links:
                assert lying_domains & set(link)
        # ...and the cross-path triangulation narrows it to the liar exactly.
        assert result.triangulation.exposed_domains == tuple(sorted(lying_domains))

    def test_streaming_single_process_byte_identical(self, name, regen):
        if regen:
            pytest.skip("regenerating goldens")
        spec = MESH_CONFORMANCE_SCENARIOS[name]
        batch_json = run_cell(spec, engine="batch").to_json()
        streaming_json = run_cell(
            spec, engine="streaming", chunk_size=CHUNK_SIZE
        ).to_json()
        assert streaming_json == batch_json
        assert canonical_receipts(
            run_mesh_streaming_reports(spec, chunk_size=CHUNK_SIZE)
        ) == canonical_receipts(run_batch_mesh_reports(spec))

    def test_streaming_one_round_byte_identical(self, name, regen):
        if regen:
            pytest.skip("regenerating goldens")
        spec = MESH_CONFORMANCE_SCENARIOS[name]
        streamed = StreamingRunner(
            _build_cell(spec), chunk_size=ONE_ROUND_CHUNK_SIZE
        ).run()
        assert streamed.chunks == 1
        assert canonical_receipts(streamed.reports) == canonical_receipts(
            run_batch_mesh_reports(spec)
        )
        streaming_json = run_cell(
            spec, engine="streaming", chunk_size=ONE_ROUND_CHUNK_SIZE
        ).to_json()
        assert streaming_json == run_cell(spec, engine="batch").to_json()
