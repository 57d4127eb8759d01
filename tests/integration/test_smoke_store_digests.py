"""The example smoke campaigns write stores with pinned digests, on both engines.

CI's smoke jobs diff stores against each other, which a drift common to
every engine would pass.  These pins catch it: a change to any record or
summary byte of ``examples/specs/`` fails here, unless the change also
updates the pin on purpose.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.api import CampaignSpec, ExecutionPolicy
from repro.engine.campaign import CampaignRunner
from repro.store import RunStore

SPECS = Path(__file__).resolve().parents[2] / "examples" / "specs"

PINNED_DIGESTS = {
    "campaign_smoke": "4719cdd5c3e56edbc49a68d204121892",
    "campaign_mesh_smoke": "ae497a125c0d5203fca589e5dee8123a",
    "campaign_liar_smoke": "f94bbd4787d02db77d8a08f9975594e0",
}

POLICIES = {
    "batch": ExecutionPolicy(engine="batch"),
    "streaming-512": ExecutionPolicy(engine="streaming", chunk_size=512),
}


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_smoke_store_digest_is_pinned(tmp_path, name, policy):
    spec = CampaignSpec.from_json((SPECS / f"{name}.json").read_text())
    store = RunStore.create(tmp_path / "run", spec)
    outcome = CampaignRunner(spec, store, policy=POLICIES[policy]).run()
    assert outcome.completed
    assert store.digest() == PINNED_DIGESTS[name]
