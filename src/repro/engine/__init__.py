"""Execution engines for driving scenarios at scale.

The one propagation traversal lives here, in
:class:`~repro.engine.streaming.ScenarioStream`, and one runner,
:class:`~repro.engine.streaming.StreamingRunner`, drives it for every cell:
a single path or a mesh of N paths in lockstep.  With
``chunk_size=None`` the runner makes one whole-trace pass — the **batch**
engine; with a chunk size it is the **streaming** engine, in ``O(chunk)``
memory, in one process.  More cores come from interval-level dispatch
(:mod:`repro.dist.dispatch`), not from splitting one interval.

Both engines produce identical receipts and results for every streamable
component (see ``README.md`` § Engines); the only documented difference is
``AggregateReceipt.time_sum``, whose float accumulation order varies and
which the receipts digest therefore binds to 10 significant digits only.

On top of the per-interval engines,
:class:`~repro.engine.campaign.CampaignRunner` drives long-horizon campaigns
— one cell run per interval on either engine — committing every
interval into a :class:`repro.store.RunStore` so a killed campaign resumes
byte-identically, re-running the interval the kill interrupted from its
start.
"""

from repro.engine.campaign import (
    CampaignAccumulator,
    CampaignEvent,
    CampaignRunner,
    CampaignRunOutcome,
    IntervalCommitted,
    RunComplete,
    interval_record,
)
from repro.engine.streaming import (
    DEFAULT_CHUNK_SIZE,
    ScenarioStream,
    StreamingCell,
    StreamingResult,
    StreamingRunner,
    StreamingTruth,
)

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "CampaignAccumulator",
    "CampaignEvent",
    "CampaignRunOutcome",
    "CampaignRunner",
    "IntervalCommitted",
    "RunComplete",
    "ScenarioStream",
    "StreamingCell",
    "StreamingResult",
    "StreamingRunner",
    "StreamingTruth",
    "interval_record",
]
