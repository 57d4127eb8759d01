"""The VPM core: the paper's primary contribution.

Modules
-------
``receipts``
    Traffic-receipt data structures (Section 4): ``PathID``, sample receipts,
    aggregate receipts, and receipt combination.
``consistency``
    Receipt-consistency rules across inter-domain links (Section 4).
``sampling``
    Bias-resistant, tunable delay sampling — Algorithm 1 (Section 5).
``aggregation``
    Tunable aggregation — Algorithm 2 plus the AggTrans reordering patch-up
    (Section 6).
``partition``
    Receipt alignment: the join of Section 6.1 computed from two HOPs'
    aggregate receipts, with the AggTrans patch-up of Section 6.3.
``estimation``
    Delay-quantile estimation from receipts (the role of [20]) and the
    Figure-2 accuracy metric.
``hop``
    The collector (data-plane) and processor (control-plane) modules of a
    hand-off point (Section 7's implementation model).
``domain``
    A domain's honest reporting behaviour across its HOPs.
``verifier``
    The receipt collector: computes a domain's performance from its receipts
    and verifies them against the receipts of the other on-path domains.
``protocol``
    ``MeshSession`` — end-to-end orchestration of collectors, receipt
    dissemination and verification over one or more HOP paths;
    ``VPMSession`` is its one-path spelling.

Multi-interval campaigns (receipts folded into SLA-horizon statistics) are
built on these pieces in :mod:`repro.engine.campaign`.
"""

from repro.core.aggregation import Aggregator, AggregatorConfig
from repro.core.consistency import (
    Inconsistency,
    check_aggregate_consistency,
    check_link_consistency,
    check_sample_consistency,
)
from repro.core.domain import DomainAgent
from repro.core.estimation import (
    DelayQuantileEstimate,
    estimate_delay_quantiles,
    quantile_confidence_bounds,
)
from repro.core.hop import HOPCollector, HOPConfig, HOPProcessor
from repro.core.protocol import VPMSession
from repro.core.receipts import (
    AggregateReceipt,
    PathID,
    SampleReceipt,
    combine_aggregate_receipts,
    combine_sample_receipts,
)
from repro.core.sampling import DelaySampler, SamplerConfig
from repro.core.verifier import DomainPerformance, Verifier

__all__ = [
    "AggregateReceipt",
    "Aggregator",
    "AggregatorConfig",
    "DelayQuantileEstimate",
    "DelaySampler",
    "DomainAgent",
    "DomainPerformance",
    "HOPCollector",
    "HOPConfig",
    "HOPProcessor",
    "Inconsistency",
    "PathID",
    "SampleReceipt",
    "SamplerConfig",
    "VPMSession",
    "Verifier",
    "check_aggregate_consistency",
    "check_link_consistency",
    "check_sample_consistency",
    "combine_aggregate_receipts",
    "combine_sample_receipts",
    "estimate_delay_quantiles",
    "quantile_confidence_bounds",
]
