"""Receipt-consistency checking (Section 4, "Receipt Consistency").

Two receipts produced for the same traffic by HOPs on opposite ends of the
same inter-domain link must agree:

* **Sample receipts** — for every packet sampled by both HOPs, (1) the two
  receipts carry the same ``MaxDiff`` and (2) the downstream timestamp exceeds
  the upstream timestamp by at most ``MaxDiff``.  A correct inter-domain link
  "does not introduce unpredictable delay".
* **Aggregate receipts** — the packet counts for the same aggregate must be
  equal: a correct inter-domain link "does not introduce packet loss".

When a receipt collector finds inconsistent receipts it discards both and
notifies both neighbors; the liar (if any) is thereby exposed to the neighbor
it implicated.  This module provides the per-pair checks and the per-link
driver used by :class:`repro.core.verifier.Verifier`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.core.receipts import (
    AggregateReceipt,
    SampleReceipt,
    distinct_samples,
    locate_ids,
)

__all__ = [
    "Inconsistency",
    "check_sample_consistency",
    "check_aggregate_consistency",
    "check_link_consistency",
]


@dataclass(frozen=True)
class Inconsistency:
    """A detected disagreement between two neighbors' receipts.

    Attributes
    ----------
    kind:
        One of ``"max-diff-mismatch"``, ``"delay-bound-violation"``,
        ``"count-mismatch"``, ``"missing-downstream"``,
        ``"missing-upstream"``.
    upstream_hop, downstream_hop:
        The HOPs whose receipts disagree (upstream delivers onto the link,
        downstream receives from it).
    pkt_id:
        The packet digest involved, for sample inconsistencies.
    detail:
        Human-readable explanation with the offending values.
    """

    kind: str
    upstream_hop: int
    downstream_hop: int
    pkt_id: int | None = None
    detail: str = ""

    def __str__(self) -> str:
        subject = f" pkt={self.pkt_id:#x}" if self.pkt_id is not None else ""
        return (
            f"[{self.kind}] HOP{self.upstream_hop} -> HOP{self.downstream_hop}"
            f"{subject}: {self.detail}"
        )


def check_sample_consistency(
    upstream: SampleReceipt, downstream: SampleReceipt
) -> list[Inconsistency]:
    """Check two sample receipts for the same traffic across one link.

    Only packets present in *both* receipts are subject to the timing rules;
    a packet sampled upstream but missing downstream is reported as
    ``missing-downstream`` (the link lost it, or someone is lying — the
    ambiguity the paper resolves by having the two neighbors debug the link).
    The reverse direction (``missing-upstream``) is also reported because a
    packet cannot legitimately appear downstream without having been delivered
    upstream.
    """
    finding = functools.partial(
        Inconsistency,
        upstream_hop=upstream.path_id.reporting_hop,
        downstream_hop=downstream.path_id.reporting_hop,
    )
    findings: list[Inconsistency] = []
    up_max_diff, down_max_diff = upstream.path_id.max_diff, downstream.path_id.max_diff
    if up_max_diff != down_max_diff:
        findings.append(
            finding(
                kind="max-diff-mismatch",
                detail=f"MaxDiff disagreement: {up_max_diff} (upstream) vs "
                f"{down_max_diff} (downstream)",
            )
        )
    max_diff = max(up_max_diff, down_max_diff)

    # When the downstream HOP's sampling threshold is higher (it samples a
    # subset), an upstream-only packet is expected, not an inconsistency.
    up_sigma, down_sigma = upstream.sampling_threshold, downstream.sampling_threshold
    unknown = up_sigma is None or down_sigma is None
    downstream_samples_superset = unknown or down_sigma <= up_sigma
    upstream_samples_superset = unknown or up_sigma <= down_sigma

    # Each side as a dict keyed by pkt_id would hold it, upstream order first.
    up = distinct_samples(upstream.samples)
    down = distinct_samples(downstream.samples)
    found, index = locate_ids(up["pkt_id"], down["pkt_id"])
    differences = np.zeros(len(up))
    differences[found] = down["time"][index[found]] - up["time"][found]
    flagged = ~found & downstream_samples_superset
    flagged |= found & ((differences > max_diff) | (differences < 0))
    for position in np.flatnonzero(flagged).tolist():
        pkt_id = int(up["pkt_id"][position])
        if found[position]:
            findings.append(
                finding(
                    kind="delay-bound-violation",
                    pkt_id=pkt_id,
                    detail=f"timestamp difference {float(differences[position]) * 1e3:.3f} "
                    f"ms outside [0, MaxDiff={max_diff * 1e3:.3f} ms]",
                )
            )
        else:
            findings.append(
                finding(
                    kind="missing-downstream",
                    pkt_id=pkt_id,
                    detail="upstream HOP reports delivering a sampled packet the "
                    "downstream HOP does not report receiving",
                )
            )
    if upstream_samples_superset:
        for pkt_id in down["pkt_id"][~np.isin(down["pkt_id"], up["pkt_id"])].tolist():
            findings.append(
                finding(
                    kind="missing-upstream",
                    pkt_id=pkt_id,
                    detail="downstream HOP reports receiving a sampled packet the "
                    "upstream HOP does not report delivering",
                )
            )
    return findings


def check_aggregate_consistency(
    upstream: AggregateReceipt, downstream: AggregateReceipt
) -> list[Inconsistency]:
    """Check two aggregate receipts for the same aggregate across one link."""
    findings: list[Inconsistency] = []
    if upstream.pkt_count != downstream.pkt_count:
        findings.append(
            Inconsistency(
                kind="count-mismatch",
                upstream_hop=upstream.path_id.reporting_hop,
                downstream_hop=downstream.path_id.reporting_hop,
                detail=(
                    f"aggregate {upstream.agg_id!r}: upstream delivered "
                    f"{upstream.pkt_count} packets, downstream received "
                    f"{downstream.pkt_count}"
                ),
            )
        )
    return findings


def check_link_consistency(
    upstream_samples: SampleReceipt | None,
    downstream_samples: SampleReceipt | None,
    aggregate_pairs: Iterable[tuple[AggregateReceipt, AggregateReceipt]] = (),
) -> list[Inconsistency]:
    """Run every applicable consistency check for one inter-domain link.

    ``upstream_samples`` / ``downstream_samples`` are each HOP's combined
    sample receipt (``None`` when the HOP reported none, which skips the
    sample check); ``aggregate_pairs`` are the aligned (upstream, downstream)
    aggregate pairs, as :func:`~repro.core.partition.aligned_aggregates`
    joins them.  Sample findings come first, then each pair's, in order.
    """
    findings: list[Inconsistency] = []
    if upstream_samples is not None and downstream_samples is not None:
        findings.extend(check_sample_consistency(upstream_samples, downstream_samples))
    for up_receipt, down_receipt in aggregate_pairs:
        findings.extend(check_aggregate_consistency(up_receipt, down_receipt))
    return findings
