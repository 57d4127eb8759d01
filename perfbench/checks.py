"""Per-interval correctness checks of a committed campaign.

An interval fails when any of these hold:

* its record is missing from the store, or was committed out of order;
* the honest congested domain X is not ``accepted``;
* the workload's lying domain is ``accepted``;
* X's loss estimate falls outside the workload's band around the configured
  rate (``Workload.loss_band`` x ``X_LOSS_RATE``);
* it is the interval recomputed on another engine and the recomputed record
  is not byte-identical to the committed line.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from perfbench.workloads import X_LOSS_RATE, Workload

__all__ = ["check_intervals"]


def check_intervals(
    workload: Workload,
    intervals: int,
    commit_order: Sequence[int],
    records: Sequence[Mapping[str, Any]],
) -> list[list[str]]:
    """The failed checks of each interval ``0 .. intervals-1`` (empty: passed)."""
    failures: list[list[str]] = [[] for _ in range(intervals)]
    for position, interval in enumerate(commit_order):
        if interval != position and 0 <= interval < intervals:
            failures[interval].append("committed out of order")
    low, high = (X_LOSS_RATE * bound for bound in workload.loss_band)
    for index in range(intervals):
        record = records[index] if index < len(records) else None
        if record is None or record.get("interval") != index:
            failures[index].append("record missing")
            continue
        if index not in commit_order:
            failures[index].append("never reported committed")
        verdicts = record.get("verdicts", {})
        if verdicts.get("X", {}).get("accepted") is not True:
            failures[index].append("honest X not accepted")
        if workload.liar is not None:
            if verdicts.get(workload.liar, {}).get("accepted") is not False:
                failures[index].append(f"liar {workload.liar} not rejected")
        loss = record.get("estimates", {}).get("X", {}).get("loss_rate")
        if loss is None or not low <= loss <= high:
            failures[index].append(
                f"X loss estimate {loss!r} outside [{low:.4f}, {high:.4f}]"
            )
    return failures
