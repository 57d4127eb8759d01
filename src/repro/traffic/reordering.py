"""Packet-reordering models.

The paper assumes (based on the measurement study it cites [10]) that "packets
transmitted more than half a millisecond apart were not reordered", and defines
a per-path *safety inter-arrival threshold* ``J`` such that only packets
observed less than ``J`` apart can be reordered.  :class:`WindowReordering`
implements exactly that: it perturbs packet order only within a bounded time
window, so the assumption VPM's ``AggTrans`` patch-up relies on holds by
construction (and can be deliberately violated in tests by configuring a
window larger than the protocol's ``J``).
"""

from __future__ import annotations

import numpy as np

from repro.util.rng import make_rng
from repro.util.validation import check_non_negative, check_probability

__all__ = ["ReorderingModel", "NoReordering", "WindowReordering"]


class ReorderingModel:
    """Permutes the arrival order (and times) of a packet sequence.

    Models define :meth:`perturb` — assign each packet a (possibly perturbed)
    observation time, consuming randomness *sequentially in input order* —
    and the propagation stages stable-sort by the perturbed times.
    Because perturbation is per-packet sequential, splitting an input across
    consecutive :meth:`perturb` calls draws the same stream as one call; the
    streaming engine relies on this (and on ``max_lateness``) to reorder a
    chunked stream bit-identically to one whole-trace pass.
    """

    #: Upper bound (seconds) on ``perturb(t) - t``; ``None`` marks a model the
    #: streaming engine cannot bound and therefore cannot stream exactly.
    max_lateness: float | None = None

    def perturb(self, arrival_times: np.ndarray) -> np.ndarray:
        """Per-packet perturbed observation times (same order as the input)."""
        raise NotImplementedError


class NoReordering(ReorderingModel):
    """Identity reordering model."""

    max_lateness = 0.0

    def perturb(self, arrival_times: np.ndarray) -> np.ndarray:
        return np.asarray(arrival_times, dtype=float).copy()


class WindowReordering(ReorderingModel):
    """Reordering bounded by a time window.

    Each packet is, with probability ``reorder_probability``, given a random
    positive time offset up to ``window`` seconds; the sequence is then
    re-sorted by the perturbed times.  Because the offset never exceeds
    ``window``, two packets can only swap if their original arrival times were
    within ``window`` of each other — the paper's reordering assumption with
    ``J = window``.
    """

    def __init__(
        self,
        window: float = 0.5e-3,
        reorder_probability: float = 0.05,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        self.window = check_non_negative("window", window)
        self.reorder_probability = check_probability(
            "reorder_probability", reorder_probability
        )
        self._rng = make_rng(seed)

    @property
    def max_lateness(self) -> float:  # type: ignore[override]
        return self.window

    def perturb(self, arrival_times: np.ndarray) -> np.ndarray:
        arrival_times = np.asarray(arrival_times, dtype=float)
        count = len(arrival_times)
        if count == 0 or self.window == 0.0 or self.reorder_probability == 0.0:
            return arrival_times.copy()
        # Two uniform draws per packet, row-major, so consecutive calls over a
        # split input consume the stream exactly like one whole-input call.
        draws = self._rng.random((count, 2))
        affected = draws[:, 0] < self.reorder_probability
        offsets = np.where(affected, draws[:, 1] * self.window, 0.0)
        return arrival_times + offsets

    def __repr__(self) -> str:
        return (
            f"WindowReordering(window={self.window!r}, "
            f"reorder_probability={self.reorder_probability!r})"
        )
