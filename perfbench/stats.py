"""Order statistics with the benchmark's reporting rules."""

from __future__ import annotations

import math
from typing import Sequence

__all__ = ["MIN_BEYOND", "median", "quantile", "samples_beyond", "tail_quantile"]

#: A tail percentile is reported only when at least this many samples lie
#: beyond it.
MIN_BEYOND = 10


def quantile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile of ``values`` by linear interpolation (numpy's default)."""
    if not values:
        raise ValueError("quantile of no samples")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` ordered samples rank above the ``q``-quantile."""
    return count - math.ceil(q * count - 1e-9)


def tail_quantile(values: Sequence[float], q: float) -> float | None:
    """The ``q``-quantile, or ``None`` when fewer than ``MIN_BEYOND`` samples lie beyond it."""
    if samples_beyond(len(values), q) < MIN_BEYOND:
        return None
    return quantile(values, q)
