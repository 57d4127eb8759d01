"""Small argument-validation helpers used across the package.

The helpers raise :class:`ValueError` with a message naming the offending
parameter, which keeps constructor bodies short and error messages uniform.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "check_positive",
    "check_non_negative",
    "check_probability",
    "check_fraction",
    "check_observation_times",
]


def check_positive(name: str, value: float) -> float:
    """Return ``value`` if strictly positive, else raise ``ValueError``."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def check_non_negative(name: str, value: float) -> float:
    """Return ``value`` if >= 0, else raise ``ValueError`` (NaN included)."""
    if not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def check_probability(name: str, value: float) -> float:
    """Return ``value`` if within [0, 1], else raise ``ValueError``."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return value


def check_fraction(name: str, value: float) -> float:
    """Return ``value`` if within (0, 1], else raise ``ValueError``.

    Sampling and marker rates must be strictly positive (a rate of zero would
    make the corresponding mechanism a no-op) but may be 1 (sample everything).
    """
    if not 0.0 < value <= 1.0:
        raise ValueError(f"{name} must be in (0, 1], got {value!r}")
    return value


def check_observation_times(times: np.ndarray, after: float = -np.inf) -> None:
    """Raise ``ValueError`` unless ``times`` are finite and never decrease.

    ``after`` is the last time observed before ``times`` (``-inf`` when there
    is none), so a batch that starts before the previous one ended is caught
    too.  The message names the first bad index and its kind: non-finite, or
    decreasing.
    """
    if not len(times):
        return
    decreasing = np.empty(len(times), dtype=bool)
    decreasing[0] = times[0] < after
    np.less(times[1:], times[:-1], out=decreasing[1:])
    bad = decreasing | ~np.isfinite(times)
    if not bad.any():
        return
    index = int(np.argmax(bad))
    value = float(times[index])
    if not np.isfinite(value):
        raise ValueError(f"times[{index}] is {value!r}: observation times must be finite")
    previous = float(times[index - 1]) if index else float(after)
    raise ValueError(
        f"times[{index}] = {value!r} decreases from {previous!r}: "
        "observation times must be non-decreasing"
    )
