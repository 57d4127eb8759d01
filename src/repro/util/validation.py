"""Small argument-validation helpers used across the package.

The helpers raise :class:`ValueError` with a message naming the offending
parameter, which keeps constructor bodies short and error messages uniform.
"""

from __future__ import annotations

__all__ = [
    "check_positive",
    "check_non_negative",
    "check_probability",
    "check_fraction",
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
