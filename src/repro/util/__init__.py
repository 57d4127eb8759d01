"""Utility helpers shared across the VPM reproduction."""

from repro.util.rng import derive_seed, make_rng
from repro.util.units import (
    BYTES_PER_GB,
    BYTES_PER_KB,
    BYTES_PER_MB,
    bytes_to_human,
    gbps_to_pps,
    seconds,
)
from repro.util.validation import (
    check_fraction,
    check_non_negative,
    check_positive,
    check_probability,
)

__all__ = [
    "BYTES_PER_GB",
    "BYTES_PER_KB",
    "BYTES_PER_MB",
    "bytes_to_human",
    "check_fraction",
    "check_non_negative",
    "check_positive",
    "check_probability",
    "derive_seed",
    "gbps_to_pps",
    "make_rng",
    "seconds",
]
