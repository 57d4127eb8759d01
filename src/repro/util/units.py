"""Unit helpers.

All internal timestamps in the reproduction are expressed in **seconds** as
floats (the simulator's virtual clock has effectively nanosecond resolution,
which sidesteps the wall-clock timestamp-precision problem flagged for the
reproduction).  These helpers make unit conversions explicit at call sites.
"""

from __future__ import annotations

__all__ = [
    "seconds",
    "gbps_to_pps",
    "bytes_to_human",
    "BYTES_PER_KB",
    "BYTES_PER_MB",
    "BYTES_PER_GB",
]

BYTES_PER_KB = 1024
BYTES_PER_MB = 1024 * 1024
BYTES_PER_GB = 1024 * 1024 * 1024


def seconds(value: float) -> float:
    """Identity conversion, present for symmetry and call-site clarity."""
    return float(value)


def gbps_to_pps(gbps: float, mean_packet_size: int = 400) -> float:
    """Packets per second carried by a ``gbps`` link at a mean packet size.

    The paper's Section 7.1 uses 400-byte average packets, under which a
    10 Gbps interface carries 3.125 Mpps per direction.

    >>> round(gbps_to_pps(10, 400) / 1e6, 3)
    3.125
    """
    if gbps < 0:
        raise ValueError(f"gbps must be non-negative, got {gbps}")
    if mean_packet_size <= 0:
        raise ValueError(f"mean_packet_size must be positive, got {mean_packet_size}")
    return gbps * 1e9 / 8.0 / mean_packet_size


def bytes_to_human(num_bytes: float) -> str:
    """Render a byte count using binary prefixes, e.g. ``'2.0 MB'``."""
    if num_bytes < 0:
        raise ValueError(f"num_bytes must be non-negative, got {num_bytes}")
    value = float(num_bytes)
    for unit in ("B", "KB", "MB", "GB", "TB"):
        if value < 1024.0 or unit == "TB":
            return f"{value:.1f} {unit}"
        value /= 1024.0
    raise AssertionError("unreachable")
