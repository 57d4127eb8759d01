"""Quantile utilities shared by the metrics module and the benchmarks.

Besides the plain helpers, this module provides :class:`MergedDelayPool` —
the mergeable pooled-quantile state long-horizon campaigns fold their
per-interval delay samples into.  The pool keeps one sorted array and merges
each new (sorted) span in linearly, so campaign-level quantiles never re-pool
the raw samples of every past interval; merging is associative and produces
exactly the multiset a whole-campaign sort would, so pooled == merged holds
bit-for-bit (asserted by the unit suite).
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.util.validation import check_probability

__all__ = ["MergedDelayPool", "empirical_quantiles", "quantile_error"]


def _checked_samples(samples: Sequence[float] | np.ndarray) -> np.ndarray:
    """Samples as a float64 array, rejecting NaN/inf with a clear error.

    A NaN would silently poison the pool: ``np.sort`` parks NaNs at the end,
    so every subsequent merge and quantile would be computed over a corrupted
    order, and ``state_digest()`` would still look healthy.  Refuse at the
    boundary instead.  ``-0.0`` is folded to ``0.0`` here too: the two
    compare equal, so a stable sort/merge keeps whichever arrived first and
    the pool's bytes would depend on merge order.
    """
    array = np.asarray(samples, dtype=np.float64)
    if array.size and not np.isfinite(array).all():
        raise ValueError(
            "delay samples must be finite; got NaN or infinity "
            "(check the matched-delay extraction upstream)"
        )
    return array + 0.0


def _merge_sorted(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Linear stable merge of two sorted float arrays (left's ties first)."""
    if not len(left):
        return right
    if not len(right):
        return left
    positions = np.searchsorted(left, right, side="right") + np.arange(len(right))
    merged = np.empty(len(left) + len(right), dtype=np.float64)
    mask = np.zeros(len(merged), dtype=bool)
    mask[positions] = True
    merged[mask] = right
    merged[~mask] = left
    return merged


class MergedDelayPool:
    """Mergeable pooled delay samples with exact whole-pool semantics.

    ``extend(samples)`` sorts one interval's samples once and merges them into
    the pool's sorted array; ``merge(other)`` folds another pool in.  Both
    yield the identical sorted array that ``np.sort`` over the concatenation
    of every sample ever added would — order of extends/merges never matters —
    so campaign statistics computed from the pool are bit-identical however
    the intervals were grouped (run in one go, checkpoint/resumed, dispatched).
    """

    def __init__(self, samples: Sequence[float] | np.ndarray = ()) -> None:
        array = _checked_samples(samples)
        self._sorted = np.sort(array) if array.size else np.empty(0, dtype=np.float64)

    def __len__(self) -> int:
        return len(self._sorted)

    @property
    def sample_count(self) -> int:
        return len(self._sorted)

    @property
    def sorted_samples(self) -> np.ndarray:
        """The pooled samples, ascending (a read-only view)."""
        view = self._sorted.view()
        view.flags.writeable = False
        return view

    def extend(self, samples: Sequence[float] | np.ndarray) -> "MergedDelayPool":
        """Fold one interval's (unsorted) samples into the pool; returns self.

        NaN and infinite values are rejected with a :class:`ValueError`.
        """
        array = _checked_samples(samples)
        if array.size:
            self._sorted = _merge_sorted(self._sorted, np.sort(array))
        return self

    def merge(self, other: "MergedDelayPool") -> "MergedDelayPool":
        """Fold another pool's samples into this one; returns self."""
        self._sorted = _merge_sorted(self._sorted, other._sorted)
        return self

    def quantiles(self, quantiles: Sequence[float]) -> dict[float, float]:
        """Pooled empirical quantiles; empty mapping when the pool is empty."""
        if not len(self._sorted):
            return {}
        return empirical_quantiles(self._sorted, quantiles)

    def state_digest(self) -> str:
        """Stable hex digest of the pooled multiset (bit-exact floats)."""
        hasher = hashlib.blake2b(digest_size=16)
        hasher.update(self._sorted.tobytes())
        return hasher.hexdigest()

    def to_hex(self) -> list[str]:
        """The sorted samples as lossless float hex (JSON-safe checkpoint form)."""
        return [value.hex() for value in self._sorted.tolist()]

    @classmethod
    def from_hex(cls, values: Iterable[str]) -> "MergedDelayPool":
        """Rebuild a pool from :meth:`to_hex` output (bit-exact round trip)."""
        pool = cls()
        pool._sorted = _checked_samples(
            [float.fromhex(value) for value in values]
        )
        return pool

    def __repr__(self) -> str:
        return f"MergedDelayPool(samples={len(self._sorted)})"


def empirical_quantiles(
    values: Sequence[float] | np.ndarray, quantiles: Sequence[float]
) -> dict[float, float]:
    """Empirical quantiles of ``values`` as a ``{quantile: value}`` mapping."""
    array = np.asarray(values, dtype=float)
    if array.size == 0:
        raise ValueError("cannot compute quantiles of an empty sample")
    quantiles = list(quantiles)
    for quantile in quantiles:
        check_probability("quantile", quantile)
    return dict(zip(quantiles, np.quantile(array, quantiles).tolist()))


def quantile_error(
    estimated: Mapping[float, float], truth: Mapping[float, float]
) -> dict[float, float]:
    """Per-quantile absolute error between two quantile mappings."""
    common = sorted(set(estimated) & set(truth))
    if not common:
        raise ValueError("the two quantile mappings share no quantiles")
    return {quantile: abs(estimated[quantile] - truth[quantile]) for quantile in common}
