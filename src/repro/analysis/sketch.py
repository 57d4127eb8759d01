"""Mergeable quantile sketch with a guaranteed relative error bound.

:class:`DelayQuantileSketch` is the bounded-memory sibling of
:class:`~repro.analysis.quantiles.MergedDelayPool`: same
``extend()``/``merge()``/``quantiles()``/``state_digest()`` contract, but it
keeps logarithmically spaced value buckets (DDSketch-style) instead of the raw
sample multiset, so its size is bounded by the value *range* of the samples —
never by their count — and a campaign in sketch mode commits O(sketch) bytes
per interval no matter how much traffic each interval carried.

Error bound
-----------
A sketch of size budget ``B`` uses buckets at ratio ``gamma = 1 + 2/B``,
giving a guaranteed **relative accuracy** ``alpha = 1/(B + 1)``: every sample
``x`` is represented by a value ``r`` with ``|r - x| <= alpha * |x|``.  An
interpolated quantile estimate is a convex combination of two such
representatives, so for every quantile ``q`` over ``n`` samples, with
``rank = q * (n - 1)``::

    |sketch_quantile(q) - exact_quantile(q)|
        <= alpha * max(|x_floor(rank)|, |x_ceil(rank)|)

where ``x_k`` is the k-th exact order statistic — the bound the differential
test tier (``tests/differential/``) asserts against the exact pool on every
conformance golden.  The default size 512 gives ``alpha ~= 0.195%``.  The
bound holds for magnitudes in ``[1e-300, 1e300]`` (beyond that ``gamma**i``
leaves float64 range); exact zeros are counted exactly.

Determinism
-----------
Construction is deterministic by design — bucket indices are a pure function
of the sample values and the size budget, there is no randomness to seed — so
two sketches built from the same multiset have byte-identical
``state_digest()`` regardless of how the samples were grouped into
``extend()`` calls or in which order sketches were ``merge()``-d.  That makes
merge associative *and* commutative byte-for-byte, which is what lets dispatched
and resumed campaigns fold sketch state in any grouping and still converge on
identical stores.
"""

from __future__ import annotations

import hashlib
import math
import struct
from bisect import bisect_right
from typing import Any, Mapping, Sequence

import numpy as np

from repro.util.validation import check_probability

__all__ = ["DEFAULT_SKETCH_SIZE", "DelayQuantileSketch"]

#: Default size budget: alpha = 1/513 ~= 0.195% relative error.
DEFAULT_SKETCH_SIZE = 512

#: Smallest size budget we accept (alpha ~= 11% — already coarse).
MIN_SKETCH_SIZE = 8

_STATE_VERSION = 1


def _unsigned_zero(value: float) -> float:
    """``value`` with ``-0.0`` folded to ``0.0`` (every other float unchanged).

    ``min``/``max`` return whichever of two equal operands comes first, so
    without this a merge of a ``0.0`` sketch with a ``-0.0`` sketch would
    keep a different bound — and digest differently — depending on order.
    """
    return value + 0.0


class DelayQuantileSketch:
    """DDSketch-style mergeable quantile sketch over float64 samples.

    ``size`` is the accuracy budget: relative accuracy is ``1/(size + 1)``.
    Buckets are sparse — memory is proportional to the number of *distinct
    log-spaced value buckets touched*, bounded by ``O(size * log(range))``
    and independent of the sample count.  Negative samples get a mirrored
    bucket map and exact zeros an exact counter, so the full signed delay
    range (clock skew can make matched delays negative) is covered.
    """

    def __init__(
        self, size: int = DEFAULT_SKETCH_SIZE, samples: Sequence[float] | np.ndarray = ()
    ) -> None:
        if not isinstance(size, int) or isinstance(size, bool):
            raise ValueError(f"sketch size must be an int, got {type(size).__name__}")
        if size < MIN_SKETCH_SIZE:
            raise ValueError(f"sketch size must be >= {MIN_SKETCH_SIZE}, got {size}")
        self._size = size
        self._gamma = 1.0 + 2.0 / size
        self._log_gamma = math.log(self._gamma)
        self._positive: dict[int, int] = {}
        self._negative: dict[int, int] = {}
        self._zero = 0
        self._count = 0
        self._min: float | None = None
        self._max: float | None = None
        self.extend(samples)

    # -- introspection -----------------------------------------------------------------

    @property
    def size(self) -> int:
        """The size (accuracy) budget the sketch was built with."""
        return self._size

    @property
    def relative_accuracy(self) -> float:
        """The guaranteed relative error bound ``alpha = 1/(size + 1)``."""
        return 1.0 / (self._size + 1)

    @property
    def sample_count(self) -> int:
        return self._count

    @property
    def bucket_count(self) -> int:
        """Occupied buckets — the actual memory footprint, count-independent."""
        return len(self._positive) + len(self._negative) + (1 if self._zero else 0)

    def __len__(self) -> int:
        return self._count

    def __repr__(self) -> str:
        return (
            f"DelayQuantileSketch(size={self._size}, samples={self._count}, "
            f"buckets={self.bucket_count})"
        )

    # -- building ----------------------------------------------------------------------

    def extend(
        self, samples: Sequence[float] | np.ndarray
    ) -> "DelayQuantileSketch":
        """Fold samples into the sketch; returns self.

        NaN and infinite values are rejected with a :class:`ValueError` — a
        sketch bucket index for them is undefined, and silently dropping
        them would desynchronize the count.
        """
        array = np.asarray(samples, dtype=np.float64)
        if array.ndim != 1:
            array = array.reshape(-1)
        if not array.size:
            return self
        if not np.isfinite(array).all():
            raise ValueError(
                "delay samples must be finite; got NaN or infinity "
                "(check the matched-delay extraction upstream)"
            )
        self._count += int(array.size)
        self._zero += int(np.count_nonzero(array == 0.0))
        for mapping, magnitudes in (
            (self._positive, array[array > 0.0]),
            (self._negative, -array[array < 0.0]),
        ):
            if magnitudes.size:
                indices = np.ceil(
                    np.log(magnitudes) / self._log_gamma
                ).astype(np.int64)
                for index, count in zip(*np.unique(indices, return_counts=True)):
                    key = int(index)
                    mapping[key] = mapping.get(key, 0) + int(count)
        low = _unsigned_zero(float(array.min()))
        high = _unsigned_zero(float(array.max()))
        self._min = low if self._min is None else min(self._min, low)
        self._max = high if self._max is None else max(self._max, high)
        return self

    def merge(self, other: "DelayQuantileSketch") -> "DelayQuantileSketch":
        """Fold another sketch in; returns self.

        Merging is exact bucket-count addition, so it is associative and
        commutative byte-for-byte — any grouping of intervals
        converges on the identical state.  Both sketches must share the same
        size budget (their bucket grids differ otherwise).
        """
        if not isinstance(other, DelayQuantileSketch):
            raise ValueError(
                f"can only merge another DelayQuantileSketch, "
                f"got {type(other).__name__}"
            )
        if other._size != self._size:
            raise ValueError(
                f"cannot merge sketches with different size budgets "
                f"({self._size} vs {other._size})"
            )
        for index, count in other._positive.items():
            self._positive[index] = self._positive.get(index, 0) + count
        for index, count in other._negative.items():
            self._negative[index] = self._negative.get(index, 0) + count
        self._zero += other._zero
        self._count += other._count
        if other._min is not None:
            low = _unsigned_zero(other._min)
            self._min = low if self._min is None else min(self._min, low)
        if other._max is not None:
            high = _unsigned_zero(other._max)
            self._max = high if self._max is None else max(self._max, high)
        return self

    # -- queries -----------------------------------------------------------------------

    def _representative(self, index: int) -> float:
        """The representative of positive bucket ``index``.

        The bucket covers ``(gamma^(i-1), gamma^i]``; the harmonic midpoint
        ``2 * gamma^i / (gamma + 1)`` is within ``alpha`` relative error of
        both endpoints, which is where the guarantee comes from.
        """
        return 2.0 * math.exp(index * self._log_gamma) / (self._gamma + 1.0)

    def _ordered_buckets(self) -> tuple[list[float], list[int]]:
        """(representatives ascending, cumulative counts) over all buckets."""
        values: list[float] = []
        counts: list[int] = []
        for index in sorted(self._negative, reverse=True):
            values.append(-self._representative(index))
            counts.append(self._negative[index])
        if self._zero:
            values.append(0.0)
            counts.append(self._zero)
        for index in sorted(self._positive):
            values.append(self._representative(index))
            counts.append(self._positive[index])
        cumulative: list[int] = []
        total = 0
        for count in counts:
            total += count
            cumulative.append(total)
        return values, cumulative

    def quantiles(self, quantiles: Sequence[float]) -> dict[float, float]:
        """Estimated quantiles; empty mapping when the sketch is empty.

        Uses the same linear-interpolation definition as
        :func:`numpy.quantile`, over bucket representatives, clamped to the
        exactly tracked [min, max] — each estimate is within the documented
        relative bound of the exact empirical quantile.
        """
        if not self._count:
            return {}
        values, cumulative = self._ordered_buckets()
        result: dict[float, float] = {}
        for quantile in quantiles:
            check_probability("quantile", quantile)
            rank = float(quantile) * (self._count - 1)
            low_rank = int(math.floor(rank))
            fraction = rank - low_rank
            low = values[bisect_right(cumulative, low_rank)]
            if fraction > 0.0:
                high = values[bisect_right(cumulative, low_rank + 1)]
                estimate = low + fraction * (high - low)
            else:
                estimate = low
            estimate = min(max(estimate, self._min), self._max)
            result[float(quantile)] = float(estimate)
        return result

    def value_bounds(self, estimate: float) -> tuple[float, float]:
        """(lower, upper) interval the exact quantile is guaranteed to lie in.

        From ``|estimate - exact| <= alpha * |exact|`` it follows that
        ``|exact| <= |estimate| / (1 - alpha)``, hence the half-width
        ``alpha * |estimate| / (1 - alpha)`` (for same-sign bracketing
        order statistics, always the case for delay data).
        """
        alpha = self.relative_accuracy
        half_width = alpha * abs(estimate) / (1.0 - alpha)
        return estimate - half_width, estimate + half_width

    # -- serialization -----------------------------------------------------------------

    def state_digest(self) -> str:
        """Stable hex digest of the sketch state (grouping/merge-order free)."""
        hasher = hashlib.blake2b(digest_size=16)
        hasher.update(b"dqsketch")
        hasher.update(struct.pack("<qqq", _STATE_VERSION, self._size, self._count))
        hasher.update(struct.pack("<q", self._zero))
        for bound in (self._min, self._max):
            if bound is None:
                hasher.update(b"\x00")
            else:
                hasher.update(b"\x01" + struct.pack("<d", bound))
        for mapping in (self._negative, self._positive):
            hasher.update(struct.pack("<q", len(mapping)))
            for index in sorted(mapping):
                hasher.update(struct.pack("<qq", index, mapping[index]))
        return hasher.hexdigest()

    def to_state(self) -> dict[str, Any]:
        """JSON-safe state (lossless; see :meth:`from_state`).

        Bucket maps are keyed by decimal bucket index; min/max use float hex
        so the round trip is bit-exact.
        """
        return {
            "version": _STATE_VERSION,
            "size": self._size,
            "count": self._count,
            "zero": self._zero,
            "negative": {str(i): self._negative[i] for i in sorted(self._negative)},
            "positive": {str(i): self._positive[i] for i in sorted(self._positive)},
            "min": self._min.hex() if self._min is not None else None,
            "max": self._max.hex() if self._max is not None else None,
        }

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "DelayQuantileSketch":
        """Rebuild a sketch from :meth:`to_state` output (bit-exact round trip)."""
        if not isinstance(state, Mapping):
            raise ValueError(
                f"sketch state must be a mapping, got {type(state).__name__}"
            )
        if state.get("version") != _STATE_VERSION:
            raise ValueError(
                f"unsupported sketch state version {state.get('version')!r} "
                f"(expected {_STATE_VERSION})"
            )
        sketch = cls(size=int(state["size"]))
        for field, mapping in (("negative", sketch._negative), ("positive", sketch._positive)):
            for key, count in dict(state.get(field) or {}).items():
                count = int(count)
                if count <= 0:
                    raise ValueError(
                        f"sketch state {field} bucket {key!r} has non-positive "
                        f"count {count}"
                    )
                mapping[int(key)] = count
        sketch._zero = int(state.get("zero") or 0)
        sketch._count = int(state["count"])
        expected = (
            sketch._zero
            + sum(sketch._negative.values())
            + sum(sketch._positive.values())
        )
        if sketch._count != expected:
            raise ValueError(
                f"sketch state count {sketch._count} does not match its "
                f"bucket total {expected}"
            )
        if state.get("min") is not None:
            sketch._min = _unsigned_zero(float.fromhex(state["min"]))
        if state.get("max") is not None:
            sketch._max = _unsigned_zero(float.fromhex(state["max"]))
        if sketch._count and (sketch._min is None or sketch._max is None):
            raise ValueError("non-empty sketch state is missing its min/max bounds")
        return sketch
