"""Properties of the mergeable quantile sketch.

For arbitrary finite float64 samples (heavy tails, duplicates, sorted and
reverse-sorted runs, mixed signs, exact zeros, magnitudes across hundreds
of orders of magnitude):

* merge is associative and commutative **byte-for-byte** — any grouping of
  any partition converges on one ``state_digest()``, equal to the one-shot
  sketch's;
* the digest is invariant to the order samples were folded in;
* serialization round trips bit-exactly through ``to_state()`` (the JSON
  checkpoint form) and pickle, so state rebuilt in another process is
  indistinguishable from the original;
* every quantile estimate satisfies the documented relative error bound
  against the exact order statistics.
"""

from __future__ import annotations

import json
import math
import pickle

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.sketch import DelayQuantileSketch

_QUANTILES = (0.0, 0.1, 0.5, 0.9, 0.99, 1.0)

# Finite, and away from the extreme ~1e308 edge where gamma**i itself
# overflows float64 (the sketch documents its bound for |x| <= 1e300).
_sample = st.one_of(
    st.floats(
        min_value=-1e300,
        max_value=1e300,
        allow_nan=False,
        allow_infinity=False,
    ),
    st.sampled_from([0.0, 1e-3, -1e-3, 2.5e-4]),  # force ties and zeros
)
_samples = st.lists(_sample, min_size=0, max_size=120)
_sizes = st.sampled_from([8, 32, 512])
# Split points and orderings as plain lists (not ``st.data()``) so that
# falsifying cases can be pinned with ``@example``.
_flags = st.lists(st.booleans(), max_size=121)
_keys = st.lists(st.integers(min_value=0, max_value=1000), max_size=121)


def _permuted(items: list, keys: list[int]) -> list:
    """``items`` stably sorted by ``keys`` (missing keys count as 0)."""
    rank = [(keys[i] if i < len(keys) else 0, i) for i in range(len(items))]
    return [items[i] for _, i in sorted(rank)]


# Signed zero: -0.0 == 0.0, so min/max keep whichever arrives first unless
# the sketch canonicalises it; merging the -0.0 piece first must not change
# the digest.
@example(
    samples=[0.0, -0.0],
    size=8,
    splits=[False, True],
    merge_keys=[1, 0],
    extend_keys=[1, 0],
)
@example(
    samples=[0.0, 0.0, -0.0],
    size=8,
    splits=[False, False, True],
    merge_keys=[1, 0],
    extend_keys=[2, 1, 0],
)
@settings(max_examples=120, deadline=None)
@given(
    samples=_samples, size=_sizes, splits=_flags, merge_keys=_keys, extend_keys=_keys
)
def test_merge_grouping_and_order_invariance(
    samples, size, splits, merge_keys, extend_keys
):
    one_shot = DelayQuantileSketch(size, samples)

    # arbitrary partition, arbitrary merge order
    pieces: list[list[float]] = [[]]
    for index, value in enumerate(samples):
        if index < len(splits) and splits[index]:
            pieces.append([])
        pieces[-1].append(value)

    merged = DelayQuantileSketch(size)
    for piece in _permuted(pieces, merge_keys):
        merged.merge(DelayQuantileSketch(size, piece))
    assert merged.state_digest() == one_shot.state_digest()

    # fold order within one sketch doesn't matter either
    shuffled = _permuted(samples, extend_keys)
    assert (
        DelayQuantileSketch(size, shuffled).state_digest()
        == one_shot.state_digest()
    )


@settings(max_examples=100, deadline=None)
@given(samples=_samples, size=_sizes)
def test_state_round_trips_are_bit_exact(samples, size):
    sketch = DelayQuantileSketch(size, samples)
    digest = sketch.state_digest()

    # the JSON checkpoint form survives serialization to text and back
    payload = json.loads(json.dumps(sketch.to_state()))
    rebuilt = DelayQuantileSketch.from_state(payload)
    assert rebuilt.state_digest() == digest
    assert rebuilt.quantiles(_QUANTILES) == sketch.quantiles(_QUANTILES)

    # pickle (the process-boundary transport) preserves the digest too
    assert pickle.loads(pickle.dumps(sketch)).state_digest() == digest


@settings(max_examples=150, deadline=None)
@given(samples=st.lists(_sample, min_size=1, max_size=120), size=_sizes)
def test_quantile_estimates_satisfy_the_documented_bound(samples, size):
    sketch = DelayQuantileSketch(size, samples)
    alpha = sketch.relative_accuracy
    ordered = np.sort(np.asarray(samples, dtype=np.float64))
    estimates = sketch.quantiles(_QUANTILES)
    for quantile in _QUANTILES:
        rank = quantile * (len(ordered) - 1)
        bracket = max(
            abs(ordered[int(math.floor(rank))]),
            abs(ordered[int(math.ceil(rank))]),
        )
        exact = float(np.quantile(ordered, quantile))
        bound = alpha * bracket
        assert abs(estimates[quantile] - exact) <= bound * (1 + 1e-9) + 1e-18
