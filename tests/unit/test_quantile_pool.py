"""Unit tests for the mergeable pooled-quantile state (MergedDelayPool)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.quantiles import MergedDelayPool, empirical_quantiles

RNG = np.random.default_rng(1234)


def _spans(count: int, sizes=(0, 1, 7, 40, 3)) -> list[np.ndarray]:
    return [RNG.normal(1e-3, 2e-4, size=sizes[i % len(sizes)]) for i in range(count)]


class TestMergedDelayPool:
    def test_pooled_equals_merged(self):
        """The satellite fix's contract: incremental merge == one-shot pooling."""
        spans = _spans(9)
        merged = MergedDelayPool()
        for span in spans:
            merged.extend(span)
        pooled = np.sort(np.concatenate(spans))
        assert np.array_equal(np.asarray(merged.sorted_samples), pooled)
        wanted = (0.5, 0.9, 0.99)
        assert merged.quantiles(wanted) == empirical_quantiles(pooled, wanted)

    def test_merge_is_associative_and_grouping_invariant(self):
        spans = _spans(6)
        left = MergedDelayPool()
        for span in spans:
            left.extend(span)
        paired = MergedDelayPool()
        for index in range(0, len(spans), 2):
            chunk = MergedDelayPool(spans[index]).merge(MergedDelayPool(spans[index + 1]))
            paired.merge(chunk)
        assert left.state_digest() == paired.state_digest()
        assert np.array_equal(
            np.asarray(left.sorted_samples), np.asarray(paired.sorted_samples)
        )

    def test_merge_order_invariant(self):
        spans = _spans(5)
        forward = MergedDelayPool()
        backward = MergedDelayPool()
        for span in spans:
            forward.extend(span)
        for span in reversed(spans):
            backward.extend(span)
        assert forward.state_digest() == backward.state_digest()

    def test_signed_zero_does_not_make_merge_order_visible(self):
        # -0.0 == 0.0, so a stable merge would keep whichever came first.
        forward = MergedDelayPool([0.0]).merge(MergedDelayPool([-0.0]))
        backward = MergedDelayPool([-0.0]).merge(MergedDelayPool([0.0]))
        assert forward.state_digest() == backward.state_digest()
        assert not np.signbit(MergedDelayPool([-0.0]).sorted_samples).any()

    def test_ties_survive_merging(self):
        pool = MergedDelayPool([2.0, 1.0, 2.0]).extend([2.0, 1.0])
        assert np.asarray(pool.sorted_samples).tolist() == [1.0, 1.0, 2.0, 2.0, 2.0]

    def test_empty_pool(self):
        pool = MergedDelayPool()
        assert len(pool) == 0
        assert pool.quantiles((0.5,)) == {}

    def test_sorted_samples_view_is_read_only(self):
        pool = MergedDelayPool([3.0, 1.0])
        with pytest.raises(ValueError):
            pool.sorted_samples[0] = 0.0

    def test_extend_returns_self_for_chaining(self):
        pool = MergedDelayPool()
        assert pool.extend([1.0]) is pool
        assert pool.merge(MergedDelayPool([2.0])) is pool
        assert len(pool) == 2

    def test_empty_pool_merge_is_identity_both_ways(self):
        samples = RNG.normal(1e-3, 2e-4, size=17)
        populated = MergedDelayPool(samples)
        before = populated.state_digest()
        populated.merge(MergedDelayPool())
        assert populated.state_digest() == before
        empty = MergedDelayPool()
        empty.merge(MergedDelayPool(samples))
        assert empty.state_digest() == before
        both_empty = MergedDelayPool().merge(MergedDelayPool())
        assert len(both_empty) == 0
        assert both_empty.state_digest() == MergedDelayPool().state_digest()

    def test_single_sample_quantiles(self):
        pool = MergedDelayPool([4.2e-3])
        wanted = (0.0, 0.25, 0.5, 0.9, 1.0)
        assert pool.quantiles(wanted) == {q: 4.2e-3 for q in wanted}

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_samples_rejected_with_clear_error(self, bad):
        with pytest.raises(ValueError, match="finite"):
            MergedDelayPool([1e-3, bad])
        with pytest.raises(ValueError, match="finite"):
            MergedDelayPool().extend([bad, 2e-3])

