"""Unit tests for repro.traffic.reordering."""

from __future__ import annotations

import numpy as np
import pytest

from repro.traffic.reordering import NoReordering, WindowReordering

from tests.oracle.objects import reorder


def _arrivals(count: int = 1000, gap: float = 10e-6) -> np.ndarray:
    return np.arange(count) * gap


class TestNoReordering:
    def test_identity(self):
        arrivals = _arrivals(50)
        order, times = reorder(NoReordering(), arrivals)
        assert order.tolist() == list(range(50))
        assert np.array_equal(times, arrivals)


class TestWindowReordering:
    def test_zero_probability_is_identity(self):
        arrivals = _arrivals(100)
        order, _ = reorder(WindowReordering(reorder_probability=0.0, seed=1), arrivals)
        assert order.tolist() == list(range(100))

    def test_zero_window_is_identity(self):
        arrivals = _arrivals(100)
        order, _ = reorder(WindowReordering(window=0.0, seed=1), arrivals)
        assert order.tolist() == list(range(100))

    def test_some_packets_swap_with_positive_probability(self):
        arrivals = _arrivals(2000, gap=5e-6)
        order, _ = reorder(
            WindowReordering(window=0.5e-3, reorder_probability=0.2, seed=2), arrivals
        )
        assert order.tolist() != list(range(2000))

    def test_reordering_bounded_by_window(self):
        # No packet may be displaced past a packet that arrived more than
        # `window` later than it (the paper's safety assumption).
        gap = 5e-6
        window = 0.5e-3
        arrivals = _arrivals(3000, gap=gap)
        order, _ = reorder(
            WindowReordering(window=window, reorder_probability=0.3, seed=3), arrivals
        )
        positions = np.empty(len(order), dtype=int)
        positions[order] = np.arange(len(order))
        for original_index, output_position in enumerate(positions):
            # Every packet that ended up *before* this one in the output must
            # have an original arrival time within `window` of it (or earlier).
            earlier = order[:output_position]
            if len(earlier):
                assert arrivals[earlier].max() <= arrivals[original_index] + window + 1e-12

    def test_times_remain_sorted(self):
        arrivals = _arrivals(500)
        _, times = reorder(WindowReordering(reorder_probability=0.5, seed=4), arrivals)
        assert np.all(np.diff(times) >= 0)

    def test_output_is_permutation(self):
        arrivals = _arrivals(800)
        order, _ = reorder(WindowReordering(reorder_probability=0.4, seed=5), arrivals)
        assert sorted(order.tolist()) == list(range(800))

    def test_empty_input(self):
        order, times = reorder(WindowReordering(seed=6), np.array([]))
        assert len(order) == 0
        assert len(times) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            WindowReordering(window=-1.0)
        with pytest.raises(ValueError):
            WindowReordering(reorder_probability=2.0)
