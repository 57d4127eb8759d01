"""Unit tests for repro.net.clock."""

from __future__ import annotations

import numpy as np
import pytest

from repro.net.clock import ClockModel, PerfectClock


class TestPerfectClock:
    def test_identity(self):
        clock = PerfectClock()
        for value in (0.0, 1.5, 1e6):
            assert clock.read(value) == value

    def test_callable(self):
        assert PerfectClock()(3.0) == 3.0


class TestClockModel:
    def test_constant_offset(self):
        clock = ClockModel(offset=0.5)
        assert clock.read(10.0) == pytest.approx(10.5)

    def test_drift_grows_with_time(self):
        clock = ClockModel(drift_ppm=100.0)  # 100 us per second
        assert clock.read(10.0) == pytest.approx(10.0 + 10.0 * 100e-6)

    def test_jitter_is_random_but_bounded_in_expectation(self):
        clock = ClockModel(jitter_std=1e-6, seed=1)
        reads = np.array([clock.read(1.0) for _ in range(200)])
        assert reads.std() == pytest.approx(1e-6, rel=0.5)

    def test_zero_jitter_is_deterministic(self):
        clock = ClockModel(offset=0.1, drift_ppm=5.0, jitter_std=0.0)
        assert clock.read(7.0) == clock.read(7.0)

    def test_negative_jitter_rejected(self):
        with pytest.raises(ValueError):
            ClockModel(jitter_std=-1e-6)

    def test_repr_mentions_parameters(self):
        assert "offset" in repr(ClockModel(offset=0.1))

