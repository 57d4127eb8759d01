"""Property-based tests for the hashing substrate."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.net.hashing import (
    MASK32,
    MASK64,
    bob_hash,
    combine64,
    fnv1a_64,
    sample_function,
    splitmix64,
    threshold_for_rate,
)

uint64 = st.integers(min_value=0, max_value=MASK64)


class TestHashProperties:
    @given(st.binary(max_size=200), st.integers(min_value=0, max_value=MASK32))
    def test_bob_hash_in_range_and_deterministic(self, data, initval):
        value = bob_hash(data, initval)
        assert 0 <= value <= MASK32
        assert value == bob_hash(data, initval)

    @given(st.binary(max_size=200))
    def test_fnv_in_range_and_deterministic(self, data):
        value = fnv1a_64(data)
        assert 0 <= value <= MASK64
        assert value == fnv1a_64(data)

    @given(uint64)
    def test_splitmix_in_range(self, value):
        assert 0 <= splitmix64(value) <= MASK64

    @given(uint64, uint64)
    def test_combine_and_sample_function_in_range(self, first, second):
        assert 0 <= combine64(first, second) <= MASK64
        assert 0 <= sample_function(first, second) <= MASK64

    @given(uint64, uint64)
    def test_sample_function_deterministic(self, buffered, marker):
        assert sample_function(buffered, marker) == sample_function(buffered, marker)


class TestThresholdProperties:
    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_threshold_in_range(self, rate):
        threshold = threshold_for_rate(rate)
        assert 0 <= threshold <= MASK64

    @given(
        st.floats(min_value=1e-6, max_value=1.0, allow_nan=False),
        st.floats(min_value=1e-6, max_value=1.0, allow_nan=False),
    )
    def test_threshold_monotone_in_rate(self, rate_a, rate_b):
        """Lower rates always map to thresholds at least as high."""
        threshold_a = threshold_for_rate(rate_a)
        threshold_b = threshold_for_rate(rate_b)
        if rate_a <= rate_b:
            assert threshold_a >= threshold_b
        else:
            assert threshold_a <= threshold_b

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_round_trip_within_float_precision(self, rate):
        assert abs(1.0 - threshold_for_rate(rate) / MASK64 - rate) < 1e-9

    @given(uint64, st.floats(min_value=1e-4, max_value=1.0, allow_nan=False))
    def test_threshold_decision_consistent_with_rate_ordering(self, digest, rate):
        """If a digest passes a low-rate threshold it passes every higher-rate one."""
        low_rate_threshold = threshold_for_rate(rate)
        full_rate_threshold = threshold_for_rate(1.0)
        if digest > low_rate_threshold:
            assert digest > full_rate_threshold
