"""Unit tests for repro.util (rng, units, validation)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.util.rng import derive_seed, make_rng
from repro.util.units import (
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


class TestRNG:
    def test_make_rng_accepts_none_int_and_generator(self):
        assert isinstance(make_rng(None), np.random.Generator)
        assert isinstance(make_rng(3), np.random.Generator)
        generator = np.random.default_rng(1)
        assert make_rng(generator) is generator

    def test_same_seed_same_stream(self):
        assert make_rng(7).integers(0, 1000, 10).tolist() == make_rng(7).integers(
            0, 1000, 10
        ).tolist()

    def test_derive_seed_stable_and_label_sensitive(self):
        assert derive_seed(42, "loss") == derive_seed(42, "loss")
        assert derive_seed(42, "loss") != derive_seed(42, "delay")
        assert derive_seed(42, "loss") != derive_seed(43, "loss")

    def test_derive_seed_multiple_labels(self):
        assert derive_seed(1, "a", "b") != derive_seed(1, "a", "c")


class TestUnits:
    def test_time_conversions(self):
        assert seconds(2) == 2.0

    def test_gbps_to_pps_matches_paper(self):
        # Section 7.1: 10 Gbps at 400-byte packets is 3.125 Mpps.
        assert gbps_to_pps(10, 400) == pytest.approx(3.125e6)
        # Worst case, minimum-size packets: about 20 Mpps (paper uses 62.5B eq).
        assert gbps_to_pps(10, 62.5) == pytest.approx(20e6)

    def test_gbps_to_pps_validation(self):
        with pytest.raises(ValueError):
            gbps_to_pps(-1)
        with pytest.raises(ValueError):
            gbps_to_pps(1, 0)

    def test_bytes_to_human(self):
        assert bytes_to_human(512) == "512.0 B"
        assert bytes_to_human(2 * 1024 * 1024) == "2.0 MB"
        with pytest.raises(ValueError):
            bytes_to_human(-1)


class TestValidation:
    def test_check_positive(self):
        assert check_positive("x", 3) == 3
        with pytest.raises(ValueError, match="x"):
            check_positive("x", 0)

    def test_check_non_negative(self):
        assert check_non_negative("x", 0) == 0
        with pytest.raises(ValueError):
            check_non_negative("x", -1)

    def test_check_non_negative_rejects_nan(self):
        with pytest.raises(ValueError, match="x must be >= 0, got nan"):
            check_non_negative("x", float("nan"))
        assert check_non_negative("x", float("inf")) == float("inf")

    def test_check_probability(self):
        assert check_probability("p", 0.0) == 0.0
        assert check_probability("p", 1.0) == 1.0
        with pytest.raises(ValueError):
            check_probability("p", 1.1)

    def test_check_fraction(self):
        assert check_fraction("f", 1.0) == 1.0
        with pytest.raises(ValueError):
            check_fraction("f", 0.0)
