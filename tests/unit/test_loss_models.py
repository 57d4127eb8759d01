"""Unit tests for repro.traffic.loss_models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.traffic import loss_models
from repro.traffic.loss_models import (
    BernoulliLossModel,
    GilbertElliottLossModel,
    NoLossModel,
)


def _measured_rate(model, packets: int = 20000) -> float:
    return sum(1 for index in range(packets) if model.drops(index)) / packets


class TestNoLoss:
    def test_never_drops(self):
        model = NoLossModel()
        assert not any(model.drops(index) for index in range(1000))


class TestBernoulli:
    def test_zero_rate_never_drops(self):
        assert _measured_rate(BernoulliLossModel(0.0, seed=1), 2000) == 0.0

    def test_measured_rate_close_to_nominal(self):
        assert _measured_rate(BernoulliLossModel(0.25, seed=2)) == pytest.approx(
            0.25, abs=0.02
        )

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            BernoulliLossModel(1.2)

    def test_deterministic_for_seed(self):
        a = BernoulliLossModel(0.3, seed=5)
        b = BernoulliLossModel(0.3, seed=5)
        assert [a.drops(i) for i in range(100)] == [b.drops(i) for i in range(100)]


class TestGilbertElliott:
    def test_from_target_rate_matches_long_run(self):
        for target in (0.1, 0.25, 0.5):
            model = GilbertElliottLossModel.from_target_rate(target, seed=3)
            # The chain's stationary loss rate: P(bad) = p / (p + r).
            pi_bad = model.p / (model.p + model.r)
            stationary = (1.0 - pi_bad) * model.loss_good + pi_bad * model.loss_bad
            assert stationary == pytest.approx(target, rel=1e-6)
            assert _measured_rate(model) == pytest.approx(target, abs=0.05)

    def test_zero_target_never_drops(self):
        model = GilbertElliottLossModel.from_target_rate(0.0, seed=4)
        assert _measured_rate(model, 2000) == 0.0

    def test_losses_are_bursty(self):
        # With a mean burst of 20 packets, consecutive drops should be common;
        # compare the number of loss runs against an independent model at the
        # same rate: the bursty model has far fewer, longer runs.
        bursty = GilbertElliottLossModel.from_target_rate(
            0.3, mean_burst_length=20, seed=5
        )
        independent = BernoulliLossModel(0.3, seed=5)

        def runs(model) -> int:
            count, previous = 0, False
            for index in range(20000):
                current = model.drops(index)
                if current and not previous:
                    count += 1
                previous = current
            return count

        assert runs(bursty) < runs(independent) * 0.5

    def test_unachievable_target_rejected(self):
        with pytest.raises(ValueError):
            GilbertElliottLossModel.from_target_rate(0.9, loss_bad=0.5)

    def test_burst_length_validation(self):
        with pytest.raises(ValueError):
            GilbertElliottLossModel.from_target_rate(0.1, mean_burst_length=0.5)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            GilbertElliottLossModel(p=1.5, r=0.1)


#: Parameter corners of the chain: the benchmark's 2% loss, transition
#: probabilities at 0 and 1, a lossy good state (two draws per packet in both
#: states), a lossless bad state (one draw in both), and both states lossy.
GE_CORNERS = [
    dict(p=0.0025, r=0.125),
    dict(p=0.0, r=0.5),
    dict(p=1.0, r=0.5),
    dict(p=0.3, r=0.0),
    dict(p=0.3, r=1.0),
    dict(p=1.0, r=1.0),
    dict(p=0.1, r=0.2, loss_good=0.05),
    dict(p=0.1, r=0.2, loss_bad=0.0),
    dict(p=0.05, r=0.3, loss_good=0.1, loss_bad=0.7),
]


def _corner_id(corner: dict) -> str:
    return ",".join(f"{name}={value}" for name, value in corner.items())


def _per_packet(model, count: int) -> np.ndarray:
    return np.asarray([model.drops(index) for index in range(count)], dtype=bool)


def _assert_same_chain(batched, scalar) -> None:
    assert batched._in_bad_state == scalar._in_bad_state
    assert batched._rng.bit_generator.state == scalar._rng.bit_generator.state


class TestGilbertElliottRunLengthBatch:
    """``drops_batch`` walks state runs but equals per-packet ``drops``."""

    @pytest.mark.parametrize("corner", GE_CORNERS, ids=_corner_id)
    @pytest.mark.parametrize("start_bad", [False, True])
    @pytest.mark.parametrize("chunks", [[600], [0, 1, 7, 0, 13, 301], [1] * 40])
    def test_mask_chain_and_generator_match_per_packet(self, corner, start_bad, chunks):
        for seed in range(4):
            batched = GilbertElliottLossModel(seed=seed, **corner)
            scalar = GilbertElliottLossModel(seed=seed, **corner)
            batched._in_bad_state = scalar._in_bad_state = start_bad
            for count in chunks:
                mask = batched.drops_batch(0, count)
                assert mask.dtype == np.bool_ and mask.shape == (count,)
                assert np.array_equal(mask, _per_packet(scalar, count))
                _assert_same_chain(batched, scalar)

    @pytest.mark.parametrize("corner", GE_CORNERS, ids=_corner_id)
    @pytest.mark.parametrize("block", [2, 3, 5, 16])
    def test_tiny_blocks_split_runs_and_flips_anywhere(self, monkeypatch, corner, block):
        # Shrunk blocks put block ends inside runs and between a flip's
        # transition and loss draws.
        monkeypatch.setattr(loss_models, "_RUN_BLOCK", block)
        for seed in range(3):
            batched = GilbertElliottLossModel(seed=seed, **corner)
            scalar = GilbertElliottLossModel(seed=seed, **corner)
            for count in (1, 50, 9):
                assert np.array_equal(batched.drops_batch(0, count), _per_packet(scalar, count))
                _assert_same_chain(batched, scalar)

    @pytest.mark.parametrize(
        "corner", [GE_CORNERS[0], GE_CORNERS[6], GE_CORNERS[7]], ids=_corner_id
    )
    def test_batches_larger_than_a_block(self, corner):
        count = loss_models._RUN_BLOCK + 4321
        batched = GilbertElliottLossModel(seed=11, **corner)
        scalar = GilbertElliottLossModel(seed=11, **corner)
        assert np.array_equal(batched.drops_batch(0, count), _per_packet(scalar, count))
        _assert_same_chain(batched, scalar)
