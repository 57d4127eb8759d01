"""Truth and empirical quantile helpers take one ``np.quantile`` call per array.

Each helper asks numpy for every quantile at once; the result must equal the
per-quantile ``np.quantile`` floats bit for bit (the stores hex-encode them).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.quantiles import empirical_quantiles
from repro.baselines.base import quantiles_from_delays
from repro.engine.streaming import StreamingTruth

from tests.oracle.objects import DomainGroundTruth

QUANTILES = (0.0, 0.05, 0.5, 0.9, 0.95, 0.99, 1.0)

ARRAYS = {
    "ties": [1e-3] * 5 + [2e-3] * 5 + [3e-3],
    "all_zero": [0.0] * 7,
    "single": [4.2e-3],
    "heavy_tail": (np.random.default_rng(3).pareto(1.1, size=501) * 1e-4).tolist(),
}


def per_quantile(values, quantiles) -> dict[float, str]:
    array = np.asarray(values, dtype=float)
    return {quantile: float(np.quantile(array, quantile)).hex() for quantile in quantiles}


def streaming_truth(values, quantiles):
    truth = StreamingTruth(domain="X")
    truth.record(np.zeros(len(values)), np.asarray(values, dtype=float), lost=0)
    return truth.delay_quantiles(quantiles)


def scenario_truth(values, quantiles):
    truth = DomainGroundTruth(
        domain="X", delivered={uid: (0.0, value) for uid, value in enumerate(values)}
    )
    return truth.delay_quantiles(quantiles)


HELPERS = {
    "streaming_truth": streaming_truth,
    "scenario_truth": scenario_truth,
    "quantiles_from_delays": quantiles_from_delays,
    "empirical_quantiles": empirical_quantiles,
}


def as_hex(result: dict[float, float]) -> dict[float, str]:
    assert all(type(value) is float for value in result.values())
    return {quantile: value.hex() for quantile, value in result.items()}


@pytest.mark.parametrize("helper", sorted(HELPERS))
@pytest.mark.parametrize("array", sorted(ARRAYS))
def test_equals_per_quantile_calls(helper, array):
    values = ARRAYS[array]
    assert as_hex(HELPERS[helper](values, QUANTILES)) == per_quantile(values, QUANTILES)


@pytest.mark.parametrize("helper", sorted(HELPERS))
@given(
    values=st.lists(
        st.one_of(
            st.just(0.0),
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False),
        ),
        min_size=1,
        max_size=60,
    ),
    quantiles=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6),
)
def test_generated_arrays_equal_per_quantile_calls(helper, values, quantiles):
    assert as_hex(HELPERS[helper](values, quantiles)) == per_quantile(values, quantiles)


def test_empirical_quantiles_still_validates_every_quantile():
    with pytest.raises(ValueError):
        empirical_quantiles([1.0, 2.0], [0.5, 1.5])
    with pytest.raises(ValueError):
        empirical_quantiles([], [0.5])
