"""Coverage of the delay-quantile confidence bounds against simulation truth.

Every record and summary carries ``[lower, upper]`` for each delay quantile,
and the estimator the paper borrows from Sommers et al. [20]
(:mod:`repro.core.estimation`) promises a distribution-free interval at the
stated confidence.  These tests run small honest cells over a fixed seed set,
in two shapes:

* ``fine_batch`` — one path, three congested domains, 5% sampling,
  aggregate 800, estimates for ``X`` and ``N`` (a few hundred matched
  samples per target);
* ``mesh_dispatch`` — a 4-path star mesh through a congested ``X``, 2%
  sampling, aggregate 2000 (about 150 matched samples per path);
* ``bursty_loss`` — ``fine_batch`` with ``X`` losing 10% of its packets in
  bursts of 64 on average;
* ``reordering`` — ``fine_batch`` with ``X`` also reordering 5% of its
  packets within 2 ms.

For each quantile they count the (cell, target) trials whose interval holds
the true quantile of the delays that crossed the domain
(:class:`~repro.api.results.TruthSummary`).

Coverage is a binomial proportion over ``n`` trials, so an honest estimator
may fall below the nominal confidence by chance.  The asserted floor is
``nominal - 3 * sqrt(nominal * (1 - nominal) / n)``; an estimator that meets
its nominal coverage falls below it with probability about 0.1%.  Trials on
the mesh's paths share the congested domain's model but not its packets, so
they count as independent.
"""

from __future__ import annotations

import math
from collections import Counter

import pytest

from repro.api.runner import run_cell
from repro.api.spec import (
    ConditionSpec,
    EstimationSpec,
    ExperimentSpec,
    HOPSpec,
    MeshSpec,
    PathSpec,
    ProtocolSpec,
    TopologySpec,
    TrafficSpec,
)

SEEDS = range(1000, 1030)
QUANTILES = (0.5, 0.75, 0.9, 0.95, 0.99)
#: The verifier's confidence level, which no spec field changes.
CONFIDENCE = 0.95


def _jitter(base: float, std: float) -> dict:
    return {"delay": "jitter", "delay_params": {"base_delay": base, "jitter_std": std}}


def _congested_x() -> ConditionSpec:
    return ConditionSpec(
        **_jitter(1.2e-3, 0.4e-3),
        loss="gilbert-elliott-rate",
        loss_params={"target_rate": 0.02},
    )


def _fine_batch(seed: int, x: ConditionSpec | None = None) -> ExperimentSpec:
    return ExperimentSpec(
        seed=seed,
        traffic=TrafficSpec(workload=None, packet_count=10_000, payload_bytes=8),
        path=PathSpec(
            conditions={
                "L": ConditionSpec(
                    **_jitter(0.5e-3, 0.1e-3),
                    loss="bernoulli",
                    loss_params={"loss_rate": 0.005},
                ),
                "X": x if x is not None else _congested_x(),
                "N": ConditionSpec(
                    **_jitter(0.8e-3, 0.2e-3),
                    loss="bernoulli",
                    loss_params={"loss_rate": 0.01},
                ),
            }
        ),
        protocol=ProtocolSpec(default=HOPSpec(sampling_rate=0.05, aggregate_size=800)),
        estimation=EstimationSpec(observer="L", targets=("X", "N"), quantiles=QUANTILES),
    )


def _mesh_dispatch(seed: int) -> MeshSpec:
    return MeshSpec(
        seed=seed,
        topology=TopologySpec(kind="star", params={"path_count": 4}, seed=0),
        traffic=TrafficSpec(workload=None, packet_count=8_000, payload_bytes=8),
        conditions={"X": _congested_x()},
        protocol=ProtocolSpec(default=HOPSpec(sampling_rate=0.02, aggregate_size=2000)),
        quantiles=QUANTILES,
    )


def _bursty_loss(seed: int) -> ExperimentSpec:
    bursty_x = ConditionSpec(
        **_jitter(1.2e-3, 0.4e-3),
        loss="gilbert-elliott-rate",
        loss_params={"target_rate": 0.1, "mean_burst_length": 64},
    )
    return _fine_batch(seed, bursty_x)


def _reordering(seed: int) -> ExperimentSpec:
    reordering_x = ConditionSpec(
        **_jitter(1.2e-3, 0.4e-3),
        loss="gilbert-elliott-rate",
        loss_params={"target_rate": 0.02},
        reordering="window",
        reordering_params={"window": 0.002, "reorder_probability": 0.05},
    )
    return _fine_batch(seed, reordering_x)


SHAPES = {
    "fine_batch": _fine_batch,
    "mesh_dispatch": _mesh_dispatch,
    "bursty_loss": _bursty_loss,
    "reordering": _reordering,
}


def _targets(result):
    paths = getattr(result, "paths", None)
    if paths is None:
        return result.targets
    return [target for path in paths for target in path.targets]


@pytest.fixture(scope="module")
def coverage() -> dict[str, tuple[Counter, Counter]]:
    """Per shape: (trials, hits) counted by quantile over every seed and target."""
    tallies = {}
    for shape, build in SHAPES.items():
        trials: Counter = Counter()
        hits: Counter = Counter()
        for seed in SEEDS:
            for target in _targets(run_cell(build(seed))):
                for estimate in target.estimate.delay_quantiles:
                    truth = target.truth.delay_quantile(estimate.quantile)
                    trials[estimate.quantile] += 1
                    hits[estimate.quantile] += estimate.lower <= truth <= estimate.upper
        tallies[shape] = (trials, hits)
    return tallies


CLAMP = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="quantile_confidence_bounds clamps the upper rank to count - 1 "
    "(core/estimation.py), so with ~150 samples the q = 0.99 bound is the "
    "largest sample, not an end that holds at the stated confidence",
)


@pytest.mark.parametrize(
    "shape, quantile",
    [
        pytest.param(
            shape,
            quantile,
            marks=CLAMP if (shape, quantile) == ("mesh_dispatch", 0.99) else (),
        )
        for shape in SHAPES
        if shape != "reordering"
        for quantile in QUANTILES
    ],
)
def test_bounds_cover_the_true_quantile(coverage, shape, quantile):
    _assert_covers(coverage, shape, quantile)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the streaming engine records a domain's truth before its "
    "reordering perturbation (engine/streaming.py, _DomainStage.push), while "
    "the egress HOP sees the perturbed time, so the truth X is compared with "
    "lies below the delays its HOPs measure",
)
def test_reordering_bounds_cover_the_true_quantile(coverage):
    for quantile in QUANTILES:
        _assert_covers(coverage, "reordering", quantile)


def _assert_covers(coverage, shape: str, quantile: float) -> None:
    trials, hits = coverage[shape]
    n = trials[quantile]
    assert n >= 40, f"{shape}: only {n} trials at q={quantile}"
    floor = CONFIDENCE - 3.0 * math.sqrt(CONFIDENCE * (1.0 - CONFIDENCE) / n)
    observed = hits[quantile] / n
    assert observed >= floor, (
        f"{shape}: [lower, upper] held the true q={quantile} delay in "
        f"{hits[quantile]}/{n} trials ({observed:.1%}), below the floor {floor:.1%}"
    )
