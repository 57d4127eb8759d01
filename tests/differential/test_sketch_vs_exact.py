"""Sketch-vs-exact differential assertions over the conformance scenarios.

Each conformance scenario (the same pinned cells the goldens freeze) is
executed once in exact mode; its decoded matched-delay samples are the
ground truth every sketch assertion here runs against:

* the sketch's quantile estimates land within the documented bound
  ``alpha * max(|x_floor(rank)|, |x_ceil(rank)|)`` for every scenario,
  domain, size budget, and a dense quantile grid;
* merging is grouping- and order-invariant byte-for-byte (arbitrary shard
  groupings converge on one ``state_digest()``);
* a sketch-mode campaign killed after *any* interval and resumed is
  byte-identical to the uninterrupted run;
* the sketch state a sketch-mode campaign record commits is exactly the
  sketch of the exact-mode samples (the end-to-end wiring adds nothing).

A hypothesis-generated distribution matrix (heavy tails, duplicates,
sorted/reverse-sorted, mixed signs, zeros) extends the bound check beyond
what the pinned scenarios exercise.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.sketch import DEFAULT_SKETCH_SIZE, DelayQuantileSketch
from repro.api.spec import CampaignSpec, SLATargetSpec
from repro.engine.campaign import CampaignRunner, interval_record
from repro.store import RunStore
from tests.conformance.scenarios import (
    CONFORMANCE_SCENARIOS,
    MESH_CONFORMANCE_SCENARIOS,
)

ALL_SCENARIOS = {**CONFORMANCE_SCENARIOS, **MESH_CONFORMANCE_SCENARIOS}

SIZES = (8, 64, DEFAULT_SKETCH_SIZE)

#: Dense grid including the extremes and the tails both SLAs and reports use.
QUANTILE_GRID = (0.0, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0)


@lru_cache(maxsize=None)
def _scenario_record(name: str) -> dict:
    """The exact-mode interval-0 record of one conformance scenario."""
    cell = ALL_SCENARIOS[name]
    spec = CampaignSpec(name=f"differential-{name}", intervals=1, cell=cell)
    return interval_record(spec, 0)


def _scenario_delays(name: str) -> dict[str, np.ndarray]:
    """Ground truth: decoded matched-delay samples per domain."""
    return {
        domain: np.array([float.fromhex(value) for value in hexes])
        for domain, hexes in _scenario_record(name)["delay_samples"].items()
    }


def _bound(ordered: np.ndarray, quantile: float, alpha: float) -> float:
    """The documented worst-case error: alpha * max|bracketing statistics|."""
    rank = quantile * (len(ordered) - 1)
    low = ordered[int(math.floor(rank))]
    high = ordered[int(math.ceil(rank))]
    return alpha * max(abs(low), abs(high))


def assert_sketch_within_bound(samples: np.ndarray, size: int) -> None:
    sketch = DelayQuantileSketch(size, samples)
    ordered = np.sort(samples)
    estimates = sketch.quantiles(QUANTILE_GRID)
    for quantile in QUANTILE_GRID:
        exact = float(np.quantile(ordered, quantile))
        bound = _bound(ordered, quantile, sketch.relative_accuracy)
        error = abs(estimates[quantile] - exact)
        assert error <= bound * (1 + 1e-9) + 1e-18, (
            f"size={size} q={quantile}: error {error} exceeds bound {bound} "
            f"(exact {exact}, sketch {estimates[quantile]})"
        )


# -- error bound on every conformance golden -------------------------------------------


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("name", sorted(ALL_SCENARIOS))
def test_sketch_quantiles_within_bound_on_golden_scenarios(name, size):
    delays = _scenario_delays(name)
    assert delays, f"scenario {name} produced no target domains"
    checked = 0
    for domain, samples in sorted(delays.items()):
        if not len(samples):
            continue
        assert_sketch_within_bound(samples, size)
        checked += 1
    assert checked, f"scenario {name} produced no delay samples to compare"


# -- merge grouping invariance ---------------------------------------------------------


def _grouped_digest(
    spans: list[np.ndarray], order: list[int], size: int, pairwise: bool
) -> str:
    sketches = [DelayQuantileSketch(size, spans[i]) for i in order]
    if pairwise:  # balanced tree reduction
        while len(sketches) > 1:
            sketches = [
                sketches[i].merge(sketches[i + 1])
                if i + 1 < len(sketches)
                else sketches[i]
                for i in range(0, len(sketches), 2)
            ]
        return sketches[0].state_digest()
    merged = DelayQuantileSketch(size)
    for sketch in sketches:
        merged.merge(sketch)
    return merged.state_digest()


@pytest.mark.parametrize("name", sorted(ALL_SCENARIOS))
def test_merge_is_grouping_and_order_invariant_byte_for_byte(name):
    delays = _scenario_delays(name)
    domain = max(delays, key=lambda key: len(delays[key]))
    samples = delays[domain]
    assert len(samples) >= 8, f"scenario {name} too small to shard meaningfully"
    spans = np.array_split(samples, 8)
    size = 128
    reference = DelayQuantileSketch(size, samples).state_digest()
    orders = [
        list(range(8)),
        list(range(7, -1, -1)),
        [3, 0, 6, 1, 7, 2, 5, 4],
    ]
    digests = {
        _grouped_digest(spans, order, size, pairwise)
        for order in orders
        for pairwise in (False, True)
    }
    assert digests == {reference}


# -- end-to-end: the committed sketch state IS the sketch of the exact samples ---------


def _sketch_variant(name: str, size: int):
    cell = ALL_SCENARIOS[name]
    if name in MESH_CONFORMANCE_SCENARIOS:
        overrides = {"estimation_mode": "sketch", "sketch_size": size}
    else:
        overrides = {"estimation.mode": "sketch", "estimation.sketch_size": size}
    return cell.with_overrides(overrides)


@pytest.mark.parametrize("name", ["delay-honest", "loss-lying", "mesh-honest"])
def test_sketch_mode_record_commits_the_sketch_of_the_exact_samples(name):
    size = 128
    spec = CampaignSpec(
        name=f"differential-{name}-sketch",
        intervals=1,
        cell=_sketch_variant(name, size),
    )
    record = interval_record(spec, 0)
    assert "delay_samples" not in record
    exact = _scenario_delays(name)
    assert sorted(record["delay_sketch"]) == sorted(exact)
    for domain, state in record["delay_sketch"].items():
        rebuilt = DelayQuantileSketch.from_state(state)
        direct = DelayQuantileSketch(size, exact[domain])
        assert rebuilt.state_digest() == direct.state_digest()
        assert len(rebuilt) == len(exact[domain])
    # the estimates/verdicts payloads are mode-independent (computed from
    # the same interval execution), so the sketch record must agree with
    # the exact record on them
    exact_record = _scenario_record(name)
    assert record["estimates"] == exact_record["estimates"]
    assert record["verdicts"] == exact_record["verdicts"]
    assert record["receipts_digest"] == exact_record["receipts_digest"]


# -- kill-anywhere sketch-mode campaign resume -----------------------------------------


def _campaign_spec(name: str, intervals: int, size: int) -> CampaignSpec:
    return CampaignSpec(
        name=f"differential-{name}-campaign",
        intervals=intervals,
        cell=_sketch_variant(name, size),
        sla=SLATargetSpec(delay_bound=8e-3, delay_quantile=0.9, loss_bound=0.2),
    )


def _store_files(store: RunStore) -> dict[str, bytes]:
    return {
        file: (store.path / file).read_bytes()
        for file in ("spec.json", "records.jsonl", "summary.json")
    }


def test_sketch_mode_resume_is_byte_identical_at_every_kill_point(tmp_path):
    intervals = 4
    spec = _campaign_spec("delay-honest", intervals, 64)

    uninterrupted = RunStore.create(tmp_path / "uninterrupted", spec)
    CampaignRunner(spec, uninterrupted).run()
    assert uninterrupted.record_count == uninterrupted.spec().intervals

    for record in uninterrupted.records():
        assert "delay_samples" not in record
        assert set(record["delay_sketch"]) == {"X"}

    for kill_after in range(intervals):
        path = tmp_path / f"killed-at-{kill_after}"
        store = RunStore.create(path, spec)
        CampaignRunner(spec, store).run(max_intervals=kill_after)
        # "die", reopen, resume to completion on a different engine
        resumed = RunStore.open(path)
        CampaignRunner.resume(resumed, engine="streaming", chunk_size=64).run()
        final = RunStore.open(path)
        assert final.record_count == final.spec().intervals
        assert final.digest() == uninterrupted.digest()
        assert _store_files(final) == _store_files(uninterrupted)


# -- hypothesis distribution matrix ----------------------------------------------------


_SCALES = (1e-6, 1e-3, 1.0, 1e3)


@st.composite
def _delay_distribution(draw) -> np.ndarray:
    """Adversarial sample shapes beyond what the pinned scenarios produce."""
    kind = draw(
        st.sampled_from(
            ["lognormal-heavy", "duplicates", "sorted", "reverse", "mixed-signs"]
        )
    )
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    count = draw(st.integers(min_value=1, max_value=400))
    scale = draw(st.sampled_from(_SCALES))
    rng = np.random.default_rng(seed)
    if kind == "lognormal-heavy":
        samples = rng.lognormal(0.0, 3.0, count) * scale
    elif kind == "duplicates":
        samples = rng.choice(rng.lognormal(0.0, 1.0, 5) * scale, size=count)
    elif kind == "sorted":
        samples = np.sort(rng.lognormal(0.0, 2.0, count)) * scale
    elif kind == "reverse":
        samples = np.sort(rng.lognormal(0.0, 2.0, count))[::-1] * scale
    else:  # mixed-signs (clock skew) with exact zeros
        samples = rng.normal(0.0, scale, count)
        samples[rng.random(count) < 0.1] = 0.0
    return samples


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(samples=_delay_distribution(), size=st.sampled_from(SIZES))
def test_sketch_bound_holds_on_generated_distribution_matrix(samples, size):
    assert_sketch_within_bound(samples, size)
