"""Property tests: collector state carried across chunk boundaries.

Between ``observe_batch`` calls the aggregator carries its J-window and
pending AggTrans windows as arrays, and the sampler its TempBuffer; the
aggregator's peak window occupancy comes from a lag test, not a search per
packet.  These tests feed the edge cases of that carry — timestamp ties,
``J = 0``, empty and one-packet chunks, windows that span many chunks,
scalar ``observe`` calls between batches — and require exactly the state of
the scalar loop, and the occupancy a brute-force count gives.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.aggregation import Aggregator, AggregatorConfig
from repro.core.sampling import DelaySampler, SamplerConfig

#: Times and J sit on a binary grid, so ``t - J`` is exact and packets land
#: exactly on the window's edge.
TICK = 2.0**-17

#: A feed plan: (fed by scalar ``observe`` calls?, chunk size) per chunk.
plans = st.lists(
    st.tuples(
        st.booleans(),
        st.one_of(st.integers(min_value=0, max_value=6), st.integers(60, 150)),
    ),
    min_size=1,
    max_size=30,
)


def brute_force_peak(times: np.ndarray, window: float) -> int:
    """Most packets ever in the window: after packet i, those in [t_i - J, t_i]."""
    return max(
        (
            int(np.sum(times[: index + 1] >= times[index] - window))
            for index in range(len(times))
        ),
        default=0,
    )


def feed(collector, digests: np.ndarray, times: np.ndarray, plan) -> None:
    index = 0
    for scalar, size in plan:
        chunk = slice(index, index + size)
        if scalar:
            for digest, moment in zip(digests[chunk].tolist(), times[chunk].tolist()):
                collector.observe(digest, moment)
        else:
            collector.observe_batch(digests[chunk], times[chunk])
        index += size


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    plan=plans,
    window_ticks=st.integers(min_value=0, max_value=12),
    max_gap=st.integers(min_value=0, max_value=3),
    aggregate_size=st.integers(min_value=2, max_value=40),
    marker_rate=st.floats(min_value=0.02, max_value=0.4),
)
@settings(max_examples=80, deadline=None)
# A 10-tick window over one- and two-packet chunks spans at least three chunks.
@example(
    seed=3,
    plan=[(False, 1), (False, 2), (False, 0), (True, 1), (False, 1), (False, 2)] * 4,
    window_ticks=10,
    max_gap=2,
    aggregate_size=4,
    marker_rate=0.2,
)
# J = 0 with every timestamp tied: the window holds exactly the ties so far.
@example(
    seed=5,
    plan=[(False, 90), (True, 3), (False, 0), (False, 70)],
    window_ticks=0,
    max_gap=0,
    aggregate_size=5,
    marker_rate=0.1,
)
def test_chunked_carry_matches_scalar_loop(
    seed, plan, window_ticks, max_gap, aggregate_size, marker_rate
):
    rng = np.random.default_rng(seed)
    count = sum(size for _, size in plan)
    digests = rng.integers(0, 1 << 64, size=count, dtype=np.uint64)
    # Gaps of 0 ticks make ties; max_gap=0 ties every timestamp.
    times = np.cumsum(rng.integers(0, max_gap + 1, size=count)) * TICK
    window = window_ticks * TICK

    aggregator_config = AggregatorConfig(
        expected_aggregate_size=aggregate_size, reorder_window=window
    )
    sampler_config = SamplerConfig(
        sampling_rate=min(1.0, 2 * marker_rate), marker_rate=marker_rate
    )

    def collectors():
        return Aggregator(aggregator_config), DelaySampler(sampler_config)

    oracle, chunked = collectors(), collectors()
    for collector in oracle:
        feed(collector, digests, times, [(True, count)])
    for collector in chunked:
        feed(collector, digests, times, plan)

    for expected, actual in zip(oracle, chunked):
        assert actual.state_digest() == expected.state_digest()
    aggregator = chunked[0]
    assert aggregator._max_window_occupancy == oracle[0]._max_window_occupancy
    assert aggregator._max_window_occupancy == brute_force_peak(times, window)

    # Flushing boxes the carried window into the last receipt's AggTrans.
    oracle[0].flush()
    aggregator.flush()
    assert aggregator.state_digest() == oracle[0].state_digest()
