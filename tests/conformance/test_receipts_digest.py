"""The receipts digest equals the independent VPM2 oracle.

:func:`~repro.reporting.serialization.receipts_digest` streams the ``VPM2``
bytes of its module docstring's layout into BLAKE2b from the receipts'
arrays; :func:`tests.oracle.receipts_codec.encode_receipts` writes the same
layout with ``struct``, one field at a time.  Every conformance scenario,
both mesh cells, a set of hand-built hostile reports and generated reports
must hash identically on both paths.  The committed golden files pin the
digest to receipts written independently of both encoders: each golden's
canonical JSON, read back into reports, digests equal to the live run.  One
hand-built report's digest is pinned as a literal, so any change of layout
must edit this file.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.hop import HOPReport
from repro.core.receipts import AggregateReceipt, PathID, SampleReceipt
from repro.net.hashing import MASK64
from repro.net.prefixes import OriginPrefix, PrefixPair
from repro.reporting.serialization import receipts_digest

from tests.conformance.canon import (
    canonical_receipts,
    reports_from_canonical,
    run_batch_mesh_reports,
    run_batch_reports,
)
from tests.conformance.scenarios import CONFORMANCE_SCENARIOS, MESH_CONFORMANCE_SCENARIOS
from tests.helpers import WINDOW_FORMS, window_as
from tests.oracle.receipts_codec import encode_receipts, oracle_digest

SUBNORMAL = 5e-324
LARGEST_ID = (1 << 64) - 1

COMMITTED_GOLDENS = sorted((Path(__file__).parent / "goldens").glob("*.json"))


def test_every_golden_is_pinned():
    assert len(COMMITTED_GOLDENS) == len(CONFORMANCE_SCENARIOS) + len(
        MESH_CONFORMANCE_SCENARIOS
    )


@pytest.mark.parametrize("path", COMMITTED_GOLDENS, ids=lambda path: path.stem)
def test_digest_matches_committed_golden(path):
    """The live run digests like the committed receipts read back from JSON."""
    golden = json.loads(path.read_text())
    name = golden["scenario"]
    if name in MESH_CONFORMANCE_SCENARIOS:
        reports = run_batch_mesh_reports(MESH_CONFORMANCE_SCENARIOS[name])
    else:
        reports = run_batch_reports(CONFORMANCE_SCENARIOS[name])
    committed = reports_from_canonical(golden["receipts"])
    assert canonical_receipts(committed) == golden["receipts"]
    assert receipts_digest(reports) == receipts_digest(committed) == oracle_digest(committed)


@pytest.mark.parametrize("name", sorted(CONFORMANCE_SCENARIOS))
def test_conformance_scenario(name):
    reports = run_batch_reports(CONFORMANCE_SCENARIOS[name])
    assert receipts_digest(reports) == oracle_digest(reports)


@pytest.mark.parametrize("name", sorted(MESH_CONFORMANCE_SCENARIOS))
def test_mesh_cell(name):
    reports = run_batch_mesh_reports(MESH_CONFORMANCE_SCENARIOS[name])
    assert receipts_digest(reports) == oracle_digest(reports)


def _path_id(prefix_pair, hop: int) -> PathID:
    return PathID(
        prefix_pair=prefix_pair,
        reporting_hop=hop,
        previous_hop=hop - 1,
        next_hop=None,
        max_diff=1e-3,
    )


def _report(prefix_pair, hop: int, threshold: int | None) -> HOPReport:
    path_id = _path_id(prefix_pair, hop)
    window = (LARGEST_ID, 0, 7, LARGEST_ID)
    return HOPReport(
        hop_id=hop,
        sample_receipts=(
            SampleReceipt(
                path_id=path_id,
                samples=(
                    (LARGEST_ID, -0.0),
                    (0, SUBNORMAL),
                    (hop, 2.5),
                ),
                sampling_threshold=threshold,
            ),
            SampleReceipt(path_id=path_id, samples=(), sampling_threshold=threshold),
        ),
        aggregate_receipts=(
            AggregateReceipt(
                path_id=path_id,
                first_pkt_id=LARGEST_ID,
                last_pkt_id=0,
                pkt_count=3,
                start_time=-0.0,
                end_time=SUBNORMAL,
                time_sum=-0.0,
                trans_before=window,
                trans_after=(),
            ),
            AggregateReceipt(
                path_id=path_id,
                first_pkt_id=hop,
                last_pkt_id=hop,
                pkt_count=0,
                start_time=SUBNORMAL,
                end_time=1.0,
                time_sum=SUBNORMAL,
                trans_before=(),
                # The same window again, and once as a list.
                trans_after=list(window),
            ),
        ),
    )


HOSTILE_HOPS = (2, 9, 10, 11, 100)


def test_hop_ids_in_numeric_order(prefix_pair):
    # "10" < "100" < "11" < "2" < "9" as strings; VPM2 orders HOPs by number.
    assert sorted(map(str, HOSTILE_HOPS)) != [str(hop) for hop in sorted(HOSTILE_HOPS)]
    reports = {hop: _report(prefix_pair, hop, threshold=hop * 1000) for hop in HOSTILE_HOPS}
    assert receipts_digest(reports) == oracle_digest(reports)
    encoded = encode_receipts(reports)
    assert struct.unpack_from("<Q", encoded, 4) == (len(HOSTILE_HOPS),)
    framed = [struct.unpack_from("<q", encoded, 12 + 16 * k)[0] for k in range(len(reports))]
    assert framed == sorted(HOSTILE_HOPS)
    string_order = {hop: reports[hop] for hop in sorted(HOSTILE_HOPS, key=str)}
    assert receipts_digest(string_order) == receipts_digest(reports)


def test_pinned_digest(prefix_pair):
    """A literal pin: changing any part of the layout must edit this test."""
    reports = {10: _report(prefix_pair, 10, threshold=None), 3: _report(prefix_pair, 3, 7)}
    assert receipts_digest(reports) == oracle_digest(reports)
    assert receipts_digest(reports) == "fe8696335c91fb0f83f5830b71c7a6f6"


def test_signed_zero_subnormal_and_no_threshold(prefix_pair):
    reports = {10: _report(prefix_pair, 10, threshold=None), 3: _report(prefix_pair, 3, None)}
    assert receipts_digest(reports) == oracle_digest(reports)
    positive_zero = {
        hop: HOPReport(
            hop_id=hop,
            sample_receipts=tuple(
                SampleReceipt(
                    path_id=receipt.path_id,
                    samples=[(pkt_id, abs(time)) for pkt_id, time in receipt.samples.tolist()],
                    sampling_threshold=receipt.sampling_threshold,
                )
                for receipt in report.sample_receipts
            ),
            aggregate_receipts=report.aggregate_receipts,
        )
        for hop, report in reports.items()
    }
    # -0.0 and 0.0 are different bits.
    assert receipts_digest(positive_zero) == oracle_digest(positive_zero)
    assert receipts_digest(positive_zero) != receipts_digest(reports)


def test_reports_without_receipts():
    assert receipts_digest({}) == oracle_digest({})
    empty = {12: HOPReport(hop_id=12), 4: HOPReport(hop_id=4)}
    assert receipts_digest(empty) == oracle_digest(empty)
    assert receipts_digest(empty) != receipts_digest({})


# -- injectivity: moves that keep every concatenation equal --------------------------


def _aggregate(path_id, first: int, before=(), after=(), time_sum=0.5) -> AggregateReceipt:
    return AggregateReceipt(
        path_id=path_id,
        first_pkt_id=first,
        last_pkt_id=first + 1,
        pkt_count=2,
        start_time=0.0,
        end_time=1.0,
        time_sum=time_sum,
        trans_before=before,
        trans_after=after,
    )


def _aggregates(prefix_pair, *aggregates) -> dict[int, HOPReport]:
    path_id = _path_id(prefix_pair, 4)
    return {
        4: HOPReport(
            hop_id=4,
            aggregate_receipts=tuple(_aggregate(path_id, *plan) for plan in aggregates),
        )
    }


def _samples(prefix_pair, *receipts, threshold=9) -> dict[int, HOPReport]:
    path_id = _path_id(prefix_pair, 4)
    return {
        4: HOPReport(
            hop_id=4,
            sample_receipts=tuple(
                SampleReceipt(
                    path_id=path_id,
                    samples=records,
                    sampling_threshold=threshold,
                )
                for records in receipts
            ),
        )
    }


INJECTIVITY = {
    "an id moved between trans_after and trans_before": (
        lambda pair: _aggregates(pair, (1, (3,), (1, 2))),
        lambda pair: _aggregates(pair, (1, (2, 3), (1,))),
    ),
    "a window boundary shifted between adjacent aggregates": (
        lambda pair: _aggregates(pair, (1, (5, 6), (4,)), (3, (), (7, 8))),
        lambda pair: _aggregates(pair, (1, (5,), (4,)), (3, (), (6, 7, 8))),
    ),
    "a record moved between two sample receipts of one HOP": (
        lambda pair: _samples(pair, [(1, 0.5), (2, 0.75)], [(3, 1.0)]),
        lambda pair: _samples(pair, [(1, 0.5)], [(2, 0.75), (3, 1.0)]),
    ),
    "-0.0 against 0.0": (
        lambda pair: _samples(pair, [(1, -0.0)]),
        lambda pair: _samples(pair, [(1, 0.0)]),
    ),
    "threshold 0 against no threshold": (
        lambda pair: _samples(pair, [(1, 0.5)], threshold=0),
        lambda pair: _samples(pair, [(1, 0.5)], threshold=None),
    ),
    "time_sum beyond its tolerance": (
        lambda pair: _aggregates(pair, (1, (), (), 45000.25)),
        lambda pair: _aggregates(pair, (1, (), (), 45000.26)),
    ),
}


@pytest.mark.parametrize("move", sorted(INJECTIVITY))
def test_moves_that_keep_the_concatenation_digest_differently(prefix_pair, move):
    one, other = (build(prefix_pair) for build in INJECTIVITY[move])
    assert canonical_receipts(one) != canonical_receipts(other)
    assert receipts_digest(one) == oracle_digest(one)
    assert receipts_digest(other) == oracle_digest(other)
    assert receipts_digest(one) != receipts_digest(other)


def test_time_sum_inside_its_tolerance_digests_the_same(prefix_pair):
    one = _aggregates(prefix_pair, (1, (), (), 45000.25))
    nudged = _aggregates(prefix_pair, (1, (), (), 45000.25 + 1e-9))
    assert canonical_receipts(one) == canonical_receipts(nudged)
    assert receipts_digest(one) == receipts_digest(nudged) == oracle_digest(nudged)


# -- generated reports ----------------------------------------------------------------
#
# A report plan names its AggTrans windows by index into one shared pool, so
# the same window object recurs within and across HOPs, and the pool always
# holds the empty window and a proper prefix of another window.  Each pool
# window arrives as a tuple, a uint64 array or a non-contiguous view (see
# ``WINDOW_FORMS``).  Ids, packet counts and HOP ids come from small ranges so
# an id equal to some ``pkt_count`` is common, and HOP 2 and HOP 10 sort
# differently as strings than as numbers.

GENERATED_PAIR = PrefixPair(
    source=OriginPrefix.parse("10.1.0.0/16"), destination=OriginPrefix.parse("10.2.0.0/16")
)

small_ids = st.one_of(
    st.integers(min_value=0, max_value=12), st.sampled_from([1 << 63, LARGEST_ID])
)
times = st.one_of(
    st.sampled_from([0.0, -0.0, SUBNORMAL, 1.0]),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False),
)
windows = st.lists(small_ids, min_size=1, max_size=6).flatmap(
    lambda window: st.tuples(
        st.integers(min_value=0, max_value=len(window) - 1),
        st.sampled_from(WINDOW_FORMS),
        st.sampled_from(WINDOW_FORMS),
    ).map(
        # the empty window, a window, and a proper prefix sliced from it
        lambda drawn: [
            window_as((), drawn[2]),
            (full := window_as(window, drawn[1])),
            full[: drawn[0]],
        ]
    )
)
sample_plans = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(min_value=0, max_value=MASK64)),
        st.lists(st.tuples(small_ids, times), max_size=4),
    ),
    max_size=2,
)
aggregate_plans = st.lists(
    st.tuples(
        small_ids,
        small_ids,
        st.integers(min_value=0, max_value=12),
        times,
        times,
        times,
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=0, max_value=8),
    ),
    max_size=3,
)
report_plans = st.tuples(
    st.lists(windows, min_size=1, max_size=3).map(lambda pools: [w for p in pools for w in p]),
    st.dictionaries(
        st.sampled_from([2, 3, 10, 11, 100]),
        st.tuples(sample_plans, aggregate_plans),
        max_size=4,
    ),
)


def build_reports(plan) -> dict[int, HOPReport]:
    pool, hops = plan
    reports = {}
    for hop, (samples, aggregates) in hops.items():
        path_id = _path_id(GENERATED_PAIR, hop)
        reports[hop] = HOPReport(
            hop_id=hop,
            sample_receipts=tuple(
                SampleReceipt(
                    path_id=path_id,
                    samples=records,
                    sampling_threshold=threshold,
                )
                for threshold, records in samples
            ),
            aggregate_receipts=tuple(
                AggregateReceipt(
                    path_id=path_id,
                    first_pkt_id=first,
                    last_pkt_id=last,
                    pkt_count=count,
                    start_time=min(start, end),
                    end_time=max(start, end),
                    time_sum=time_sum,
                    trans_before=pool[before % len(pool)],
                    trans_after=pool[after % len(pool)],
                )
                for first, last, count, start, end, time_sum, before, after in aggregates
            ),
        )
    return reports


_AGGREGATE = (7, 3, 7, 0.0, 1.0, 0.5)
_WIDE_IDS = (0, 9, 10, 1 << 63, LARGEST_ID)


@given(report_plans)
@example(([()], {}))  # no HOPs
@example(([(), (1, 2)], {10: ([], []), 2: ([(None, [])], [])}))  # no aggregates / samples
@example(([(), (5,)], {3: ([], [(*_AGGREGATE, 0, 0)])}))  # empty AggTrans windows
@example(  # one window tuple shared by two HOPs, and a prefix of it
    ([(), (4, 5, 6), (4, 5)], {2: ([], [(*_AGGREGATE, 1, 2)]), 10: ([], [(*_AGGREGATE, 2, 1)])})
)
@example(  # an AggTrans id equal to the pkt_count
    ([(), (7, 12)], {2: ([(9, [(7, 0.25)])], [(*_AGGREGATE, 1, 0)])})
)
@example(  # one non-contiguous view shared by two HOPs, beside a copy of it
    (
        [window_as((), "view"), window_as(_WIDE_IDS, "view"), window_as(_WIDE_IDS, "array")],
        {2: ([], [(*_AGGREGATE, 1, 0)]), 10: ([], [(*_AGGREGATE, 2, 1)])},
    )
)
@example(  # a writable view and a repeated id
    (
        [window_as((10, 9, 10), "writable view"), window_as((), "array")],
        {3: ([], [(*_AGGREGATE, 0, 1)])},
    )
)
def test_generated_reports_match_oracle(plan):
    reports = build_reports(plan)
    assert receipts_digest(reports) == oracle_digest(reports)
    rebuilt = reports_from_canonical(json.loads(json.dumps(canonical_receipts(reports))))
    assert receipts_digest(rebuilt) == receipts_digest(reports)
