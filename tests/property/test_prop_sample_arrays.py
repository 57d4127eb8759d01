"""The array forms of the sample-receipt operations against their dict readings.

:func:`~repro.core.receipts.combine_sample_receipts`,
:func:`~repro.core.estimation.match_sample_delays` and
:func:`~repro.core.consistency.check_sample_consistency` work on the
``(pkt_id, time)`` columns; ``tests/oracle/samples.py`` reads the same
operations through dicts keyed by packet ID.  Outputs must agree bit for bit
and findings in order, on inputs built to be awkward: IDs repeated within and
across receipts, time ties, ``±0.0``, subnormals, empty receipts, and both
directions of the sampling-threshold superset rule.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.consistency import check_sample_consistency
from repro.core.estimation import match_sample_delays
from repro.core.receipts import PathID, SampleReceipt, combine_sample_receipts
from repro.net.hashing import MASK64
from repro.net.prefixes import OriginPrefix, PrefixPair
from tests.oracle.samples import (
    reference_check_sample_consistency,
    reference_combine_sample_receipts,
    reference_match_sample_delays,
)

PAIR = PrefixPair(
    source=OriginPrefix.parse("10.1.0.0/16"), destination=OriginPrefix.parse("10.2.0.0/16")
)
UPSTREAM = PathID(prefix_pair=PAIR, reporting_hop=5, previous_hop=4, next_hop=6, max_diff=1e-3)
DOWNSTREAM = PathID(prefix_pair=PAIR, reporting_hop=6, previous_hop=5, next_hop=7, max_diff=1e-3)

# A small ID pool makes repeats and shared IDs common; the extremes are in it.
ids = st.sampled_from([0, 1, 2, 3, 7, 1 << 63, MASK64])
# A small time pool makes ties common; any finite double can also appear.
times = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-3, 1.0005e-3, 1.0, 1.7e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
records = st.lists(st.tuples(ids, times), max_size=12)
thresholds = st.one_of(st.none(), st.sampled_from([10, 1 << 40, MASK64]))


def _receipt(path_id, samples, threshold=None) -> SampleReceipt:
    return SampleReceipt(path_id=path_id, samples=samples, sampling_threshold=threshold)


def _same_samples(left: SampleReceipt, right: SampleReceipt) -> bool:
    """Equal receipts with bit-identical records (so ``-0.0`` differs from ``0.0``)."""
    return left == right and left.samples.tobytes() == right.samples.tobytes()


@settings(max_examples=300, deadline=None)
@given(receipts=st.lists(records, min_size=1, max_size=4), threshold=thresholds)
def test_combine_matches_the_dict_reading(receipts, threshold):
    receipts = [_receipt(UPSTREAM, samples, threshold) for samples in receipts]
    combined = combine_sample_receipts(receipts)
    assert _same_samples(combined, reference_combine_sample_receipts(receipts))
    assert not combined.samples.flags.writeable


@settings(max_examples=300, deadline=None)
@given(ingress=records, egress=records)
def test_match_delays_matches_the_dict_reading(ingress, egress):
    ingress, egress = _receipt(UPSTREAM, ingress), _receipt(DOWNSTREAM, egress)
    delays = match_sample_delays(ingress, egress)
    expected = reference_match_sample_delays(ingress, egress)
    assert delays.dtype == expected.dtype
    assert delays.tobytes() == expected.tobytes()


@settings(max_examples=400, deadline=None)
@given(
    upstream=records,
    downstream=records,
    up_threshold=thresholds,
    down_threshold=thresholds,
    down_max_diff=st.sampled_from([1e-3, 2e-3]),
)
def test_consistency_matches_the_dict_reading(
    upstream, downstream, up_threshold, down_max_diff, down_threshold
):
    upstream = _receipt(UPSTREAM, upstream, up_threshold)
    downstream = _receipt(
        dataclasses.replace(DOWNSTREAM, max_diff=down_max_diff), downstream, down_threshold
    )
    findings = check_sample_consistency(upstream, downstream)
    assert findings == reference_check_sample_consistency(upstream, downstream)
    assert all(type(finding.pkt_id) in (int, type(None)) for finding in findings)


@settings(max_examples=200, deadline=None)
@given(upstream=records, downstream=records)
def test_consistency_of_combined_receipts_matches_in_both_superset_directions(
    upstream, downstream
):
    """Verifier inputs: combined receipts, the downstream HOP sampling a
    superset, then a subset, of the upstream's."""
    for up_threshold, down_threshold in ((1 << 40, 10), (10, 1 << 40)):
        up = combine_sample_receipts([_receipt(UPSTREAM, upstream, up_threshold)])
        down = combine_sample_receipts([_receipt(DOWNSTREAM, downstream, down_threshold)])
        assert check_sample_consistency(up, down) == reference_check_sample_consistency(up, down)
