"""Property-based tests for receipt alignment (the join of Section 6.1, the patch-up of 6.3)."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.core.partition import aligned_aggregates
from repro.core.receipts import AggregateReceipt, PathID, combine_aggregate_receipts
from repro.net.prefixes import OriginPrefix, PrefixPair


# -- receipt alignment against the combine-everything, intersect-everything form ------

_PATH_ID = PathID(
    prefix_pair=PrefixPair(
        source=OriginPrefix.parse("10.1.0.0/16"), destination=OriginPrefix.parse("10.2.0.0/16")
    ),
    reporting_hop=4,
    previous_hop=3,
    next_hop=5,
    max_diff=1e-3,
)

# A tiny id pool, so one id lands on both sides of a cut and windows repeat.
_windows = st.lists(st.integers(min_value=0, max_value=6), max_size=4).map(tuple)


def _reference_alignment(upstream, downstream):
    """Every group combined and every window pair intersected."""
    upstream_boundaries = [receipt.first_pkt_id for receipt in upstream[1:]]
    downstream_boundaries = {receipt.first_pkt_id for receipt in downstream[1:]}
    common = [b for b in upstream_boundaries if b in downstream_boundaries]

    def groups(receipts):
        grouped, position = [[]], 0
        for index, receipt in enumerate(receipts):
            if index and position < len(common) and receipt.first_pkt_id == common[position]:
                grouped.append([])
                position += 1
            grouped[-1].append(receipt)
        return grouped

    up_groups, down_groups = groups(upstream), groups(downstream)
    if len(up_groups) != len(down_groups):
        up_groups, down_groups, common = [list(upstream)], [list(downstream)], []
    ups = [combine_aggregate_receipts(group) for group in up_groups]
    downs = [combine_aggregate_receipts(group) for group in down_groups]
    migrations = [0] * len(downs)
    for index in range(len(common)):
        delta = len(set(ups[index].trans_before).intersection(downs[index].trans_after)) - len(
            set(ups[index].trans_after).intersection(downs[index].trans_before)
        )
        migrations[index] += delta
        migrations[index + 1] -= delta
    return [
        (up, down.with_count(down.pkt_count + moved), moved)
        for up, down, moved in zip(ups, downs, migrations)
    ]


@st.composite
def receipt_streams(draw):
    """Upstream receipts and a downstream view that lost some cutting points.

    Each downstream receipt either copies the windows of the upstream receipt
    ending at the same cut or carries its own.
    """
    size = draw(st.integers(min_value=1, max_value=6))
    firsts = sorted(
        draw(st.sets(st.integers(min_value=10, max_value=99), min_size=size, max_size=size))
    )
    upstream = [
        AggregateReceipt(
            path_id=_PATH_ID,
            first_pkt_id=first,
            last_pkt_id=first,
            pkt_count=draw(st.integers(min_value=0, max_value=9)),
            start_time=float(index),
            end_time=float(index) + 0.5,
            time_sum=draw(st.floats(min_value=0.0, max_value=9.0)),
            trans_before=draw(_windows),
            trans_after=draw(_windows),
        )
        for index, first in enumerate(firsts)
    ]
    kept = [0] + [index for index in range(1, size) if draw(st.booleans())] + [size]
    downstream = []
    for start, end in zip(kept, kept[1:]):
        last = upstream[end - 1]
        copied = draw(st.booleans())
        downstream.append(
            AggregateReceipt(
                path_id=_PATH_ID,
                first_pkt_id=upstream[start].first_pkt_id,
                last_pkt_id=last.last_pkt_id,
                # at least the 8 packets two boundaries can migrate out
                pkt_count=draw(st.integers(min_value=8, max_value=20)),
                start_time=upstream[start].start_time,
                end_time=last.end_time,
                time_sum=draw(st.floats(min_value=0.0, max_value=9.0)),
                trans_before=last.trans_before if copied else draw(_windows),
                trans_after=last.trans_after if copied else draw(_windows),
            )
        )
    return upstream, downstream


class TestReceiptAlignment:
    @given(receipt_streams())
    def test_matches_reference_alignment(self, streams):
        upstream, downstream = streams
        aligned = [
            (pair.upstream, pair.downstream, pair.migrated_packets)
            for pair in aligned_aggregates(upstream, downstream)
        ]
        assert aligned == _reference_alignment(upstream, downstream)

    def test_equal_windows_with_an_id_on_both_sides_migrate_nothing(self):
        receipt = AggregateReceipt(
            path_id=_PATH_ID,
            first_pkt_id=1,
            last_pkt_id=1,
            pkt_count=3,
            trans_before=(7, 8),
            trans_after=(7, 9),
        )
        after = AggregateReceipt(path_id=_PATH_ID, first_pkt_id=2, last_pkt_id=2, pkt_count=3)
        pairs = aligned_aggregates([receipt, after], [receipt, after])
        assert [pair.migrated_packets for pair in pairs] == [0, 0]
        assert pairs[0].upstream is receipt


def _cut_receipts(draw, size):
    """The loss-free receipts of packets ``1..size`` cut at random points."""
    later = st.sets(st.integers(min_value=2, max_value=size), max_size=size)
    cuts = sorted(draw(later) | {1}) if size > 1 else [1]
    bounds = cuts + [size + 1]
    return [
        AggregateReceipt(
            path_id=_PATH_ID,
            first_pkt_id=start,
            last_pkt_id=end - 1,
            pkt_count=end - start,
            start_time=float(start),
            end_time=float(end - 1),
        )
        for start, end in zip(bounds, bounds[1:])
    ]


@st.composite
def cut_streams(draw):
    """Packets ``1..size`` cut two ways, as the loss-free receipts of two HOPs."""
    size = draw(st.integers(min_value=1, max_value=30))
    return size, _cut_receipts(draw, size), _cut_receipts(draw, size)


@st.composite
def cut_triples(draw):
    size = draw(st.integers(min_value=1, max_value=20))
    return tuple(_cut_receipts(draw, size) for _ in range(3))


def _join(upstream, downstream):
    """The joined partition, as the upstream HOP's combined receipts."""
    return [pair.upstream for pair in aligned_aggregates(upstream, downstream)]


def _cuts(receipts):
    return {receipt.first_pkt_id for receipt in receipts}


def _spans(receipts):
    return [(receipt.first_pkt_id, receipt.last_pkt_id, receipt.pkt_count) for receipt in receipts]


class TestPartitionInvariants:
    """The join algebra of Section 6.1, computed from receipts by the live alignment."""

    @given(cut_streams())
    def test_partition_preserves_items(self, streams):
        size, upstream, downstream = streams
        pairs = aligned_aggregates(upstream, downstream)
        for side in ([pair.upstream for pair in pairs], [pair.downstream for pair in pairs]):
            assert sum(receipt.pkt_count for receipt in side) == size
            assert [receipt.first_pkt_id for receipt in side[1:]] == [
                receipt.last_pkt_id + 1 for receipt in side[:-1]
            ]
            assert side[0].first_pkt_id == 1 and side[-1].last_pkt_id == size

    @given(cut_streams())
    def test_join_is_coarser_than_both_inputs(self, streams):
        _, upstream, downstream = streams
        joined = _join(upstream, downstream)
        for stream in (upstream, downstream):
            assert _cuts(joined) <= _cuts(stream)
            for receipt in joined:
                inside = [
                    part
                    for part in stream
                    if receipt.first_pkt_id <= part.first_pkt_id <= receipt.last_pkt_id
                ]
                assert inside[0].first_pkt_id == receipt.first_pkt_id
                assert inside[-1].last_pkt_id == receipt.last_pkt_id
                assert sum(part.pkt_count for part in inside) == receipt.pkt_count

    @given(cut_streams())
    def test_join_is_commutative(self, streams):
        _, upstream, downstream = streams
        forward = aligned_aggregates(upstream, downstream)
        backward = aligned_aggregates(downstream, upstream)
        assert [(pair.upstream, pair.downstream) for pair in forward] == [
            (pair.downstream, pair.upstream) for pair in backward
        ]

    @given(cut_streams())
    def test_join_is_idempotent(self, streams):
        _, upstream, downstream = streams
        joined = _join(upstream, downstream)
        assert _join(joined, joined) == joined
        assert _join(upstream, upstream) == upstream

    @given(cut_streams())
    def test_join_absorbs_coarser_partition(self, streams):
        """If A is coarser than B, Join(A, B) == A (receipt for receipt)."""
        _, upstream, downstream = streams
        coarser = _join(upstream, downstream)
        assert _join(coarser, upstream) == coarser
        assert _spans(_join(upstream, coarser)) == _spans(coarser)

    @given(cut_triples())
    def test_join_is_associative(self, triple):
        a, b, c = triple
        assert _spans(_join(_join(a, b), c)) == _spans(_join(a, _join(b, c)))

    @given(cut_streams())
    def test_join_is_finest_common_coarsening(self, streams):
        """Join(A, B) keeps exactly the cutting points A and B share."""
        size, upstream, downstream = streams
        pairs = aligned_aggregates(upstream, downstream)
        assert [pair.upstream.first_pkt_id for pair in pairs] == sorted(
            _cuts(upstream) & _cuts(downstream)
        )
        for pair in pairs:
            up, down = pair.upstream, pair.downstream
            assert (up.first_pkt_id, up.last_pkt_id) == (down.first_pkt_id, down.last_pkt_id)
            assert pair.lost_packets == 0 and pair.migrated_packets == 0
        assert sum(pair.upstream.pkt_count for pair in pairs) == size
