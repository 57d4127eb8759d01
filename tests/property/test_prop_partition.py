"""Property-based tests for the partition algebra (Section 6.1) and receipt alignment."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.core.partition import (
    PartitionSet,
    aligned_aggregates,
    is_coarser,
    join_partitions,
)
from repro.core.receipts import AggregateReceipt, PathID, combine_aggregate_receipts
from repro.net.prefixes import OriginPrefix, PrefixPair


@st.composite
def partition_pair(draw):
    """Two random partitions of the same ordered packet set."""
    size = draw(st.integers(min_value=1, max_value=30))
    items = tuple(range(size))

    def random_partition() -> PartitionSet:
        cuts = draw(
            st.sets(st.integers(min_value=1, max_value=size - 1), max_size=size)
        ) if size > 1 else set()
        return PartitionSet.from_cut_indices(items, cuts)

    return random_partition(), random_partition()


@st.composite
def partition_triple(draw):
    size = draw(st.integers(min_value=1, max_value=20))
    items = tuple(range(size))
    partitions = []
    for _ in range(3):
        cuts = draw(
            st.sets(st.integers(min_value=1, max_value=size - 1), max_size=size)
        ) if size > 1 else set()
        partitions.append(PartitionSet.from_cut_indices(items, cuts))
    return tuple(partitions)


class TestPartitionInvariants:
    @given(partition_pair())
    def test_partition_preserves_items(self, pair):
        a, b = pair
        assert a.items == b.items
        assert sum(len(aggregate) for aggregate in a) == len(a.items)

    @given(partition_pair())
    def test_join_is_coarser_than_both_inputs(self, pair):
        a, b = pair
        joined = join_partitions(a, b)
        assert is_coarser(joined, a)
        assert is_coarser(joined, b)

    @given(partition_pair())
    def test_join_is_commutative(self, pair):
        a, b = pair
        assert join_partitions(a, b) == join_partitions(b, a)

    @given(partition_pair())
    def test_join_is_idempotent(self, pair):
        a, b = pair
        joined = join_partitions(a, b)
        assert join_partitions(joined, joined) == joined
        assert join_partitions(a, a) == a

    @given(partition_pair())
    def test_join_absorbs_coarser_partition(self, pair):
        """If A is coarser than B, Join(A, B) == A."""
        a, b = pair
        if is_coarser(a, b):
            assert join_partitions(a, b) == a

    @given(partition_triple())
    def test_join_is_associative(self, triple):
        a, b, c = triple
        assert join_partitions(join_partitions(a, b), c) == join_partitions(
            a, join_partitions(b, c)
        )

    @given(partition_pair())
    def test_join_is_finest_common_coarsening(self, pair):
        """No strictly finer partition than the join is coarser than both inputs.

        Equivalent formulation: the join's cut set is exactly the intersection
        of the inputs' cut sets, so any common coarsening must be coarser than
        (or equal to) the join.
        """
        a, b = pair
        joined = join_partitions(a, b)
        assert set(joined.cut_indices) == set(a.cut_indices) & set(b.cut_indices)

    @given(partition_pair())
    def test_coarser_relation_antisymmetric(self, pair):
        a, b = pair
        if is_coarser(a, b) and is_coarser(b, a):
            assert a == b

    @given(partition_triple())
    def test_coarser_relation_transitive(self, triple):
        a, b, c = triple
        if is_coarser(a, b) and is_coarser(b, c):
            assert is_coarser(a, c)


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
