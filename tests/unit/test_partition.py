"""Unit tests for repro.core.partition (receipt alignment)."""

from __future__ import annotations

import pytest

from repro.core.partition import AlignedAggregates, aligned_aggregates
from repro.core.receipts import AggregateReceipt, PathID


def align_pairs(upstream, downstream):
    """The (upstream, downstream) receipt pairs of :func:`aligned_aggregates`."""
    return [(pair.upstream, pair.downstream) for pair in aligned_aggregates(upstream, downstream)]


@pytest.fixture()
def path_id(prefix_pair) -> PathID:
    return PathID(
        prefix_pair=prefix_pair, reporting_hop=4, previous_hop=3, next_hop=5, max_diff=1e-3
    )


def make_receipt(
    path_id: PathID,
    first: int,
    last: int,
    count: int,
    start: float,
    end: float,
    trans_before: tuple[int, ...] = (),
    trans_after: tuple[int, ...] = (),
) -> AggregateReceipt:
    return AggregateReceipt(
        path_id=path_id,
        first_pkt_id=first,
        last_pkt_id=last,
        pkt_count=count,
        start_time=start,
        end_time=end,
        time_sum=count * (start + end) / 2,
        trans_before=trans_before,
        trans_after=trans_after,
    )


def cut_at(path_id: PathID, aggregates: list[list[int]]) -> list[AggregateReceipt]:
    """One receipt per aggregate of packets ``p1..p4`` (packet ``pk`` has id ``k``)."""
    return [
        make_receipt(path_id, ids[0], ids[-1], len(ids), ids[0] / 10, ids[-1] / 10)
        for ids in aggregates
    ]


def spans(pairs) -> list[tuple[tuple[int, int, int], tuple[int, int, int]]]:
    return [
        (
            (up.first_pkt_id, up.last_pkt_id, up.pkt_count),
            (down.first_pkt_id, down.last_pkt_id, down.pkt_count),
        )
        for up, down in pairs
    ]


class TestPartitionAlgebra:
    """Section 6.1, Table 1: aligning two HOPs' receipts computes the join."""

    A1 = [[1], [2], [3], [4]]
    A2 = [[1, 2], [3, 4]]
    A3 = [[1], [2, 3], [4]]
    A3_PRIME = [[1], [2], [3, 4]]

    def test_table1_joins(self, path_id):
        def join(upstream, downstream):
            pairs = align_pairs(cut_at(path_id, upstream), cut_at(path_id, downstream))
            return spans(pairs)

        a2 = [((1, 2, 2), (1, 2, 2)), ((3, 4, 2), (3, 4, 2))]
        a4 = [((1, 4, 4), (1, 4, 4))]
        assert join(self.A1, self.A2) == a2
        assert join(self.A2, self.A3) == a4
        assert join(self.A2, self.A3_PRIME) == a2

    def test_table1_coarser_relations(self, path_id):
        """Joining with a finer partition gives back the coarser one."""

        def join(upstream, downstream):
            pairs = align_pairs(cut_at(path_id, upstream), cut_at(path_id, downstream))
            return [up_span for up_span, _ in spans(pairs)]

        a4 = [[1, 2, 3, 4]]
        for coarser, finer in (
            (self.A2, self.A1),
            (self.A3, self.A1),
            (a4, self.A2),
            (a4, self.A3),
            (self.A2, self.A3_PRIME),
        ):
            expected = [(ids[0], ids[-1], len(ids)) for ids in coarser]
            assert join(coarser, finer) == expected
            assert join(finer, coarser) == expected
        # A2 and A3 are not comparable: their join is coarser than both.
        assert join(self.A2, self.A3) == [(1, 4, 4)]

    def test_join_single_partition_is_identity(self, path_id):
        for partition in (self.A1, self.A2, self.A3, self.A3_PRIME):
            receipts = cut_at(path_id, partition)
            pairs = align_pairs(receipts, receipts)
            assert [up for up, _ in pairs] == receipts
            assert [down for _, down in pairs] == receipts

    def test_join_is_symmetric(self, path_id):
        for first, second in ((self.A1, self.A2), (self.A2, self.A3), (self.A2, self.A3_PRIME)):
            forward = align_pairs(cut_at(path_id, first), cut_at(path_id, second))
            backward = align_pairs(cut_at(path_id, second), cut_at(path_id, first))
            assert spans(forward) == [(down, up) for up, down in spans(backward)]


class TestReceiptAlignment:
    def test_identical_partitions_align_one_to_one(self, path_id):
        upstream = [
            make_receipt(path_id, 1, 9, 10, 0.0, 0.1),
            make_receipt(path_id, 10, 19, 10, 0.1, 0.2),
        ]
        downstream = [
            make_receipt(path_id, 1, 9, 10, 0.0, 0.1),
            make_receipt(path_id, 10, 19, 10, 0.1, 0.2),
        ]
        pairs = align_pairs(upstream, downstream)
        assert len(pairs) == 2
        for up, down in pairs:
            assert up.pkt_count == down.pkt_count

    def test_coarser_downstream_combines_upstream(self, path_id):
        # Downstream lost the second cutting point: its middle aggregates merge.
        upstream = [
            make_receipt(path_id, 1, 9, 10, 0.0, 0.1),
            make_receipt(path_id, 10, 19, 10, 0.1, 0.2),
            make_receipt(path_id, 20, 29, 10, 0.2, 0.3),
        ]
        downstream = [
            make_receipt(path_id, 1, 9, 10, 0.0, 0.1),
            make_receipt(path_id, 10, 29, 19, 0.1, 0.3),  # one packet lost too
        ]
        pairs = aligned_aggregates(upstream, downstream)
        assert len(pairs) == 2
        assert pairs[0].lost_packets == 0
        assert pairs[1].upstream.pkt_count == 20
        assert pairs[1].downstream.pkt_count == 19
        assert pairs[1].lost_packets == 1

    def test_no_common_boundary_collapses_to_single_pair(self, path_id):
        upstream = [
            make_receipt(path_id, 1, 9, 10, 0.0, 0.1),
            make_receipt(path_id, 10, 19, 10, 0.1, 0.2),
        ]
        downstream = [make_receipt(path_id, 1, 19, 17, 0.0, 0.2)]
        pairs = aligned_aggregates(upstream, downstream)
        assert len(pairs) == 1
        assert pairs[0].upstream.pkt_count == 20
        assert pairs[0].downstream.pkt_count == 17
        assert pairs[0].lost_packets == 3

    def test_common_boundaries_out_of_order_fall_back_to_one_pair(self, path_id):
        # Both HOPs cut at packets 10 and 20, but downstream saw 20 first:
        # no consistent grouping exists, so everything is combined.
        upstream = [
            make_receipt(path_id, 1, 9, 10, 0.0, 0.1),
            make_receipt(path_id, 10, 19, 10, 0.1, 0.2),
            make_receipt(path_id, 20, 29, 10, 0.2, 0.3),
        ]
        downstream = [
            make_receipt(path_id, 1, 9, 10, 0.0, 0.1, trans_after=(20,)),
            make_receipt(path_id, 20, 29, 9, 0.1, 0.2, trans_before=(20,)),
            make_receipt(path_id, 10, 19, 10, 0.2, 0.3),
        ]
        pairs = aligned_aggregates(upstream, downstream)
        assert len(pairs) == 1
        (pair,) = pairs
        assert (pair.upstream.first_pkt_id, pair.upstream.last_pkt_id) == (1, 29)
        assert pair.upstream.pkt_count == 30
        assert pair.downstream.pkt_count == 29
        assert pair.migrated_packets == 0 and pair.lost_packets == 1

    def test_empty_inputs_give_no_pairs(self, path_id):
        assert align_pairs([], []) == []
        assert align_pairs([], [make_receipt(path_id, 1, 2, 3, 0.0, 0.1)]) == []

    def test_upstream_against_empty_downstream_is_one_all_lost_pair(self, path_id):
        """A downstream HOP that saw none of the upstream's packets lost them all."""
        upstream = [
            make_receipt(path_id, 1, 9, 10, 0.0, 0.1),
            make_receipt(path_id, 10, 19, 7, 0.1, 0.2),
        ]
        (pair,) = aligned_aggregates(upstream, [])
        assert (pair.upstream.first_pkt_id, pair.upstream.last_pkt_id) == (1, 19)
        assert pair.upstream.pkt_count == 17
        assert pair.downstream.pkt_count == 0
        assert pair.lost_packets == 17 and pair.migrated_packets == 0

    def test_reordering_patch_migrates_packet(self, path_id):
        # Packet 77 was observed just before the cut upstream but just after
        # it downstream; the patch-up migrates it back so counts agree.
        upstream = [
            make_receipt(
                path_id, 1, 77, 10, 0.0, 0.1, trans_before=(5, 77), trans_after=(100, 6)
            ),
            make_receipt(path_id, 100, 120, 10, 0.1, 0.2),
        ]
        downstream = [
            make_receipt(
                path_id, 1, 5, 9, 0.0, 0.1, trans_before=(5,), trans_after=(100, 77, 6)
            ),
            make_receipt(path_id, 100, 120, 11, 0.1, 0.2),
        ]
        with_patch = aligned_aggregates(upstream, downstream, apply_reordering_patch=True)
        without_patch = aligned_aggregates(
            upstream, downstream, apply_reordering_patch=False
        )
        # Without the patch the counts disagree in both aggregates.
        assert [pair.lost_packets for pair in without_patch] == [1, -1]
        # With the patch the migrated packet makes both aggregates agree.
        assert [pair.lost_packets for pair in with_patch] == [0, 0]
        assert with_patch[0].migrated_packets == 1

    def test_reordering_patch_migrates_in_both_directions(self, path_id):
        # Packet 88 moved the other way: after the cut upstream, before it
        # downstream.
        upstream = [
            make_receipt(
                path_id, 1, 5, 9, 0.0, 0.1, trans_before=(5,), trans_after=(100, 88)
            ),
            make_receipt(path_id, 100, 120, 11, 0.1, 0.2),
        ]
        downstream = [
            make_receipt(
                path_id, 1, 88, 10, 0.0, 0.1, trans_before=(5, 88), trans_after=(100,)
            ),
            make_receipt(path_id, 100, 120, 10, 0.1, 0.2),
        ]
        pairs = aligned_aggregates(upstream, downstream)
        assert [pair.lost_packets for pair in pairs] == [0, 0]
        assert pairs[0].migrated_packets == -1

    def test_aligned_pair_duration_uses_upstream(self, path_id):
        upstream = [make_receipt(path_id, 1, 9, 10, 0.0, 0.5)]
        downstream = [make_receipt(path_id, 1, 9, 10, 0.1, 0.4)]
        pair = aligned_aggregates(upstream, downstream)[0]
        assert pair.duration == pytest.approx(0.5)
        assert isinstance(pair, AlignedAggregates)
