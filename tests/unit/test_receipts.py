"""Unit tests for repro.core.receipts."""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from repro.core.receipts import (
    AGGREGATE_RECEIPT_BYTES,
    SAMPLE_RECORD_BYTES,
    AggregateReceipt,
    PathID,
    SAMPLE_DTYPE,
    SampleReceipt,
    combine_aggregate_receipts,
    combine_sample_receipts,
)
from tests.helpers import sampled_ids


@pytest.fixture()
def path_id(prefix_pair) -> PathID:
    return PathID(
        prefix_pair=prefix_pair,
        reporting_hop=4,
        previous_hop=3,
        next_hop=5,
        max_diff=1e-3,
    )


@pytest.fixture()
def other_path_id(prefix_pair) -> PathID:
    return PathID(
        prefix_pair=prefix_pair,
        reporting_hop=5,
        previous_hop=4,
        next_hop=6,
        max_diff=1e-3,
    )


class TestPathID:
    def test_requires_at_least_one_neighbor(self, prefix_pair):
        with pytest.raises(ValueError):
            PathID(
                prefix_pair=prefix_pair,
                reporting_hop=1,
                previous_hop=None,
                next_hop=None,
                max_diff=1e-3,
            )

    def test_negative_max_diff_rejected(self, prefix_pair):
        with pytest.raises(ValueError):
            PathID(
                prefix_pair=prefix_pair,
                reporting_hop=1,
                previous_hop=None,
                next_hop=2,
                max_diff=-1.0,
            )


class TestSampleReceipt:
    def test_sampled_ids_and_length(self, path_id):
        receipt = SampleReceipt(path_id=path_id, samples=[(10, 1.0), (20, 2.0)])
        assert sampled_ids(receipt) == frozenset({10, 20})
        assert len(receipt) == 2
        assert len(receipt.samples) == 2

    def test_wire_bytes_grow_with_samples(self, path_id):
        small = SampleReceipt(path_id=path_id, samples=[(1, 1.0)])
        large = SampleReceipt(path_id=path_id, samples=[(k, float(k)) for k in range(10)])
        assert large.wire_bytes - small.wire_bytes == 9 * SAMPLE_RECORD_BYTES

    def test_combine_unions_samples(self, path_id):
        first = SampleReceipt(path_id=path_id, samples=[(1, 1.0)])
        second = SampleReceipt(path_id=path_id, samples=[(2, 2.0), (1, 1.0)])
        combined = combine_sample_receipts([first, second])
        assert sampled_ids(combined) == frozenset({1, 2})
        assert len(combined) == 2

    def test_combine_keeps_the_last_record_and_orders_by_time_then_id(self, path_id):
        first = SampleReceipt(path_id=path_id, samples=[(5, 3.0), (1, 9.0), (4, 2.0)])
        second = SampleReceipt(path_id=path_id, samples=[(1, 2.0), (3, 2.0)])
        combined = combine_sample_receipts([first, second])
        assert combined.samples.tolist() == [(1, 2.0), (3, 2.0), (4, 2.0), (5, 3.0)]
        assert not combined.samples.flags.writeable

    def test_combine_preserves_threshold(self, path_id):
        receipt = SampleReceipt(path_id=path_id, samples=[(1, 1.0)], sampling_threshold=42)
        assert combine_sample_receipts([receipt]).sampling_threshold == 42

    def test_combine_requires_same_path_id(self, path_id, other_path_id):
        first = SampleReceipt(path_id=path_id)
        second = SampleReceipt(path_id=other_path_id)
        with pytest.raises(ValueError):
            combine_sample_receipts([first, second])

    def test_combine_empty_rejected(self):
        with pytest.raises(ValueError):
            combine_sample_receipts([])

    def test_combine_rejects_mismatched_sampling_threshold(self, path_id):
        first = SampleReceipt(path_id=path_id, samples=[(1, 1.0)], sampling_threshold=42)
        second = SampleReceipt(path_id=path_id, samples=[(2, 2.0)], sampling_threshold=43)
        with pytest.raises(ValueError, match="sampling"):
            combine_sample_receipts([first, second])
        # None (unpublished threshold) also differs from a concrete value.
        third = SampleReceipt(path_id=path_id, samples=[(3, 3.0)])
        with pytest.raises(ValueError, match="sampling"):
            combine_sample_receipts([first, third])
        # Matching thresholds still combine.
        fourth = SampleReceipt(path_id=path_id, samples=[(4, 4.0)], sampling_threshold=42)
        assert sampled_ids(combine_sample_receipts([first, fourth])) == frozenset({1, 4})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_record_time_rejected(self, path_id, value):
        # The first bad record is named, not the later one.
        samples = [(1, 1.0), (2, value), (3, value)]
        with pytest.raises(ValueError, match=r"samples\[1\] has time .* must be finite"):
            SampleReceipt(path_id=path_id, samples=samples)
        array = np.array(samples, dtype=SAMPLE_DTYPE)
        with pytest.raises(ValueError, match=r"samples\[1\] has time .* must be finite"):
            SampleReceipt(path_id=path_id, samples=array)

    def test_extreme_finite_record_times_accepted(self, path_id):
        samples = [(1, -0.0), (2, 5e-324), (3, 1.7e308)]
        receipt = SampleReceipt(path_id=path_id, samples=samples)
        assert len(receipt) == 3
        assert math.copysign(1.0, receipt.samples["time"][0]) == -1.0
        assert receipt.samples["time"].tolist() == [-0.0, 5e-324, 1.7e308]

    def test_samples_are_a_read_only_structured_array(self, path_id):
        largest = (1 << 64) - 1
        receipt = SampleReceipt(path_id=path_id, samples=[(largest, 1.0), (0, 2)])
        assert receipt.samples.dtype == SAMPLE_DTYPE and receipt.samples.ndim == 1
        assert not receipt.samples.flags.writeable
        assert receipt.samples.tolist() == [(largest, 1.0), (0, 2.0)]
        assert len(SampleReceipt(path_id=path_id).samples) == 0

    def test_read_only_array_is_taken_as_it_is(self, path_id):
        samples = np.array([(4, 1.0)], dtype=SAMPLE_DTYPE)
        samples.flags.writeable = False
        assert SampleReceipt(path_id=path_id, samples=samples).samples is samples

    def test_writable_array_is_copied(self, path_id):
        mine = np.array([(4, 1.0), (5, 2.0)], dtype=SAMPLE_DTYPE)
        receipt = SampleReceipt(path_id=path_id, samples=mine)
        mine["pkt_id"][0] = 99
        assert receipt.samples.tolist() == [(4, 1.0), (5, 2.0)]
        assert mine.flags.writeable

    @pytest.mark.parametrize(
        "samples",
        [
            np.zeros((2, 2), dtype=SAMPLE_DTYPE),
            np.zeros((), dtype=SAMPLE_DTYPE),
            np.zeros(3),
            5,
            [(1, 1.0, 7)],
            [(1,)],
            [[(1, 1.0)]],
        ],
        ids=["2-D array", "0-D array", "1-D plain array", "scalar", "triple", "single", "nested"],
    )
    def test_samples_not_a_1d_pair_sequence_rejected(self, path_id, samples):
        with pytest.raises(ValueError, match="samples"):
            SampleReceipt(path_id=path_id, samples=samples)

    @pytest.mark.parametrize(
        "pkt_id", [-1, 1 << 64, 1.5, "7", None], ids=["negative", "2**64", "float", "str", "None"]
    )
    def test_pkt_id_outside_64_bits_rejected(self, path_id, pkt_id):
        with pytest.raises(ValueError, match=r"pkt_id that is not an integer in \[0, 2\*\*64\)"):
            SampleReceipt(path_id=path_id, samples=[(0, 1.0), (pkt_id, 2.0)])

    @pytest.mark.parametrize("time", ["1.0", None, 1j], ids=["str", "None", "complex"])
    def test_time_not_a_real_number_rejected(self, path_id, time):
        with pytest.raises(ValueError, match="time"):
            SampleReceipt(path_id=path_id, samples=[(1, time)])

    def test_compares_by_value_and_is_unhashable(self, path_id):
        def receipt(samples, threshold=None):
            return SampleReceipt(path_id=path_id, samples=samples, sampling_threshold=threshold)

        array = np.array([(1, 1.0), (2, 2.0)], dtype=SAMPLE_DTYPE)
        assert receipt([(1, 1.0), (2, 2.0)]) == receipt(array) == receipt(array[::-1][::-1])
        assert receipt([(1, 1.0), (2, 2.0)]) != receipt([(2, 2.0), (1, 1.0)])
        assert receipt([(1, 1.0)]) != receipt([(1, 1.5)])
        assert receipt([(1, 1.0)]) != receipt([(1, 1.0)], threshold=3)
        assert receipt([]) != object()
        with pytest.raises(TypeError):
            hash(receipt([]))


class TestAggregateReceipt:
    def test_basic_properties(self, path_id):
        receipt = AggregateReceipt(
            path_id=path_id,
            first_pkt_id=100,
            last_pkt_id=200,
            pkt_count=50,
            start_time=1.0,
            end_time=2.0,
            time_sum=75.0,
        )
        assert receipt.agg_id == (100, 200)
        assert receipt.duration == pytest.approx(1.0)

    def test_negative_count_rejected(self, path_id):
        with pytest.raises(ValueError):
            AggregateReceipt(path_id=path_id, first_pkt_id=1, last_pkt_id=2, pkt_count=-1)

    def test_end_before_start_rejected(self, path_id):
        with pytest.raises(ValueError):
            AggregateReceipt(
                path_id=path_id,
                first_pkt_id=1,
                last_pkt_id=2,
                pkt_count=1,
                start_time=2.0,
                end_time=1.0,
            )

    @pytest.mark.parametrize("field", ["start_time", "end_time", "time_sum"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_rejected(self, path_id, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            AggregateReceipt(
                path_id=path_id, first_pkt_id=1, last_pkt_id=2, pkt_count=1, **{field: value}
            )

    @pytest.mark.parametrize("field", ["trans_before", "trans_after"])
    @pytest.mark.parametrize(
        "window",
        [np.zeros((2, 2), dtype=np.uint64), np.zeros((), dtype=np.uint64), ((1, 2),), 5, (1.5,)],
        ids=["2-D array", "0-D array", "nested tuple", "scalar", "float id"],
    )
    def test_window_not_a_1d_id_sequence_rejected(self, path_id, field, window):
        with pytest.raises(ValueError, match=field):
            AggregateReceipt(
                path_id=path_id, first_pkt_id=1, last_pkt_id=2, pkt_count=1, **{field: window}
            )

    @pytest.mark.parametrize("field", ["trans_before", "trans_after"])
    @pytest.mark.parametrize(
        "window",
        [(-1,), (1 << 64,), (0, (1 << 64) - 1, 1 << 64), np.array([3, -1], dtype=np.int64)],
        ids=["negative", "2**64", "past the largest id", "negative int64 array"],
    )
    def test_window_id_outside_64_bits_rejected(self, path_id, field, window):
        with pytest.raises(ValueError, match=rf"{field} holds a packet ID outside \[0, 2\*\*64\)"):
            AggregateReceipt(
                path_id=path_id, first_pkt_id=1, last_pkt_id=2, pkt_count=1, **{field: window}
            )

    def test_windows_are_read_only_uint64_arrays(self, path_id):
        largest = (1 << 64) - 1
        receipt = AggregateReceipt(
            path_id=path_id,
            first_pkt_id=1,
            last_pkt_id=2,
            pkt_count=1,
            trans_before=[0, largest],
            trans_after=np.array([7, 8], dtype=np.int64),
        )
        for window in (receipt.trans_before, receipt.trans_after):
            assert window.dtype == np.uint64 and window.ndim == 1
            assert not window.flags.writeable
        assert receipt.trans_before.tolist() == [0, largest]
        assert receipt.trans_after.tolist() == [7, 8]
        assert receipt.with_count(5).trans_before is receipt.trans_before

    def test_writable_window_is_copied(self, path_id):
        mine = np.array([4, 5, 6], dtype=np.uint64)
        receipt = AggregateReceipt(
            path_id=path_id, first_pkt_id=1, last_pkt_id=2, pkt_count=1, trans_before=mine
        )
        mine[0] = 99
        assert receipt.trans_before.tolist() == [4, 5, 6]
        assert mine.flags.writeable

    def test_compares_by_value_and_is_unhashable(self, path_id):
        def receipt(before, after=(), count=1):
            return AggregateReceipt(
                path_id=path_id,
                first_pkt_id=1,
                last_pkt_id=2,
                pkt_count=count,
                trans_before=before,
                trans_after=after,
            )

        shared = np.array([1, 2, 3], dtype=np.uint64)
        assert receipt((1, 2, 3)) == receipt(shared) == receipt(shared[::-1][::-1])
        assert receipt((1, 2, 3)) != receipt((1, 2))
        assert receipt((1, 2, 3)) != receipt((3, 2, 1))
        assert receipt((1, 2)) != receipt((), (1, 2))
        assert receipt((1,), (2,)) != receipt((1,), (3,))
        assert receipt((1, 2)) != receipt((1, 2), count=2)
        assert receipt(()) != object()
        with pytest.raises(TypeError):
            hash(receipt(()))

    def test_wire_bytes_include_agg_trans(self, path_id):
        plain = AggregateReceipt(path_id=path_id, first_pkt_id=1, last_pkt_id=2, pkt_count=3)
        with_trans = AggregateReceipt(
            path_id=path_id,
            first_pkt_id=1,
            last_pkt_id=2,
            pkt_count=3,
            trans_before=(1, 2, 3),
            trans_after=(4,),
        )
        assert plain.wire_bytes == AGGREGATE_RECEIPT_BYTES
        assert with_trans.wire_bytes == AGGREGATE_RECEIPT_BYTES + 4 * 4

    def test_with_count_returns_modified_copy(self, path_id):
        receipt = AggregateReceipt(path_id=path_id, first_pkt_id=1, last_pkt_id=2, pkt_count=3)
        adjusted = receipt.with_count(7)
        assert adjusted.pkt_count == 7
        assert receipt.pkt_count == 3

    def test_with_count_equals_a_revalidated_copy(self, path_id):
        receipt = AggregateReceipt(
            path_id=path_id,
            first_pkt_id=1,
            last_pkt_id=9,
            pkt_count=3,
            start_time=0.5,
            end_time=1.5,
            time_sum=3.0,
            trans_before=(1, 2),
            trans_after=(8, 9),
        )
        adjusted = receipt.with_count(0)
        assert type(adjusted) is AggregateReceipt
        assert adjusted == replace(receipt, pkt_count=0)
        assert adjusted._scalars() == replace(receipt, pkt_count=0)._scalars()
        for window in (adjusted.trans_before, adjusted.trans_after):
            assert not window.flags.writeable
        with pytest.raises(ValueError):
            adjusted.trans_before[0] = 5
        with pytest.raises(FrozenInstanceError):
            adjusted.pkt_count = 4

    def test_with_count_rejects_a_negative_count(self, path_id):
        receipt = AggregateReceipt(path_id=path_id, first_pkt_id=1, last_pkt_id=2, pkt_count=3)
        with pytest.raises(ValueError, match="pkt_count must be >= 0"):
            receipt.with_count(-1)
        assert receipt.pkt_count == 3

    def test_combine_sums_counts_and_spans(self, path_id):
        first = AggregateReceipt(
            path_id=path_id, first_pkt_id=1, last_pkt_id=2, pkt_count=10,
            start_time=0.0, end_time=1.0, time_sum=5.0,
        )
        second = AggregateReceipt(
            path_id=path_id, first_pkt_id=3, last_pkt_id=4, pkt_count=20,
            start_time=1.0, end_time=2.0, time_sum=30.0,
            trans_before=(9,), trans_after=(11,),
        )
        combined = combine_aggregate_receipts([first, second])
        assert combined.pkt_count == 30
        assert combined.agg_id == (1, 4)
        assert combined.start_time == 0.0 and combined.end_time == 2.0
        assert combined.time_sum == 35.0
        assert combined.trans_before.tolist() == [9]

    def test_combine_rejects_out_of_order(self, path_id):
        first = AggregateReceipt(
            path_id=path_id, first_pkt_id=1, last_pkt_id=2, pkt_count=10,
            start_time=5.0, end_time=6.0,
        )
        second = AggregateReceipt(
            path_id=path_id, first_pkt_id=3, last_pkt_id=4, pkt_count=20,
            start_time=0.0, end_time=1.0,
        )
        with pytest.raises(ValueError):
            combine_aggregate_receipts([first, second])

    def test_combine_rejects_mixed_paths(self, path_id, other_path_id):
        first = AggregateReceipt(path_id=path_id, first_pkt_id=1, last_pkt_id=2, pkt_count=1)
        second = AggregateReceipt(
            path_id=other_path_id, first_pkt_id=3, last_pkt_id=4, pkt_count=1
        )
        with pytest.raises(ValueError):
            combine_aggregate_receipts([first, second])

    def test_combine_empty_rejected(self):
        with pytest.raises(ValueError):
            combine_aggregate_receipts([])
