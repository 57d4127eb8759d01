"""Unit tests for the streaming engine's holdback sorter and zero-copy takes.

``_StreamSorter`` skips its argsort when the keys it is handed are already
non-decreasing (order-keeping stages) and emits a zero-copy slice of the
input.  What it emits must still be exactly the stable-argsort emission, and
the rows it holds back must never share memory with the chunk they came
from.  ``PacketBatch.take(slice)`` views must reuse their root's digests.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.streaming import _StreamSorter
from repro.net import hashing
from repro.net.batch import _COLUMNS, PacketBatch
from repro.net.hashing import PacketDigester
from repro.traffic.trace import SyntheticTrace, TraceConfig

DIGESTER = PacketDigester(seed=3)
DIGEST_KEY = (DIGESTER.seed, DIGESTER.payload_prefix)


def fresh_batch(count: int = 3000, seed: int = 21) -> PacketBatch:
    return SyntheticTrace(config=TraceConfig(packet_count=count), seed=seed).packet_batch()


def chunks_of(batch: PacketBatch, size: int) -> list[PacketBatch]:
    parts = [batch.take(np.arange(start, min(start + size, len(batch))))
             for start in range(0, len(batch), size)]
    for part in parts:
        part.detach_root()  # each chunk is its own root, as in the streaming engine
    return parts


def argsort_emissions(chunks, keys, watermarks):
    """The stable-argsort oracle: per push, the pending rows with key <= watermark."""
    pending = np.empty(0, dtype=np.int64)
    offset, emitted = 0, []
    for chunk, watermark in zip(chunks, watermarks):
        pending = np.concatenate([pending, np.arange(offset, offset + len(chunk))])
        offset += len(chunk)
        order = pending[np.argsort(keys[pending], kind="stable")]
        ready = keys[order] <= watermark
        emitted.append(order[ready])
        pending = order[~ready]
    return emitted


def assert_rows_equal(batch: PacketBatch, whole: PacketBatch, rows: np.ndarray) -> None:
    for name in _COLUMNS:
        assert np.array_equal(getattr(batch, name), getattr(whole, name)[rows]), name


class TestSortedFastPath:
    @pytest.mark.parametrize("sorted_keys", [True, False], ids=["fast-path", "argsort"])
    def test_emits_the_stable_argsort_emission(self, sorted_keys):
        whole = fresh_batch()
        rng = np.random.default_rng(5)
        # Constant link latency keeps send order (ties included); jitter breaks it.
        keys = whole.send_time + 2e-3
        if not sorted_keys:
            keys = keys + rng.uniform(0.0, 5e-3, len(keys))
        keys[100:110] = keys[100]  # a run of ties
        keys = np.maximum.accumulate(keys) if sorted_keys else keys
        chunks = chunks_of(whole, 700)
        watermarks = [float(chunk.send_time[-1]) for chunk in chunks[:-1]] + [np.inf]
        expected = argsort_emissions(chunks, keys, watermarks)

        sorter = _StreamSorter()
        offset = 0
        for chunk, watermark, rows in zip(chunks, watermarks, expected):
            DIGESTER.digest_batch(chunk)
            chunk_keys = keys[offset : offset + len(chunk)]
            offset += len(chunk)
            emitted, emitted_keys = sorter.push(chunk, chunk_keys, watermark)
            assert_rows_equal(emitted, whole, rows)
            assert np.array_equal(emitted_keys, keys[rows])
            assert np.array_equal(
                DIGESTER.digest_batch(emitted), DIGESTER.digest_batch(whole)[rows]
            )
        assert sorter.pending == 0

    def test_emitted_prefix_is_a_view_and_held_rows_are_detached(self):
        chunk = fresh_batch(1000)
        DIGESTER.digest_batch(chunk)
        keys = chunk.send_time + 1e-3
        watermark = float(keys[599])
        sorter = _StreamSorter()
        emitted, emitted_keys = sorter.push(chunk, keys, watermark)

        assert len(emitted) == 600 and sorter.pending == 400
        assert np.shares_memory(emitted.payload, chunk.payload)  # zero-copy prefix
        held, held_keys = sorter._batch, sorter._keys
        assert held._digest_root is None
        for name in _COLUMNS:
            assert not np.shares_memory(getattr(held, name), getattr(chunk, name)), name
        assert not np.shares_memory(held._digest_cache[DIGEST_KEY], chunk._digest_cache[DIGEST_KEY])
        assert not np.shares_memory(held_keys, keys)
        assert np.array_equal(held.uid, chunk.uid[600:])

    def test_argsort_path_held_rows_are_detached(self):
        chunk = fresh_batch(1000)
        DIGESTER.digest_batch(chunk)
        keys = chunk.send_time + np.random.default_rng(2).uniform(0.0, 4e-3, len(chunk))
        sorter = _StreamSorter()
        sorter.push(chunk, keys, float(np.median(keys)))
        held, held_keys = sorter._batch, sorter._keys
        assert sorter.pending and held._digest_root is None
        for name in _COLUMNS:
            assert not np.shares_memory(getattr(held, name), getattr(chunk, name)), name
        assert not np.shares_memory(held._digest_cache[DIGEST_KEY], chunk._digest_cache[DIGEST_KEY])
        assert not np.shares_memory(held_keys, keys)


class TestTakeSlice:
    @pytest.fixture()
    def counted_hashes(self, monkeypatch):
        calls = []
        original = hashing.bob_hash_batch

        def counting(data, initval=0):
            calls.append(len(data))
            return original(data, initval)

        monkeypatch.setattr(hashing, "bob_hash_batch", counting)
        return calls

    def test_slice_views_reuse_root_digests(self, counted_hashes):
        root = fresh_batch(2000)
        root_digests = DIGESTER.digest_batch(root)
        hashed = len(counted_hashes)
        assert hashed == 2  # two lookup2 lanes over the root, once

        view = root.take(slice(100, 1500))
        nested = view.take(slice(50, 900))
        gathered = nested.take(np.arange(0, 850, 3))
        stepped = view.take(slice(10, 700, 4))
        gathered_view = root.take(np.arange(300, 1800)).take(slice(-200, None))
        for derived, rows in (
            (view, np.arange(100, 1500)),
            (nested, np.arange(150, 1000)),
            (gathered, np.arange(150, 1000)[np.arange(0, 850, 3)]),
            (stepped, np.arange(110, 800, 4)),
            (gathered_view, np.arange(1600, 1800)),
        ):
            assert derived._digest_root is root
            assert_rows_equal(derived, root, rows)
            assert np.array_equal(DIGESTER.digest_batch(derived), root_digests[rows])
        assert len(counted_hashes) == hashed  # no batch derived by take() re-hashed

        assert np.shares_memory(nested.src_ip, root.src_ip)
        assert not np.shares_memory(stepped.src_ip, root.src_ip)
        assert len(root.take(slice(900, 100))) == 0

    def test_detaching_a_slice_view_copies_it(self):
        root = fresh_batch(500)
        DIGESTER.digest_batch(root)
        view = root.take(slice(10, 60))
        DIGESTER.digest_batch(view)
        view.detach_root()
        assert view._digest_root is None
        for name in _COLUMNS:
            assert not np.shares_memory(getattr(view, name), getattr(root, name)), name
        assert not np.shares_memory(view._digest_cache[DIGEST_KEY], root._digest_cache[DIGEST_KEY])
        assert np.array_equal(view._digest_cache[DIGEST_KEY], root._digest_cache[DIGEST_KEY][10:60])
