"""Property tests for seekable propagation state: checkpoint/seek equality.

The contract under test (:meth:`ScenarioStream.checkpoint` /
:meth:`ScenarioStream.seek`): freeze the complete propagation state at any
chunk boundary ``k``, pickle it across a process boundary, seek a freshly
built stream to it, and push chunks ``k`` onward — every emission, the final
ground truth and the terminal ``state_digest()`` come out byte-identical to
an uninterrupted run.  This must hold for **every streamable registered
model** (delay, loss, reordering) and for arbitrary chunk sizes, because it
is what mid-interval campaign resumes stand on.

The runner-level twin: a streaming run checkpointed every N
chunks (:class:`RunnerCheckpoint` through ``checkpoint_sink``), killed, and
resumed from the pickled checkpoint yields byte-identical ``CellResult``
JSON and receipts.
"""

from __future__ import annotations

import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.registry import DELAY_MODELS, LOSS_MODELS, REORDERING_MODELS
from repro.api.runner import _build_cell, run_cell_full
from repro.api.spec import (
    ConditionSpec,
    ExecutionPolicy,
    ExperimentSpec,
    PathSpec,
    TrafficSpec,
)
from repro.engine.streaming import ScenarioStream
from repro.reporting.serialization import receipts_digest
from repro.traffic.trace import SyntheticTrace, TraceConfig

PACKETS = 1000

# Minimal valid parameters for every *streamable* registered model; the
# registry-coverage test below keeps these in sync with the registries.
STREAMABLE_DELAYS: dict[str, dict] = {
    "constant": {},
    "jitter": {"base_delay": 0.8e-3, "jitter_std": 0.3e-3},
    "empirical": {"series": [0.5e-3, 1.2e-3, 0.7e-3, 2.0e-3]},
}
STREAMABLE_LOSSES: dict[str, dict] = {
    "none": {},
    "bernoulli": {"loss_rate": 0.04},
    "gilbert-elliott": {"p": 0.01, "r": 0.2},
    "gilbert-elliott-rate": {"target_rate": 0.05},
}
STREAMABLE_REORDERINGS: dict[str, dict] = {
    "none": {},
    "window": {"window": 0.4e-3, "reorder_probability": 0.15},
}


def test_streamable_model_sets_cover_the_registries():
    """Every registered model is exercised here (congestion is the documented
    non-streamable exception, rejected by ``check_scenario_streamable`` and
    covered by the engine matrix)."""
    assert set(STREAMABLE_DELAYS) == set(DELAY_MODELS.names()) - {"congestion"}
    assert set(STREAMABLE_LOSSES) == set(LOSS_MODELS.names())
    assert set(STREAMABLE_REORDERINGS) == set(REORDERING_MODELS.names())


@st.composite
def streamable_conditions(draw) -> ConditionSpec:
    delay = draw(st.sampled_from(sorted(STREAMABLE_DELAYS)))
    loss = draw(st.sampled_from(sorted(STREAMABLE_LOSSES)))
    reordering = draw(st.sampled_from(sorted(STREAMABLE_REORDERINGS)))
    return ConditionSpec(
        delay=delay,
        delay_params=STREAMABLE_DELAYS[delay],
        loss=loss,
        loss_params=STREAMABLE_LOSSES[loss],
        reordering=reordering,
        reordering_params=STREAMABLE_REORDERINGS[reordering],
    )


def _spec(seed: int, condition: ConditionSpec) -> ExperimentSpec:
    return ExperimentSpec(
        name="checkpoint-seek",
        seed=seed,
        traffic=TrafficSpec(workload="smoke-sequence", packet_count=PACKETS),
        path=PathSpec(conditions={"X": condition}),
    )


def _assert_emissions_equal(emitted_a, emitted_b):
    """Two emission lists (as returned by push/flush) are bit-identical."""
    assert len(emitted_a) == len(emitted_b)
    for (hop_a, batch_a, times_a), (hop_b, batch_b, times_b) in zip(
        emitted_a, emitted_b
    ):
        assert hop_a == hop_b
        assert np.array_equal(batch_a.uid, batch_b.uid)
        assert np.array_equal(batch_a.send_time, batch_b.send_time)
        assert np.array_equal(times_a, times_b)


class TestStreamSeekEquality:
    """Stream-level: seek to a pickled checkpoint ≡ having run the prefix."""

    @settings(max_examples=25, deadline=None)
    @given(
        condition=streamable_conditions(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        chunk_size=st.integers(min_value=64, max_value=PACKETS + 100),
        data=st.data(),
    )
    def test_seek_resumes_bit_identically(self, condition, seed, chunk_size, data):
        spec = _spec(seed, condition)
        total_chunks = -(-PACKETS // chunk_size)
        resume_at = data.draw(
            st.integers(min_value=1, max_value=total_chunks), label="resume_chunk"
        )

        # Uninterrupted run, capturing the checkpoint at the boundary.
        cell_a = _build_cell(spec)
        stream_a = ScenarioStream(cell_a.scenarios[0])
        checkpoint = None
        suffix_a = []
        for chunk in cell_a.traces[0].iter_batches(chunk_size):
            emitted = stream_a.push(chunk)
            if stream_a.chunks_pushed > resume_at:
                suffix_a.append(emitted)
            if stream_a.chunks_pushed == resume_at:
                checkpoint = stream_a.checkpoint()
        suffix_a.append(stream_a.flush())
        assert checkpoint is not None

        # Fresh cell + stream, state crossing a (simulated) process boundary.
        blob = pickle.dumps(checkpoint)
        cell_b = _build_cell(spec)
        stream_b = ScenarioStream(cell_b.scenarios[0])
        stream_b.seek(pickle.loads(blob))
        suffix_b = [
            stream_b.push(chunk)
            for chunk in cell_b.traces[0].iter_batches(chunk_size, start_chunk=resume_at)
        ]
        suffix_b.append(stream_b.flush())

        assert stream_b.chunks_pushed == stream_a.chunks_pushed == total_chunks
        for spans_a, spans_b in zip(suffix_a, suffix_b):
            _assert_emissions_equal(spans_a, spans_b)
        # Terminal propagation state — one digest covers every RNG cursor,
        # holdback buffer and clock.
        digest_a = stream_a.checkpoint().state_digest()
        assert stream_b.checkpoint().state_digest() == digest_a
        # Ground truth carried through the checkpoint's truth snapshot.
        for name, truth_a in stream_a.domain_truth.items():
            truth_b = stream_b.domain_truth[name]
            assert truth_b.lost_packets == truth_a.lost_packets
            assert truth_b.delivered_packets == truth_a.delivered_packets
            assert np.array_equal(truth_b.delays(), truth_a.delays())

    @settings(max_examples=10, deadline=None)
    @given(
        condition=streamable_conditions(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        chunk_size=st.integers(min_value=64, max_value=PACKETS // 2),
    )
    def test_checkpoint_digest_is_stable_across_pickling(
        self, condition, seed, chunk_size
    ):
        """``state_digest()`` survives a pickle round-trip unchanged (it is the
        cross-process identity resume validation leans on)."""
        cell = _build_cell(_spec(seed, condition))
        stream = ScenarioStream(cell.scenarios[0])
        chunks = cell.traces[0].iter_batches(chunk_size)
        stream.push(next(chunks))
        checkpoint = stream.checkpoint()
        restored = pickle.loads(pickle.dumps(checkpoint))
        assert restored.state_digest() == checkpoint.state_digest()
        assert restored.chunk_index == checkpoint.chunk_index


class TestTraceSeekSuffix:
    """The trace half of seeking: ``iter_batches(start_chunk=k)`` yields a
    bit-identical suffix of the full pass for arbitrary chunk sizes."""

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        chunk_size=st.integers(min_value=1, max_value=900),
        process=st.sampled_from(["poisson", "cbr", "mmpp"]),
        data=st.data(),
    )
    def test_start_chunk_suffix_is_bitwise_identical(
        self, seed, chunk_size, process, data
    ):
        config = TraceConfig(packet_count=800, arrival_process=process)
        full = list(SyntheticTrace(config=config, seed=seed).iter_batches(chunk_size))
        start = data.draw(
            st.integers(min_value=0, max_value=len(full)), label="start_chunk"
        )
        suffix = list(
            SyntheticTrace(config=config, seed=seed).iter_batches(
                chunk_size, start_chunk=start
            )
        )
        assert len(suffix) == len(full) - start
        for expected, actual in zip(full[start:], suffix):
            for column in (
                "src_ip", "dst_ip", "src_port", "dst_port", "protocol",
                "ip_id", "length", "uid", "send_time", "flow_id",
            ):
                assert np.array_equal(
                    getattr(actual, column), getattr(expected, column)
                ), column
            assert np.array_equal(actual.payload, expected.payload)


class TestRunnerResumeEquality:
    """Runner-level: kill + resume from a RunnerCheckpoint ≡ uninterrupted."""

    @settings(max_examples=6, deadline=None)
    @given(
        condition=streamable_conditions(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        chunk_size=st.sampled_from([128, 200, 250]),
        checkpoint_every=st.integers(min_value=1, max_value=3),
    )
    def test_resume_reproduces_result_and_receipts(
        self, condition, seed, chunk_size, checkpoint_every
    ):
        spec = _spec(seed, condition)
        policy = ExecutionPolicy(engine="streaming", chunk_size=chunk_size)
        reference = run_cell_full(spec, policy=policy)

        # Checkpointed run: the sink pickles immediately (the checkpoint holds
        # live collector references, per the RunnerCheckpoint contract).
        blobs: list[bytes] = []
        checkpointed = run_cell_full(
            spec,
            policy=ExecutionPolicy(
                engine="streaming",
                chunk_size=chunk_size,
                checkpoint_every=checkpoint_every,
            ),
            checkpoint_sink=lambda ckpt: blobs.append(pickle.dumps(ckpt)),
        )
        assert checkpointed.result.to_json() == reference.result.to_json()
        assert blobs, "checkpoint_every should have fired at least once"

        # "Killed" run resumes from the last persisted checkpoint.
        resumed = run_cell_full(
            spec, policy=policy, resume_from=pickle.loads(blobs[-1])
        )
        assert resumed.result.to_json() == reference.result.to_json()
        assert receipts_digest(resumed.reports) == receipts_digest(reference.reports)
