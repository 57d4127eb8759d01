"""Vectorised scenario propagation and the one runner that feeds the collectors.

The one traversal of a :class:`~repro.simulation.scenario.PathScenario`:

* :class:`ScenarioStream` pushes one trace chunk at a time through the path.
  Each propagation stage (domain segment, inter-domain link) applies its
  models to the chunk — consuming every model's RNG in exactly the order one
  whole-trace pass would — and holds packets back in a small sort buffer
  until the **watermark** (the last source send time seen) guarantees no
  future packet can precede them.  Emissions at every HOP are therefore the
  whole-run observation stream, delivered incrementally, bit-for-bit.  A
  whole sorted trace given as the final chunk (:meth:`ScenarioStream.flush`)
  is one pass: every stage emits everything in one call and each model sees
  the whole series at once.

* :class:`ScenarioStream` is **seekable**: :meth:`ScenarioStream.checkpoint`
  freezes the complete propagation state at a chunk boundary (every model RNG
  cursor, every holdback buffer, the watermark) as a
  :class:`~repro.engine.checkpoint.StreamCheckpoint`, and
  :meth:`ScenarioStream.seek` restores a fresh stream to that point so it
  continues bit-identically — in another process, or in a later run.

* :class:`StreamingRunner` is the only code in the engines that feeds the
  VPM collectors.  It drives one stream per path in lockstep and
  feeds every HOP the timestamp-merged union of the paths' emissions.
  ``chunk_size=None`` is the **batch** engine (each trace is its stream's
  final chunk); a chunk size is the **streaming** engine, which can hand a
  :class:`RunnerCheckpoint` (stream state plus collector state) to a sink
  every N chunks, so a killed single-path run resumes mid-interval.

Exactness contract: every component must be *streamable* for a chunked run —
delay and loss models declare it
(:attr:`repro.traffic.delay_models.DelayModel.streamable`), reordering models
expose a sequential :meth:`perturb` with non-negative offsets.  Non-streamable
components (``CongestionDelayModel``, which simulates the whole arrival series
per call) are rejected with a clear error at the first
:meth:`ScenarioStream.push`; they run as one whole-trace pass (the batch
engine).  The one documented deviation is ``AggregateReceipt.time_sum``
(float accumulation order).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from repro.core.hop import HOPCollector, HOPReport
from repro.core.protocol import MeshSession
from repro.engine.checkpoint import StreamCheckpoint
from repro.net.batch import PacketBatch
from repro.net.hashing import PacketDigester
from repro.net.topology import HOP, Domain
from repro.simulation.mesh import merge_hop_streams
from repro.simulation.scenario import PathScenario, SegmentCondition
from repro.traffic.trace import SyntheticTrace

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "RunnerCheckpoint",
    "ScenarioStream",
    "StreamingCell",
    "StreamingResult",
    "StreamingRunner",
    "StreamingTruth",
]

# Large enough to amortize numpy dispatch, small enough that per-chunk
# working state stays comfortably in cache-friendly territory.
DEFAULT_CHUNK_SIZE = 1 << 18


class StreamingCell(NamedTuple):
    """Everything one run needs: one scenario and one trace per path, a session.

    A single-path cell holds one :class:`PathScenario`, its trace and a
    :class:`~repro.core.protocol.VPMSession` (the one-path
    :class:`MeshSession`); a mesh cell holds the mesh's per-path scenarios
    (:attr:`~repro.simulation.mesh.MeshScenario.path_scenarios`), one trace
    per path and a :class:`MeshSession`.
    """

    scenarios: tuple[PathScenario, ...]
    traces: tuple[SyntheticTrace, ...]
    session: MeshSession


@dataclass
class StreamingTruth:
    """Ground truth of one domain, accumulated chunk-by-chunk.

    Stores per-chunk true-delay arrays plus loss/delivery counts — the pieces
    result summaries actually consume — instead of per-uid maps, so memory
    stays proportional to delivered packets (one float each).  The delay
    values are elementwise identical whatever the chunking, so quantiles
    match exactly.  Both engines (batch and streaming) record it.
    """

    domain: str
    lost_packets: int = 0
    delivered_packets: int = 0
    _delay_chunks: list[np.ndarray] = field(default_factory=list)
    _delays: np.ndarray | None = None

    def record(self, ingress_times: np.ndarray, egress_times: np.ndarray, lost: int) -> None:
        """Fold in one chunk's outcomes (delivered ingress/egress, lost count)."""
        if len(ingress_times):
            self._delay_chunks.append(egress_times - ingress_times)
            self._delays = None
        self.delivered_packets += len(ingress_times)
        self.lost_packets += lost

    @property
    def offered_packets(self) -> int:
        """Packets that entered the domain."""
        return self.delivered_packets + self.lost_packets

    @property
    def loss_rate(self) -> float:
        """True fraction of entering packets dropped inside the domain."""
        offered = self.offered_packets
        return self.lost_packets / offered if offered else 0.0

    @property
    def lost(self) -> range:
        """Sized stand-in for the dropped-packet set (only its length is used)."""
        return range(self.lost_packets)

    def delays(self) -> np.ndarray:
        """True per-packet delays of the packets the domain delivered."""
        if self._delays is None:
            self._delays = (
                np.concatenate(self._delay_chunks)
                if self._delay_chunks
                else np.empty(0, dtype=float)
            )
            self._delay_chunks = [self._delays] if len(self._delays) else []
        return self._delays

    def delay_quantiles(self, quantiles: Sequence[float]) -> dict[float, float]:
        """True delay quantiles of the delivered packets."""
        delays = self.delays()
        if delays.size == 0:
            return {quantile: 0.0 for quantile in quantiles}
        quantiles = list(quantiles)
        return dict(zip(quantiles, np.quantile(delays, quantiles).tolist()))

    def snapshot(self) -> dict:
        """A picklable snapshot of the accumulated ground truth."""
        return {
            "lost_packets": int(self.lost_packets),
            "delivered_packets": int(self.delivered_packets),
            "delays": self.delays().copy(),
        }

    def restore(self, state: dict) -> None:
        """Restore the accumulator to a :meth:`snapshot` (in place)."""
        self.lost_packets = int(state["lost_packets"])
        self.delivered_packets = int(state["delivered_packets"])
        delays = np.asarray(state["delays"], dtype=float)
        self._delay_chunks = [delays] if len(delays) else []
        self._delays = None


class _StreamSorter:
    """Stable time-sort over an append-only stream, emitted up to a watermark.

    Rows are appended in arrival order with a sort key; :meth:`push` emits the
    stable-sorted prefix whose keys are ``<= watermark`` (the caller
    guarantees every future key exceeds the watermark) and holds the rest.
    The emitted concatenation across pushes equals one stable whole-stream
    argsort — including tie-breaks, because held rows stay ordered ahead of
    later arrivals.

    Order-keeping stages (no delay variation, constant link latency) hand
    over keys that are already non-decreasing.  A stable argsort of those is
    the identity, so :meth:`push` skips it and emits the prefix as a
    zero-copy slice of the input batch.  Held rows are always gathered into
    a detached copy (columns, digests and keys), so a handful of in-flight
    packets never pins a whole source chunk.
    """

    def __init__(self) -> None:
        self._batch: PacketBatch | None = None
        self._keys: np.ndarray | None = None

    @property
    def pending(self) -> int:
        return 0 if self._keys is None else len(self._keys)

    def push(
        self, batch: PacketBatch, keys: np.ndarray, watermark: float
    ) -> tuple[PacketBatch, np.ndarray]:
        if self._batch is not None:
            if len(batch):
                batch = PacketBatch.concat([self._batch, batch])
                keys = np.concatenate([self._keys, keys])
            else:
                batch, keys = self._batch, self._keys
            self._batch = self._keys = None
        count = len(batch)
        if count == 0:
            return batch, keys
        if np.all(keys[1:] >= keys[:-1]):
            cut = int(np.searchsorted(keys, watermark, side="right"))
            if cut == count:
                return batch, keys  # already sorted and fully emittable
            self._hold(batch.take(np.arange(cut, count)), keys[cut:])
            return batch.take(slice(0, cut)), keys[:cut]
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        cut = int(np.searchsorted(sorted_keys, watermark, side="right"))
        if cut < count:
            self._hold(batch.take(order[cut:]), sorted_keys[cut:])
        return batch.take(order[:cut]), sorted_keys[:cut]

    def _hold(self, rows: PacketBatch, keys: np.ndarray) -> None:
        """Keep gathered rows for a later push, sharing no memory with the input."""
        self._batch = rows.detach_root()
        self._keys = keys.copy()

    def snapshot(self) -> dict:
        """The held rows and their keys (shared, never mutated in place)."""
        return {"batch": self._batch, "keys": self._keys}

    def restore(self, state: dict) -> None:
        self._batch = state["batch"]
        self._keys = state["keys"]


class _DomainStage:
    """One domain segment: delay, loss, egress sort and extra reordering."""

    def __init__(
        self,
        scenario: PathScenario,
        domain: Domain,
        condition: SegmentCondition,
        truth: StreamingTruth | None,
    ) -> None:
        self._scenario = scenario
        self._condition = condition
        self._truth = truth
        self._egress_sorter = _StreamSorter()
        self._reordering = condition.reordering
        self._reorder_sorter = (
            _StreamSorter() if self._reordering.max_lateness != 0.0 else None
        )

    def push(
        self, batch: PacketBatch, times: np.ndarray, watermark: float
    ) -> tuple[PacketBatch, np.ndarray]:
        if len(batch):
            lost, egress_times = self._scenario.domain_effects_batch(
                self._condition, batch, times
            )
            if lost.any():
                survivors = np.flatnonzero(~lost)
                batch = batch.take(survivors)
                ingress_times, times = times[survivors], egress_times[survivors]
            else:
                ingress_times, times = times, egress_times
            if self._truth is not None:
                self._truth.record(ingress_times, times, len(lost) - len(times))
        # Natural reordering from variable delays, then any extra reordering —
        # the model's perturbation draws run in sorted-egress order, exactly
        # as one whole-stream ``reordering.apply`` would consume them.
        emitted, emitted_times = self._egress_sorter.push(batch, times, watermark)
        if self._reorder_sorter is None:
            return emitted, emitted_times
        perturbed = self._reordering.perturb(emitted_times)
        return self._reorder_sorter.push(emitted, perturbed, watermark)

    def snapshot(self) -> dict:
        state = {
            "delay": self._condition.delay_model.state_snapshot(),
            "loss": self._condition.loss_model.state_snapshot(),
            "reordering": self._reordering.state_snapshot(),
            "egress": self._egress_sorter.snapshot(),
            "reorder": None,
        }
        if self._reorder_sorter is not None:
            state["reorder"] = self._reorder_sorter.snapshot()
        return state

    def restore(self, state: dict) -> None:
        self._condition.delay_model.state_restore(state["delay"])
        self._condition.loss_model.state_restore(state["loss"])
        self._reordering.state_restore(state["reordering"])
        self._egress_sorter.restore(state["egress"])
        if self._reorder_sorter is not None:
            self._reorder_sorter.restore(state["reorder"])


class _LinkStage:
    """One inter-domain link: transfer losses and arrival-time sort."""

    def __init__(self, link, key: tuple[int, int], losses: dict) -> None:
        self._link = link
        self._lost: set[int] = losses.setdefault(key, set())
        self._sorter = _StreamSorter()

    def push(
        self, batch: PacketBatch, times: np.ndarray, watermark: float
    ) -> tuple[PacketBatch, np.ndarray]:
        if len(batch):
            delivered, far_times = self._link.transfer_batch(times)
            if not delivered.all():
                self._lost.update(int(uid) for uid in batch.uid[~delivered])
                batch = batch.take(np.flatnonzero(delivered))
            times = far_times
        return self._sorter.push(batch, times, watermark)

    def snapshot(self) -> dict:
        return {
            "link": self._link.state_snapshot(),
            "sorter": self._sorter.snapshot(),
            "lost": set(self._lost),
        }

    def restore(self, state: dict) -> None:
        self._link.state_restore(state["link"])
        self._sorter.restore(state["sorter"])
        # ``_lost`` aliases the stream's ``link_losses`` entry; mutate in
        # place so both views stay the same set object.
        self._lost.clear()
        self._lost.update(state["lost"])


class ScenarioStream:
    """Drives a :class:`PathScenario` chunk-by-chunk with exact parity.

    Push source chunks in send order (:meth:`push`), then :meth:`flush` once;
    each call returns the newly emitted ``(hop_id, batch, times)`` observation
    spans per HOP, whose concatenation over the whole run is bit-identical to
    one whole-trace pass (:meth:`PathScenario.run_batch`).  Memory is bounded
    by the chunk size plus the packets in flight inside delay/reorder
    holdback windows.  Only :meth:`push` requires a streamable scenario.

    ``predigest`` lists the packet digesters in play; each chunk is digested
    once up front so every downstream slice and splice reuses the cached
    values (the one-hash-per-packet property of the batch engine).
    """

    def __init__(
        self,
        scenario: PathScenario,
        predigest: Sequence[PacketDigester] = (),
    ) -> None:
        self.scenario = scenario
        self.link_losses: dict[tuple[int, int], set[int]] = {}
        self.domain_truth: dict[str, StreamingTruth] = {}
        #: Chunks consumed so far — the chunk index the stream expects next.
        self.chunks_pushed = 0
        self._predigest = tuple(dict.fromkeys(predigest))
        self._watermark = -np.inf
        self._template: PacketBatch | None = None

        for segment in scenario.path.domain_segments():
            name = segment[0].name
            self.domain_truth[name] = StreamingTruth(domain=name)

        self._stages: list[tuple[object, HOP]] = []
        hops = scenario.path.hops
        for index, hop in enumerate(hops[:-1]):
            next_hop = hops[index + 1]
            if hop.domain == next_hop.domain:
                stage = _DomainStage(
                    scenario,
                    hop.domain,
                    scenario.condition_for(hop.domain),
                    self.domain_truth.get(hop.domain.name),
                )
            else:
                link = scenario.topology.link_between(hop, next_hop)
                stage = _LinkStage(
                    link, (hop.hop_id, next_hop.hop_id), self.link_losses
                )
            self._stages.append((stage, next_hop))

    def push(self, chunk: PacketBatch) -> list[tuple[int, PacketBatch, np.ndarray]]:
        """Propagate one source chunk; return the emissions at every HOP."""
        if len(chunk) == 0:
            return []
        check_scenario_streamable(self.scenario)
        for digester in self._predigest:
            digester.digest_batch(chunk)
        self.chunks_pushed += 1
        self._template = chunk
        self._watermark = float(chunk.send_time[-1])
        return self._advance(chunk, chunk.send_time.copy(), self._watermark)

    def flush(
        self, final_chunk: PacketBatch | None = None
    ) -> list[tuple[int, PacketBatch, np.ndarray]]:
        """Drain every holdback buffer (end of stream), after ``final_chunk``.

        ``final_chunk`` runs under the unbounded end-of-stream watermark, so
        every stage emits everything in this one call: ``flush(whole_trace)``
        on a fresh stream is the one-pass run of :meth:`PathScenario.run_batch`.
        """
        if final_chunk is None:
            if self._template is None:
                return []
            final_chunk = self._template.take(np.empty(0, dtype=np.int64))
        return self._advance(final_chunk, final_chunk.send_time.copy(), np.inf)

    def _advance(
        self, batch: PacketBatch, times: np.ndarray, watermark: float
    ) -> list[tuple[int, PacketBatch, np.ndarray]]:
        source_hop = self.scenario.path.hops[0]
        emissions = [(source_hop.hop_id, batch, times)]
        current_batch, current_times = batch, times
        for stage, next_hop in self._stages:
            current_batch, current_times = stage.push(
                current_batch, current_times, watermark
            )
            emissions.append((next_hop.hop_id, current_batch, current_times))
        return emissions

    def checkpoint(self) -> StreamCheckpoint:
        """Freeze the complete propagation state at the current chunk boundary.

        The checkpoint is a plain picklable value; a fresh stream over the
        same scenario spec that :meth:`seek`\\ s to it continues the run
        bit-identically — same emissions, same holdback contents, same model
        draws — and keeps accumulating the same ground truth, which the
        checkpoint snapshots too.
        """
        template = None
        if self._template is not None:
            template = self._template.take(np.empty(0, dtype=np.int64)).detach_root()
        truth = {
            name: accumulator.snapshot()
            for name, accumulator in self.domain_truth.items()
        }
        return StreamCheckpoint(
            chunk_index=self.chunks_pushed,
            watermark=float(self._watermark),
            template=template,
            stages=tuple(stage.snapshot() for stage, _ in self._stages),
            truth=truth,
        )

    def seek(self, checkpoint: StreamCheckpoint) -> None:
        """Restore a freshly constructed stream to ``checkpoint``'s state.

        After seeking, the next :meth:`push` must carry chunk
        ``checkpoint.chunk_index`` of the same trace
        (:meth:`SyntheticTrace.iter_batches` with ``start_chunk``) — from
        there on the stream is bit-identical to one that processed the whole
        prefix.  Only a pristine stream may seek; the stream must be built
        over the same scenario spec the checkpoint was captured from.
        """
        if self.chunks_pushed or self._template is not None:
            raise ValueError("seek requires a freshly constructed stream")
        if len(checkpoint.stages) != len(self._stages):
            raise ValueError(
                f"checkpoint has {len(checkpoint.stages)} stage snapshots, "
                f"stream has {len(self._stages)} stages — different scenario?"
            )
        for (stage, _), state in zip(self._stages, checkpoint.stages):
            stage.restore(state)
        self._watermark = checkpoint.watermark
        self._template = checkpoint.template
        self.chunks_pushed = checkpoint.chunk_index
        for name, state in checkpoint.truth.items():
            self.domain_truth[name].restore(state)


def check_scenario_streamable(scenario: PathScenario) -> None:
    """Raise ``ValueError`` naming every component streaming cannot drive exactly."""
    problems: list[str] = []
    for segment in scenario.path.domain_segments():
        name = segment[0].name
        condition = scenario.condition_for(name)
        if not getattr(condition.delay_model, "streamable", False):
            problems.append(
                f"domain {name!r}: delay model "
                f"{type(condition.delay_model).__name__} is not streamable"
            )
        if not getattr(condition.loss_model, "streamable", False):
            problems.append(
                f"domain {name!r}: loss model "
                f"{type(condition.loss_model).__name__} is not streamable"
            )
        if getattr(condition.reordering, "max_lateness", None) is None:
            problems.append(
                f"domain {name!r}: reordering model "
                f"{type(condition.reordering).__name__} declares no max_lateness"
            )
    if problems:
        raise ValueError(
            "the streaming engine cannot reproduce this scenario exactly: "
            + "; ".join(problems)
            + " (use the batch engine, or make the component streamable)"
        )


@dataclass
class StreamingResult:
    """Everything a run produced.

    ``path_truth[i]`` and ``link_losses[i]`` are path ``i``'s ground truth.
    ``domain_truth`` and :meth:`truth_for` read path 0 by default, the only
    path of a single-path cell, so result summarization code reads this and
    a :class:`~repro.simulation.scenario.BatchPathObservation` alike.
    ``session`` is the VPM session whose bus now holds the published reports.
    ``chunk_size`` is ``None`` for a one-pass run, which counts as one chunk.
    """

    reports: dict[int, HOPReport]
    session: MeshSession
    path_truth: tuple[dict[str, StreamingTruth], ...]
    link_losses: tuple[dict[tuple[int, int], set[int]], ...]
    chunk_size: int | None
    chunks: int

    @property
    def domain_truth(self) -> dict[str, StreamingTruth]:
        """Path 0's per-domain ground truth."""
        return self.path_truth[0]

    def truth_for(self, domain: Domain | str, path_index: int = 0) -> StreamingTruth:
        name = domain.name if isinstance(domain, Domain) else domain
        return self.path_truth[path_index][name]


def _collectors_by_hop(session: MeshSession) -> dict[int, HOPCollector]:
    collectors: dict[int, HOPCollector] = {}
    for agent in session.agents.values():
        for hop_id in agent.hop_ids:
            collectors[hop_id] = agent.collector(hop_id)
    return collectors


def _session_digesters(session: MeshSession) -> list[PacketDigester]:
    return list(
        dict.fromkeys(
            agent.collector(hop_id).config.digester
            for agent in session.agents.values()
            for hop_id in agent.hop_ids
        )
    )


def _feed(
    collectors: dict[int, HOPCollector],
    per_path_emissions: Iterable[list[tuple[int, PacketBatch, np.ndarray]]],
) -> None:
    """Feed one round's emissions to the collectors, merged across paths per HOP.

    This is the only place the vectorised engines hand packets to a collector.
    A HOP on one path gets its span as is; a shared HOP gets the stable
    timestamp merge of the paths' spans (:func:`merge_hop_streams`).
    """
    spans_by_hop: dict[int, list[tuple[PacketBatch, np.ndarray]]] = {}
    for emissions in per_path_emissions:
        for hop_id, batch, times in emissions:
            if len(batch):
                spans_by_hop.setdefault(hop_id, []).append((batch, times))
    for hop_id, spans in spans_by_hop.items():
        collector = collectors.get(hop_id)
        if collector is not None:
            collector.observe_batch(*merge_hop_streams(spans))


@dataclass
class RunnerCheckpoint:
    """A mid-interval resume point for a chunked single-path run.

    Couples the stream's propagation state (with ground truth) to the VPM
    collectors' state at the same chunk boundary, so a killed run can resume
    exactly where it stopped: install the collectors, seek the stream, and
    continue — receipts, estimates and truth come out byte-identical to an
    uninterrupted run.  A checkpoint handed to a ``checkpoint_sink`` holds
    *live* collector references; persist it (pickle) before the run
    continues, or the state will advance underneath it.
    """

    stream: StreamCheckpoint
    collectors: dict[int, HOPCollector]
    chunk_size: int


class StreamingRunner:
    """Drives a VPM measurement interval over N >= 1 paths in one process.

    Each round pushes one trace chunk per path through that path's
    :class:`ScenarioStream`, all paths in lockstep, and feeds every HOP the
    timestamp-merged union of the round's emissions; with one path the merge
    is the identity.  Per-path collector state depends only on that path's
    sub-stream in its own time order, which every merge preserves, so
    receipts do not depend on the chunk size.

    Parameters
    ----------
    cell:
        The :class:`StreamingCell` to run.
    chunk_size:
        Trace packets per chunk; memory scales with this, results never
        depend on it.  ``None`` runs one pass: each path's whole trace is its
        stream's final chunk (:meth:`ScenarioStream.flush`).  That pass is the
        batch engine, and it runs non-streamable components too.
    checkpoint_every:
        Hand a :class:`RunnerCheckpoint` to ``checkpoint_sink`` after every
        ``checkpoint_every`` chunks (skipping the final boundary, where
        finishing beats resuming).  Chunked single-path runs only.
    checkpoint_sink:
        Callable receiving those mid-interval checkpoints.  Chunked
        single-path runs only.
    resume_from:
        A previously captured :class:`RunnerCheckpoint` (typically pickled
        across a process boundary); the run installs its collectors, seeks
        its stream state, and continues from its chunk boundary.  Chunked
        single-path runs only.

    :meth:`run` returns a :class:`StreamingResult`; afterwards the session's
    receipt bus holds the published reports.
    """

    def __init__(
        self,
        cell: StreamingCell,
        chunk_size: int | None = DEFAULT_CHUNK_SIZE,
        checkpoint_every: int | None = None,
        checkpoint_sink: Callable[[RunnerCheckpoint], None] | None = None,
        resume_from: RunnerCheckpoint | None = None,
    ) -> None:
        if not cell.scenarios or len(cell.scenarios) != len(cell.traces):
            raise ValueError(
                f"a cell needs one trace per path, got {len(cell.scenarios)} "
                f"scenarios and {len(cell.traces)} traces"
            )
        if chunk_size is not None and chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        if checkpoint_every is not None and checkpoint_every <= 0:
            raise ValueError(
                f"checkpoint_every must be positive, got {checkpoint_every}"
            )
        # The one owner of the rule: mid-interval checkpoints need a chunked,
        # single-path run.
        for name, value in (
            ("checkpoint_every", checkpoint_every),
            ("checkpoint_sink", checkpoint_sink),
            ("resume_from", resume_from),
        ):
            if value is None:
                continue
            if chunk_size is None:
                raise ValueError(
                    f"{name} needs a chunked run; chunk_size=None is one "
                    f"whole-trace pass with no chunk boundary to resume at"
                )
            if len(cell.scenarios) > 1:
                raise ValueError(
                    f"{name} applies to single-path streaming cells only; this "
                    f"cell has {len(cell.scenarios)} paths"
                )
        if resume_from is not None and resume_from.chunk_size != chunk_size:
            raise ValueError(
                f"resume checkpoint was captured at chunk_size="
                f"{resume_from.chunk_size}, runner uses {chunk_size}"
            )
        self._cell = cell
        self.chunk_size = chunk_size
        self.checkpoint_every = checkpoint_every
        self._checkpoint_sink = checkpoint_sink
        self._resume_from = resume_from

    def run(self) -> StreamingResult:
        cell = self._cell
        session = cell.session
        resume = self._resume_from
        if resume is not None:
            # Install the checkpointed collectors *before* wiring digesters,
            # so predigested chunks land in the caches the restored
            # collectors actually consult.
            for agent in session.agents.values():
                for hop_id in agent.hop_ids:
                    agent.replace_collector(hop_id, resume.collectors[hop_id])
        collectors = _collectors_by_hop(session)
        digesters = _session_digesters(session)
        streams = [
            ScenarioStream(scenario, predigest=digesters) for scenario in cell.scenarios
        ]
        if self.chunk_size is None:
            chunks = 1
            _feed(
                collectors,
                [
                    stream.flush(trace.packet_batch())
                    for stream, trace in zip(streams, cell.traces)
                ],
            )
        else:
            chunks = self._run_chunked(streams, collectors)
        return StreamingResult(
            reports=session.collect_reports(),
            session=session,
            path_truth=tuple(stream.domain_truth for stream in streams),
            link_losses=tuple(stream.link_losses for stream in streams),
            chunk_size=self.chunk_size,
            chunks=chunks,
        )

    def _run_chunked(
        self, streams: list[ScenarioStream], collectors: dict[int, HOPCollector]
    ) -> int:
        """Push every path chunk by chunk, in lockstep; the number of rounds."""
        traces = self._cell.traces
        total_chunks = max(
            -(-trace.config.packet_count // self.chunk_size) for trace in traces
        )
        start_chunk = 0
        if self._resume_from is not None:
            streams[0].seek(self._resume_from.stream)
            start_chunk = self._resume_from.stream.chunk_index
        iterators = [
            trace.iter_batches(self.chunk_size, start_chunk=start_chunk)
            for trace in traces
        ]
        for pushed in range(start_chunk + 1, total_chunks + 1):
            rounds = []
            for stream, iterator in zip(streams, iterators):
                chunk = next(iterator, None)
                rounds.append(stream.push(chunk) if chunk is not None else [])
            _feed(collectors, rounds)
            if (
                self._checkpoint_sink is not None
                and self.checkpoint_every
                and pushed < total_chunks
                and pushed % self.checkpoint_every == 0
            ):
                self._checkpoint_sink(
                    RunnerCheckpoint(
                        stream=streams[0].checkpoint(),
                        collectors=collectors,
                        chunk_size=self.chunk_size,
                    )
                )
        _feed(collectors, [stream.flush() for stream in streams])
        return total_chunks
