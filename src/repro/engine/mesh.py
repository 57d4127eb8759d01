"""Mesh execution: N paths over one topology, in one pass or chunked.

Two engines drive a :class:`~repro.simulation.mesh.MeshScenario`:

* the batch engine — :meth:`MeshScenario.run_batch` then
  :meth:`~repro.core.protocol.MeshSession.run`, as
  :func:`repro.api.runner.run_mesh_cell_full` calls them — runs every path's
  whole trace as one pass of its :class:`~repro.engine.streaming.ScenarioStream`
  and feeds each HOP's merged observation union to the session's collectors
  in one call;
* :class:`MeshRunner` streams all paths *in lockstep*, one trace chunk per
  path per round, pushing each path's chunk through its own
  :class:`~repro.engine.streaming.ScenarioStream` and feeding each HOP the
  chunk-wise timestamp-merged union.

Both engines leave every collector in bit-identical state: per-path collector
state depends only on that path's sub-stream (in its own time order), which
both the whole-run merge and the chunk-wise merges preserve — so receipts,
estimates, verdicts and triangulation byte-match across engines and chunk
sizes (``time_sum`` at its documented tolerance), which the mesh conformance
suite asserts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from repro.core.hop import HOPCollector, HOPReport
from repro.core.protocol import MeshSession
from repro.engine.streaming import (
    DEFAULT_CHUNK_SIZE,
    ScenarioStream,
    StreamingTruth,
    _collectors_by_hop,
    _session_digesters,
)
from repro.net.batch import PacketBatch
from repro.net.topology import Domain
from repro.simulation.mesh import MeshScenario, merge_hop_streams
from repro.traffic.trace import SyntheticTrace

__all__ = ["MeshCell", "MeshRunner", "MeshStreamingResult"]


class MeshCell(NamedTuple):
    """Everything one mesh run needs: scenario, one trace per path, session."""

    scenario: MeshScenario
    traces: tuple[SyntheticTrace, ...]
    session: MeshSession


@dataclass
class MeshStreamingResult:
    """Everything a streaming mesh run produced.

    ``path_truth[i]`` maps domain name to that domain's
    :class:`~repro.engine.streaming.StreamingTruth` on path ``i`` — the same
    type as the batch engine's per-path ground truth, with elementwise
    identical delay/loss values.
    """

    reports: dict[int, HOPReport]
    session: MeshSession
    path_truth: tuple[dict[str, StreamingTruth], ...]
    chunk_size: int
    chunks: int

    def truth_for(self, path_index: int, domain: Domain | str) -> StreamingTruth:
        name = domain.name if isinstance(domain, Domain) else domain
        return self.path_truth[path_index][name]


def _total_chunks(traces: Sequence[SyntheticTrace], chunk_size: int) -> int:
    return max(
        -(-trace.config.packet_count // chunk_size) for trace in traces
    )


def _feed_merged(
    collectors: dict[int, HOPCollector],
    per_path_emissions: Iterable[list[tuple[int, PacketBatch, np.ndarray]]],
) -> None:
    """Merge one round's emissions across paths per HOP and feed collectors."""
    spans_by_hop: dict[int, list[tuple[PacketBatch, np.ndarray]]] = {}
    for emissions in per_path_emissions:
        for hop_id, batch, times in emissions:
            if len(batch):
                spans_by_hop.setdefault(hop_id, []).append((batch, times))
    for hop_id, spans in spans_by_hop.items():
        collector = collectors.get(hop_id)
        if collector is None:
            continue
        batch, times = merge_hop_streams(spans)
        collector.observe_batch(batch, times)


def _advance_round(
    streams: Sequence[ScenarioStream], iterators: Sequence, flush: bool = False
) -> list[list[tuple[int, PacketBatch, np.ndarray]]]:
    """Push one chunk per path (or flush every stream) and gather emissions."""
    per_path: list[list[tuple[int, PacketBatch, np.ndarray]]] = []
    for stream, iterator in zip(streams, iterators):
        if flush:
            per_path.append(stream.flush())
            continue
        chunk = next(iterator, None)
        per_path.append(stream.push(chunk) if chunk is not None else [])
    return per_path


class MeshRunner:
    """Drives a mesh measurement interval chunk-by-chunk, all paths in lockstep.

    Mirrors :class:`~repro.engine.streaming.StreamingRunner`: each round
    pushes one trace chunk per path through that path's
    :class:`~repro.engine.streaming.ScenarioStream` and feeds every HOP the
    timestamp-merged union of the round's emissions — receipt-identical to
    the batch engine.
    """

    def __init__(self, cell: MeshCell, chunk_size: int = DEFAULT_CHUNK_SIZE) -> None:
        if chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        self._cell = cell
        self.chunk_size = int(chunk_size)

    def run(self) -> MeshStreamingResult:
        cell = self._cell
        total_chunks = _total_chunks(cell.traces, self.chunk_size)
        collectors = _collectors_by_hop(cell.session)
        digesters = _session_digesters(cell.session)
        streams = [
            ScenarioStream(scenario, predigest=digesters)
            for scenario in cell.scenario.path_scenarios
        ]
        iterators = [trace.iter_batches(self.chunk_size) for trace in cell.traces]
        for _ in range(total_chunks):
            _feed_merged(collectors, _advance_round(streams, iterators))
        _feed_merged(collectors, _advance_round(streams, iterators, flush=True))
        reports = cell.session.collect_reports()
        return MeshStreamingResult(
            reports=reports,
            session=cell.session,
            path_truth=tuple(stream.domain_truth for stream in streams),
            chunk_size=self.chunk_size,
            chunks=total_chunks,
        )
