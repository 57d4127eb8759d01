"""Checkpointable long-horizon campaign execution.

The paper's framing is a contract held over a long horizon ("a certain level
of packet loss per month") audited from per-interval receipts.
:class:`CampaignRunner` executes a :class:`~repro.api.spec.CampaignSpec` one
interval at a time on the fast engines (batch, streaming, or the mesh
engines, per the cell spec / runtime override), folds each
interval into campaign-level statistics **incrementally** — pooled delay
quantiles live in a :class:`~repro.analysis.quantiles.MergedDelayPool`, never
re-pooled from raw samples, or (with ``EstimationSpec.mode="sketch"``) in a
bounded-memory :class:`~repro.analysis.sketch.DelayQuantileSketch` whose
per-interval record state is O(sketch) bytes regardless of traffic volume —
and checkpoints after every interval to a :class:`~repro.store.RunStore`.

Because interval ``i`` is a pure function of ``(spec, i)`` (the spec's
BLAKE2b seed-spacing) and the store append is atomic, a campaign killed at
any instant resumes from its last completed interval and finishes with a
store **byte-identical** to an uninterrupted run — the property the
``campaign-smoke`` CI job and the resume property suite enforce.  Engine
choice never perturbs the store either: the engines' byte-identical results
contract means a run started on the batch engine may resume on the
streaming engine, at any chunk size, and still match.

An :class:`~repro.api.spec.ExecutionPolicy` with ``checkpoint_every`` set
tightens the granularity further: the streaming engine persists a
mid-interval :class:`~repro.engine.streaming.RunnerCheckpoint` every N
chunks, so a kill *inside* a long interval resumes from the last chunk
boundary — seeking the propagation state instead of replaying the prefix —
and still finishes with the identical store.
"""

from __future__ import annotations

import hashlib
import pickle
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from repro.analysis.quantiles import MergedDelayPool
from repro.analysis.sketch import DelayQuantileSketch
from repro.analysis.sla import SLAVerdict, check_sla
from repro.api.spec import CampaignSpec, ExecutionPolicy, ExperimentSpec, MeshSpec
from repro.engine.streaming import DEFAULT_CHUNK_SIZE, RunnerCheckpoint
from repro.core.estimation import (
    DelayQuantileEstimate,
    estimate_delay_quantiles,
    match_sample_delays,
)
from repro.core.hop import HOPCollector
from repro.core.verifier import DomainPerformance, Verifier
from repro.net.topology import HOPPath
from repro.reporting.serialization import receipts_digest
from repro.store import RunStore, RunStoreError
from repro.store.runstore import _atomic_write

__all__ = [
    "CampaignAccumulator",
    "CampaignEvent",
    "CampaignRunner",
    "CampaignRunOutcome",
    "CheckpointWritten",
    "IntervalCommitted",
    "RunComplete",
    "appendable_records",
    "estimation_settings",
    "interval_record",
]

#: Version 2 digests receipts as ``VPM2``; version 1 hashed canonical JSON.
RECORD_VERSION = 2


@dataclass(frozen=True)
class IntervalCommitted:
    """Interval ``interval`` finished and its record is durably in the store."""

    interval: int
    intervals: int
    record: Mapping[str, Any]


@dataclass(frozen=True)
class CheckpointWritten:
    """A mid-interval stream checkpoint landed at a chunk boundary."""

    interval: int
    intervals: int
    chunk_index: int


@dataclass(frozen=True)
class RunComplete:
    """The campaign's final interval committed and the summary was written."""

    intervals: int
    summary: Mapping[str, Any]


#: Everything a campaign run can report while it executes.  Consumers match on
#: the concrete type; the union exists so a sink can be typed once and handed
#: to any driver (the CLI's progress printer and the measurement service's job
#: event log both consume exactly this stream).
CampaignEvent = IntervalCommitted | CheckpointWritten | RunComplete


def estimation_settings(cell: ExperimentSpec | MeshSpec) -> tuple[str, int]:
    """The estimation tier ``(mode, sketch_size)`` one cell spec selects."""
    if isinstance(cell, MeshSpec):
        return cell.estimation_mode, cell.sketch_size
    return cell.estimation.mode, cell.estimation.sketch_size


def _matched_delays(verifier: Verifier, path: HOPPath, domain: str) -> np.ndarray:
    """The domain's matched ingress/egress delay samples on one path."""
    hops = path.hops_of(domain)
    if len(hops) < 2:
        return np.empty(0, dtype=np.float64)
    ingress = verifier.sample_receipt_for(hops[0].hop_id)
    egress = verifier.sample_receipt_for(hops[-1].hop_id)
    if ingress is None or egress is None:
        return np.empty(0, dtype=np.float64)
    return match_sample_delays(ingress, egress)


def _performance_from(
    domain: str,
    delays: np.ndarray,
    quantiles: Sequence[float],
    offered: int,
    lost: int,
) -> DomainPerformance:
    """A synthetic performance view over pooled samples (for SLA checking)."""
    estimates: dict[float, DelayQuantileEstimate] = {}
    if len(delays):
        estimates = estimate_delay_quantiles(delays, quantiles)
    return DomainPerformance(
        domain=domain,
        delay_quantiles=estimates,
        delay_sample_count=int(len(delays)),
        offered_packets=int(offered),
        lost_packets=int(lost),
    )


def _quantile_payload(
    delays: np.ndarray, quantiles: Sequence[float]
) -> dict[str, dict[str, float]]:
    if not len(delays):
        return {}
    estimates = estimate_delay_quantiles(delays, quantiles)
    return {
        repr(float(quantile)): {
            "estimate": entry.estimate,
            "lower": entry.lower,
            "upper": entry.upper,
        }
        for quantile, entry in sorted(estimates.items())
    }


class _IntervalOutcome(NamedTuple):
    """Per-domain raw material of one executed interval."""

    delays: dict[str, np.ndarray]
    offered: dict[str, int]
    lost: dict[str, int]
    accepted: dict[str, bool | None]
    receipts_digest: str
    result_digest: str


def _run_interval(
    cell: ExperimentSpec | MeshSpec,
    policy: ExecutionPolicy,
    checkpoint_sink: Callable[[RunnerCheckpoint], None] | None = None,
    resume_from: RunnerCheckpoint | None = None,
) -> _IntervalOutcome:
    """Run one interval's cell and pool its per-domain raw material.

    A cell is read through per-path views ``(path, observer, targets, path
    result)``: a single path is the one view its spec's estimation names, a
    mesh has one view per path, observed from its source over every transit
    domain.  A domain crossed by several paths pools their delays, sums their
    counts, and is accepted only if every crossing path accepted it.
    """
    from repro.api.runner import run_cell_full

    run = run_cell_full(
        cell, policy=policy, checkpoint_sink=checkpoint_sink, resume_from=resume_from
    )
    if isinstance(cell, MeshSpec):
        views = [
            (
                path,
                path.domains[0].name,
                [domain.name for domain, _, _ in path.domain_segments()],
                run.result.paths[index],
            )
            for index, path in enumerate(run.session.paths)
        ]
    else:
        views = [
            (run.session.path, cell.estimation.observer, cell.estimation.targets, run.result)
        ]

    delays: dict[str, list[np.ndarray]] = {}
    offered: dict[str, int] = {}
    lost: dict[str, int] = {}
    accepted: dict[str, bool | None] = {}
    for path, observer, targets, path_result in views:
        verifier = run.session.verifier_for(observer, path)
        for name in targets:
            entry = path_result.target(name)
            delays.setdefault(name, []).append(_matched_delays(verifier, path, name))
            offered[name] = offered.get(name, 0) + entry.estimate.offered_packets
            lost[name] = lost.get(name, 0) + entry.estimate.lost_packets
            path_accepted = (
                entry.verification.accepted if entry.verification is not None else None
            )
            if path_accepted is not None:
                previous = accepted.get(name)
                accepted[name] = (
                    path_accepted if previous is None else (previous and path_accepted)
                )
            else:
                accepted.setdefault(name, None)
    return _IntervalOutcome(
        delays={name: np.concatenate(spans) for name, spans in delays.items()},
        offered=offered,
        lost=lost,
        accepted=accepted,
        receipts_digest=receipts_digest(run.reports),
        result_digest=hashlib.blake2b(
            run.result.to_json().encode("utf-8"), digest_size=16
        ).hexdigest(),
    )


def interval_record(
    spec: CampaignSpec,
    index: int,
    engine: str | None = None,
    chunk_size: int | None = None,
    policy: ExecutionPolicy | None = None,
    checkpoint_sink: Callable[[RunnerCheckpoint], None] | None = None,
    resume_from: RunnerCheckpoint | None = None,
) -> dict[str, Any]:
    """Execute interval ``index`` and build its store record.

    A pure function of ``(spec, index)`` — the execution knobs (individual
    keywords or one :class:`~repro.api.spec.ExecutionPolicy`) select an
    engine but cannot perturb the record (the engines are byte-identical and
    ``time_sum``, the one tolerant field, is rounded to its 10-digit
    tolerance inside the ``VPM2`` receipts digest).  This purity is the
    whole checkpoint/resume story.
    ``checkpoint_sink`` / ``resume_from`` enable *mid-interval* streaming
    checkpoints (single-path streaming cells): resuming from a sink-fed
    :class:`~repro.engine.streaming.RunnerCheckpoint` yields the identical
    record.
    """
    policy = ExecutionPolicy.coerce(policy, engine=engine, chunk_size=chunk_size)
    cell = spec.interval_cell(index)
    outcome = _run_interval(
        cell, policy, checkpoint_sink=checkpoint_sink, resume_from=resume_from
    )
    quantiles = cell.quantiles if isinstance(cell, MeshSpec) else cell.estimation.quantiles

    mode, sketch_size = estimation_settings(cell)
    estimates: dict[str, Any] = {}
    verdicts: dict[str, Any] = {}
    delay_samples: dict[str, list[str]] = {}
    delay_sketch: dict[str, dict[str, Any]] = {}
    for domain in sorted(outcome.delays):
        delays = outcome.delays[domain]
        offered = outcome.offered[domain]
        lost = outcome.lost[domain]
        estimates[domain] = {
            "offered_packets": offered,
            "lost_packets": lost,
            "loss_rate": (lost / offered) if offered else 0.0,
            "delay_sample_count": int(len(delays)),
            "quantiles": _quantile_payload(delays, quantiles),
        }
        sla_compliant: bool | None = None
        if spec.sla is not None:
            performance = _performance_from(domain, delays, quantiles, offered, lost)
            sla_compliant = check_sla(performance, spec.sla.build()).compliant
        verdicts[domain] = {
            "accepted": outcome.accepted[domain],
            "sla_compliant": sla_compliant,
        }
        if mode == "sketch":
            delay_sketch[domain] = DelayQuantileSketch(
                sketch_size, delays
            ).to_state()
        else:
            delay_samples[domain] = [value.hex() for value in delays.tolist()]

    record: dict[str, Any] = {
        "version": RECORD_VERSION,
        "interval": index,
        "spec_hash": spec.spec_hash(),
        "seed": spec.interval_seed(index),
        "receipts_digest": outcome.receipts_digest,
        "result_digest": outcome.result_digest,
        "estimates": estimates,
        "verdicts": verdicts,
    }
    # Sketch-mode records carry O(sketch) bucket state instead of the raw
    # sample hex — the field name switch is what bounds record size.
    if mode == "sketch":
        record["delay_sketch"] = delay_sketch
    else:
        record["delay_samples"] = delay_samples
    return record


class CampaignAccumulator:
    """Campaign-level statistics folded incrementally from interval records.

    Pooled delay quantiles come from a per-domain
    :class:`~repro.analysis.quantiles.MergedDelayPool` — each record's
    samples merge into sorted state in linear time, never re-pooling past
    intervals.  The fold consumes *records* (not in-memory run objects), so a
    resumed campaign rebuilding its state from disk takes exactly the same
    path as an uninterrupted run and the final summary cannot diverge.
    """

    def __init__(self, spec: CampaignSpec) -> None:
        self.spec = spec
        self.mode, self.sketch_size = estimation_settings(spec.cell)
        self.pools: dict[str, MergedDelayPool | DelayQuantileSketch] = {}
        self.offered: dict[str, int] = {}
        self.lost: dict[str, int] = {}
        self.accepted_intervals: dict[str, int] = {}
        self.verified_intervals: dict[str, int] = {}
        self.intervals_folded = 0

    @property
    def quantiles(self) -> tuple[float, ...]:
        cell = self.spec.cell
        if isinstance(cell, MeshSpec):
            return cell.quantiles
        return cell.estimation.quantiles

    def _new_pool(self) -> MergedDelayPool | DelayQuantileSketch:
        if self.mode == "sketch":
            return DelayQuantileSketch(self.sketch_size)
        return MergedDelayPool()

    def fold(self, record: Mapping[str, Any]) -> None:
        """Fold one interval record (in interval order) into the campaign."""
        if record.get("interval") != self.intervals_folded:
            raise ValueError(
                f"expected record for interval {self.intervals_folded}, "
                f"got {record.get('interval')!r}"
            )
        for domain, estimate in record["estimates"].items():
            self.offered[domain] = (
                self.offered.get(domain, 0) + estimate["offered_packets"]
            )
            self.lost[domain] = self.lost.get(domain, 0) + estimate["lost_packets"]
            pool = self.pools.setdefault(domain, self._new_pool())
            if self.mode == "sketch":
                state = record.get("delay_sketch", {}).get(domain)
                if state is None:
                    raise ValueError(
                        f"sketch-mode campaign record for interval "
                        f"{record.get('interval')!r} carries no delay_sketch "
                        f"state for domain {domain!r} (was the store written "
                        f"by an exact-mode spec?)"
                    )
                pool.merge(DelayQuantileSketch.from_state(state))
            else:
                pool.extend(
                    [float.fromhex(value) for value in record["delay_samples"][domain]]
                )
            verdict = record["verdicts"][domain]
            if verdict["accepted"] is not None:
                self.verified_intervals[domain] = (
                    self.verified_intervals.get(domain, 0) + 1
                )
                if verdict["accepted"]:
                    self.accepted_intervals[domain] = (
                        self.accepted_intervals.get(domain, 0) + 1
                    )
        self.intervals_folded += 1

    @classmethod
    def from_records(
        cls, spec: CampaignSpec, records: Sequence[Mapping[str, Any]]
    ) -> "CampaignAccumulator":
        accumulator = cls(spec)
        for record in records:
            accumulator.fold(record)
        return accumulator

    def _sketch_estimates(
        self, pool: DelayQuantileSketch
    ) -> dict[float, DelayQuantileEstimate]:
        """Sketch quantiles as confidence-bounded estimates (for SLA checks).

        The lower/upper bounds are the sketch's guaranteed relative-error
        interval, so ``check_sla``'s optimistic-bound semantics carry over:
        a violation is flagged only when even the lower end of the guaranteed
        interval exceeds the promised bound.
        """
        estimates: dict[float, DelayQuantileEstimate] = {}
        for quantile, value in sorted(pool.quantiles(self.quantiles).items()):
            lower, upper = pool.value_bounds(value)
            estimates[quantile] = DelayQuantileEstimate(
                quantile=quantile,
                estimate=value,
                lower=lower,
                upper=upper,
                sample_count=len(pool),
            )
        return estimates

    def sla_verdict(self, domain: str) -> SLAVerdict | None:
        """The campaign-level SLA verdict for one domain (None without an SLA)."""
        if self.spec.sla is None:
            return None
        pool = self.pools.get(domain, self._new_pool())
        if self.mode == "sketch":
            performance = DomainPerformance(
                domain=domain,
                delay_quantiles=self._sketch_estimates(pool),
                delay_sample_count=len(pool),
                offered_packets=self.offered.get(domain, 0),
                lost_packets=self.lost.get(domain, 0),
            )
        else:
            performance = _performance_from(
                domain,
                np.asarray(pool.sorted_samples),
                self.quantiles,
                self.offered.get(domain, 0),
                self.lost.get(domain, 0),
            )
        return check_sla(performance, self.spec.sla.build())

    def summary(self) -> dict[str, Any]:
        """The campaign-level summary (a pure function of the folded records)."""
        domains: dict[str, Any] = {}
        for domain in sorted(self.pools):
            pool = self.pools[domain]
            offered = self.offered.get(domain, 0)
            lost = self.lost.get(domain, 0)
            verified = self.verified_intervals.get(domain, 0)
            accepted = self.accepted_intervals.get(domain, 0)
            verdict = self.sla_verdict(domain)
            if self.mode == "sketch":
                pooled_quantiles = {
                    repr(float(quantile)): {
                        "estimate": entry.estimate,
                        "lower": entry.lower,
                        "upper": entry.upper,
                        "relative_error_bound": pool.relative_accuracy,
                    }
                    for quantile, entry in sorted(
                        self._sketch_estimates(pool).items()
                    )
                }
            else:
                pooled_quantiles = _quantile_payload(
                    np.asarray(pool.sorted_samples), self.quantiles
                )
            domains[domain] = {
                "offered_packets": offered,
                "lost_packets": lost,
                "loss_rate": (lost / offered) if offered else 0.0,
                "delay_sample_count": len(pool),
                "pooled_quantiles": pooled_quantiles,
                "pool_digest": pool.state_digest(),
                "acceptance_rate": (accepted / verified) if verified else 1.0,
                "sla_compliant": verdict.compliant if verdict is not None else None,
            }
            # Sketch summaries annotate their precision so downstream
            # consumers (report, compare) are honest about the error bound;
            # exact summaries stay byte-identical to the pre-sketch format.
            if self.mode == "sketch":
                domains[domain]["estimation"] = {
                    "mode": "sketch",
                    "sketch_size": self.sketch_size,
                    "relative_error_bound": pool.relative_accuracy,
                    "bucket_count": pool.bucket_count,
                }
        return {
            "version": RECORD_VERSION,
            "spec_hash": self.spec.spec_hash(),
            "intervals": self.intervals_folded,
            "sla": self.spec.sla.to_dict() if self.spec.sla is not None else None,
            "domains": domains,
        }


def appendable_records(store: RunStore) -> list[dict[str, Any]]:
    """The store's records; :class:`~repro.store.RunStoreError` if one has another version.

    Extending such a store would mix two digest encodings in it, so the
    store's one writer, :class:`CampaignRunner`, checks here when it opens
    the store; readers read any version.
    """
    records = store.records()
    for record in records:
        if record.get("version") != RECORD_VERSION:
            raise RunStoreError(
                f"{store.path} holds record version {record.get('version')!r} "
                f"(interval {record.get('interval')!r}); this build appends "
                f"version {RECORD_VERSION} records only, so it cannot extend "
                f"the store (repro report still reads it)"
            )
    return records


class CampaignRunOutcome(NamedTuple):
    """What one :meth:`CampaignRunner.run` call achieved."""

    completed: bool
    intervals_run: int
    next_interval: int
    summary: dict[str, Any] | None


class CampaignRunner:
    """Drives a :class:`~repro.api.spec.CampaignSpec` with per-interval checkpoints.

    The runner is a store's only writer.  Every record enters the store
    through :meth:`commit` and the summary through :meth:`finish`, whoever
    computed the record: :meth:`run_interval` on this host, or a dispatch
    worker whose upload the :class:`~repro.dist.dispatch.DispatchCoordinator`
    feeds to its runner.

    Parameters
    ----------
    spec:
        The campaign to run.  May be omitted when ``store`` holds one (the
        resume path); when both are given they must hash identically.
    store:
        The durable :class:`~repro.store.RunStore` to checkpoint into.  With
        ``store=None`` the runner keeps records in memory only (useful for
        programmatic one-shot campaigns and tests).
    engine, chunk_size, policy:
        Execution-only knobs forwarded to every interval's cell run — either
        the individual keywords or one declarative
        :class:`~repro.api.spec.ExecutionPolicy` (not both); the stored
        records never depend on them.  A policy with ``checkpoint_every`` set
        (streaming, single-path cell, durable store) also
        persists *mid-interval* stream checkpoints to
        ``<store>/interval.ckpt``, so a kill inside a long interval resumes
        from the last chunk boundary instead of the interval's start; the
        finished store is byte-identical either way (the checkpoint file is
        removed when its interval commits).
    """

    #: Mid-interval checkpoint file, inside the run store directory.
    CHECKPOINT_NAME = "interval.ckpt"

    def __init__(
        self,
        spec: CampaignSpec | None = None,
        store: RunStore | None = None,
        engine: str | None = None,
        chunk_size: int | None = None,
        policy: ExecutionPolicy | None = None,
    ) -> None:
        if spec is None and store is None:
            raise ValueError("CampaignRunner needs a spec, a store, or both")
        if store is not None and spec is not None:
            store.validate_spec(spec)
        if store is not None:
            # The runner is the store's (single) writer: drop any tail a
            # previous life's kill left mid-append before continuing.
            store.repair_torn_tail()
        self.spec = spec if spec is not None else store.spec()
        self.store = store
        self.policy = ExecutionPolicy.coerce(policy, engine=engine, chunk_size=chunk_size)
        # Resolve against the cell eagerly: impossible combinations (mesh +
        # checkpoint_every, checkpoint_every off the streaming engine) die
        # here, not forty intervals into a soak run.
        self._bound = self.policy.bind(self.spec.cell)
        self._memory_records: list[dict[str, Any]] = []
        self._event_sink: Callable[[CampaignEvent], None] | None = None
        existing = appendable_records(store) if store is not None else []
        self.accumulator = CampaignAccumulator.from_records(self.spec, existing)

    @classmethod
    def resume(
        cls,
        store: RunStore | str,
        engine: str | None = None,
        chunk_size: int | None = None,
        policy: ExecutionPolicy | None = None,
    ) -> "CampaignRunner":
        """Reopen a store and continue from its last completed interval.

        The store's spec hash is re-validated on open; the accumulated
        campaign state is rebuilt by folding the persisted records, so the
        eventual summary is byte-identical to an uninterrupted run's.  If the
        killed run left a compatible mid-interval checkpoint, the next
        interval picks up at its chunk boundary.
        """
        if not isinstance(store, RunStore):
            store = RunStore.open(store)
        return cls(
            spec=None,
            store=store,
            engine=engine,
            chunk_size=chunk_size,
            policy=policy,
        )

    # -- mid-interval checkpoints ------------------------------------------------------

    @property
    def _checkpoint_path(self) -> Path | None:
        if self.store is None:
            return None
        return Path(self.store.path) / self.CHECKPOINT_NAME

    def _clear_interval_checkpoint(self) -> None:
        path = self._checkpoint_path
        if path is not None:
            path.unlink(missing_ok=True)

    def _load_interval_checkpoint(self, index: int) -> RunnerCheckpoint | None:
        """The persisted mid-interval checkpoint for ``index``, if compatible.

        Compatibility is strict — same spec hash, same interval, collectors
        pickled under the current
        :attr:`~repro.core.hop.HOPCollector.STATE_TAG`, a streaming policy
        with the same chunk size — and anything else (including an
        unreadable file) discards the checkpoint and re-runs the interval
        from its start, which is always correct.
        """
        path = self._checkpoint_path
        if path is None or not path.exists():
            return None
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
            checkpoint = payload["checkpoint"]
            compatible = (
                payload["spec_hash"] == self.spec.spec_hash()
                and payload["interval"] == index
                and payload.get("collector_state") == HOPCollector.STATE_TAG
                and isinstance(checkpoint, RunnerCheckpoint)
                and self._bound.engine == "streaming"
                and checkpoint.chunk_size
                == (self._bound.chunk_size or DEFAULT_CHUNK_SIZE)
            )
        except Exception:
            compatible = False
        if not compatible:
            self._clear_interval_checkpoint()
            return None
        return checkpoint

    def _interval_checkpoint_sink(
        self, index: int
    ) -> Callable[[RunnerCheckpoint], None] | None:
        if self._bound.checkpoint_every is None or self.store is None:
            return None
        path = self._checkpoint_path
        spec_hash = self.spec.spec_hash()
        throttle = self.policy.throttle

        def sink(checkpoint: RunnerCheckpoint) -> None:
            payload = {
                "spec_hash": spec_hash,
                "interval": index,
                "collector_state": HOPCollector.STATE_TAG,
                "checkpoint": checkpoint,
            }
            _atomic_write(path, pickle.dumps(payload))
            self._emit(
                CheckpointWritten(
                    interval=index,
                    intervals=self.spec.intervals,
                    chunk_index=checkpoint.stream.chunk_index,
                )
            )
            if throttle > 0:
                # The checkpoint is durable; sleeping here gives a kill
                # signal a deterministic window at every chunk boundary.
                time.sleep(throttle)

        return sink

    # -- progress ----------------------------------------------------------------------

    @property
    def next_interval(self) -> int:
        return self.accumulator.intervals_folded

    @property
    def completed(self) -> bool:
        return self.next_interval >= self.spec.intervals

    def records(self) -> list[dict[str, Any]]:
        if self.store is not None:
            return self.store.records()
        return list(self._memory_records)

    # -- execution ---------------------------------------------------------------------

    def _emit(self, event: CampaignEvent) -> None:
        if self._event_sink is not None:
            self._event_sink(event)

    @contextmanager
    def events(self, on_event: Callable[[CampaignEvent], None] | None) -> Iterator[None]:
        """Send this runner's events to ``on_event`` inside the block.

        :meth:`run` wraps its loop in this; so does a driver that feeds
        :meth:`commit` itself (the dispatch coordinator).
        """
        previous, self._event_sink = self._event_sink, on_event
        try:
            yield
        finally:
            self._event_sink = previous

    def commit(self, record: dict[str, Any]) -> None:
        """Append the next interval's ``record``, fold it, emit :class:`IntervalCommitted`.

        Once the record is durable a mid-interval ``interval.ckpt`` is stale;
        it is removed so the finished store diffs clean against any other.
        """
        # The append (or, without a store, the fold) refuses an out-of-order
        # record before anything is written.
        if self.store is not None:
            self.store.append(record)
        self.accumulator.fold(record)
        if self.store is None:
            self._memory_records.append(record)
        self._clear_interval_checkpoint()
        self._emit(
            IntervalCommitted(
                interval=record["interval"], intervals=self.spec.intervals, record=record
            )
        )

    def finish(self) -> dict[str, Any]:
        """Write the completed campaign's summary, emit :class:`RunComplete`; the summary.

        The write is skipped when the store already holds exactly this summary.
        """
        summary = self.accumulator.summary()
        if self.store is not None and self.store.summary() != summary:
            self.store.write_summary(summary)
        self._emit(RunComplete(intervals=self.spec.intervals, summary=summary))
        return summary

    def run_interval(self, index: int) -> dict[str, Any]:
        """Execute one interval and :meth:`commit` it; returns the record.

        A policy ``throttle`` sleeps after the commit: the pacing of long
        soak runs, and a kill window between intervals for test harnesses.
        """
        if index != self.next_interval:
            raise ValueError(
                f"intervals run strictly in order; next is {self.next_interval}, "
                f"got {index}"
            )
        record = interval_record(
            self.spec,
            index,
            policy=self.policy,
            checkpoint_sink=self._interval_checkpoint_sink(index),
            resume_from=self._load_interval_checkpoint(index),
        )
        self.commit(record)
        if self.policy.throttle > 0:
            time.sleep(self.policy.throttle)
        return record

    def run(
        self,
        max_intervals: int | None = None,
        on_event: Callable[[CampaignEvent], None] | None = None,
    ) -> CampaignRunOutcome:
        """Run remaining intervals (up to ``max_intervals``) with checkpoints.

        On completion the campaign summary is written to the store.  The
        runner may be killed at any point; a later :meth:`resume` continues
        from the last completed interval.

        ``on_event`` receives the typed :data:`CampaignEvent` stream —
        :class:`IntervalCommitted` after each durable interval append,
        :class:`CheckpointWritten` at every persisted mid-interval chunk
        boundary, :class:`RunComplete` once the summary lands.  Every event
        fires *after* its state is durable, so a consumer that dies inside a
        handler never observes progress the store does not hold.
        """
        if max_intervals is not None and max_intervals < 0:
            raise ValueError(f"max_intervals must be >= 0, got {max_intervals}")
        ran = 0
        with self.events(on_event):
            while not self.completed and (max_intervals is None or ran < max_intervals):
                self.run_interval(self.next_interval)
                ran += 1
            summary = self.finish() if self.completed else None
        return CampaignRunOutcome(
            completed=self.completed,
            intervals_run=ran,
            next_interval=self.next_interval,
            summary=summary,
        )

    def summary(self) -> dict[str, Any]:
        """The campaign summary over the intervals folded so far."""
        return self.accumulator.summary()
