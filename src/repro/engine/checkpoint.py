"""Seekable propagation state for the streaming engine.

A :class:`StreamCheckpoint` freezes everything a
:class:`~repro.engine.streaming.ScenarioStream` needs to resume mid-stream
bit-identically at a chunk boundary:

* every propagation model's position in its random stream (delay jitter,
  loss-chain state, reordering draws, link jitter/loss) — via
  the components' ``state_snapshot`` contract
  (:class:`~repro.util.rng.RNGStateMixin`);
* the :class:`~repro.traffic.delay_models.EmpiricalDelayModel` replay cursor
  and the Gilbert-Elliott Markov state (the models include them in their
  snapshots);
* the in-flight holdback of every watermark sorter (egress ordering, bounded
  reordering, link skew) — packets that have been perturbed past the current
  watermark but not yet emitted;
* the stream's watermark, chunk position, zero-row template batch, and the
  per-link lost-``uid`` sets;
* the ground-truth accumulators, so a seeked stream keeps collecting the
  same truth (mid-interval campaign resume).

``state_digest()`` canonically hashes the *propagation* state (not the
truth payload), so two streams that would produce identical futures digest
identically — the property the checkpoint/seek test suite pins down.

Checkpoints are plain picklable values: the campaign engine persists one
next to its :class:`~repro.store.runstore.RunStore` records for
mid-interval resume.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from repro.net.batch import PacketBatch

__all__ = ["StreamCheckpoint"]

#: Column order used when folding a PacketBatch into the digest.
_BATCH_COLUMNS = (
    "src_ip",
    "dst_ip",
    "src_port",
    "dst_port",
    "protocol",
    "ip_id",
    "length",
    "payload",
    "uid",
    "send_time",
    "flow_id",
)


def _fold(hasher: "hashlib._Hash", value: Any) -> None:
    """Fold ``value`` into ``hasher`` canonically.

    Every container type is folded with a type tag and length so distinct
    structures never collide by concatenation; mappings fold in sorted key
    order so dict insertion order is irrelevant; floats fold as their exact
    hex form so the digest is bit-sensitive, matching the engine's
    bit-identity contract.
    """
    if value is None:
        hasher.update(b"N")
    elif isinstance(value, bool):
        hasher.update(b"B1" if value else b"B0")
    elif isinstance(value, (int, np.integer)):
        hasher.update(b"I" + repr(int(value)).encode())
    elif isinstance(value, (float, np.floating)):
        hasher.update(b"F" + float(value).hex().encode())
    elif isinstance(value, str):
        encoded = value.encode("utf-8")
        hasher.update(b"S" + repr(len(encoded)).encode())
        hasher.update(encoded)
    elif isinstance(value, bytes):
        hasher.update(b"Y" + repr(len(value)).encode())
        hasher.update(value)
    elif isinstance(value, np.ndarray):
        hasher.update(b"A" + value.dtype.str.encode() + repr(value.shape).encode())
        hasher.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, PacketBatch):
        hasher.update(b"P")
        for column in _BATCH_COLUMNS:
            _fold(hasher, getattr(value, column))
    elif isinstance(value, Mapping):
        hasher.update(b"M" + repr(len(value)).encode())
        for key in sorted(value):
            _fold(hasher, key)
            _fold(hasher, value[key])
    elif isinstance(value, (list, tuple)):
        hasher.update(b"L" + repr(len(value)).encode())
        for item in value:
            _fold(hasher, item)
    elif isinstance(value, (set, frozenset)):
        hasher.update(b"T" + repr(len(value)).encode())
        for item in sorted(value):
            _fold(hasher, item)
    else:
        raise TypeError(f"cannot fold {type(value).__name__} into a state digest")


@dataclass(frozen=True)
class StreamCheckpoint:
    """The complete propagation state of a scenario stream at a chunk boundary.

    Attributes
    ----------
    chunk_index:
        How many (non-empty) chunks the stream has consumed; the chunk a
        seeked stream processes next.
    watermark:
        The stream's completeness watermark (the last chunk's final send
        time), ``-inf`` before the first chunk.
    template:
        A zero-row batch with the trace's column schema, used to synthesize
        the flush batch; ``None`` before the first chunk.
    stages:
        One snapshot mapping per pipeline stage, in path order (domain
        stages and link stages interleaved exactly as the stream builds
        them).
    truth:
        Ground-truth accumulator snapshots; never part of
        :meth:`state_digest`.
    """

    chunk_index: int
    watermark: float
    template: PacketBatch | None
    stages: tuple[dict, ...]
    truth: dict = field(compare=False)

    def state_digest(self) -> str:
        """A canonical BLAKE2b digest of the propagation state.

        Two checkpoints digest equal iff the streams they were captured from
        are in bit-identical propagation states — same RNG cursors, same
        holdbacks, same watermark/position.  The truth payload is
        excluded: truth is an *output* accumulator, not propagation state.
        """
        hasher = hashlib.blake2b(digest_size=16)
        _fold(hasher, self.chunk_index)
        _fold(hasher, self.watermark)
        _fold(hasher, self.template)
        _fold(hasher, list(self.stages))
        return hasher.hexdigest()
