"""Columnar packet batches — the fast-path twin of :class:`repro.net.packet.Packet`.

The scalar pipeline models each packet as a frozen dataclass; at millions of
packets per run the interpreter overhead of constructing, hashing and
dispatching those objects dominates everything else.  A :class:`PacketBatch`
stores the same information column-wise in NumPy arrays, which is what the
vectorized digest kernels (:meth:`repro.net.hashing.PacketDigester.digest_batch`)
and the batch collector path (:meth:`repro.core.hop.HOPCollector.observe_batch`)
consume.

A batch is value-equivalent to a list of packets: :meth:`PacketBatch.to_packets`
materializes it exactly, and digests computed on either representation are
bit-for-bit identical (property-tested in
``tests/property/test_prop_batch_parity.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.net.packet import HEADER_PACK_BYTES, Packet, PacketHeaders, pack_header_columns

__all__ = ["PacketBatch"]

#: The per-packet columns of a batch, in field order.
_COLUMNS = (
    "src_ip", "dst_ip", "src_port", "dst_port", "protocol", "ip_id",
    "length", "payload", "uid", "send_time", "flow_id",
)


@dataclass
class PacketBatch:
    """A sequence of packets stored column-wise.

    All arrays have the same length ``n``; ``payload`` is a ``(n, P)`` uint8
    matrix with one fixed payload width per batch (traffic generators emit
    uniform payload sizes, and the digest only ever reads a fixed prefix).

    Attributes mirror :class:`repro.net.packet.Packet` field-for-field; the
    simulation-only bookkeeping (``uid``, ``send_time``, ``flow_id``) rides
    along so ground truth can be tracked without materializing objects.
    """

    src_ip: np.ndarray
    dst_ip: np.ndarray
    src_port: np.ndarray
    dst_port: np.ndarray
    protocol: np.ndarray
    ip_id: np.ndarray
    length: np.ndarray
    payload: np.ndarray
    uid: np.ndarray
    send_time: np.ndarray
    flow_id: np.ndarray

    # Digest memoization, keyed by (seed, payload_prefix) — the columnar twin
    # of Packet._invariant_cache (every HOP of a path shares the same digests).
    _digest_cache: dict = field(default_factory=dict, repr=False, compare=False)
    # Batches derived via take() remember their source rows (an index array,
    # or a step-1 slice for a zero-copy view) so digests are computed once on
    # the root batch and sliced, mirroring how the scalar path memoizes
    # digests on Packet objects shared across HOPs.
    _digest_root: "PacketBatch | None" = field(default=None, repr=False, compare=False)
    _root_indices: np.ndarray | slice | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.src_ip = np.ascontiguousarray(self.src_ip, dtype=np.uint32)
        self.dst_ip = np.ascontiguousarray(self.dst_ip, dtype=np.uint32)
        self.src_port = np.ascontiguousarray(self.src_port, dtype=np.uint16)
        self.dst_port = np.ascontiguousarray(self.dst_port, dtype=np.uint16)
        self.protocol = np.ascontiguousarray(self.protocol, dtype=np.uint8)
        self.ip_id = np.ascontiguousarray(self.ip_id, dtype=np.uint16)
        self.length = np.ascontiguousarray(self.length, dtype=np.uint16)
        payload = np.ascontiguousarray(self.payload, dtype=np.uint8)
        if payload.ndim != 2:
            raise ValueError(f"payload must be a 2-D byte matrix, got shape {payload.shape}")
        self.payload = payload
        self.uid = np.ascontiguousarray(self.uid, dtype=np.int64)
        self.send_time = np.ascontiguousarray(self.send_time, dtype=np.float64)
        self.flow_id = np.ascontiguousarray(self.flow_id, dtype=np.int64)
        count = len(self.src_ip)
        for name in _COLUMNS[1:]:
            if len(getattr(self, name)) != count:
                raise ValueError(f"column {name!r} has length {len(getattr(self, name))}, expected {count}")

    def __len__(self) -> int:
        return len(self.src_ip)

    @property
    def sizes(self) -> np.ndarray:
        """Per-packet total sizes in bytes (from the IP length field)."""
        return self.length

    @property
    def total_bytes(self) -> int:
        """Sum of packet sizes across the batch."""
        return int(self.length.sum(dtype=np.int64))

    # -- construction / conversion -----------------------------------------------

    def to_packets(self) -> list[Packet]:
        """Materialize the batch as packet objects (the slow representation)."""
        payload_rows = [row.tobytes() for row in self.payload]
        return [
            Packet(
                headers=PacketHeaders(
                    src_ip=int(self.src_ip[index]),
                    dst_ip=int(self.dst_ip[index]),
                    src_port=int(self.src_port[index]),
                    dst_port=int(self.dst_port[index]),
                    protocol=int(self.protocol[index]),
                    ip_id=int(self.ip_id[index]),
                    length=int(self.length[index]),
                ),
                payload=payload_rows[index],
                uid=int(self.uid[index]),
                send_time=float(self.send_time[index]),
                flow_id=int(self.flow_id[index]),
            )
            for index in range(len(self))
        ]

    def take(self, indices: np.ndarray | slice) -> "PacketBatch":
        """Return a new batch holding the selected rows (in the given order).

        ``indices`` is an index array (the rows are gathered into fresh
        columns) or a ``slice`` (the columns are zero-copy views of this
        batch's, so the result shares memory with it — cheap for emitting a
        prefix, wrong for rows meant to outlive this batch; see
        :meth:`detach_root`).

        The result keeps a reference to its root batch, so digests computed
        through :meth:`repro.net.hashing.PacketDigester.digest_batch` are
        shared across every batch derived from the same source (the several
        HOPs of a simulated path hash each packet only once).
        """
        if isinstance(indices, slice):
            start, stop, step = indices.indices(len(self))
            indices = slice(start, max(start, stop)) if step == 1 else np.arange(start, stop, step)
        else:
            indices = np.asarray(indices)
        root = self if self._digest_root is None else self._digest_root
        inherited = self._root_indices
        if inherited is None:
            root_indices = indices
        elif not isinstance(inherited, slice):
            root_indices = inherited[indices]
        elif isinstance(indices, slice):
            root_indices = slice(inherited.start + indices.start, inherited.start + indices.stop)
        else:
            root_indices = np.arange(inherited.start, inherited.stop)[indices]
        return PacketBatch(
            src_ip=self.src_ip[indices],
            dst_ip=self.dst_ip[indices],
            src_port=self.src_port[indices],
            dst_port=self.dst_port[indices],
            protocol=self.protocol[indices],
            ip_id=self.ip_id[indices],
            length=self.length[indices],
            payload=self.payload[indices],
            uid=self.uid[indices],
            send_time=self.send_time[indices],
            flow_id=self.flow_id[indices],
            _digest_root=root,
            _root_indices=root_indices,
        )

    @classmethod
    def concat(cls, parts: Sequence["PacketBatch"]) -> "PacketBatch":
        """Concatenate batches row-wise (payload widths must match).

        Digests already computed for the parts (or for their take-roots) are
        carried over: for every digest key cached on *all* parts' roots, the
        result's cache holds the concatenated digest array, so downstream HOPs
        never re-hash a packet that some earlier stage already digested.  This
        is what preserves the one-hash-per-packet property when the streaming
        engine's holdback buffers splice rows from adjacent chunks.
        """
        parts = [part for part in parts]
        if not parts:
            raise ValueError("cannot concatenate an empty sequence of batches")
        if len(parts) == 1:
            return parts[0]
        widths = {part.payload.shape[1] for part in parts}
        if len(widths) > 1:
            raise ValueError(
                f"batches to concatenate must share one payload width, got {sorted(widths)}"
            )
        merged = cls(
            src_ip=np.concatenate([part.src_ip for part in parts]),
            dst_ip=np.concatenate([part.dst_ip for part in parts]),
            src_port=np.concatenate([part.src_port for part in parts]),
            dst_port=np.concatenate([part.dst_port for part in parts]),
            protocol=np.concatenate([part.protocol for part in parts]),
            ip_id=np.concatenate([part.ip_id for part in parts]),
            length=np.concatenate([part.length for part in parts]),
            payload=np.concatenate([part.payload for part in parts]),
            uid=np.concatenate([part.uid for part in parts]),
            send_time=np.concatenate([part.send_time for part in parts]),
            flow_id=np.concatenate([part.flow_id for part in parts]),
        )
        # Merge digest caches for keys every part can supply without hashing.
        shared_keys = None
        for part in parts:
            root = part._digest_root if part._digest_root is not None else part
            keys = set(part._digest_cache) | set(root._digest_cache)
            shared_keys = keys if shared_keys is None else (shared_keys & keys)
        for key in shared_keys or ():
            merged._digest_cache[key] = np.concatenate(
                [part._cached_digests(key) for part in parts]
            )
        return merged

    def detach_root(self) -> "PacketBatch":
        """Materialize inherited digest caches and drop the take-root link.

        A ``take()`` child normally keeps its source batch alive so digests
        are computed once per root.  Long-lived holdback buffers (the
        streaming engine's sort reservoirs) call this so a few retained rows
        do not pin a whole source chunk — the child's own cache is filled by
        slicing the root's, then the reference is released.  A child taken
        by ``slice`` also copies its columns and digests, which are views of
        the root's.  Returns ``self``.
        """
        root = self._digest_root
        if root is not None:
            for key in set(root._digest_cache) - set(self._digest_cache):
                self._digest_cache[key] = root._digest_cache[key][self._root_indices]
            if isinstance(self._root_indices, slice):
                # A slice child's columns and digests are views of its root's.
                for name in _COLUMNS:
                    setattr(self, name, getattr(self, name).copy())
                self._digest_cache = {
                    key: values.copy() for key, values in self._digest_cache.items()
                }
            self._digest_root = None
            self._root_indices = None
        return self

    def _cached_digests(self, key) -> np.ndarray:
        """Digests for ``key`` from this batch's cache or its take-root's."""
        cached = self._digest_cache.get(key)
        if cached is not None:
            return cached
        root = self._digest_root if self._digest_root is not None else self
        return root._digest_cache[key][self._root_indices] if root is not self else root._digest_cache[key]

    # -- digest material -----------------------------------------------------------

    def invariant_matrix(self, payload_prefix: int = 8) -> np.ndarray:
        """Columnar twin of :meth:`repro.net.packet.Packet.invariant_bytes`.

        Rows are the packed invariant headers followed by the first
        ``payload_prefix`` payload bytes — byte-for-byte what the scalar path
        hashes (payloads shorter than the prefix are truncated identically).
        """
        if payload_prefix < 0:
            raise ValueError(f"payload_prefix must be >= 0, got {payload_prefix}")
        prefix = min(payload_prefix, self.payload.shape[1])
        matrix = np.empty((len(self), HEADER_PACK_BYTES + prefix), dtype=np.uint8)
        matrix[:, :HEADER_PACK_BYTES] = pack_header_columns(
            self.src_ip,
            self.dst_ip,
            self.src_port,
            self.dst_port,
            self.protocol,
            self.ip_id,
            self.length,
        )
        if prefix:
            matrix[:, HEADER_PACK_BYTES:] = self.payload[:, :prefix]
        return matrix

    def __repr__(self) -> str:
        return (
            f"PacketBatch(n={len(self)}, payload_width={self.payload.shape[1]}, "
            f"span={self.send_time[-1] - self.send_time[0]:.4f}s)"
            if len(self)
            else "PacketBatch(n=0)"
        )
