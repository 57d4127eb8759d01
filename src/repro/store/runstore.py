"""Durable, append-only storage for long-horizon campaign runs.

A :class:`RunStore` is one directory holding everything a campaign run ever
produced, in a form a customer could audit months later:

* ``spec.json`` — the frozen :class:`~repro.api.spec.CampaignSpec` (canonical
  dict form), its spec hash, and the store format version; written once at
  creation.
* ``records.jsonl`` — one JSON line per **completed** interval, appended in
  interval order: the record version, the spec hash, the interval's derived
  root seed, a digest of every HOP's receipts (BLAKE2b over their ``VPM2``
  encoding, :mod:`repro.reporting.serialization`; ``time_sum`` at its
  documented tolerance), the per-domain estimates, verification/SLA
  verdicts, and the interval's matched delay samples as lossless float hex
  (the input to the campaign's mergeable pooled-quantile state).
* ``summary.json`` — the campaign-level statistics, written once when the
  final interval lands.

Durability discipline: ``spec.json`` and ``summary.json`` are written via a
fsynced temporary sibling plus atomic rename.  Records are **O(1) appends**
(a month-long campaign must not rewrite its whole history every interval):
one ``O_APPEND`` write of one newline-terminated line, flushed and fsynced.
A record is *committed* iff its newline made it to disk — a kill mid-write
can leave at most one torn (newline-less) tail line, which :meth:`open`
detects and truncates away before the store is used.  Either way, a run
killed at any instant leaves the store equal (after open) to the store of a
run stopped cleanly after its last completed interval — exactly the
contract :meth:`repro.engine.campaign.CampaignRunner.resume` needs to
continue a campaign byte-identically to an uninterrupted run.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Iterator, Mapping

from repro.api.codec import stable_json
from repro.api.spec import CampaignSpec

__all__ = [
    "STORE_FORMAT_VERSION",
    "RunStoreError",
    "SpecMismatchError",
    "RunStore",
    "stable_json",
]

STORE_FORMAT_VERSION = 1

SPEC_FILE = "spec.json"
RECORDS_FILE = "records.jsonl"
SUMMARY_FILE = "summary.json"


class RunStoreError(RuntimeError):
    """A run store is missing, malformed, or used inconsistently."""


class SpecMismatchError(RunStoreError):
    """The store's recorded spec hash does not match the spec in hand."""


def _fsync_dir(path: Path) -> None:
    """Persist directory ``path``'s entries (a rename, a new file) where the platform allows."""
    try:
        dir_fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def _atomic_write(path: Path, payload: bytes) -> None:
    """Write ``payload`` to ``path`` via a fsynced ``<name>.tmp``, a rename and a directory fsync.

    The one durable whole-file write: spec, summary, torn-tail repair, dispatch
    staged records and the mid-interval ``interval.ckpt`` all go through it.
    """
    tmp_path = path.with_name(path.name + ".tmp")
    with open(tmp_path, "wb") as handle:
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)
    _fsync_dir(path.parent)


class RunStore:
    """One campaign run's durable state (see module docstring for layout)."""

    def __init__(self, path: Path | str, spec_payload: dict[str, Any]) -> None:
        self.path = Path(path)
        self._spec_payload = spec_payload
        self._spec: CampaignSpec | None = None
        self._record_count: int | None = None

    # -- lifecycle ---------------------------------------------------------------------

    @classmethod
    def create(cls, path: Path | str, spec: CampaignSpec) -> "RunStore":
        """Create a fresh store for ``spec`` at ``path`` (must not hold a run)."""
        path = Path(path)
        if (path / SPEC_FILE).exists():
            raise RunStoreError(
                f"{path} already holds a run store; resume it or choose "
                f"another directory"
            )
        path.mkdir(parents=True, exist_ok=True)
        payload = {
            "format": STORE_FORMAT_VERSION,
            "spec_hash": spec.spec_hash(),
            "spec": spec.to_dict(),
        }
        _atomic_write(
            path / SPEC_FILE, (stable_json(payload) + "\n").encode("utf-8")
        )
        return cls(path, payload)

    @classmethod
    def list_runs(cls, root: Path | str) -> list[Path]:
        """Every run-store directory directly under ``root``, sorted by name.

        The scan is deliberately tolerant: a store root is a live directory
        with campaigns being written into it at any moment, so a child that
        is not (yet) a run store — a scratch directory, a store whose
        ``spec.json`` has not landed — is simply skipped rather than raised
        on.  Opening (and validating) an individual run stays :meth:`open`'s
        job; this helper only answers "which directories hold runs?", the
        question both the service's ``RunIndex`` and ``repro list`` ask.
        """
        root = Path(root)
        if not root.exists():
            return []
        if not root.is_dir():
            raise RunStoreError(f"store root {root} is not a directory")
        runs = []
        for child in sorted(root.iterdir()):
            if child.is_dir() and (child / SPEC_FILE).is_file():
                runs.append(child)
        return runs

    @classmethod
    def open(cls, path: Path | str) -> "RunStore":
        """Open an existing store, validating format version and spec hash."""
        path = Path(path)
        spec_path = path / SPEC_FILE
        if not spec_path.exists():
            raise RunStoreError(f"{path} is not a run store (no {SPEC_FILE})")
        try:
            payload = json.loads(spec_path.read_text())
        except json.JSONDecodeError as exc:
            raise RunStoreError(f"{spec_path} is not valid JSON: {exc}") from exc
        if payload.get("format") != STORE_FORMAT_VERSION:
            raise RunStoreError(
                f"{spec_path} has store format {payload.get('format')!r}; "
                f"this build reads format {STORE_FORMAT_VERSION}"
            )
        store = cls(path, payload)
        recorded = payload.get("spec_hash")
        actual = store.spec().spec_hash()
        if recorded != actual:
            raise SpecMismatchError(
                f"{spec_path} records spec hash {recorded}, but its own spec "
                f"hashes to {actual}; the store has been edited"
            )
        return store

    def repair_torn_tail(self) -> None:
        """Drop a newline-less tail line left by a kill mid-append.

        A record is committed only once its terminating newline is on disk;
        anything after the last newline is an interrupted append of the
        record the resumed run is about to redo, so truncating it restores
        the exact bytes of a run stopped cleanly one interval earlier.

        Called by the campaign runner before it appends (the store has one
        writer).  Read-only consumers (``repro report``) never invoke it —
        :meth:`iter_records` simply ignores an uncommitted tail — so looking
        at a store can never race the campaign that is writing it.
        """
        if not self.records_path.exists():
            return
        payload = self.records_path.read_bytes()
        if payload.endswith(b"\n"):
            return
        cut = payload.rfind(b"\n") + 1  # 0 when no complete record survived
        if cut == 0:
            # A fresh store has no records file at all (an empty or fully
            # torn file only exists mid-crash); restore that exact shape.
            self.records_path.unlink()
        else:
            _atomic_write(self.records_path, payload[:cut])
        self._record_count = None

    # -- identity ----------------------------------------------------------------------

    def spec(self) -> CampaignSpec:
        """The campaign spec this store was created for (re-validated on load)."""
        if self._spec is None:
            self._spec = CampaignSpec.from_dict(self._spec_payload["spec"])
        return self._spec

    @property
    def spec_hash(self) -> str:
        return self._spec_payload["spec_hash"]

    def validate_spec(self, spec: CampaignSpec) -> None:
        """Refuse to pair this store with a different campaign spec."""
        if spec.spec_hash() != self.spec_hash:
            raise SpecMismatchError(
                f"store {self.path} was created for spec hash {self.spec_hash}, "
                f"got a spec hashing to {spec.spec_hash()}"
            )

    # -- records -----------------------------------------------------------------------

    @property
    def records_path(self) -> Path:
        return self.path / RECORDS_FILE

    def records(self) -> list[dict[str, Any]]:
        """Every completed interval's record, in interval order."""
        return list(self.iter_records())

    def iter_records(self) -> Iterator[dict[str, Any]]:
        """Every *committed* record, in interval order.

        A record commits with its trailing newline; a newline-less tail is an
        append interrupted mid-write and is silently ignored (the writer's
        :meth:`repair_torn_tail` truncates it before the next append), so
        reading a store never requires mutating it.
        """
        if not self.records_path.exists():
            return
        payload = self.records_path.read_bytes()
        committed = payload[: payload.rfind(b"\n") + 1]
        for line_number, line in enumerate(committed.decode("utf-8").splitlines()):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise RunStoreError(
                    f"{self.records_path}:{line_number + 1} is not valid "
                    f"JSON (a committed record can only be malformed if the "
                    f"store was edited): {exc}"
                ) from exc
            yield record

    @property
    def record_count(self) -> int:
        if self._record_count is None:
            self._record_count = sum(1 for _ in self.iter_records())
        return self._record_count

    @property
    def next_interval(self) -> int:
        """The index of the first interval not yet completed."""
        return self.record_count

    def append(self, record: Mapping[str, Any]) -> None:
        """Append one completed interval's record durably, in O(1).

        The record must carry this store's spec hash and the next expected
        interval index — a checkpoint written out of order or for a different
        spec is a logic error upstream, not something to paper over.  The
        write is a single ``O_APPEND`` line, flushed and fsynced; the record
        commits when its newline reaches disk (a kill mid-write leaves a torn
        tail that :meth:`open` truncates), so a month-long campaign never
        rewrites its history to checkpoint one more interval.
        """
        expected = self.next_interval
        if record.get("interval") != expected:
            raise RunStoreError(
                f"expected a record for interval {expected}, "
                f"got {record.get('interval')!r}"
            )
        if record.get("spec_hash") != self.spec_hash:
            raise SpecMismatchError(
                f"record carries spec hash {record.get('spec_hash')!r}, "
                f"store has {self.spec_hash}"
            )
        line = (stable_json(dict(record)) + "\n").encode("utf-8")
        fd = os.open(
            self.records_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        try:
            # os.write may return a short count (disk full, signal); anything
            # short of the newline must not be treated as a committed record.
            # On failure the newline never lands, so the torn tail is exactly
            # what the open()-time repair removes.
            written = 0
            while written < len(line):
                written += os.write(fd, line[written:])
            os.fsync(fd)
        finally:
            os.close(fd)
        if expected == 0:
            # First append created the file; persist its directory entry too.
            _fsync_dir(self.path)
        self._record_count = expected + 1

    # -- summary -----------------------------------------------------------------------

    @property
    def summary_path(self) -> Path:
        return self.path / SUMMARY_FILE

    def write_summary(self, summary: Mapping[str, Any]) -> None:
        """Write the campaign-level summary (once, at completion)."""
        _atomic_write(
            self.summary_path, (stable_json(dict(summary)) + "\n").encode("utf-8")
        )

    def summary(self) -> dict[str, Any] | None:
        if not self.summary_path.exists():
            return None
        return json.loads(self.summary_path.read_text())

    # -- comparison --------------------------------------------------------------------

    def digest(self) -> str:
        """Stable hex digest over the store's persisted bytes.

        Two stores with equal digests are byte-identical: same spec, same
        per-interval records, same summary — the single number the CI smoke
        compares between an interrupted-and-resumed run and an uninterrupted
        one.
        """
        hasher = hashlib.blake2b(digest_size=16)
        for name in (SPEC_FILE, RECORDS_FILE, SUMMARY_FILE):
            file_path = self.path / name
            hasher.update(name.encode("utf-8") + b"\0")
            hasher.update(file_path.read_bytes() if file_path.exists() else b"\0absent")
            hasher.update(b"\0")
        return hasher.hexdigest()

    def __repr__(self) -> str:
        return (
            f"RunStore(path={str(self.path)!r}, spec_hash={self.spec_hash[:12]}, "
            f"records={self.record_count})"
        )
