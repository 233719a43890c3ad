"""Append-only JSONL artifact store for scenario results.

One store is one JSONL file.  Every scenario run appends three kinds of
records, all keyed by the scenario's :meth:`Scenario.content_hash`:

* ``{"kind": "begin", "hash": h, "spec": {...}}`` — the full spec, so an
  artifact file is self-describing;
* ``{"kind": "row", "hash": h, "index": i, "data": {...}}`` — one result
  row, streamed as soon as it is computed (a killed run leaves the rows
  it finished);
* ``{"kind": "end", "hash": h, "rows": n, ...}`` — the completion marker.

A block is *complete* when its ``begin`` is followed by an ``end``
whose row count matches the rows seen, and a scenario is *cached* while
it has a complete block.  Re-running with ``force=True`` simply appends
a fresh block; :meth:`ArtifactStore.load` serves the latest complete
block per hash, so a fresh block that never finishes (a killed run)
hides nothing, and the file doubles as a run log.

The format is deliberately line-oriented: artifacts can be grepped,
``tail -f``'d during long campaigns, concatenated across machines and
post-processed with ``jq`` without any repro code.  A store object
reads the same way: each :meth:`ArtifactStore.scan` decodes only the
lines appended since the last one.
"""

from __future__ import annotations

import json
import os
import threading
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

try:  # POSIX advisory locks; absent on some platforms.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None


@contextmanager
def locked_file(handle):
    """Hold an exclusive advisory lock on an open file handle.

    Concurrent orchestrator workers and servers append to one shared
    store; the lock guarantees whole records (and whole blocks, see
    :meth:`ArtifactStore.write_block`) land contiguously instead of
    interleaving partial JSONL lines.  Platforms without :mod:`fcntl`
    fall back to unlocked appends — single-writer behaviour is
    unchanged there.
    """
    if fcntl is None:  # pragma: no cover - non-POSIX fallback
        yield handle
        return
    fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
    try:
        yield handle
    finally:
        fcntl.flock(handle.fileno(), fcntl.LOCK_UN)


@dataclass
class ArtifactRecord:
    """One scenario's decoded block: spec, streamed rows, completion meta."""

    spec_hash: str
    spec: dict
    rows: list = field(default_factory=list)
    complete: bool = False
    elapsed_seconds: float = 0.0
    workers: int = 1
    #: While this block is unfinished: the latest complete block of the
    #: same hash before it, which :meth:`ArtifactStore.load` serves.
    previous: "ArtifactRecord | None" = None


class ArtifactStore:
    """A JSONL file of scenario artifacts, keyed by spec content hash."""

    #: Bytes kept from just before the folded offset.  A scan that finds
    #: them changed knows the file was rewritten in place, not appended
    #: to, and folds it again from the start.
    TAIL_CHECK_BYTES = 4096

    def __init__(self, path: str | Path):
        self.path = Path(path)
        # Handler threads of ``repro serve`` read while its loop thread
        # reads and appends; one fold runs at a time.
        self._lock = threading.Lock()
        self._restart(None)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def _restart(self, identity: tuple[int, int] | None) -> None:
        """Forget the fold: the next read starts at offset 0."""
        self._identity = identity
        self._offset = 0
        self._lines = 0
        self._tail = b""
        self._records: dict[str, ArtifactRecord] = {}
        self._seen: tuple | None = None
        self._scanned: dict[str, ArtifactRecord] = {}

    def scan(self) -> dict[str, ArtifactRecord]:
        """Decode the store into ``{hash: latest record}``.

        The file is append-only, so the store folds it incrementally:
        it keeps the byte offset and line count of the last
        newline-terminated line it decoded, the file's ``(st_dev,
        st_ino)`` and the :data:`TAIL_CHECK_BYTES` before that offset,
        and each scan decodes only the bytes appended since.  A new
        inode (the file was replaced), a file shorter than the offset
        (truncated) or changed tail bytes (rewritten in place) restart
        the fold at offset 0, which is the same code as a first scan.
        A final line without a newline (a crash-truncated or
        still-being-written record) never enters the kept fold: it is
        decoded into this scan's result only, and read again next time.

        Malformed lines (anything but a JSON object with a string
        ``"hash"``) are skipped with a :class:`RuntimeWarning`
        naming the file and line rather than poisoning the whole store;
        the fold reports each one when it first reaches it.  A scan
        that finds the file unchanged returns the previous result, and
        any other scan a fresh dict; treat the records as read-only.
        """
        with self._lock:
            try:
                handle = self.path.open("rb")
            except (FileNotFoundError, NotADirectoryError):
                self._restart(None)
                return {}
            with handle:
                return self._fold(handle)

    def _fold(self, handle) -> dict[str, ArtifactRecord]:
        stat = os.fstat(handle.fileno())
        identity = (stat.st_dev, stat.st_ino)
        seen = (identity, stat.st_size, stat.st_mtime_ns)
        if seen == self._seen:
            return self._scanned
        if (
            identity != self._identity
            or stat.st_size < self._offset
            or not self._tail_intact(handle)
        ):
            self._restart(identity)
        handle.seek(self._offset)
        number, torn = self._lines, None
        for line in handle:
            number += 1
            if not line.endswith(b"\n"):
                torn = line
                break
            self._decode_line(self._records, line, number, trailing=False)
            self._offset += len(line)
            self._lines = number
        start = max(0, self._offset - self.TAIL_CHECK_BYTES)
        handle.seek(start)
        self._tail = handle.read(self._offset - start)
        # Incomplete records are the only ones a later fold mutates, so
        # the result gets copies of those; complete records are shared.
        records = {
            spec_hash: (
                record if record.complete else replace(record, rows=list(record.rows))
            )
            for spec_hash, record in self._records.items()
        }
        if torn is not None:
            self._decode_line(records, torn, number, trailing=True)
        self._seen = seen
        self._scanned = records
        return records

    def _tail_intact(self, handle) -> bool:
        """Whether the bytes just before the folded offset are unchanged."""
        handle.seek(self._offset - len(self._tail))
        return handle.read(len(self._tail)) == self._tail

    def _decode_line(
        self,
        records: dict[str, ArtifactRecord],
        line: bytes,
        number: int,
        *,
        trailing: bool,
    ) -> None:
        line = line.strip()
        if not line:
            return
        try:
            entry = json.loads(line)
        except ValueError:  # not JSON, or not UTF-8
            entry = None
        if not isinstance(entry, dict) or not isinstance(entry.get("hash"), str):
            warnings.warn(
                f"skipping {'crash-truncated final' if trailing else 'malformed'} "
                f"record at {self.path}:{number}",
                RuntimeWarning,
                stacklevel=4,
            )
            return
        self._decode_entry(records, entry)

    @staticmethod
    def _decode_entry(records: dict[str, ArtifactRecord], entry: dict) -> None:
        kind = entry.get("kind")
        spec_hash = entry["hash"]
        if kind == "begin":
            previous = records.get(spec_hash)
            if previous is not None and not previous.complete:
                previous = previous.previous
            records[spec_hash] = ArtifactRecord(
                spec_hash=spec_hash, spec=entry.get("spec", {}), previous=previous
            )
        elif kind == "row":
            record = records.get(spec_hash)
            if record is not None and not record.complete:
                record.rows.append(entry.get("data"))
        elif kind == "end":
            record = records.get(spec_hash)
            if record is not None and len(record.rows) == entry.get("rows"):
                # A new object: earlier scans' results share complete
                # records, so a repeated end marker must not mutate one.
                records[spec_hash] = replace(
                    record,
                    complete=True,
                    elapsed_seconds=entry.get("elapsed_seconds", 0.0),
                    workers=entry.get("workers", 1),
                    previous=None,
                )

    def load(self, spec_hash: str) -> ArtifactRecord | None:
        """The latest *complete* record for a hash, or ``None``."""
        record = self.scan().get(spec_hash)
        if record is not None and not record.complete:
            return record.previous
        return record

    def __contains__(self, spec_hash: str) -> bool:
        return self.load(spec_hash) is not None

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def _append_lines(self, entries: list[dict]) -> None:
        """Append entries as one contiguous, lock-protected write."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        text = "".join(json.dumps(entry, sort_keys=True) + "\n" for entry in entries)
        with self.path.open("a") as handle, locked_file(handle):
            handle.write(text)
            handle.flush()

    def _append(self, entry: dict) -> None:
        self._append_lines([entry])

    def write_block(
        self,
        spec_hash: str,
        spec: dict,
        rows: list[dict],
        *,
        elapsed_seconds: float = 0.0,
        workers: int = 1,
    ) -> None:
        """Append a complete begin/rows/end block under one lock.

        The streaming :meth:`begin`/:meth:`append_row`/:meth:`finish`
        protocol assumes a single writer per store — a second process
        opening a block for the same hash mid-stream would orphan the
        first block's rows.  The service orchestrator, which already
        holds its rows (it checkpoints chunks elsewhere and publishes
        only finished results here), uses this method instead: the
        whole block lands contiguously, so concurrent publishers can
        share a store safely.
        """
        entries: list[dict] = [{"kind": "begin", "hash": spec_hash, "spec": spec}]
        entries.extend(
            {"kind": "row", "hash": spec_hash, "index": index, "data": data}
            for index, data in enumerate(rows)
        )
        entries.append(
            {
                "kind": "end",
                "hash": spec_hash,
                "rows": len(rows),
                "elapsed_seconds": elapsed_seconds,
                "workers": workers,
            }
        )
        self._append_lines(entries)

    def begin(self, spec_hash: str, spec: dict) -> None:
        """Open a new block for a scenario (invalidates prior rows)."""
        self._append({"kind": "begin", "hash": spec_hash, "spec": spec})

    def append_row(self, spec_hash: str, index: int, data: dict) -> None:
        """Stream one result row."""
        self._append({"kind": "row", "hash": spec_hash, "index": index, "data": data})

    def finish(
        self,
        spec_hash: str,
        *,
        rows: int,
        elapsed_seconds: float = 0.0,
        workers: int = 1,
    ) -> None:
        """Mark the block complete (making it cache-hit eligible)."""
        self._append(
            {
                "kind": "end",
                "hash": spec_hash,
                "rows": rows,
                "elapsed_seconds": elapsed_seconds,
                "workers": workers,
            }
        )
