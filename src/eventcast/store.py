"""Append-only newline-delimited JSON stores for domain records.

One file per type (events.jsonl, records.jsonl, spikes.jsonl, runs.jsonl).
Event merges append a tombstone plus a replacement line instead of
rewriting, so the file remains a full audit trail; the live view folds the
log. Stores are single-writer, multi-reader.

Durability: a store opens its file once, on its first append, and keeps
that append-mode handle until ``close``. Each ``append`` and each
``apply_merge`` hands its whole payload (one line, or a merge's tombstones
plus its survivor) to the OS in one unbuffered write before it returns,
and does not fsync. ``sync`` fsyncs a store written since its last sync;
``close`` syncs, then closes. ``run_pipeline`` syncs every store at the
end of each stage, whether the stage returned or failed, so

- after a stage returns, its lines are on disk;
- after a crash mid-stage, each file holds a prefix of the sequential
  order, made of whole lines only.

A store that was appended to holds an open file: close it, or use it in a
``with`` block.
"""

from __future__ import annotations

import json
import os
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Iterator, List, Optional

from .model import (
    SCHEMA_VERSION,
    ContentRecord,
    EventAbstraction,
    InferenceRun,
    InvariantError,
    SpikeRecord,
)


class StoreIOError(IOError):
    """Retryable I/O failure while appending to a store."""


def _dump(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False)


def read_jsonl(path) -> Iterator[dict]:
    """Each non-blank line of a JSONL file, parsed; opening a missing file raises."""
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield json.loads(line)


class _AppendLog:
    """The append handle of one store file: its write, sync, close and entries."""

    def __init__(self, path):
        self.path = Path(path)
        # what went through this object: lines and bytes appended, fsyncs made
        self.counts = {"lines": 0, "bytes": 0, "fsyncs": 0}
        self._file = None
        self._unsynced = False

    def _write(self, lines: List[str]) -> None:
        """Append whole lines to the file in one write to the OS."""
        payload = "".join(line + "\n" for line in lines).encode("utf-8")
        try:
            if self._file is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._file = open(self.path, "ab", buffering=0)
            written = self._file.write(payload)
        except OSError as exc:
            raise StoreIOError(f"append to {self.path} failed: {exc}") from exc
        self._unsynced = True
        if written != len(payload):
            raise StoreIOError(f"append to {self.path} failed: wrote {written} of "
                               f"{len(payload)} bytes")
        self.counts["lines"] += len(lines)
        self.counts["bytes"] += written

    def sync(self) -> None:
        """Fsync the file if this store wrote to it since its last sync."""
        if not self._unsynced:
            return
        try:
            os.fsync(self._file.fileno())
        except OSError as exc:
            raise StoreIOError(f"fsync of {self.path} failed: {exc}") from exc
        self._unsynced = False
        self.counts["fsyncs"] += 1

    def raw_entries(self) -> Iterator[dict]:
        """Each line of the file, parsed; none when there is no file."""
        if self.path.exists():
            yield from read_jsonl(self.path)

    def close(self) -> None:
        """Sync, then close the handle; a later append opens the file again."""
        if self._file is None:
            return
        try:
            self.sync()
        finally:
            self._file.close()
            self._file, self._unsynced = None, False

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class JsonlStore(_AppendLog):
    """Generic append-only JSONL store for one record type."""

    def __init__(self, path, record_type, id_field: Optional[str] = None, id_prefix: str = "rec"):
        super().__init__(path)
        self.record_type = record_type
        self.id_field = id_field
        self.id_prefix = id_prefix
        # lines in the file, counted when a sequential id or len() first needs
        # them, so that a store that is only read reads its file once
        self._count: Optional[int] = None

    def _count_existing(self) -> int:
        if not self.path.exists():
            return 0
        with open(self.path, "r", encoding="utf-8") as fh:
            return sum(1 for line in fh if line.strip())

    def append(self, record) -> str:
        """Validate and append one record; returns its stored id."""
        if not isinstance(record, self.record_type):
            raise InvariantError(self.record_type.__name__, "type",
                                 f"expected {self.record_type.__name__}, got {type(record).__name__}")
        d = record.to_dict()
        if self.id_field:
            stored_id = d[self.id_field]
        else:
            # types without a natural id get a stable sequential one
            stored_id = f"{self.id_prefix}-{len(self) + 1:06d}"
            d["stored_id"] = stored_id
        self._write([_dump(d)])
        if self._count is not None:
            self._count += 1
        return stored_id

    def __iter__(self) -> Iterator:
        return map(self.record_type.from_dict, self.raw_entries())

    def load(self) -> list:
        return [record for record in self]  # list(self) would call len(), which counts lines

    def __len__(self) -> int:
        if self._count is None:
            self._count = self._count_existing()
        return self._count


class EventStore(_AppendLog):
    """Event log with tombstone-plus-replacement merge semantics.

    ``append`` adds a new event version; ``apply_merge`` atomically
    appends tombstones for absorbed events plus the surviving
    replacement. The live view keeps the last version of each event_id
    and drops tombstoned ids, in first-insertion order.
    """

    TOMBSTONE = "tombstone"

    def append(self, event: EventAbstraction) -> str:
        if not isinstance(event, EventAbstraction):
            raise InvariantError("EventAbstraction", "type",
                                 f"expected EventAbstraction, got {type(event).__name__}")
        self._write([_dump(event.to_dict())])
        return event.event_id

    def apply_merge(self, survivor: EventAbstraction, absorbed_ids) -> None:
        """Append the tombstones and the merged survivor in one write."""
        lines = [
            _dump({
                "schema_version": SCHEMA_VERSION,
                "kind": self.TOMBSTONE,
                "event_id": eid,
                "absorbed_into": survivor.event_id,
            })
            for eid in absorbed_ids
        ]
        lines.append(_dump(survivor.to_dict()))
        self._write(lines)  # one write: a crash never keeps a tombstone alone

    def load_live(self) -> list:
        """Fold the log: last version per event_id wins, tombstones drop."""
        order: list = []
        latest: dict = {}
        dead: set = set()
        for entry in self.raw_entries():
            if entry.get("kind") == self.TOMBSTONE:
                dead.add(entry["event_id"])
                continue
            eid = entry["event_id"]
            if eid not in latest:
                order.append(eid)
            latest[eid] = entry
        return [
            EventAbstraction.from_dict(latest[eid])
            for eid in order
            if eid not in dead
        ]


@contextmanager
def fresh_stores(directory):
    """Standard store set under one directory, starting empty, as a dict
    by kind; every store in it is closed when the block exits.

    Store files an earlier run left there are removed first, so a rerun
    into the same directory writes what a run into a new one does.
    """
    directory = Path(directory)
    paths = {kind: directory / f"{kind}.jsonl" for kind in ("events", "records", "spikes", "runs")}
    for path in paths.values():
        path.unlink(missing_ok=True)
    stores = {
        "events": EventStore(paths["events"]),
        "records": JsonlStore(paths["records"], ContentRecord, id_field="record_id"),
        "spikes": JsonlStore(paths["spikes"], SpikeRecord, id_prefix="spk"),
        "runs": JsonlStore(paths["runs"], InferenceRun, id_prefix="run"),
    }
    with ExitStack() as stack:
        for store in stores.values():
            stack.enter_context(store)
        yield stores
