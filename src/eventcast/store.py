"""Append-only newline-delimited JSON stores for domain records.

One file per type (events.jsonl, records.jsonl, spikes.jsonl). Event
merges append a tombstone plus a replacement line instead of rewriting,
so the file remains a full audit trail; the live view folds the log.
Stores are single-writer, multi-reader.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterator, Optional

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


class JsonlStore:
    """Generic append-only JSONL store for one record type."""

    def __init__(self, path, record_type, id_field: Optional[str] = None, id_prefix: str = "rec"):
        self.path = Path(path)
        self.record_type = record_type
        self.id_field = id_field
        self.id_prefix = id_prefix
        self._count = self._count_existing()

    def _count_existing(self) -> int:
        if not self.path.exists():
            return 0
        with open(self.path, "r", encoding="utf-8") as fh:
            return sum(1 for line in fh if line.strip())

    def append(self, record) -> str:
        """Validate and durably append one record; returns its stored id."""
        if not isinstance(record, self.record_type):
            raise InvariantError(self.record_type.__name__, "type",
                                 f"expected {self.record_type.__name__}, got {type(record).__name__}")
        d = record.to_dict()
        d.setdefault("schema_version", SCHEMA_VERSION)
        if self.id_field:
            stored_id = d[self.id_field]
        else:
            # types without a natural id get a stable sequential one
            stored_id = f"{self.id_prefix}-{self._count + 1:06d}"
            d["stored_id"] = stored_id
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(_dump(d) + "\n")
                fh.flush()
                os.fsync(fh.fileno())
        except OSError as exc:
            raise StoreIOError(f"append to {self.path} failed: {exc}") from exc
        self._count += 1
        return stored_id

    def __iter__(self) -> Iterator:
        if not self.path.exists():
            return
        with open(self.path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    yield self.record_type.from_dict(json.loads(line))

    def load(self) -> list:
        return list(self)

    def __len__(self) -> int:
        return self._count


class EventStore:
    """Event log with tombstone-plus-replacement merge semantics.

    ``append`` adds a new event version; ``apply_merge`` atomically
    appends tombstones for absorbed events plus the surviving
    replacement. The live view keeps the last version of each event_id
    and drops tombstoned ids, in first-insertion order.
    """

    TOMBSTONE = "tombstone"

    def __init__(self, path):
        self.path = Path(path)

    def append(self, event: EventAbstraction) -> str:
        if not isinstance(event, EventAbstraction):
            raise InvariantError("EventAbstraction", "type",
                                 f"expected EventAbstraction, got {type(event).__name__}")
        self._write_lines([_dump(event.to_dict())])
        return event.event_id

    def apply_merge(self, survivor: EventAbstraction, absorbed_ids) -> None:
        """All-or-nothing append of tombstones + the merged survivor."""
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
        self._write_lines(lines)

    def _write_lines(self, lines) -> None:
        payload = "".join(line + "\n" for line in lines)
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(payload)  # single write keeps the merge atomic
                fh.flush()
                os.fsync(fh.fileno())
        except OSError as exc:
            raise StoreIOError(f"append to {self.path} failed: {exc}") from exc

    def raw_entries(self) -> Iterator[dict]:
        if not self.path.exists():
            return
        with open(self.path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    yield json.loads(line)

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


def fresh_stores(directory):
    """Standard store set under one directory, starting empty.

    Store files an earlier run left there are removed first, so a rerun
    into the same directory writes what a run into a new one does.
    """
    directory = Path(directory)
    paths = {kind: directory / f"{kind}.jsonl" for kind in ("events", "records", "spikes", "runs")}
    for path in paths.values():
        path.unlink(missing_ok=True)
    return {
        "events": EventStore(paths["events"]),
        "records": JsonlStore(paths["records"], ContentRecord, id_field="record_id"),
        "spikes": JsonlStore(paths["spikes"], SpikeRecord, id_prefix="spk"),
        "runs": JsonlStore(paths["runs"], InferenceRun, id_prefix="run"),
    }
