from __future__ import annotations

import pytest

from eventcast.model import ContentRecord, InvariantError, SpikeRecord
from eventcast.store import EventStore, JsonlStore, fresh_stores

from .conftest import MONDAY, make_event, make_record


def test_append_returns_unique_ids_and_reloads(tmp_path):
    store = EventStore(tmp_path / "events.jsonl")
    a = store.append(make_event(event_id="evt-a"))
    b = store.append(make_event(event_id="evt-b"))
    assert a == "evt-a" and b == "evt-b" and a != b
    loaded = store.load_live()
    assert [e.event_id for e in loaded] == ["evt-a", "evt-b"]


def test_invariant_violation_names_field(tmp_path):
    store = EventStore(tmp_path / "events.jsonl")
    with pytest.raises(InvariantError, match="likelihood"):
        store.append(make_event(likelihood=11))


def test_reload_preserves_count_and_order(tmp_path):
    path = tmp_path / "records.jsonl"
    store = JsonlStore(path, ContentRecord, id_field="record_id")
    n = 25
    for i in range(n):
        store.append(make_record(record_id=f"rec-{i:03d}"))
    reloaded = JsonlStore(path, ContentRecord, id_field="record_id")
    records = reloaded.load()
    assert len(records) == n
    assert [r.record_id for r in records] == [f"rec-{i:03d}" for i in range(n)]


def test_sequential_ids_stable_across_restart(tmp_path):
    path = tmp_path / "spikes.jsonl"
    spike = SpikeRecord("net", MONDAY, MONDAY.replace(hour=1), peak_z=4.0,
                        mean_z=3.0, duration_minutes=60.0)
    store = JsonlStore(path, SpikeRecord, id_prefix="spk")
    first = store.append(spike)
    # a new process opens the same file and keeps counting
    again = JsonlStore(path, SpikeRecord, id_prefix="spk")
    second = again.append(spike)
    assert first == "spk-000001"
    assert second == "spk-000002"
    assert len(again.load()) == 2


def test_round_trip_through_file(tmp_path):
    store = JsonlStore(tmp_path / "records.jsonl", ContentRecord, id_field="record_id")
    record = make_record(comments=("one", "two"))
    store.append(record)
    assert store.load()[0] == record


def test_merge_appends_tombstone_plus_replacement(tmp_path):
    store = EventStore(tmp_path / "events.jsonl")
    store.append(make_event(event_id="evt-a"))
    store.append(make_event(event_id="evt-b"))
    survivor = make_event(event_id="evt-a", merge_history=("evt-b",))
    store.apply_merge(survivor, ["evt-b"])

    live = store.load_live()
    assert [e.event_id for e in live] == ["evt-a"]
    assert live[0].merge_history == ("evt-b",)
    # the log keeps the full history: 2 originals + tombstone + replacement
    assert len(list(store.raw_entries())) == 4


def test_rejects_wrong_type(tmp_path):
    store = EventStore(tmp_path / "events.jsonl")
    with pytest.raises(InvariantError):
        store.append(make_record())


def test_open_stores_layout(tmp_path):
    stores = fresh_stores(tmp_path)
    assert set(stores) == {"events", "records", "spikes", "runs"}
    stores["records"].append(make_record())
    assert (tmp_path / "records.jsonl").exists()
    # a second set under the same directory starts empty
    assert fresh_stores(tmp_path)["records"].load() == []


def test_io_failure_raises_retryable_error(tmp_path):
    from eventcast.store import StoreIOError

    target = tmp_path / "events.jsonl"
    target.mkdir()  # a directory where the file should be: append must fail
    store = EventStore(target)
    with pytest.raises(StoreIOError):
        store.append(make_event())
