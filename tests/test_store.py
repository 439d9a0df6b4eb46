"""The stores: records, merges, and the durability contract.

Each append reaches the OS in one write before it returns, and each store
is fsynced once per stage that wrote to it. The crash tests kill a run
from inside a store write, and check that every file is a prefix of a
complete run's, made of whole lines, holding every line written before
the kill.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import eventcast.store as store_mod
from eventcast.correlate import load_labels
from eventcast.inference.backends import prompt_key
from eventcast.inference.prompts import build_extract_prompt
from eventcast.model import ContentRecord, EventAbstraction, InvariantError, SpikeRecord
from eventcast.pipeline import PipelineConfig, materialize_scenario, run_pipeline
from eventcast.store import EventStore, JsonlStore, fresh_stores
from eventcast.synth import default_scenario

from .conftest import MONDAY, make_event, make_record, run_on_threads

STORE_FILES = ("records.jsonl", "events.jsonl", "runs.jsonl", "spikes.jsonl")


def test_append_returns_unique_ids_and_reloads(tmp_path):
    with EventStore(tmp_path / "events.jsonl") as store:
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
    n = 25
    with JsonlStore(path, ContentRecord, id_field="record_id") as store:
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
    with JsonlStore(path, SpikeRecord, id_prefix="spk") as store:
        first = store.append(spike)
    # a new process opens the same file and keeps counting
    with JsonlStore(path, SpikeRecord, id_prefix="spk") as again:
        second = again.append(spike)
    assert first == "spk-000001"
    assert second == "spk-000002"
    assert len(again.load()) == 2


def test_a_read_opens_the_file_once(tmp_path, monkeypatch):
    path = tmp_path / "spikes.jsonl"
    spike = SpikeRecord("net", MONDAY, MONDAY.replace(hour=1), peak_z=4.0,
                        mean_z=3.0, duration_minutes=60.0)
    with JsonlStore(path, SpikeRecord, id_prefix="spk") as store:
        store.append(spike)
        store.append(spike)
    opened = []

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return open(file, *args, **kwargs)

    monkeypatch.setattr(store_mod, "open", counting_open, raising=False)
    assert len(JsonlStore(path, SpikeRecord).load()) == 2
    assert opened == [path]
    assert sum(1 for _ in JsonlStore(path, SpikeRecord)) == 2
    assert opened == [path, path]


def test_round_trip_through_file(tmp_path):
    record = make_record(comments=("one", "two"))
    with JsonlStore(tmp_path / "records.jsonl", ContentRecord, id_field="record_id") as store:
        store.append(record)
    assert store.load()[0] == record


def test_merge_appends_tombstone_plus_replacement(tmp_path):
    survivor = make_event(event_id="evt-a", merge_history=("evt-b",))
    with EventStore(tmp_path / "events.jsonl") as store:
        store.append(make_event(event_id="evt-a"))
        store.append(make_event(event_id="evt-b"))
        store.apply_merge(survivor, ["evt-b"])

    live = store.load_live()
    assert [e.event_id for e in live] == ["evt-a"]
    assert live[0].merge_history == ("evt-b",)
    # the log keeps the full history: 2 originals + tombstone + replacement
    assert len(list(store.raw_entries())) == 4


def test_readers_skip_blank_lines_and_a_missing_store_reads_empty(tmp_path):
    path = tmp_path / "events.jsonl"
    with EventStore(path) as store:
        store.append(make_event(event_id="evt-a"))
    path.write_text("\n  \n" + path.read_text(encoding="utf-8") + "\t\n", encoding="utf-8")
    entry = json.loads(path.read_text(encoding="utf-8").strip())
    assert list(EventStore(path).raw_entries()) == [entry]
    assert [e.event_id for e in JsonlStore(path, EventAbstraction)] == ["evt-a"]
    assert load_labels(path) == [entry]

    missing = tmp_path / "missing.jsonl"
    assert list(EventStore(missing).raw_entries()) == []
    assert list(JsonlStore(missing, SpikeRecord)) == []
    with pytest.raises(FileNotFoundError):
        load_labels(missing)


def test_rejects_wrong_type(tmp_path):
    store = EventStore(tmp_path / "events.jsonl")
    with pytest.raises(InvariantError):
        store.append(make_record())


def test_open_stores_layout(tmp_path):
    with fresh_stores(tmp_path) as stores:
        assert set(stores) == {"events", "records", "spikes", "runs"}
        stores["records"].append(make_record())
    assert (tmp_path / "records.jsonl").exists()
    # a second set under the same directory starts empty
    with fresh_stores(tmp_path) as stores:
        assert stores["records"].load() == []


def test_io_failure_raises_retryable_error(tmp_path):
    from eventcast.store import StoreIOError

    target = tmp_path / "events.jsonl"
    target.mkdir()  # a directory where the file should be: append must fail
    store = EventStore(target)
    with pytest.raises(StoreIOError):
        store.append(make_event())


def test_append_reaches_the_file_before_sync(tmp_path):
    path = tmp_path / "records.jsonl"
    with JsonlStore(path, ContentRecord, id_field="record_id") as store:
        store.append(make_record(record_id="rec-a"))
        # a reader sees the whole line while the store is still open and unsynced
        assert [r.record_id for r in JsonlStore(path, ContentRecord).load()] == ["rec-a"]
        assert path.stat().st_size == store.counts["bytes"]
        assert store.counts["fsyncs"] == 0


def test_sync_fsyncs_only_a_store_written_since_its_last_sync(tmp_path, monkeypatch):
    fsynced = []
    fsync = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: fsynced.append(fd) or fsync(fd))
    store = EventStore(tmp_path / "events.jsonl")
    store.sync()
    store.close()
    assert fsynced == [] and not store.path.exists()
    with store:
        store.append(make_event(event_id="evt-a"))
        store.append(make_event(event_id="evt-b"))
        store.sync()
        store.sync()
        assert len(fsynced) == 1
        store.apply_merge(make_event(event_id="evt-a", merge_history=("evt-b",)), ["evt-b"])
    # closing synced the merge
    assert len(fsynced) == 2
    assert store.counts == {"lines": 4, "bytes": store.path.stat().st_size, "fsyncs": 2}


def test_append_after_close_opens_the_file_again(tmp_path):
    with EventStore(tmp_path / "events.jsonl") as store:
        store.append(make_event(event_id="evt-a"))
    store.append(make_event(event_id="evt-b"))
    store.close()
    assert [e.event_id for e in store.load_live()] == ["evt-a", "evt-b"]
    assert store.counts["fsyncs"] == 2


# -- the durability contract, end to end ------------------------------------

# Runs the pipeline with every store write logged to stdout ("write <file>
# <lines>"), and every sync ("sync"); with a kill point N > 0 the process
# kills itself right after the write that brings the lines written to N.
CRASHING_RUN = """if True:
    import os, signal, sys
    from eventcast import store
    from eventcast.pipeline import PipelineConfig, run_pipeline

    config = PipelineConfig.load(sys.argv[1])
    config.out_dir = sys.argv[2]
    kill_at = int(sys.argv[3])
    write, sync = store._AppendLog._write, store._AppendLog.sync
    written = 0

    def logged_write(self, lines):
        global written
        write(self, lines)
        written += len(lines)
        os.write(1, f"write {self.path.name} {len(lines)}\\n".encode())
        if 0 < kill_at <= written:
            os.kill(os.getpid(), signal.SIGKILL)

    def logged_sync(self):
        sync(self)
        os.write(1, b"sync\\n")

    store._AppendLog._write = logged_write
    store._AppendLog.sync = logged_sync
    run_pipeline(config)
"""
STAGES = ("ingest", "infer", "dedup", "cluster", "detect_spikes")


def _crashing_run(config_path, out_dir, kill_at):
    """Returns the exit code and the writes made, as (file, lines, stage)."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-c", CRASHING_RUN, str(config_path), str(out_dir),
                           str(kill_at)], capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": src})
    writes, syncs = [], 0
    for line in proc.stdout.splitlines():
        if line == "sync":
            syncs += 1
        else:
            _, name, lines = line.split()
            # run_pipeline syncs all four stores at the end of each stage
            writes.append((name, int(lines), STAGES[syncs // len(STORE_FILES)]))
    return proc.returncode, writes


@pytest.fixture(scope="module")
def complete_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("complete")
    config_path = materialize_scenario(default_scenario(seed=7), base)
    code, writes = _crashing_run(config_path, base / "out", 0)
    assert code == 0
    return config_path, base / "out", writes


def _bytes(path: Path) -> bytes:
    return path.read_bytes() if path.exists() else b""


def _kill_points(writes, events: bytes):
    """A kill point in the middle of each stage's writes, and one at the
    first tombstone of the complete run's events file."""
    tombstone = next(i for i, line in enumerate(events.splitlines())
                     if json.loads(line).get("kind") == EventStore.TOMBSTONE)
    points, ends, written, events_written = {}, {}, 0, 0
    for name, lines, stage in writes:
        if name == "events.jsonl":
            if events_written <= tombstone < events_written + lines:
                points["merge"] = written + tombstone - events_written + 1
            events_written += lines
        written += lines
        ends.setdefault(stage, []).append(written)
    for stage, stage_ends in ends.items():
        points[stage] = stage_ends[len(stage_ends) // 2]
    return points


def test_complete_run_writes_in_every_stage_and_merges_in_one_write(complete_run):
    _, _, writes = complete_run
    assert {stage for *_, stage in writes} == set(STAGES)
    merges = [w for w in writes if w[1] > 1]
    assert len(merges) == 2 and {(name, stage) for name, _, stage in merges} == {
        ("events.jsonl", "dedup")}


@pytest.mark.parametrize("point", ["ingest", "infer", "merge", "dedup", "cluster",
                                   "detect_spikes"])
def test_a_killed_run_leaves_whole_line_prefixes(complete_run, tmp_path, point):
    config_path, full_out, writes = complete_run
    kill_at = _kill_points(writes, (full_out / "events.jsonl").read_bytes())[point]
    code, done = _crashing_run(config_path, tmp_path / "out", kill_at)
    assert code == -signal.SIGKILL
    assert sum(lines for _, lines, _ in done) >= kill_at
    assert done[-1][2] == ("dedup" if point == "merge" else point)
    for name in STORE_FILES:
        crashed = _bytes(tmp_path / "out" / name)
        full = (full_out / name).read_bytes().splitlines(keepends=True)
        lines = crashed.splitlines(keepends=True)
        assert crashed == b"" or crashed.endswith(b"\n"), name
        assert lines == full[:len(lines)], name
        # every line written before the kill reached the file
        assert len(lines) == sum(n for written, n, _ in done if written == name), name
    events = _bytes(tmp_path / "out" / "events.jsonl").splitlines()
    # a merge's tombstones never reach the file without their survivor
    assert not events or json.loads(events[-1]).get("kind") != EventStore.TOMBSTONE


def _open_files_under(directory: Path) -> list:
    fds = Path("/proc/self/fd")
    if not fds.is_dir():
        pytest.skip("needs /proc/self/fd to list the open files")
    opened = []
    for fd in fds.iterdir():
        try:
            target = os.readlink(fd)
        except OSError:  # the descriptor that listed the directory is gone
            continue
        if target.startswith(str(directory)):
            opened.append(target)
    return opened


def test_a_failed_stage_leaves_what_one_request_at_a_time_stored(complete_run, tmp_path,
                                                                 monkeypatch):
    # the inline stubs make one request at a time; wrapped as if on the
    # network, the same stubs run on the request pools at the default cap
    config_path, full_out, _ = complete_run
    config = PipelineConfig.load(config_path)
    records = JsonlStore(full_out / "records.jsonl", ContentRecord).load()
    with open(config.llm["fixtures_path"], "r", encoding="utf-8") as fh:
        fixtures = json.load(fh)
    del fixtures[prompt_key(build_extract_prompt(records[10]), "extract")]
    fixtures_path = tmp_path / "llm_fixtures.json"
    fixtures_path.write_text(json.dumps(fixtures), encoding="utf-8")
    config = dataclasses.replace(config, llm={"kind": "stub", "fixtures_path": str(fixtures_path)})

    sequential = run_pipeline(dataclasses.replace(config, out_dir=str(tmp_path / "sequential")))
    with monkeypatch.context() as patch:
        threads = run_on_threads(patch)
        concurrent = run_pipeline(dataclasses.replace(config, out_dir=str(tmp_path / "concurrent")))
    assert threads and all(name.startswith("eventcast-request_") for name in threads)
    assert concurrent["status"] == sequential["status"] == "failed at infer"
    assert concurrent["stores"] == sequential["stores"]
    assert sequential["stores"]["events"]["lines"] > 0
    for name in STORE_FILES:
        stored = _bytes(tmp_path / "sequential" / name)
        assert _bytes(tmp_path / "concurrent" / name) == stored, name
        assert (full_out / name).read_bytes().startswith(stored), name
    assert _open_files_under(tmp_path) == []
