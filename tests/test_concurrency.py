"""Concurrent inference against its sequential oracle.

In-process stub backends run every request inline, one after another in
the order the sequential implementation made them; that run is the
reference. Wrapped in ``conftest.OnTheNetwork``, which declares that it
waits on the network, the same backends run on the thread pools at the
default ``MAX_CONCURRENT_REQUESTS``, and must reproduce it byte for byte.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time
from pathlib import Path

import pytest

import eventcast.inference.backends as backends
import eventcast.pipeline as pipeline
from eventcast.inference.backends import (
    HttpLlmBackend,
    InlineExecutor,
    StubFixtureMissing,
    StubLlmBackend,
    prompt_key,
)
from eventcast.inference.enrich import FixtureRetriever, HttpRetriever, enrich_with_context
from eventcast.inference.fields import INFERABLE_SPECS, apply_consensus, parse_value
from eventcast.inference.prompts import build_field_prompt
from eventcast.pipeline import (
    PipelineConfig,
    build_connector,
    build_embedder,
    materialize_scenario,
    run_pipeline,
    stage_dedup,
    stage_infer,
    stage_ingest,
)
from eventcast.semantics import HttpEmbedder
from eventcast.store import fresh_stores
from eventcast.synth import default_scenario

from .conftest import OnTheNetwork, make_event, make_record, run_on_threads
from .test_pipeline import _artifacts

RAG_SPECS = [spec for spec in INFERABLE_SPECS if spec.uses_rag]


@pytest.fixture(scope="module")
def scenario_config(tmp_path_factory):
    base = tmp_path_factory.mktemp("concurrency")
    return PipelineConfig.load(materialize_scenario(default_scenario(seed=7), base))


@pytest.fixture(scope="module")
def merges_config(tmp_path_factory):
    """The default scenario with four more announcements posted twice: six merge groups."""
    scenario = default_scenario(seed=7)
    twice = {"s1", "s2", "s3", "t1", "t2", "t3"}
    scenario = dataclasses.replace(scenario, planted_events=tuple(
        dataclasses.replace(e, n_posts=2) if e.name in twice else e
        for e in scenario.planted_events))
    base = tmp_path_factory.mktemp("merges")
    return PipelineConfig.load(materialize_scenario(scenario, base))


def _run(config, out_dir: Path) -> dict:
    report = run_pipeline(dataclasses.replace(config, out_dir=str(out_dir)))
    report.pop("timings_seconds")
    return report


def _lines(path: Path) -> list:
    return path.read_text(encoding="utf-8").splitlines()


def _stored(out_dir: Path) -> list:
    return [_lines(out_dir / name) for name in ("events.jsonl", "runs.jsonl")]


class Recorder:
    """Passes each ``send`` on to ``llm`` and records its fixture key in ``keys``."""

    def __init__(self, llm, keys=None):
        self.llm, self.keys = llm, [] if keys is None else keys

    def send(self, prompt, salt=""):
        self.keys.append(prompt_key(prompt, salt))
        return self.llm.send(prompt, salt)


def _stub_inputs(config, tmp_path):
    """The config's fixture retriever, its LLM fixture map and its ingested records."""
    with open(config.llm["fixtures_path"], "r", encoding="utf-8") as fh:
        fixtures = json.load(fh)
    with fresh_stores(tmp_path / "ingest") as stores:
        records, _ = stage_ingest(config, build_connector(config), stores["records"])
    return FixtureRetriever.from_file(config.retriever["fixtures_path"]), fixtures, records


class TestSequentialOracle:
    def _compare(self, config, tmp_path, monkeypatch) -> dict:
        """Run ``config`` inline and threaded; returns the inline report."""
        sequential = _run(config, tmp_path / "sequential")
        with monkeypatch.context() as patch:
            threads = run_on_threads(patch)
            concurrent = _run(config, tmp_path / "concurrent")
        # every backend call ran on a request pool thread
        assert threads and all(name.startswith("eventcast-request_") for name in threads)
        assert concurrent == sequential and sequential["status"] == "ok"
        artifacts = _artifacts(tmp_path / "sequential")
        assert len(artifacts) == 10
        assert _artifacts(tmp_path / "concurrent") == artifacts
        return sequential

    def test_inline_stubs_and_the_threaded_default_leave_identical_artifacts(
            self, scenario_config, tmp_path, monkeypatch):
        self._compare(scenario_config, tmp_path, monkeypatch)

    def test_six_merge_groups_inline_and_threaded(self, merges_config, tmp_path, monkeypatch):
        report = self._compare(merges_config, tmp_path, monkeypatch)
        assert report["stages"]["dedup"]["duplicate_groups"] == 6

    def test_a_failed_reinference_leaves_what_one_merge_at_a_time_stored(
            self, merges_config, tmp_path, monkeypatch):
        # record the fixtures each merge survivor's re-inference reads, in group order
        reads = {}
        enrich_event = pipeline.enrich_event

        def recording(event, llm, *args, **kwargs):
            if event.merge_history:
                llm = Recorder(llm, reads.setdefault(event.event_id, []))
            return enrich_event(event, llm, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(pipeline, "enrich_event", recording)
            assert _run(merges_config, tmp_path / "full")["status"] == "ok"
        second = list(reads)[1]
        with open(merges_config.llm["fixtures_path"], "r", encoding="utf-8") as fh:
            fixtures = json.load(fh)
        for key in reads[second]:
            fixtures.pop(key, None)
        fixtures_path = tmp_path / "llm_fixtures.json"
        fixtures_path.write_text(json.dumps(fixtures), encoding="utf-8")
        config = dataclasses.replace(merges_config,
                                     llm={"kind": "stub", "fixtures_path": str(fixtures_path)})

        sequential = _run(config, tmp_path / "sequential")
        with monkeypatch.context() as patch:
            run_on_threads(patch)
            concurrent = _run(config, tmp_path / "concurrent")
        assert concurrent["status"] == sequential["status"] == "failed at dedup"
        assert "no fixture" in concurrent["failures"][0]["error"]
        for name in ("events.jsonl", "runs.jsonl"):
            stored = _lines(tmp_path / "sequential" / name)
            assert _lines(tmp_path / "concurrent" / name) == stored
            full = _lines(tmp_path / "full" / name)
            assert len(stored) < len(full) and full[:len(stored)] == stored
        # the second merge is stored with its fields cleared, and nothing after it
        last = json.loads(_lines(tmp_path / "sequential" / "events.jsonl")[-1])
        assert last["event_id"] == second and last["category"] is None

    def test_one_retrieval_per_event(self, scenario_config, tmp_path, monkeypatch):
        queries = []
        search = FixtureRetriever.search

        def counted(self, query, max_results):
            queries.append(query)  # list.append is atomic under the GIL
            return search(self, query, max_results)

        monkeypatch.setattr(FixtureRetriever, "search", counted)
        assert _run(scenario_config, tmp_path / "out")["status"] == "ok"
        # one retrieval for each of the 20 extracted events and the 2
        # re-inferred merge survivors (357 when every RAG field retrieved)
        assert len(queries) == 51


class TestInferStopsAtAFailedEnrichment:
    def test_inline_stops_there_and_stores_what_the_threaded_run_does(self, scenario_config,
                                                                       tmp_path):
        retriever, fixtures, records = _stub_inputs(scenario_config, tmp_path)

        def infer(out_dir, llm, retriever=retriever):
            with fresh_stores(out_dir) as stores:
                stage_infer(scenario_config, records, llm, retriever, stores["events"],
                            stores["runs"])

        full = Recorder(StubLlmBackend(fixtures))
        infer(tmp_path / "full", full)
        # inline, the extractions of all records come first; this request
        # is in the fourth event's enrichment, so three events are stored
        failing = len(records) + 100
        del fixtures[full.keys[failing]]

        inline = Recorder(StubLlmBackend(fixtures))
        with pytest.raises(StubFixtureMissing):
            infer(tmp_path / "inline", inline)
        # the calls of the full run up to the failing one, and at most the
        # rest of its batch: the ensemble members of all RAG-backed fields
        batch = len(RAG_SPECS) * scenario_config.ensemble_size
        assert inline.keys == full.keys[:len(inline.keys)]
        assert failing < len(inline.keys) <= failing + batch < len(full.keys)

        threads = set()
        with pytest.raises(StubFixtureMissing):
            infer(tmp_path / "threaded", OnTheNetwork(StubLlmBackend(fixtures), threads),
                  OnTheNetwork(retriever, threads))
        assert threads and all(name.startswith("eventcast-request_") for name in threads)
        events, runs = _stored(tmp_path / "inline")
        assert _stored(tmp_path / "threaded") == [events, runs]
        full_events, full_runs = _stored(tmp_path / "full")
        assert 0 < len(events) < len(full_events) and full_events[:len(events)] == events
        assert full_runs[:len(runs)] == runs


class TestDedupStopsAtAFailedEnrichment:
    def test_inline_stops_there_and_stores_what_the_threaded_run_does(self, scenario_config,
                                                                       tmp_path):
        retriever, fixtures, records = _stub_inputs(scenario_config, tmp_path)

        def dedup(out_dir, llm, retriever=retriever):
            with fresh_stores(out_dir) as stores:
                events, _ = stage_infer(scenario_config, records, StubLlmBackend(fixtures),
                                        retriever, stores["events"], stores["runs"])
                stage_dedup(scenario_config, events, build_embedder(scenario_config),
                            stores["events"], stores["runs"], llm=llm, retriever=retriever,
                            records=records)

        full = Recorder(StubLlmBackend(fixtures))
        dedup(tmp_path / "full", full)
        del fixtures[full.keys[0]]

        inline = Recorder(StubLlmBackend(fixtures))
        with pytest.raises(StubFixtureMissing):
            dedup(tmp_path / "inline", inline)
        # the first merge's first field, and no call of the second merge
        assert inline.keys == full.keys[:scenario_config.ensemble_size]

        threads = set()
        with pytest.raises(StubFixtureMissing):
            dedup(tmp_path / "threaded", OnTheNetwork(StubLlmBackend(fixtures), threads),
                  OnTheNetwork(retriever, threads))
        assert threads and all(name.startswith("eventcast-request_") for name in threads)
        events, runs = _stored(tmp_path / "inline")
        assert _stored(tmp_path / "threaded") == [events, runs]
        full_events, full_runs = _stored(tmp_path / "full")
        assert len(events) < len(full_events) and full_events[:len(events)] == events
        assert full_runs[:len(runs)] == runs
        # the first merge is stored with its fields cleared, and nothing after it
        last = json.loads(events[-1])
        assert last["merge_history"] and last["category"] is None


class SlowBackend:
    """A stub backend that takes 20 ms per call, as if waiting on the network,
    and records the calls in flight."""

    LATENCY_S = 0.02
    waits_on_network = True

    def __init__(self, inner: StubLlmBackend):
        self.inner = inner
        self.lock = threading.Lock()
        self.inflight = 0
        self.max_inflight = 0
        self.calls = 0

    def send(self, prompt: str, salt: str = "") -> str:
        with self.lock:
            self.calls += 1
            self.inflight += 1
            self.max_inflight = max(self.max_inflight, self.inflight)
        try:
            time.sleep(self.LATENCY_S)
            return self.inner.send(prompt, salt)
        finally:
            with self.lock:
                self.inflight -= 1


class TestInline:
    def test_a_stub_run_starts_no_thread_pool(self, scenario_config, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a run on in-process backends started a thread pool")

        monkeypatch.setattr(backends, "ThreadPoolExecutor", refuse)
        assert _run(scenario_config, tmp_path / "out")["status"] == "ok"

    @pytest.mark.parametrize("cls", [HttpLlmBackend, HttpEmbedder, HttpRetriever])
    def test_the_http_clients_wait_on_the_network(self, cls):
        assert cls.waits_on_network is True

    def test_inline_futures_hold_results_and_exceptions_in_submit_order(self):
        calls = []

        def call(x):
            calls.append(x)
            if x < 0:
                raise ValueError(x)
            return 2 * x

        pool = InlineExecutor()
        done, failed = pool.submit(call, 3), pool.submit(call, x=-1)
        assert calls == [3, -1] and done.done() and failed.done()
        assert done.result() == 6
        with pytest.raises(ValueError):
            failed.result()


class TestRequestPool:
    def test_cap_holds_and_four_events_beat_half_the_sequential_time(self, scenario_config,
                                                                      tmp_path):
        with fresh_stores(tmp_path) as stores:
            records, _ = stage_ingest(scenario_config, build_connector(scenario_config),
                                      stores["records"])
            records = records[:4]
            llm = SlowBackend(StubLlmBackend.from_file(scenario_config.llm["fixtures_path"]))
            retriever = FixtureRetriever.from_file(scenario_config.retriever["fixtures_path"])
            start = time.perf_counter()
            events, summary = stage_infer(scenario_config, records, llm, retriever,
                                          stores["events"], stores["runs"])
            elapsed = time.perf_counter() - start
        assert len(events) == 4 and summary["records_failed"] == 0
        # one event's retrieval-grounded fields alone are 21 requests, so
        # the request pool fills unless something else limits it
        assert llm.max_inflight == backends.MAX_CONCURRENT_REQUESTS
        # one call after another would take at least calls x latency
        assert elapsed < 0.5 * llm.calls * SlowBackend.LATENCY_S


class TestRagFieldsIndependent:
    """The RAG-backed fields of one event are inferred together, which is
    sound only while setting one of them changes neither the prompts of
    the others nor what retrieval asks for."""

    COMPLETIONS = {
        "platforms": '["StreamArena"]',
        "data_per_user_mb": "1500",
        "audience_size": "2000000",
        "continent_relevance": '{"EU": 0.9}',
        "nation_relevance": '{"DE": 0.8}',
        "spike_duration_hours": "2.0",
        "likelihood": "9",
    }

    @pytest.mark.parametrize("spec", RAG_SPECS, ids=lambda s: s.field_name)
    def test_setting_a_rag_field_leaves_other_prompts_unchanged(self, spec):
        event = make_event(category="sports", entities=("Team X",))
        records = [make_record()]
        retriever = FixtureRetriever({"Team X": [
            {"title": "Team X", "text": "A club with a loud fanbase.", "url": "u1"}]})
        context = enrich_with_context(event, retriever).retrieved_docs

        def prompts(e):
            return {other.field_name: build_field_prompt(e, other.prompt_template_id,
                                                         records=records, context_docs=context)
                    for other in RAG_SPECS if other is not spec}

        value = parse_value(spec.data_type, self.COMPLETIONS[spec.field_name])
        updated = apply_consensus(event, spec, value)
        assert getattr(updated, spec.field_name) is not None
        assert prompts(updated) == prompts(event)
        assert enrich_with_context(updated, retriever).retrieved_docs == context


class TestMergePool:
    # above the 21 requests of one event's retrieval-grounded fields, so a
    # single merge never fills the pool and only overlapping merges can
    CAP = 32

    def test_cap_holds_and_all_six_merges_run_at_once(self, merges_config, tmp_path,
                                                      monkeypatch):
        monkeypatch.setattr(backends, "MAX_CONCURRENT_REQUESTS", self.CAP)
        stub = StubLlmBackend.from_file(merges_config.llm["fixtures_path"])
        retriever = FixtureRetriever.from_file(merges_config.retriever["fixtures_path"])
        with fresh_stores(tmp_path) as stores:
            records, _ = stage_ingest(merges_config, build_connector(merges_config),
                                      stores["records"])
            events, _ = stage_infer(merges_config, records, stub, retriever,
                                    stores["events"], stores["runs"])

        def dedup(out_dir):
            llm = SlowBackend(stub)
            with fresh_stores(out_dir) as stores:
                survivors, _, summary = stage_dedup(
                    merges_config, events, build_embedder(merges_config), stores["events"],
                    stores["runs"], llm=llm, retriever=retriever, records=records)
            return survivors, summary, llm, _artifacts(out_dir)

        enrich_event = pipeline.enrich_event
        # every re-inference waits here until all six have started; one
        # that runs alone times out and breaks the barrier, failing the stage
        all_six = threading.Barrier(6, timeout=30)

        def overlapping(*args, **kwargs):
            all_six.wait()
            return enrich_event(*args, **kwargs)

        monkeypatch.setattr(pipeline, "enrich_event", overlapping)
        survivors, summary, llm, stored = dedup(tmp_path / "concurrent")
        assert summary["duplicate_groups"] == 6
        assert 1 < llm.max_inflight <= self.CAP

        one_at_a_time = threading.Lock()

        def serialized(*args, **kwargs):
            with one_at_a_time:
                return enrich_event(*args, **kwargs)

        monkeypatch.setattr(pipeline, "enrich_event", serialized)
        serial_survivors, _, serial_llm, serial_stored = dedup(tmp_path / "serial")
        assert serial_survivors == survivors and serial_llm.calls == llm.calls
        assert serial_stored == stored and len(stored) == 2
