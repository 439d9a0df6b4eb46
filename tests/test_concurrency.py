"""Concurrent inference against its sequential oracle.

With ``MAX_CONCURRENT_REQUESTS`` set to 1 every request runs one after
another, in the order the sequential implementation made them; that run
is the reference the concurrent default must reproduce byte for byte.
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
from eventcast.inference.backends import StubLlmBackend, prompt_key
from eventcast.inference.enrich import FixtureRetriever, enrich_with_context
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
from eventcast.store import fresh_stores
from eventcast.synth import default_scenario

from .conftest import make_event, make_record
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


class TestSequentialOracle:
    def test_cap_of_one_and_default_leave_identical_artifacts(self, scenario_config, tmp_path,
                                                              monkeypatch):
        concurrent = _run(scenario_config, tmp_path / "concurrent")
        monkeypatch.setattr(backends, "MAX_CONCURRENT_REQUESTS", 1)
        sequential = _run(scenario_config, tmp_path / "sequential")
        assert concurrent == sequential and sequential["status"] == "ok"
        artifacts = _artifacts(tmp_path / "sequential")
        assert len(artifacts) == 10
        assert _artifacts(tmp_path / "concurrent") == artifacts

    def test_six_merge_groups_at_a_cap_of_one_and_the_default(self, merges_config, tmp_path,
                                                              monkeypatch):
        concurrent = _run(merges_config, tmp_path / "concurrent")
        assert concurrent["stages"]["dedup"]["duplicate_groups"] == 6
        monkeypatch.setattr(backends, "MAX_CONCURRENT_REQUESTS", 1)
        assert _run(merges_config, tmp_path / "sequential") == concurrent
        artifacts = _artifacts(tmp_path / "sequential")
        assert len(artifacts) == 10
        assert _artifacts(tmp_path / "concurrent") == artifacts

    def test_a_failed_reinference_leaves_what_one_merge_at_a_time_stored(
            self, merges_config, tmp_path, monkeypatch):
        # record the fixtures each merge survivor's re-inference reads, in group order
        reads = {}
        enrich_event = pipeline.enrich_event

        class Recorder:
            def __init__(self, llm, keys):
                self.llm, self.keys = llm, keys

            def send(self, prompt, salt=""):
                self.keys.append(prompt_key(prompt, salt))
                return self.llm.send(prompt, salt)

        def recording(event, llm, *args, **kwargs):
            if event.merge_history:
                llm = Recorder(llm, reads.setdefault(event.event_id, []))
            return enrich_event(event, llm, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(pipeline, "enrich_event", recording)
            patch.setattr(backends, "MAX_CONCURRENT_REQUESTS", 1)
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

        concurrent = _run(config, tmp_path / "concurrent")
        monkeypatch.setattr(backends, "MAX_CONCURRENT_REQUESTS", 1)
        sequential = _run(config, tmp_path / "sequential")
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


class SlowBackend:
    """A stub backend that takes 20 ms per call and records the calls in flight."""

    LATENCY_S = 0.02

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

    def test_cap_holds_and_merges_beat_half_of_one_merge_at_a_time(self, merges_config,
                                                                  tmp_path, monkeypatch):
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
                start = time.perf_counter()
                survivors, _, summary = stage_dedup(
                    merges_config, events, build_embedder(merges_config), stores["events"],
                    stores["runs"], llm=llm, retriever=retriever, records=records)
                return survivors, summary, llm, time.perf_counter() - start

        survivors, summary, llm, elapsed = dedup(tmp_path / "concurrent")
        assert summary["duplicate_groups"] == 6
        assert 1 < llm.max_inflight <= self.CAP

        one_at_a_time = threading.Lock()
        enrich_event = pipeline.enrich_event

        def serialized(*args, **kwargs):
            with one_at_a_time:
                return enrich_event(*args, **kwargs)

        monkeypatch.setattr(pipeline, "enrich_event", serialized)
        serial_survivors, _, serial_llm, serial_elapsed = dedup(tmp_path / "serial")
        assert serial_survivors == survivors and serial_llm.calls == llm.calls
        assert elapsed < 0.5 * serial_elapsed
