"""Concurrent inference against its sequential oracle.

With ``MAX_CONCURRENT_REQUESTS`` set to 1 every request runs one after
another, in the order the sequential implementation made them; that run
is the reference the concurrent default must reproduce byte for byte.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from pathlib import Path

import pytest

import eventcast.inference.backends as backends
from eventcast.inference.backends import StubLlmBackend
from eventcast.inference.enrich import FixtureRetriever, enrich_with_context
from eventcast.inference.fields import INFERABLE_SPECS, apply_consensus, parse_value
from eventcast.inference.prompts import build_field_prompt
from eventcast.pipeline import (
    PipelineConfig,
    build_connector,
    materialize_scenario,
    run_pipeline,
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


def _run(config, out_dir: Path) -> dict:
    report = run_pipeline(dataclasses.replace(config, out_dir=str(out_dir)))
    report.pop("timings_seconds")
    return report


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
        stores = fresh_stores(tmp_path)
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
        assert 1 < llm.max_inflight <= backends.MAX_CONCURRENT_REQUESTS
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
