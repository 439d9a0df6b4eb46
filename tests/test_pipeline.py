from __future__ import annotations

import dataclasses
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eventcast.pipeline as pipeline
from eventcast.baseline import (
    ConfigError,
    detect_spikes,
    fit_baseline,
    read_traffic_csv,
    write_traffic_csv,
    zscore_series,
)
from eventcast.inference.backends import (
    BackendError,
    BackendTimeout,
    LlmBackendConfig,
    StubFixtureMissing,
)
from eventcast.inference.enrich import enrich_event, enrich_with_context, infer_field
from eventcast.inference.prompts import build_extract_prompt
from eventcast.ingest import FilterConfig
from eventcast.model import ContentRecord, InvariantError, SpikeRecord, TrafficSeries
from eventcast.pipeline import PipelineConfig, build_llm, materialize_scenario, run_pipeline
from eventcast.semantics import HashingStubEmbedder, cluster_multilevel, embed_events
from eventcast.store import EventStore, JsonlStore
from eventcast.synth import default_scenario

from .conftest import INFERABLE, MONDAY, inferred_fields, make_series


class TestFullRun:
    def test_status_ok(self, default_run):
        _, _, report = default_run
        assert report["status"] == "ok" and report["failures"] == []

    def test_stage_counts(self, default_run):
        _, _, report = default_run
        stages = report["stages"]
        assert stages["ingest"]["records"] == 21  # 20 event posts + recipe
        assert stages["infer"]["events"] == 20
        assert stages["dedup"]["duplicate_groups"] == 2
        assert stages["dedup"]["events_surviving"] == 18
        assert stages["detect_spikes"]["spikes"] >= 19  # 18 planted + 2 spontaneous, rare splits aside

    def test_planted_coverage(self, default_run):
        _, _, report = default_run
        planted = report["stages"]["report"]["planted"]
        assert planted["non_spontaneous_total"] == 18
        assert planted["non_spontaneous_coverage"] >= 0.90
        assert planted["spontaneous_total"] == 2
        assert planted["spontaneous_matched"] == 0

    def test_artifacts_exist_and_parse(self, default_run):
        base, config, _ = default_run
        out = Path(config.out_dir)
        events = EventStore(out / "events.jsonl").load_live()
        assert len(events) == 18
        assert all(inferred_fields(e) == INFERABLE for e in events)
        assert all(e.semantic_signature is not None for e in events)
        spikes = JsonlStore(out / "spikes.jsonl", SpikeRecord).load()
        assert spikes
        assert (out / "matches.jsonl").exists()
        assert (out / "features.csv").exists()
        assert (out / "cluster_models.json").exists()
        assert (out / "reports" / "coverage.csv").exists()
        assert (out / "reports" / "lead_time.csv").exists()
        assert (out / "reports" / "spike_frequency.csv").exists()

    def test_merged_events_carry_history(self, default_run):
        base, config, _ = default_run
        events = EventStore(Path(config.out_dir) / "events.jsonl").load_live()
        merged = [e for e in events if e.merge_history]
        assert len(merged) == 2
        for event in merged:
            assert len(event.source_records) == 2
            assert inferred_fields(event) == INFERABLE  # re-inferred after the merge

    def test_lead_time_report_groups_sparse_categories(self, default_run):
        base, config, _ = default_run
        text = (Path(config.out_dir) / "reports" / "lead_time.csv").read_text()
        assert "Others" in text        # music has only 2 events, min count is 3
        assert "tv & film" in text
        assert "sports" in text

    def test_store_counts(self, default_run):
        _, config, report = default_run
        out = Path(config.out_dir)
        # one fsync per stage that wrote to the store: events in infer, dedup
        # and cluster, runs in infer and dedup
        fsyncs = {"events": 3, "runs": 2, "records": 1, "spikes": 1}
        assert {kind: c["fsyncs"] for kind, c in report["stores"].items()} == fsyncs
        for kind, counts in report["stores"].items():
            data = (out / f"{kind}.jsonl").read_bytes()
            assert counts["bytes"] == len(data)
            assert counts["lines"] == data.count(b"\n") == len(data.splitlines())

    def test_every_stored_line_carries_the_schema_version(self, default_run):
        _, config, _ = default_run
        for kind in ("events", "records", "runs", "spikes", "matches"):
            lines = (Path(config.out_dir) / f"{kind}.jsonl").read_text(encoding="utf-8").splitlines()
            assert lines and all(json.loads(line)["schema_version"] == 1 for line in lines), kind

    def test_feature_rows_per_event_network(self, default_run):
        base, config, _ = default_run
        lines = (Path(config.out_dir) / "features.csv").read_text().strip().splitlines()
        assert len(lines) - 1 == 18 * 3  # events x networks


def _artifacts(out_dir: Path) -> dict:
    return {
        str(path.relative_to(out_dir)): path.read_bytes()
        for path in sorted(out_dir.rglob("*"))
        if path.suffix in (".jsonl", ".csv") or path.name == "cluster_models.json"
    }


class TestRerun:
    def test_rerun_into_same_dir_matches_fresh_run(self, default_run, tmp_path):
        _, config, fresh_report = default_run
        twice = dataclasses.replace(config, out_dir=str(tmp_path / "twice"))
        run_pipeline(twice)
        report = run_pipeline(twice)
        assert report["stages"]["dedup"]["events_surviving"] == 18
        fresh = _artifacts(Path(config.out_dir))
        assert len(fresh) == 10
        assert _artifacts(tmp_path / "twice") == fresh
        # the report too, local backends' zero request counts included
        for r in (report, fresh_report):
            assert r["remote"]["llm"] == {"requests": 0, "connections": 0, "reconnects": 0,
                                          "timeouts": 0, "max_inflight": 0}
        assert ({k: v for k, v in report.items() if k != "timings_seconds"}
                == {k: v for k, v in fresh_report.items() if k != "timings_seconds"})


    def test_rerun_removes_files_the_rerun_does_not_write(self, default_run, tmp_path):
        _, config, _ = default_run
        out = tmp_path / "out"
        run_pipeline(dataclasses.replace(config, out_dir=str(out)))
        assert (out / "reports" / "coverage.csv").exists()
        report = run_pipeline(dataclasses.replace(config, out_dir=str(out), labels_path=None))
        assert "coverage" not in report["stages"]["report"]
        assert not (out / "reports" / "coverage.csv").exists()


def _bad_network(kind: str) -> TrafficSeries:
    """A network that sorts between the default scenario's good ones and
    cannot be scored: four weeks only, or five weeks whose fitting weeks
    never saw the first slot of the week."""
    samples_per_week = 7 * 288
    values = np.full((4 if kind == "too short" else 5) * samples_per_week, 100.0)
    if kind != "too short":
        values[:4 * samples_per_week:samples_per_week] = np.nan
    return make_series(values, network_id="net-eu-1b")


class TestBadNetwork:
    @pytest.mark.parametrize("kind, error", [
        ("too short", "network net-eu-1b: series too short to score past 4 fitting weeks"),
        ("unpopulated slot", "baseline has no data for slots: (wd=0, bin=0)"),
    ])
    def test_is_skipped_and_listed_and_good_networks_keep_their_spikes(
            self, default_run, tmp_path, kind, error):
        _, config, report = default_run
        assert report["stages"]["detect_spikes"]["failed_networks"] == []
        traffic = read_traffic_csv(config.traffic_csv)
        write_traffic_csv(tmp_path / "traffic.csv",
                          [traffic[k] for k in sorted(traffic)] + [_bad_network(kind)])
        out = tmp_path / "out"
        bad = run_pipeline(dataclasses.replace(config, out_dir=str(out),
                                               traffic_csv=str(tmp_path / "traffic.csv")))
        assert bad["status"] == "ok"
        assert bad["stages"]["detect_spikes"] == {
            **report["stages"]["detect_spikes"],
            "failed_networks": [{"network_id": "net-eu-1b", "error": error}]}
        assert ((out / "spikes.jsonl").read_bytes()
                == (Path(config.out_dir) / "spikes.jsonl").read_bytes())

    def test_every_network_failing_fails_the_stage(self, default_run, tmp_path):
        _, config, _ = default_run
        write_traffic_csv(tmp_path / "traffic.csv", [_bad_network("too short")])
        report = run_pipeline(dataclasses.replace(config, out_dir=str(tmp_path / "out"),
                                                  traffic_csv=str(tmp_path / "traffic.csv")))
        assert report["status"] == "failed at detect_spikes"
        assert "series too short" in report["failures"][0]["error"]


class TestRecordFailureIsolation:
    """A backend fault on one record's extraction costs that record only."""

    @staticmethod
    def _failing_on(config, record_id, error):
        """An LLM that raises ``error`` for every extraction request of one record."""
        inner = build_llm(config)
        records = JsonlStore(Path(config.out_dir) / "records.jsonl", ContentRecord).load()
        victim = build_extract_prompt(next(r for r in records if r.record_id == record_id))

        class FailingOnOneRecord:
            def send(self, prompt, salt=""):
                if prompt.startswith(victim):
                    raise error
                return inner.send(prompt, salt)

        return FailingOnOneRecord()

    @pytest.mark.parametrize("error, reason", [
        (BackendTimeout("slow"), "backend timed out"),
        (BackendError("HTTP 500"), "HTTP 500"),
    ], ids=["timeout", "backend_error"])
    def test_failed_record_is_counted_and_the_run_goes_on(self, default_run, tmp_path,
                                                          monkeypatch, error, reason):
        _, config, _ = default_run
        victim_event = EventStore(Path(config.out_dir) / "events.jsonl").load_live()[0]
        record_id = victim_event.source_records[0]
        llm = self._failing_on(config, record_id, error)
        monkeypatch.setattr(pipeline, "build_llm", lambda _config: llm)
        out = tmp_path / "out"
        report = run_pipeline(dataclasses.replace(config, out_dir=str(out)))
        infer = report["stages"]["infer"]
        assert report["status"] == "ok"
        assert infer["records_failed"] == 1 and infer["events"] == 19
        assert [f["record_id"] for f in infer["failed_records"]] == [record_id]
        assert reason in infer["failed_records"][0]["error"]
        stored = {e.event_id for e in EventStore(out / "events.jsonl").load_live()}
        assert victim_event.event_id not in stored

    def test_every_record_failing_fails_the_stage(self, default_run, tmp_path, monkeypatch):
        _, config, _ = default_run

        class Down:
            def send(self, prompt, salt=""):
                raise BackendError("request failed: connection refused")

        monkeypatch.setattr(pipeline, "build_llm", lambda _config: Down())
        report = run_pipeline(dataclasses.replace(config, out_dir=str(tmp_path / "out")))
        assert report["status"] == "failed at infer"
        assert "all 21 records failed" in report["failures"][0]["error"]
        assert "connection refused" in report["failures"][0]["error"]

    def test_missing_extraction_fixture_still_fails_the_stage(self, default_run, tmp_path,
                                                              monkeypatch):
        _, config, _ = default_run
        good = Path(config.out_dir)
        records = JsonlStore(good / "records.jsonl", ContentRecord).load()
        before = {r.record_id for r in records[:10]}
        llm = self._failing_on(config, records[10].record_id, StubFixtureMissing("0" * 64))
        monkeypatch.setattr(pipeline, "build_llm", lambda _config: llm)
        out = tmp_path / "out"
        report = run_pipeline(dataclasses.replace(config, out_dir=str(out)))
        assert report["status"] == "failed at infer"
        # what a sequential run stores before the failing record: the
        # enriched events of every record before it, and their runs
        stored = EventStore(out / "events.jsonl").load_live()
        assert stored and {e.source_records[0] for e in stored} <= before
        infer_lines = (good / "events.jsonl").read_bytes().splitlines(keepends=True)[:20]
        expected = [line for line in infer_lines
                    if json.loads(line)["source_records"][0] in before]
        assert (out / "events.jsonl").read_bytes() == b"".join(expected)
        assert (good / "runs.jsonl").read_bytes().startswith((out / "runs.jsonl").read_bytes())
        stored_runs = {json.loads(line)["event_id"]
                       for line in (out / "runs.jsonl").read_text().splitlines()}
        assert stored_runs == {e.event_id for e in stored}


def test_http_clients_load_no_third_party_http_stack():
    # every remote client is built on the standard library alone
    src = str(Path(pipeline.__file__).resolve().parent.parent)
    code = """if True:
        import sys, eventcast.cli, eventcast.pipeline as p
        url = "http://127.0.0.1:9"
        config = p.PipelineConfig(
            connector="http", connector_http={"base_url": f"{url}/posts"},
            page_fetcher={"kind": "http"},
            llm={"kind": "http", "endpoint_url": f"{url}/llm", "model_name": "m"},
            embedder={"kind": "http", "endpoint_url": f"{url}/embed", "model_name": "m"},
            retriever={"kind": "http", "base_url": f"{url}/search"})
        for build in (p.build_connector, p.build_page_fetcher, p.build_llm,
                      p.build_embedder, p.build_retriever):
            build(config)
        print(sorted({"requests", "urllib3"} & set(sys.modules)))
    """
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


class TestBuildLlm:
    URL = "http://127.0.0.1:9/llm"

    def test_http_keys_left_out_take_the_backend_config_defaults(self):
        llm = build_llm(PipelineConfig(llm={"kind": "http", "endpoint_url": self.URL,
                                            "model_name": "m", "temperature": 0.2,
                                            "auth_token_env": "EVENTCAST_UNSET_TOKEN"}))
        assert llm.config == LlmBackendConfig(endpoint_url=self.URL, model_name="m",
                                              temperature=0.2)

    def test_an_unknown_http_key_is_rejected(self):
        with pytest.raises(InvariantError, match="temprature"):
            build_llm(PipelineConfig(llm={"kind": "http", "endpoint_url": self.URL,
                                          "model_name": "m", "temprature": 0.2}))


def test_a_stub_run_loads_no_http_stack(tmp_path):
    # a process of its own, since the test runner may have loaded them already
    src = str(Path(pipeline.__file__).resolve().parent.parent)
    code = """if True:
        import sys, eventcast.pipeline as p
        from eventcast.synth import default_scenario
        config = p.PipelineConfig.load(p.materialize_scenario(default_scenario(seed=7),
                                                              sys.argv[1]))
        assert p.run_pipeline(config)["status"] == "ok"
        print(sorted({"ssl", "http.client", "urllib.request"} & set(sys.modules)))
    """
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


class TestEmbeddingPass:
    def test_cluster_reuses_dedup_vectors(self, default_run, tmp_path, monkeypatch):
        _, config, _ = default_run
        calls = []
        embed = HashingStubEmbedder.embed

        def counted(self, text):
            calls.append(text)
            return embed(self, text)

        monkeypatch.setattr(HashingStubEmbedder, "embed", counted)
        out = tmp_path / "out"
        run_pipeline(dataclasses.replace(config, out_dir=str(out)))
        # 20 events for dedup, then only the 2 re-inferred merge survivors
        assert len(calls) == 22
        monkeypatch.undo()

        # oracle: embed every survivor afresh, as a second full pass would
        live = EventStore(out / "events.jsonl").load_live()
        signatures, models = cluster_multilevel(
            embed_events(live, HashingStubEmbedder(dim=config.embedder["dim"])),
            levels=config.levels, seed=config.seed)
        assert {e.event_id: e.semantic_signature for e in live} == signatures
        models.save(tmp_path / "oracle_models.json")
        assert ((out / "cluster_models.json").read_bytes()
                == (tmp_path / "oracle_models.json").read_bytes())


A_SPIKE = SpikeRecord("net", MONDAY, MONDAY.replace(hour=1), peak_z=4.0, mean_z=3.0,
                      duration_minutes=60.0)


@pytest.mark.parametrize("spikes", [[], [A_SPIKE]], ids=["no spikes", "a spike"])
class TestSpikeFrequencyReport:
    def test_bins_out_of_order_fail_the_stage(self, spikes, tmp_path):
        # a config checks its bins when built, but a field set afterwards is not re-checked
        config = PipelineConfig()
        config.report_bins = (3, 2)
        with pytest.raises(ConfigError, match="increasing"):
            pipeline.stage_report(config, spikes, [], set(), {}, tmp_path)

    def test_integer_bins_report_as_floats(self, spikes, tmp_path):
        config = PipelineConfig.from_dict({"report_bins": [2, 3]})
        summary = pipeline.stage_report(config, spikes, [], set(), {}, tmp_path)
        assert summary["spike_frequency"] == {"2.0": len(spikes), "3.0": len(spikes)}
        assert (tmp_path / "reports" / "spike_frequency.csv").read_text() == \
            f"z_threshold,spike_count\n2.0,{len(spikes)}\n3.0,{len(spikes)}\n"


class TestEmptyCorpus:
    def test_zero_events_zero_matches_success(self, tmp_path):
        base = tmp_path / "scenario"
        config_path = materialize_scenario(default_scenario(seed=7), base)
        (base / "posts.jsonl").write_text("")  # nothing was crawled
        config = PipelineConfig.load(config_path)
        report = run_pipeline(config)
        assert report["status"] == "ok"
        assert report["stages"]["infer"]["events"] == 0
        assert report["stages"]["correlate"]["matches"] == 0
        # spikes still detected from traffic; they are simply unexplained
        assert report["stages"]["detect_spikes"]["spikes"] > 0


class TestMissingFixture:
    def test_inference_failure_names_prompt_hash(self, tmp_path):
        base = tmp_path / "scenario"
        config_path = materialize_scenario(default_scenario(seed=7), base)
        fixtures_path = base / "llm_fixtures.json"
        fixtures = json.loads(fixtures_path.read_text())
        victim = sorted(fixtures)[0]
        del fixtures[victim]
        fixtures_path.write_text(json.dumps(fixtures))
        config = PipelineConfig.load(config_path)
        report = run_pipeline(config)
        assert report["status"] == "failed at infer"
        assert any(victim in f["error"] for f in report["failures"])
        # partial artifacts are preserved for inspection
        assert (Path(config.out_dir) / "records.jsonl").exists()
        assert (Path(config.out_dir) / "run_report.json").exists()


class TestConfigRoundTrip:
    def test_save_load(self, tmp_path):
        config = PipelineConfig(out_dir=str(tmp_path / "out"), seed=3,
                                network_regions={"n": {"country": "DE", "continent": "EU"}})
        path = tmp_path / "pipeline.json"
        config.save(path)
        again = PipelineConfig.load(path)
        assert again.seed == 3
        assert again.network_regions == config.network_regions
        assert again.filter.search_terms == config.filter.search_terms

    def test_every_field_survives(self, tmp_path):
        config = PipelineConfig(
            out_dir=str(tmp_path / "out"), seed=3, default_timezone="Europe/Berlin",
            traffic_csv=str(tmp_path / "traffic.csv"), corpus_path=str(tmp_path / "posts.jsonl"),
            labels_path=str(tmp_path / "labels.jsonl"), connector="http",
            connector_http={"base_url": "http://corpus.test"},
            filter=FilterConfig(search_terms=("cup",), communities=("matchday",),
                                min_engagement=5, require_outbound_link=True),
            top_k_comments=7, max_linked_pages=2, page_fetcher={"kind": "http"},
            llm={"kind": "stub", "fixtures_path": str(tmp_path / "llm.json")},
            embedder={"kind": "hash", "dim": 32},
            retriever={"kind": "fixture", "fixtures_path": str(tmp_path / "docs.json")},
            ensemble_size=5, max_attempts=2, max_context_docs=4, window_weeks=3,
            bin_minutes=15, std_floor_fraction=0.1, z_threshold=3.0,
            min_duration_minutes=30.0, merge_gap_minutes=10.0, dedup_threshold=0.8,
            levels=(5, 50), match_window_hours=12.0, feature_window_days=2,
            min_category_count=3, report_bins=(2.5, 4.0),
            network_regions={"n": {"country": "DE", "continent": "EU"}},
        )
        default = PipelineConfig()
        unchanged = [f.name for f in dataclasses.fields(config)
                     if getattr(config, f.name) == getattr(default, f.name)]
        assert unchanged == []
        path = tmp_path / "pipeline.json"
        config.save(path)
        assert PipelineConfig.load(path) == config

    @pytest.mark.parametrize("build, reason", [
        (lambda: PipelineConfig(report_bins=(3.0, 2.0)), "increasing"),
        (lambda: PipelineConfig.from_dict({"report_bins": [3, 2]}), "increasing"),
        (lambda: PipelineConfig.from_dict({"report_bins": []}), "non-empty"),
    ], ids=["out of order", "out of order, from a dict", "empty, from a dict"])
    def test_report_bins_the_report_stage_rejects_fail_the_config(self, build, reason):
        # before any stage runs, not after the whole inference at the report stage
        with pytest.raises(ConfigError, match=reason):
            build()

    def test_layer_keyword_defaults_are_the_config_defaults(self):
        config = PipelineConfig()
        for function, fields in (
            (fit_baseline, {"window_weeks": "window_weeks", "bin_minutes": "bin_minutes"}),
            (zscore_series, {"std_floor_fraction": "std_floor_fraction"}),
            (detect_spikes, {"z_threshold": "z_threshold",
                             "min_duration_minutes": "min_duration_minutes",
                             "merge_gap_minutes": "merge_gap_minutes"}),
            (enrich_event, {"ensemble_size": "ensemble_size", "max_attempts": "max_attempts",
                            "max_docs": "max_context_docs"}),
            (enrich_with_context, {"max_docs": "max_context_docs"}),
            (infer_field, {"ensemble_size": "ensemble_size", "max_attempts": "max_attempts"}),
        ):
            parameters = inspect.signature(function).parameters
            for parameter, field_name in fields.items():
                default, value = parameters[parameter].default, getattr(config, field_name)
                assert (type(default), default) == (type(value), value), (function, parameter)

    def test_relative_fixture_paths_resolve_without_touching_the_callers_dicts(self, tmp_path):
        raw = {"llm": {"kind": "stub", "fixtures_path": "llm.json"},
               "retriever": {"kind": "fixture", "fixtures_path": "docs.json"}}
        before = json.loads(json.dumps(raw))
        config = PipelineConfig.from_dict(raw, base_dir=tmp_path)
        assert raw == before
        assert config.llm is not raw["llm"] and config.retriever is not raw["retriever"]
        assert config.llm["fixtures_path"] == str(tmp_path / "llm.json")
        assert config.retriever["fixtures_path"] == str(tmp_path / "docs.json")

