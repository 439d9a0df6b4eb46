from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from eventcast.ingest import FilterConfig
from eventcast.model import SpikeRecord
from eventcast.pipeline import PipelineConfig, materialize_scenario, run_pipeline
from eventcast.semantics import HashingStubEmbedder, cluster_multilevel, embed_events
from eventcast.store import EventStore, JsonlStore
from eventcast.synth import default_scenario


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("default_run")
    config_path = materialize_scenario(default_scenario(seed=7), base)
    config = PipelineConfig.load(config_path)
    report = run_pipeline(config)
    return base, config, report


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
        assert all(e.is_enriched() for e in events)
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
            assert event.is_enriched()  # re-inferred after the merge

    def test_lead_time_report_groups_sparse_categories(self, default_run):
        base, config, _ = default_run
        text = (Path(config.out_dir) / "reports" / "lead_time.csv").read_text()
        assert "Others" in text        # music has only 2 events, min count is 3
        assert "tv & film" in text
        assert "sports" in text

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
        _, config, _ = default_run
        twice = dataclasses.replace(config, out_dir=str(tmp_path / "twice"))
        run_pipeline(twice)
        assert run_pipeline(twice)["stages"]["dedup"]["events_surviving"] == 18
        fresh = _artifacts(Path(config.out_dir))
        assert len(fresh) == 10
        assert _artifacts(tmp_path / "twice") == fresh


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
