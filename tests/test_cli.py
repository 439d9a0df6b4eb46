from __future__ import annotations

import json
import math

import pytest

from eventcast.cli import main
from eventcast.store import EventStore

from eventcast.baseline import write_traffic_csv

from .conftest import make_event, make_series, week_of_samples


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    data = base / "data"
    assert main(["synth", "--scenario", "default", "--seed", "7",
                 "--out-dir", str(data)]) == 0
    return data


@pytest.fixture(scope="module")
def pipeline_out(synth_dir):
    assert main(["run", "--config", str(synth_dir / "pipeline.json")]) == 0
    return synth_dir / "out"


def _pipeline_filter_flags(synth_dir):
    """The ingest flags that select what the scenario's pipeline config selects."""
    spec = json.loads((synth_dir / "pipeline.json").read_text())["filter"]
    flags = ["--min-engagement", str(spec["min_engagement"])]
    for term in spec["search_terms"]:
        flags += ["--search-term", term]
    for community in spec["communities"]:
        flags += ["--community", community]
    return flags


class TestSynthAndRun:
    def test_run_pipeline(self, synth_dir, capsys):
        assert main(["run", "--config", str(synth_dir / "pipeline.json")]) == 0
        out = capsys.readouterr().out
        report = json.loads(out[out.index("{"):])
        assert report["status"] == "ok"
        assert report["stages"]["report"]["planted"]["non_spontaneous_coverage"] >= 0.9

    def test_synth_accepts_scenario_file(self, tmp_path):
        from eventcast.synth import default_scenario

        scenario_path = tmp_path / "custom.json"
        default_scenario(seed=3).save(scenario_path)
        assert main(["synth", "--scenario", str(scenario_path),
                     "--out-dir", str(tmp_path / "data")]) == 0
        assert (tmp_path / "data" / "pipeline.json").exists()


class TestDetectSpikes:
    def test_standalone(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "spikes.jsonl"
        code = main(["detect-spikes", "--traffic", str(synth_dir / "traffic.csv"),
                     "--z", "2", "--min-duration", "20", "--out", str(out)])
        assert code == 0
        assert out.exists() and out.read_text().strip()
        assert "spikes appended" in capsys.readouterr().out

    def test_series_too_short_exits_2(self, tmp_path, capsys):
        traffic = tmp_path / "traffic.csv"
        write_traffic_csv(traffic, [week_of_samples(weeks=4)])
        code = main(["detect-spikes", "--traffic", str(traffic),
                     "--out", str(tmp_path / "spikes.jsonl")])
        assert code == 2
        assert "series too short" in capsys.readouterr().err

    def test_no_network_with_a_populated_baseline_exits_2(self, tmp_path, capsys):
        # five weeks whose fitting weeks never see the first slot of the week
        samples_per_week = 7 * 288
        values = [100.0] * (5 * samples_per_week)
        for week in range(4):
            values[week * samples_per_week] = math.nan
        traffic = tmp_path / "traffic.csv"
        write_traffic_csv(traffic, [make_series(values)])
        code = main(["detect-spikes", "--traffic", str(traffic),
                     "--out", str(tmp_path / "spikes.jsonl")])
        assert code == 2
        assert capsys.readouterr().err == "baseline has no data for slots: (wd=0, bin=0)\n"

    def test_malformed_csv_row_exits_2(self, tmp_path, capsys):
        traffic = tmp_path / "traffic.csv"
        write_traffic_csv(traffic, [week_of_samples(weeks=5)])
        with open(traffic, "a", encoding="utf-8") as fh:
            fh.write("2025-07-07T00:00:00Z,net-test\n")
        code = main(["detect-spikes", "--traffic", str(traffic),
                     "--out", str(tmp_path / "spikes.jsonl")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("traffic CSV line ") and err.count("\n") == 1
        assert not (tmp_path / "spikes.jsonl").exists()


class TestIngest:
    def test_standalone(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "records.jsonl"
        code = main(["ingest", "--connector", "file",
                     "--corpus", str(synth_dir / "posts.jsonl"),
                     "--community", "matchday", "--community", "screenroom",
                     "--community", "patchnotes", "--community", "encore",
                     "--min-engagement", "25", "--out", str(out)])
        assert code == 0
        lines = [l for l in out.read_text().splitlines() if l.strip()]
        assert len(lines) >= 19


class TestStageChain:
    def test_infer_dedup_cluster_correlate_report(self, synth_dir, tmp_path, capsys):
        records = tmp_path / "records.jsonl"
        events = tmp_path / "events.jsonl"
        spikes = tmp_path / "spikes.jsonl"
        matches = tmp_path / "matches.jsonl"
        models = tmp_path / "models.json"

        assert main(["ingest", "--connector", "file",
                     "--corpus", str(synth_dir / "posts.jsonl"),
                     "--community", "matchday", "--community", "screenroom",
                     "--community", "patchnotes", "--community", "encore",
                     "--min-engagement", "25", "--out", str(records)]) == 0
        assert main(["infer-events", "--records", str(records), "--backend", "stub",
                     "--fixtures", str(synth_dir / "llm_fixtures.json"),
                     "--retriever-fixtures", str(synth_dir / "retriever_fixtures.json"),
                     "--out", str(events)]) == 0
        assert main(["dedup", "--events", str(events), "--threshold", "0.9"]) == 0
        live = EventStore(events).load_live()
        assert len(live) == 18
        # standalone dedup has no LLM: merged survivors wait for re-inference
        merged = [e for e in live if e.merge_history]
        assert len(merged) == 2
        for event in merged:
            assert len(event.source_records) == 2
            assert event.category is None and event.entities is None
            assert event.likelihood is None and event.low_confidence_fields == ()
            assert not event.is_enriched()

        assert main(["cluster", "--events", str(events), "--levels", "10,100",
                     "--seed", "7", "--out-models", str(models)]) == 0
        assert models.exists()

        assert main(["detect-spikes", "--traffic", str(synth_dir / "traffic.csv"),
                     "--out", str(spikes)]) == 0
        assert main(["correlate", "--events", str(events), "--spikes", str(spikes),
                     "--window-hours", "6", "--out", str(matches)]) == 0
        assert matches.read_text().strip()

        assert main(["report", "spike-frequency", "--spikes", str(spikes),
                     "--bins", "2,3,5", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert "z_threshold,spike_count" in out

        assert main(["report", "lead-time", "--events", str(events),
                     "--min-category-count", "3", "--format", "json"]) == 0
        out = capsys.readouterr().out
        rows = json.loads(out[out.index("["):])
        assert any(r["category"] == "Others" for r in rows)


class TestMatchesPipeline:
    def test_ingest_infer_detect_chain(self, synth_dir, pipeline_out, tmp_path):
        records = tmp_path / "records.jsonl"
        events = tmp_path / "events.jsonl"
        spikes = tmp_path / "spikes.jsonl"
        assert main(["ingest", "--corpus", str(synth_dir / "posts.jsonl"),
                     *_pipeline_filter_flags(synth_dir), "--out", str(records)]) == 0
        assert main(["infer-events", "--records", str(records), "--backend", "stub",
                     "--fixtures", str(synth_dir / "llm_fixtures.json"),
                     "--retriever-fixtures", str(synth_dir / "retriever_fixtures.json"),
                     "--out", str(events)]) == 0
        assert main(["detect-spikes", "--traffic", str(synth_dir / "traffic.csv"),
                     "--out", str(spikes)]) == 0

        assert records.read_bytes() == (pipeline_out / "records.jsonl").read_bytes()
        assert spikes.read_bytes() == (pipeline_out / "spikes.jsonl").read_bytes()
        # the pipeline goes on to append merges, re-inference and signatures
        for name, expected_lines in (("events.jsonl", 20), ("runs.jsonl", 180)):
            ours = (tmp_path / name).read_text().splitlines()
            theirs = (pipeline_out / name).read_text().splitlines()
            assert len(ours) == expected_lines
            assert ours == theirs[:len(ours)]


class TestUnembeddableEvent:
    @pytest.fixture
    def events_path(self, tmp_path):
        path = tmp_path / "events.jsonl"
        store = EventStore(path)
        store.append(make_event(event_id="evt-a", description="Continental Cup semi-final"))
        store.append(make_event(event_id="evt-b", date="2025-07-03",
                                description="Arena rock concert"))
        # no [a-z0-9] token: the stub embedder returns a zero vector
        store.append(make_event(event_id="evt-jp", date="2025-07-04", description="東京ドーム公演"))
        return path

    def test_cluster_leaves_it_unsigned(self, events_path, tmp_path):
        assert main(["cluster", "--events", str(events_path), "--levels", "2",
                     "--out-models", str(tmp_path / "models.json")]) == 0
        signatures = {e.event_id: e.semantic_signature
                      for e in EventStore(events_path).load_live()}
        assert signatures["evt-jp"] is None
        assert signatures["evt-a"] is not None and signatures["evt-b"] is not None

    def test_dedup_skips_it(self, events_path):
        assert main(["dedup", "--events", str(events_path)]) == 0
        live = EventStore(events_path).load_live()
        assert [e.event_id for e in live] == ["evt-a", "evt-b", "evt-jp"]


class TestReportCoverage:
    def test_reads_pipeline_emitted_table(self, synth_dir, capsys):
        main(["run", "--config", str(synth_dir / "pipeline.json")])
        capsys.readouterr()
        coverage_csv = synth_dir / "out" / "reports" / "coverage.csv"
        assert main(["report", "coverage", "--coverage-csv", str(coverage_csv)]) == 0
        out = capsys.readouterr().out
        assert "network_id,event_driven_spikes,covered,coverage" in out

    def test_recomputes_from_inputs_as_json(self, synth_dir, capsys):
        main(["run", "--config", str(synth_dir / "pipeline.json")])
        capsys.readouterr()
        out_dir = synth_dir / "out"
        assert main(["report", "coverage", "--format", "json",
                     "--labels", str(synth_dir / "labels.jsonl"),
                     "--matches", str(out_dir / "matches.jsonl"),
                     "--spikes", str(out_dir / "spikes.jsonl")]) == 0
        out = capsys.readouterr().out
        rows = json.loads(out[out.index("["):])
        nets = {r["network_id"] for r in rows}
        assert {"net-eu-1", "net-eu-2", "net-na-1", "ALL"} <= nets
