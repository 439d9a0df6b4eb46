from __future__ import annotations

import dataclasses
import json
import math

import pytest

from eventcast.cli import build_parser, main, stage_config
from eventcast.pipeline import PipelineConfig
from eventcast.store import EventStore

from eventcast.baseline import write_traffic_csv

from .conftest import inferred_fields, make_event, make_series, week_of_samples


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


# each stage subcommand with only the flags it needs, and the config
# fields those flags set; ingest needs a search term or a community, and
# "event" is the search term of PipelineConfig's default filter
REQUIRED_FLAGS = {
    "detect-spikes": (["--traffic", "t.csv"], {"traffic_csv": "t.csv"}),
    "ingest": (["--corpus", "p.jsonl", "--search-term", "event"], {"corpus_path": "p.jsonl"}),
    "infer-events": (["--records", "r.jsonl", "--fixtures", "f.json"],
                     {"llm": {"kind": "stub", "fixtures_path": "f.json"}}),
    "dedup": (["--events", "e.jsonl"], {}),
    "cluster": (["--events", "e.jsonl"], {}),
    "correlate": (["--events", "e.jsonl", "--spikes", "s.jsonl"], {}),
    "report": (["spike-frequency"], {}),
}


@pytest.mark.parametrize("command", sorted(REQUIRED_FLAGS))
def test_flags_left_out_keep_the_pipeline_defaults(command):
    flags, given = REQUIRED_FLAGS[command]
    config = stage_config(build_parser().parse_args([command, *flags]))
    assert config == dataclasses.replace(PipelineConfig(), **given)


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

    def test_negative_value_exits_2_naming_the_line(self, tmp_path, capsys):
        traffic = tmp_path / "traffic.csv"
        traffic.write_text("timestamp_utc,network_id,bits_per_second\n"
                           "2025-06-02T00:00:00Z,net-test,1.0\n"
                           "2025-06-02T00:05:00Z,net-test,-2.0\n", encoding="utf-8")
        code = main(["detect-spikes", "--traffic", str(traffic),
                     "--out", str(tmp_path / "spikes.jsonl")])
        assert code == 2
        assert capsys.readouterr().err == (
            "traffic CSV line 3: bits_per_second '-2.0' must be finite and >= 0\n")


class TestIngest:
    def test_standalone(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "records.jsonl"
        code = main(["ingest",
                     "--corpus", str(synth_dir / "posts.jsonl"),
                     "--community", "matchday", "--community", "screenroom",
                     "--community", "patchnotes", "--community", "encore",
                     "--min-engagement", "25", "--out", str(out)])
        assert code == 0
        lines = [l for l in out.read_text().splitlines() if l.strip()]
        assert len(lines) >= 19

    def test_no_filter_flag_exits_2_naming_both(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "records.jsonl"
        code = main(["ingest", "--corpus", str(synth_dir / "posts.jsonl"), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "--search-term" in err and "--community" in err
        assert not out.exists()


class TestStageChain:
    def test_infer_dedup_cluster_correlate_report(self, synth_dir, tmp_path, capsys):
        records = tmp_path / "records.jsonl"
        events = tmp_path / "events.jsonl"
        spikes = tmp_path / "spikes.jsonl"
        matches = tmp_path / "matches.jsonl"
        models = tmp_path / "models.json"

        assert main(["ingest",
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
            assert inferred_fields(event) == ()

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
        with EventStore(path) as store:
            store.append(make_event(event_id="evt-a", description="Continental Cup semi-final"))
            store.append(make_event(event_id="evt-b", date="2025-07-03",
                                    description="Arena rock concert"))
            # no [a-z0-9] token: the stub embedder returns a zero vector
            store.append(make_event(event_id="evt-jp", date="2025-07-04",
                                    description="東京ドーム公演"))
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
    def inputs(self, synth_dir, pipeline_out):
        return ["--labels", str(synth_dir / "labels.jsonl"),
                "--matches", str(pipeline_out / "matches.jsonl"),
                "--spikes", str(pipeline_out / "spikes.jsonl")]

    def test_recomputes_the_runs_table(self, synth_dir, pipeline_out, capsys):
        capsys.readouterr()
        assert main(["report", "coverage", *self.inputs(synth_dir, pipeline_out)]) == 0
        assert capsys.readouterr().out == \
            (pipeline_out / "reports" / "coverage.csv").read_text(encoding="utf-8")

    def test_recomputes_from_inputs_as_json(self, synth_dir, pipeline_out, capsys):
        capsys.readouterr()
        assert main(["report", "coverage", "--format", "json",
                     *self.inputs(synth_dir, pipeline_out)]) == 0
        rows = json.loads(capsys.readouterr().out)
        nets = {r["network_id"] for r in rows}
        assert {"net-eu-1", "net-eu-2", "net-na-1", "ALL"} <= nets

    @pytest.mark.parametrize("left_out", [None, "--labels", "--matches", "--spikes"])
    def test_a_missing_input_exits_2_naming_all_three(self, synth_dir, pipeline_out, capsys,
                                                      left_out):
        flags = self.inputs(synth_dir, pipeline_out)
        if left_out is None:
            flags = []
        else:
            at = flags.index(left_out)
            del flags[at:at + 2]
        capsys.readouterr()
        assert main(["report", "coverage", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "coverage needs --labels, --matches and --spikes\n"


def test_report_bins_out_of_order_exit_2(pipeline_out, capsys):
    capsys.readouterr()
    assert main(["report", "spike-frequency", "--spikes", str(pipeline_out / "spikes.jsonl"),
                 "--bins", "3,2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "z_bins must be strictly increasing\n"
