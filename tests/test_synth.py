from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from datetime import datetime, timedelta, timezone
from itertools import groupby
from pathlib import Path

import numpy as np
import pytest

import eventcast.synth as synth
from eventcast.baseline import detect_spikes, fit_baseline, zscore_series
from eventcast.inference.backends import StubLlmBackend, prompt_key
from eventcast.inference.enrich import EMPTY_BUNDLE, FixtureRetriever, enrich_with_context
from eventcast.inference.extract import build_event, extract_events
from eventcast.inference.fields import INFERABLE_SPECS, aggregate_runs, apply_consensus, parse_value
from eventcast.inference.prompts import build_extract_prompt, build_field_prompt
from eventcast.ingest import FilterConfig, assemble_content_record, list_posts
from eventcast.model import EventDraft
from eventcast.semantics import HashingStubEmbedder, embed_events, find_duplicates, merge_events
from eventcast.synth import (
    RUN_DEFAULTS,
    PlantedEvent,
    Scenario,
    SynthNetwork,
    default_scenario,
    synth_corpus,
    synth_traffic,
)

UTC = timezone.utc
START = datetime(2025, 6, 2, tzinfo=UTC)


def one_event_scenario(magnitude=5.0, duration=60, lead_days=5.0, n_posts=1, seed=3):
    eval_start = START + timedelta(weeks=4)
    event = PlantedEvent(
        name="solo", headline="Championship final stream", category="Sports",
        community="matchday", entities=("Alpha", "Beta"), platforms=("StreamArena",),
        event_time=eval_start + timedelta(days=2, hours=18),
        magnitude_z=magnitude, duration_min=duration, lead_time_days=lead_days,
        network_id="net-1", continent_relevance={"EU": 0.8},
        nation_relevance={"DE": 0.7}, n_posts=n_posts,
    )
    return Scenario(
        seed=seed, duration_weeks=5,
        networks=(SynthNetwork("net-1", "DE", "EU", 800.0),),
        planted_events=(event,), start=START,
    )


class TestScenarioValidation:
    def test_event_outside_eval_span_rejected(self):
        eval_start = START + timedelta(weeks=4)
        stray = PlantedEvent(
            name="early", headline="x", category="Sports",
            event_time=START + timedelta(days=1),  # inside the fitting span
            magnitude_z=5.0, duration_min=60, lead_time_days=2.0, network_id="net-1",
        )
        with pytest.raises(ValueError, match="scored span"):
            Scenario(seed=1, duration_weeks=5,
                     networks=(SynthNetwork("net-1", "DE", "EU"),),
                     planted_events=(stray,), start=START)

    def test_weak_event_must_be_marked_sub_threshold(self):
        eval_start = START + timedelta(weeks=4)
        weak = PlantedEvent(
            name="weak", headline="x", category="Sports",
            event_time=eval_start + timedelta(days=1),
            magnitude_z=1.0, duration_min=60, lead_time_days=2.0, network_id="net-1",
        )
        with pytest.raises(ValueError, match="detection rule"):
            Scenario(seed=1, duration_weeks=5,
                     networks=(SynthNetwork("net-1", "DE", "EU"),),
                     planted_events=(weak,), start=START)

    def test_unknown_network_rejected(self):
        eval_start = START + timedelta(weeks=4)
        event = PlantedEvent(
            name="lost", headline="x", category="Sports",
            event_time=eval_start + timedelta(days=1),
            magnitude_z=5.0, duration_min=60, lead_time_days=2.0, network_id="net-9",
        )
        with pytest.raises(ValueError, match="unknown network"):
            Scenario(seed=1, duration_weeks=5,
                     networks=(SynthNetwork("net-1", "DE", "EU"),),
                     planted_events=(event,), start=START)

    def test_round_trip(self):
        scenario = one_event_scenario()
        again = Scenario.from_dict(scenario.to_dict())
        assert again == scenario


class TestSynthTraffic:
    def test_same_seed_identical(self):
        series1, labels1 = synth_traffic(one_event_scenario(seed=11))
        series2, labels2 = synth_traffic(one_event_scenario(seed=11))
        assert np.array_equal(series1["net-1"].values, series2["net-1"].values)
        assert labels1 == labels2

    def test_no_events_zero_noise_detects_nothing(self):
        scenario = Scenario(
            seed=1, duration_weeks=5,
            networks=(SynthNetwork("net-1", "DE", "EU"),),
            planted_events=(), noise_std_fraction=0.0, start=START,
        )
        series, labels = synth_traffic(scenario)
        assert labels == []
        spikes = _detect(scenario, series["net-1"])
        assert spikes == []

    def test_planted_bump_detected_with_overlap(self):
        scenario = one_event_scenario(magnitude=5.0, duration=60)
        series, labels = synth_traffic(scenario)
        spikes = _detect(scenario, series["net-1"])
        assert labels[0]["event_name"] == "solo"
        event = scenario.planted_events[0]
        covered = 0.0
        for spike in spikes:
            lo = max(spike.start, event.event_time)
            hi = min(spike.end, event.end_time)
            covered += max(0.0, (hi - lo).total_seconds())
        assert covered / (event.duration_min * 60) >= 0.8

    def test_detected_magnitude_near_planted(self):
        scenario = one_event_scenario(magnitude=5.0, duration=120)
        series, _ = synth_traffic(scenario)
        spikes = _detect(scenario, series["net-1"])
        assert spikes and max(s.peak_z for s in spikes) == pytest.approx(5.0, rel=0.4)


def _detect(scenario, series):
    boundary = scenario.history_weeks * 7 * 86400 // series.step_seconds
    model = fit_baseline(series.slice(0, boundary), window_weeks=scenario.history_weeks)
    z = zscore_series(model, series.slice(boundary))
    return detect_spikes(z)


class TestSynthCorpus:
    def test_posts_cover_non_spontaneous_events(self):
        scenario = default_scenario(seed=7)
        posts, _, _ = synth_corpus(scenario)
        non_spont = [e for e in scenario.planted_events if not e.spontaneous]
        for event in non_spont:
            assert any(p.post_id.startswith(event.name + "-p") for p in posts)

    def test_spontaneous_events_have_no_posts(self):
        scenario = default_scenario(seed=7)
        posts, _, _ = synth_corpus(scenario)
        spont = [e.name for e in scenario.planted_events if e.spontaneous]
        assert spont  # scenario plants some
        for name in spont:
            assert not any(p.post_id.startswith(name + "-p") for p in posts)

    def test_posts_pass_the_documented_filter(self):
        scenario = default_scenario(seed=7)
        posts, _, _ = synth_corpus(scenario)
        communities = sorted({e.community for e in scenario.planted_events if not e.spontaneous})
        filter_config = FilterConfig(search_terms=("premiere", "kickoff"),
                                     communities=tuple(communities), min_engagement=25)

        class Injected:
            def __init__(self, posts):
                self.posts = posts
                from eventcast.ingest import SkipReport
                self.skip_report = SkipReport()

            def list_raw(self):
                return (p.to_dict() for p in self.posts)

        kept = list_posts(Injected(posts), filter_config)
        event_posts = [p for p in posts if not p.post_id.startswith("distractor")]
        kept_ids = {p.post_id for p in kept}
        assert all(p.post_id in kept_ids for p in event_posts)
        assert "distractor-lowscore" not in kept_ids
        assert "distractor-offtopic" not in kept_ids

    def test_first_mention_matches_lead_time(self):
        scenario = one_event_scenario(lead_days=30.0)
        posts, fixtures, _ = synth_corpus(scenario)
        event = scenario.planted_events[0]
        post = next(p for p in posts if p.post_id == "solo-p0")
        assert post.created_at == event.event_time - timedelta(days=30)

    def test_extraction_fixture_round_trip(self):
        scenario = one_event_scenario()
        posts, fixtures, _ = synth_corpus(scenario)
        post = next(p for p in posts if p.post_id == "solo-p0")
        record = assemble_content_record(post)
        llm = StubLlmBackend(fixtures)
        drafts = extract_events(record, llm)
        assert len(drafts) == 1
        assert drafts[0].headline == "Championship final stream"
        assert drafts[0].date == scenario.planted_events[0].event_time.date().isoformat()

    def test_duplicate_announcement_gets_two_posts_and_merge_fixtures(self):
        scenario = one_event_scenario(n_posts=2)
        posts, fixtures, _ = synth_corpus(scenario)
        dup_posts = [p for p in posts if p.post_id.startswith("solo-p")]
        assert len(dup_posts) == 2
        # fixture map carries both pre-merge chains and the post-merge
        # re-inference chain: strictly more keys than a single-post scenario
        single_fixtures = synth_corpus(one_event_scenario(n_posts=1))[1]
        assert len(fixtures) > len(single_fixtures)

    def test_retriever_fixtures_cover_entities(self):
        scenario = one_event_scenario()
        _, _, retriever_fixtures = synth_corpus(scenario)
        assert set(retriever_fixtures) == {"Alpha", "Beta"}


def _oracle_enrichment(event, planted, records, retriever, fixtures):
    """Walk the field chain step by step, as ``enrich_event`` does inline,
    recording the planted completion for every (prompt, salt) it sends: each
    run of consecutive RAG-backed fields shares one retrieval."""
    for uses_rag, specs in groupby(INFERABLE_SPECS, key=lambda spec: spec.uses_rag):
        context = enrich_with_context(event, retriever, max_docs=RUN_DEFAULTS.max_context_docs) \
            if uses_rag else EMPTY_BUNDLE
        for spec in specs:
            prompt = build_field_prompt(event, spec.prompt_template_id, records=records,
                                        context_docs=context.retrieved_docs)
            values = []
            for run_index, completion in enumerate(synth._field_completions(planted, spec)):
                fixtures[prompt_key(prompt, f"a1r{run_index}")] = completion
                values.append(parse_value(spec.data_type, completion))
            event = apply_consensus(event, spec, aggregate_runs(spec, values))
    return event


def oracle_fixtures(scenario) -> dict:
    """The reference for ``synth_corpus``'s LLM fixtures: the extraction and
    field prompts rebuilt by hand, without running extraction or enrichment."""
    posts, _, retriever_fixtures = synth_corpus(scenario)
    retriever = FixtureRetriever(retriever_fixtures)
    fixtures, events, by_event_records, planted_by_id = {}, [], {}, {}
    for post, ev in synth._event_posts(scenario, random.Random(scenario.seed)):
        record = assemble_content_record(post, top_k_comments=RUN_DEFAULTS.top_k_comments)
        payload = [{"headline": ev.headline, "date": ev.event_time.date().isoformat(),
                    "time": ev.event_time.strftime("%H:%M")}]
        fixtures[prompt_key(build_extract_prompt(record), "extract")] = json.dumps(payload)
        draft = EventDraft(headline=ev.headline, date=payload[0]["date"],
                           time=payload[0]["time"], source_record=record.record_id)
        event = build_event(draft, record, default_timezone=RUN_DEFAULTS.default_timezone)
        events.append(event)
        by_event_records[event.event_id] = [record]
        planted_by_id[event.event_id] = ev
    recipe = next(p for p in posts if p.post_id == "distractor-recipe")
    recipe_record = assemble_content_record(recipe, top_k_comments=RUN_DEFAULTS.top_k_comments)
    fixtures[prompt_key(build_extract_prompt(recipe_record), "extract")] = "[]"

    enriched = [_oracle_enrichment(event, planted_by_id[event.event_id],
                                   by_event_records[event.event_id], retriever, fixtures)
                for event in events]
    embeddings = embed_events(enriched, HashingStubEmbedder(dim=RUN_DEFAULTS.embedder["dim"]))
    by_id = {e.event_id: e for e in enriched}
    for group_ids in find_duplicates(enriched, embeddings,
                                     sim_threshold=RUN_DEFAULTS.dedup_threshold):
        merged = merge_events([by_id[eid] for eid in group_ids])
        records_by_id = {r.record_id: r for eid in group_ids for r in by_event_records[eid]}
        _oracle_enrichment(merged, planted_by_id[merged.event_id],
                           [records_by_id[rid] for rid in merged.source_records],
                           retriever, fixtures)
    return fixtures


class TestRecordedFixtures:
    @pytest.mark.parametrize("scenario", [default_scenario(seed=7), one_event_scenario(n_posts=2)],
                             ids=["default seed 7", "one event posted twice"])
    def test_synth_corpus_records_what_the_oracle_walk_builds(self, scenario):
        fixtures = synth_corpus(scenario)[1]
        assert fixtures == oracle_fixtures(scenario)
        # extraction per record plus 9 fields x 3 runs per event and merge survivor
        posts = sum(max(1, e.n_posts) for e in scenario.planted_events if not e.spontaneous)
        merges = sum(1 for e in scenario.planted_events if e.n_posts > 1 and not e.spontaneous)
        assert len(fixtures) == posts + 1 + 27 * (posts + merges)

    def test_recorder_raises_when_it_runs_out_of_answers(self):
        fixtures = {}
        llm = synth._RecordingLlm(fixtures, ["only"], ("extract",))
        assert llm.send("prompt", "extract") == "only"
        with pytest.raises(RuntimeError, match="ran out of answers at salt 'extract'"):
            llm.send("prompt two", "extract")
        assert fixtures == {prompt_key("prompt", "extract"): "only"}

    def test_recorder_raises_on_a_salt_it_did_not_expect(self):
        llm = synth._RecordingLlm({}, ["[]"], ("extract",))
        with pytest.raises(RuntimeError, match="no answer for salt 'extract-retry'"):
            llm.send("prompt", "extract-retry")

    def test_a_planted_answer_without_consensus_fails_loudly(self, monkeypatch):
        field_completions = synth._field_completions

        def unparseable_likelihood(ev, spec):
            if spec.field_name == "likelihood":
                return ["soon", "maybe", "never"]
            return field_completions(ev, spec)

        # three abstentions fail the first attempt, so enrich_event samples
        # again under salt a2r0, which the planted answers do not cover
        monkeypatch.setattr(synth, "_field_completions", unparseable_likelihood)
        with pytest.raises(RuntimeError, match="no answer for salt 'a2r0'"):
            synth_corpus(one_event_scenario())


class TestDefaultScenario:
    def test_shape(self):
        scenario = default_scenario(seed=7)
        assert len(scenario.planted_events) == 20
        spont = [e for e in scenario.planted_events if e.spontaneous]
        assert len(spont) == 2  # 10% deliberately spontaneous
        assert len(scenario.networks) == 3
        targeted = {e.network_id for e in scenario.planted_events}
        assert targeted == {n.network_id for n in scenario.networks}

    def test_long_and_short_lead_categories(self):
        scenario = default_scenario(seed=7)
        tv = [e.lead_time_days for e in scenario.planted_events if e.category == "TV & Film"]
        sports = [e.lead_time_days for e in scenario.planted_events if e.category == "Sports"]
        assert min(tv) >= 30.0
        assert max(sports) < 30.0


def test_synth_imports_first_in_a_fresh_interpreter():
    # synth reads PipelineConfig's defaults from eventcast.pipeline, which
    # imports synth only inside materialize_scenario; an import cycle fails here
    src = str(Path(synth.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", "import eventcast.synth"], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
