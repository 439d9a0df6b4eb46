from __future__ import annotations

import json
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest

from eventcast.model import (
    FAILED,
    ContentRecord,
    EventAbstraction,
    EventDraft,
    InferenceRun,
    InvariantError,
    SemanticSignature,
    SpikeRecord,
    derive_event_time_utc,
    utc_from_iso,
    utc_to_iso,
)

from eventcast.correlate import SpikeEventMatch
from eventcast.ingest import FilterConfig
from eventcast.pipeline import PipelineConfig
from eventcast.synth import PlantedEvent, Scenario, SynthNetwork

from .conftest import MONDAY, inferred_fields, make_event, make_record, make_series

UTC = timezone.utc


class TestTrafficSeries:
    def test_rejects_negative_sample(self):
        with pytest.raises(InvariantError, match="values"):
            make_series([1.0, -2.0])

    def test_rejects_empty(self):
        with pytest.raises(InvariantError, match="values"):
            make_series([])

    def test_rejects_naive_timestamp(self):
        with pytest.raises(InvariantError, match="start"):
            make_series([1.0], start=datetime(2025, 6, 2))

    def test_slice_shifts_start(self):
        series = make_series([1.0, 2.0, 3.0, 4.0], step_seconds=60)
        part = series.slice(2)
        assert np.array_equal(part.values, [3.0, 4.0])
        assert part.start == series.time_at(2)


class TestSpikeRecord:
    def test_round_trip(self):
        spike = SpikeRecord("net", MONDAY, MONDAY.replace(hour=1), peak_z=4.0,
                            mean_z=3.0, duration_minutes=60.0)
        assert SpikeRecord.from_dict(spike.to_dict()) == spike

    def test_duration_must_match_interval(self):
        with pytest.raises(InvariantError, match="duration_minutes"):
            SpikeRecord("net", MONDAY, MONDAY.replace(hour=1), peak_z=4.0,
                        mean_z=3.0, duration_minutes=59.0)

    def test_end_after_start(self):
        with pytest.raises(InvariantError, match="end"):
            SpikeRecord("net", MONDAY, MONDAY, peak_z=4.0, mean_z=3.0,
                        duration_minutes=0.0)

    def test_peak_at_least_mean(self):
        with pytest.raises(InvariantError, match="peak_z"):
            SpikeRecord("net", MONDAY, MONDAY.replace(hour=1), peak_z=2.0,
                        mean_z=3.0, duration_minutes=60.0)

    def test_key_is_utc_whatever_the_offset_given(self):
        plus_two = timezone(timedelta(hours=2))
        local = SpikeRecord("net", MONDAY.astimezone(plus_two),
                            MONDAY.replace(hour=1).astimezone(plus_two),
                            peak_z=4.0, mean_z=3.0, duration_minutes=60.0)
        utc = SpikeRecord("net", MONDAY, MONDAY.replace(hour=1), peak_z=4.0,
                          mean_z=3.0, duration_minutes=60.0)
        assert local.key() == utc.key() == ("net", MONDAY, MONDAY.replace(hour=1))
        assert all(t.tzinfo is timezone.utc for t in local.key()[1:])


class TestContentRecord:
    def test_round_trip(self):
        record = make_record(comments=("first", "second"))
        assert ContentRecord.from_dict(record.to_dict()) == record

    def test_requires_some_text(self):
        with pytest.raises(InvariantError, match="body_text"):
            make_record(body="   ")

    def test_comment_only_record_is_valid(self):
        record = ContentRecord(
            record_id="rec-c", source="forum_thread", url="u",
            created_at=MONDAY, fetched_at=MONDAY, title="t",
            body_text="", comments=("a useful comment",), engagement=1,
            linked_texts=(),
        )
        assert record.comments == ("a useful comment",)

    def test_created_before_fetched(self):
        with pytest.raises(InvariantError, match="created_at"):
            ContentRecord(
                record_id="rec-x", source="forum_thread", url="u",
                created_at=MONDAY.replace(hour=2), fetched_at=MONDAY,
                title="t", body_text="text", comments=(), engagement=0,
                linked_texts=(),
            )


class TestEventDraft:
    def test_valid(self):
        draft = EventDraft(headline="Cup final", date="2025-05-31",
                           time="20:00", source_record="rec-1")
        assert draft.time == "20:00"

    def test_rejects_malformed_date(self):
        with pytest.raises(InvariantError, match="date"):
            EventDraft(headline="x", date="31/13/2025", time="20:00",
                       source_record="rec-1")

    def test_empty_time_becomes_unknown(self):
        draft = EventDraft(headline="x", date="2025-05-31", time="",
                           source_record="rec-1")
        assert draft.time == "unknown"


class TestEventAbstraction:
    def test_round_trip_full(self):
        event = make_event(
            category="Sports", entities=("Hawks",), platforms=("StreamArena",),
            data_per_user_mb=1500, audience_size=2_000_000,
            continent_relevance={"EU": 0.9}, nation_relevance={"DE": 0.8},
            spike_duration_hours=2.0, likelihood=9,
            semantic_signature=SemanticSignature(levels=(10,), cluster_ids=(3,)),
        )
        again = EventAbstraction.from_dict(event.to_dict())
        assert again == event

    def test_round_trip_unenriched(self):
        event = make_event()
        assert EventAbstraction.from_dict(event.to_dict()) == event
        assert inferred_fields(event) == ()

    def test_likelihood_bounds(self):
        with pytest.raises(InvariantError, match="likelihood"):
            make_event(likelihood=11)

    def test_relevance_bounds(self):
        with pytest.raises(InvariantError, match="continent_relevance"):
            make_event(continent_relevance={"EU": 1.5})

    def test_source_records_non_empty(self):
        with pytest.raises(InvariantError, match="source_records"):
            EventAbstraction(
                event_id="evt", date="2025-07-01", time="unknown",
                description="d", source_records=(),
                first_mentioned_at=MONDAY,
            )


class TestSemanticSignature:
    def test_length_must_match(self):
        with pytest.raises(InvariantError, match="cluster_ids"):
            SemanticSignature(levels=(10, 100), cluster_ids=(1,))

    def test_id_range(self):
        with pytest.raises(InvariantError, match="cluster_ids"):
            SemanticSignature(levels=(10,), cluster_ids=(10,))

    def test_round_trip(self):
        sig = SemanticSignature(levels=(10, 100), cluster_ids=(3, 42))
        assert SemanticSignature.from_dict(sig.to_dict()) == sig


class TestInferenceRun:
    def test_length_invariant(self):
        with pytest.raises(InvariantError, match="run_outputs"):
            InferenceRun(event_id="e", field_name="category",
                         run_outputs=("a", "b"), consensus_value="a",
                         attempts=1, ensemble_size=3)

    def test_failed_round_trip(self):
        run = InferenceRun(event_id="e", field_name="category",
                           run_outputs=("a", "b", "c"), consensus_value=FAILED,
                           attempts=1, ensemble_size=3)
        again = InferenceRun.from_dict(run.to_dict())
        assert again.failed and again.consensus_value is FAILED

    def test_multi_attempt_outputs(self):
        run = InferenceRun(event_id="e", field_name="category",
                           run_outputs=tuple("abcdef"), consensus_value="a",
                           attempts=2, ensemble_size=3)
        assert run.attempts == 2


class TestTimestamps:
    def test_iso_round_trip(self):
        ts = datetime(2025, 7, 2, 19, 30, tzinfo=UTC)
        assert utc_from_iso(utc_to_iso(ts)) == ts

    def test_derive_with_time(self):
        ts = derive_event_time_utc("2025-07-02", "19:00")
        assert ts == datetime(2025, 7, 2, 19, 0, tzinfo=UTC)

    def test_derive_unknown_is_noon_local(self):
        ts = derive_event_time_utc("2025-07-02", "unknown", default_tz="UTC")
        assert ts == datetime(2025, 7, 2, 12, 0, tzinfo=UTC)

    def test_derive_honors_default_timezone(self):
        ts = derive_event_time_utc("2025-07-02", "19:00", default_tz="Europe/Berlin")
        assert ts == datetime(2025, 7, 2, 17, 0, tzinfo=UTC)  # CEST is UTC+2

    def test_derive_explicit_offset_wins(self):
        ts = derive_event_time_utc("2025-07-02", "19:00+02:00", default_tz="UTC")
        assert ts == datetime(2025, 7, 2, 17, 0, tzinfo=UTC)

    def test_derive_bad_date_is_none(self):
        assert derive_event_time_utc("not-a-date", "19:00") is None


def test_first_mentioned_never_after_source_creation():
    # the constructor takes first_mentioned_at as the min over source
    # records; builders enforce it, the type requires presence
    record = make_record(created_at=MONDAY)
    event = make_event(first_mentioned_at=record.created_at)
    assert event.first_mentioned_at <= record.created_at


# One line per codec type, as the format was first written: a full event
# (signature, relevance maps) and a bare one (None fields), a failed run
# and runs with list and map values, a match, the scenario types and the
# pipeline config.
RECORDS_V1 = Path(__file__).parent / "data" / "records_v1.jsonl"
CODEC_TYPES = {cls.__name__: cls for cls in (
    SpikeRecord, ContentRecord, SemanticSignature, EventAbstraction, InferenceRun,
    SpikeEventMatch, FilterConfig, SynthNetwork, PlantedEvent, Scenario, PipelineConfig)}


def _golden_lines():
    with open(RECORDS_V1, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def _golden(type_name: str) -> dict:
    return next(line["dict"] for line in _golden_lines() if line["type"] == type_name)


class TestRecordFormat:
    def test_every_type_is_covered(self):
        assert {line["type"] for line in _golden_lines()} == set(CODEC_TYPES)

    @pytest.mark.parametrize("line", _golden_lines(),
                             ids=lambda line: line["type"])
    def test_from_dict_then_to_dict_gives_the_same_json(self, line):
        again = CODEC_TYPES[line["type"]].from_dict(line["dict"]).to_dict()
        assert json.dumps(again, sort_keys=True) == json.dumps(line["dict"], sort_keys=True)

    def test_failed_consensus_reads_back_as_failed(self):
        runs = [InferenceRun.from_dict(line["dict"]) for line in _golden_lines()
                if line["type"] == "InferenceRun"]
        assert [run.failed for run in runs] == [True, False, False]

    def test_unknown_key_is_rejected_by_name(self):
        with pytest.raises(InvariantError, match=r"SpikeRecord\.peak_zz: unknown key"):
            SpikeRecord.from_dict({**_golden("SpikeRecord"), "peak_zz": 1.0})

    def test_missing_optional_key_takes_its_default(self):
        d = _golden("EventAbstraction")
        del d["category"], d["merge_history"]
        event = EventAbstraction.from_dict(d)
        assert event.category is None and event.merge_history == ()

    def test_missing_required_key_is_rejected_by_name(self):
        d = _golden("SpikeRecord")
        del d["start"]
        with pytest.raises(InvariantError, match=r"SpikeRecord\.start: missing key"):
            SpikeRecord.from_dict(d)

    def test_stored_id_is_ignored(self):
        d = _golden("InferenceRun")
        assert InferenceRun.from_dict({**d, "stored_id": "run-000001"}).to_dict() == d
