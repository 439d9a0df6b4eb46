from __future__ import annotations

import math
from datetime import datetime, timezone

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
    TrafficSeries,
    derive_event_time_utc,
    utc_from_iso,
    utc_to_iso,
)

from .conftest import MONDAY, make_event, make_record, make_series

UTC = timezone.utc


class TestTrafficSeries:
    def test_round_trip(self):
        series = make_series([1.0, 2.0, float("nan"), 3.0])
        again = TrafficSeries.from_dict(series.to_dict())
        assert again.network_id == series.network_id
        assert again.start == series.start
        assert again.values[0] == 1.0 and math.isnan(again.values[2])

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
        assert not event.is_enriched()

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
