"""Upcoming-event extraction: content record -> event drafts -> events."""

from __future__ import annotations

import hashlib
import json
import logging
from typing import List

from ..model import (
    ContentRecord,
    EventAbstraction,
    EventDraft,
    InvariantError,
    derive_event_time_utc,
)
from .backends import BackendTimeout, LlmBackend, send_retrying_timeouts
from .fields import _strip_fences
from .prompts import FORMAT_REMINDER, build_extract_prompt

logger = logging.getLogger(__name__)

PAST_DATED_FLAG = "past_dated"


class ExtractionError(RuntimeError):
    """Extraction failed for one record after all retries."""


def _parse_drafts(completion: str, record: ContentRecord) -> List[EventDraft]:
    payload = json.loads(_strip_fences(completion))
    if not isinstance(payload, list):
        raise ValueError("expected a JSON array of events")
    drafts = []
    for item in payload:
        if not isinstance(item, dict):
            raise ValueError("each event must be a JSON object")
        draft = EventDraft(
            headline=str(item["headline"]),
            date=str(item["date"]),
            time=str(item.get("time", "unknown") or "unknown"),
            source_record=record.record_id,
        )
        drafts.append(draft)
    return drafts


def extract_events(record: ContentRecord, llm: LlmBackend) -> List[EventDraft]:
    """Ask the backend for every upcoming event a thread announces.

    A timed-out request is sent again up to ``TIMEOUT_RETRIES`` times; an
    unparseable completion gets one re-prompt with a format reminder
    before the record fails. Drafts dated before the post's creation are
    flagged past_dated, not dropped.
    """
    prompt = build_extract_prompt(record)

    try:
        completion = send_retrying_timeouts(llm, prompt, "extract")
    except BackendTimeout as exc:
        raise ExtractionError(f"record {record.record_id}: backend timed out") from exc

    try:
        drafts = _parse_drafts(completion, record)
    except (ValueError, KeyError, InvariantError) as first_error:
        logger.warning("unparseable extraction for %s (%s); re-prompting",
                       record.record_id, first_error)
        try:
            completion = send_retrying_timeouts(llm, prompt + FORMAT_REMINDER, "extract-retry")
            drafts = _parse_drafts(completion, record)
        except BackendTimeout as exc:
            raise ExtractionError(f"record {record.record_id}: backend timed out on re-prompt") from exc
        except (ValueError, KeyError, InvariantError) as exc:
            raise ExtractionError(
                f"record {record.record_id}: model output unparseable after format reminder: {exc}"
            ) from exc

    flagged = []
    post_date = record.created_at.date().isoformat()
    for draft in drafts:
        if draft.date < post_date:
            draft = EventDraft(
                headline=draft.headline, date=draft.date, time=draft.time,
                source_record=draft.source_record,
                flags=draft.flags + (PAST_DATED_FLAG,),
            )
        flagged.append(draft)
    return flagged


def event_id_for(record_id: str, date: str, headline: str) -> str:
    """Content-derived id: stable across runs and store restarts."""
    digest = hashlib.sha256(f"{record_id}|{date}|{headline}".encode("utf-8")).hexdigest()
    return f"evt-{digest[:16]}"


def build_event(
    draft: EventDraft, record: ContentRecord, default_timezone: str = "UTC"
) -> EventAbstraction:
    """Create the event abstraction a draft describes.

    Date, time, and description are fixed here and never re-inferred;
    everything else stays unset until ensemble inference fills it.
    """
    if draft.source_record != record.record_id:
        raise InvariantError("EventDraft", "source_record",
                             f"draft belongs to {draft.source_record}, not {record.record_id}")
    return EventAbstraction(
        event_id=event_id_for(record.record_id, draft.date, draft.headline),
        date=draft.date,
        time=draft.time,
        description=draft.headline,
        source_records=(record.record_id,),
        first_mentioned_at=record.created_at,
        event_time_utc=derive_event_time_utc(draft.date, draft.time, default_timezone),
        flags=draft.flags,
    )
