"""Shared domain types: traffic series, spikes, content records, events.

Every type is an immutable dataclass with explicit invariant checks. All
timestamps are timezone-aware UTC.

The records stored one per line in JSONL files, and the scenario and
pipeline config files, take their dict form from one codec,
``to_json_dict`` / ``from_json_dict``, by one rule:

- a datetime is an ISO-8601 string with a ``Z`` suffix;
- a tuple is a list, and a nested record is its own dict form;
- a line record (``record_dict``) also carries ``schema_version: 1``;
- on reading, a missing key takes the field's default, and a key that
  names no field is rejected (``schema_version`` and a store's
  ``stored_id`` excepted).
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from datetime import date, datetime, time, timedelta, timezone
from typing import Any, Callable, Mapping, Optional, Union, get_args, get_origin, get_type_hints
from zoneinfo import ZoneInfo

import numpy as np

SCHEMA_VERSION = 1

UNKNOWN_TIME = "unknown"

CONTENT_SOURCES = ("forum_thread", "linked_page", "wiki_article")


class InvariantError(ValueError):
    """A domain-type invariant was violated; names the offending field."""

    def __init__(self, type_name: str, field_name: str, message: str):
        self.type_name = type_name
        self.field_name = field_name
        super().__init__(f"{type_name}.{field_name}: {message}")


def _fail(type_name: str, field_name: str, message: str) -> None:
    raise InvariantError(type_name, field_name, message)


# -- timestamp helpers -------------------------------------------------------

def ensure_utc(ts: datetime, type_name: str = "timestamp", field_name: str = "") -> datetime:
    """Normalize a datetime to UTC; naive datetimes are rejected."""
    if not isinstance(ts, datetime):
        _fail(type_name, field_name, f"expected datetime, got {type(ts).__name__}")
    if ts.tzinfo is None:
        _fail(type_name, field_name, "naive datetime; timestamps must be timezone-aware")
    return ts.astimezone(timezone.utc)


def utc_from_iso(s: str) -> datetime:
    """Parse an ISO-8601 timestamp string ('Z' suffix accepted) to UTC."""
    return ensure_utc(datetime.fromisoformat(s.replace("Z", "+00:00")))


def utc_to_iso(ts: datetime) -> str:
    return ts.astimezone(timezone.utc).isoformat().replace("+00:00", "Z")


# -- the dict form of stored records -----------------------------------------

# keys a stored line may carry that name no field
_NON_FIELD_KEYS = frozenset({"schema_version", "stored_id"})
# values written as they are (checked first: nearly every value is one)
_AS_IS = frozenset({str, int, float, bool, type(None), dict})


def _to_json(value: Any) -> Any:
    if type(value) in _AS_IS:
        return value
    if isinstance(value, (tuple, list)):
        return [_to_json(v) for v in value]
    if isinstance(value, datetime):
        return utc_to_iso(value)
    if is_dataclass(value):
        return value.to_dict()
    return value


def to_json_dict(obj) -> dict:
    """The dict form of a dataclass instance, field by field."""
    return {f.name: _to_json(getattr(obj, f.name)) for f in fields(obj)}


def record_dict(obj) -> dict:
    """``to_json_dict`` plus ``schema_version``, for records stored one per line."""
    d = to_json_dict(obj)
    d["schema_version"] = SCHEMA_VERSION
    return d


def _decoder(tp) -> Optional[Callable[[Any], Any]]:
    """How to read a JSON value back into type ``tp``; None keeps it as is."""
    if get_origin(tp) is Union:  # Optional[X]: None stays None
        inner = _decoder(next(a for a in get_args(tp) if a is not type(None)))
        if inner is None:
            return None
        return lambda v: None if v is None else inner(v)
    if tp is datetime:
        return utc_from_iso
    if is_dataclass(tp):
        return tp.from_dict
    if tp is tuple:
        return tuple
    if get_origin(tp) is tuple:  # Tuple[X, ...]
        item = _decoder(get_args(tp)[0])
        return tuple if item is None else (lambda v: tuple(item(x) for x in v))
    return None


@functools.cache
def _decoders(cls) -> tuple:
    """({field: decoder}, required field names) for ``cls``, resolved once."""
    hints = get_type_hints(cls)
    return (
        {f.name: _decoder(hints[f.name]) for f in fields(cls)},
        tuple(f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING),
    )


def from_json_dict(cls, d: Mapping):
    """Build ``cls`` from its dict form (see the module docstring)."""
    decoders, required = _decoders(cls)
    kwargs = {}
    for key, value in d.items():
        if key in decoders:
            decode = decoders[key]
            kwargs[key] = value if decode is None else decode(value)
        elif key not in _NON_FIELD_KEYS:
            _fail(cls.__name__, key, "unknown key")
    for name in required:
        if name not in kwargs:
            _fail(cls.__name__, name, "missing key")
    return cls(**kwargs)


def readonly_float64(values) -> np.ndarray:
    """``values`` as a read-only 1-D float64 array, copied unless it already is one."""
    if not isinstance(values, np.ndarray) or values.ndim != 1:
        values = np.fromiter(values, dtype=np.float64)
    elif values.dtype != np.float64 or values.flags.writeable:
        values = values.astype(np.float64)
    values.flags.writeable = False
    return values


_TIME_RE = re.compile(r"^(\d{1,2}):(\d{2})(?::(\d{2}))?$")


def derive_event_time_utc(
    date_str: str, time_str: str, default_tz: str = "UTC"
) -> Optional[datetime]:
    """Derive a UTC timestamp from verbatim event date/time strings.

    The time string may carry an explicit UTC offset (``"20:45+02:00"``);
    otherwise ``default_tz`` applies. An unknown time-of-day maps to
    12:00 local so window matching stays possible without fabricating
    precision. Returns None when the date does not parse.
    """
    try:
        day = date.fromisoformat(date_str.strip())
    except (ValueError, AttributeError):
        return None
    tz: Any = ZoneInfo(default_tz)
    raw = (time_str or UNKNOWN_TIME).strip()
    if raw.lower() == UNKNOWN_TIME or not raw:
        return datetime.combine(day, time(12, 0), tzinfo=tz).astimezone(timezone.utc)
    # split off an explicit offset if present
    offset_m = re.search(r"([+-]\d{2}:\d{2}|Z)$", raw)
    if offset_m:
        token = offset_m.group(1)
        raw = raw[: offset_m.start()].strip()
        if token == "Z":
            tz = timezone.utc
        else:
            sign = 1 if token[0] == "+" else -1
            hh, mm = int(token[1:3]), int(token[4:6])
            tz = timezone(sign * timedelta(hours=hh, minutes=mm))
    m = _TIME_RE.match(raw)
    if not m:
        return datetime.combine(day, time(12, 0), tzinfo=tz).astimezone(timezone.utc)
    hh, mm = int(m.group(1)), int(m.group(2))
    ss = int(m.group(3) or 0)
    if hh > 23 or mm > 59 or ss > 59:
        return datetime.combine(day, time(12, 0), tzinfo=tz).astimezone(timezone.utc)
    return datetime.combine(day, time(hh, mm, ss), tzinfo=tz).astimezone(timezone.utc)


# -- traffic -----------------------------------------------------------------

@dataclass(frozen=True, eq=False)  # identity equality: compare the arrays with numpy
class TrafficSeries:
    """Uniformly sampled per-network throughput in bits/s.

    ``values`` is a read-only float64 array (built from any sequence). NaN
    samples mark known gaps in the measurement; they are excluded from
    baseline fitting and break contiguity in spike detection.
    """

    network_id: str
    start: datetime
    step_seconds: int
    values: np.ndarray

    def __post_init__(self):
        if not self.network_id:
            _fail("TrafficSeries", "network_id", "must be non-empty")
        object.__setattr__(self, "start", ensure_utc(self.start, "TrafficSeries", "start"))
        if not isinstance(self.step_seconds, int) or self.step_seconds <= 0:
            _fail("TrafficSeries", "step_seconds", "must be a positive integer")
        vals = readonly_float64(self.values)
        if not vals.size:
            _fail("TrafficSeries", "values", "must be non-empty")
        bad = np.flatnonzero((vals < 0) | np.isinf(vals))  # NaN marks a missing sample
        if bad.size:
            _fail("TrafficSeries", "values",
                  f"sample {bad[0]} is {vals[bad[0]].item()!r}; must be finite and >= 0")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)

    def time_at(self, index: int) -> datetime:
        return self.start + timedelta(seconds=index * self.step_seconds)

    def slice(self, start_index: int, end_index: Optional[int] = None) -> "TrafficSeries":
        return replace(
            self,
            start=self.time_at(start_index),
            values=self.values[start_index:end_index],
        )


@dataclass(frozen=True)
class SpikeRecord:
    """A contiguous anomalous interval with peak/mean Z and duration."""

    network_id: str
    start: datetime
    end: datetime
    peak_z: float
    mean_z: float
    duration_minutes: float

    def __post_init__(self):
        if not self.network_id:
            _fail("SpikeRecord", "network_id", "must be non-empty")
        object.__setattr__(self, "start", ensure_utc(self.start, "SpikeRecord", "start"))
        object.__setattr__(self, "end", ensure_utc(self.end, "SpikeRecord", "end"))
        if self.end <= self.start:
            _fail("SpikeRecord", "end", "must be after start")
        span = (self.end - self.start).total_seconds() / 60.0
        if abs(span - self.duration_minutes) > 1e-6:
            _fail("SpikeRecord", "duration_minutes", f"must equal end-start ({span:.6f} min)")
        if self.peak_z < self.mean_z:
            _fail("SpikeRecord", "peak_z", "must be >= mean_z")

    to_dict = record_dict
    from_dict = classmethod(from_json_dict)

    def key(self) -> tuple:
        """Identity for joining spikes across files (no stored id): both
        bounds are UTC, so equal keys mean equal ISO bounds."""
        return (self.network_id, self.start, self.end)


# -- discussion content ------------------------------------------------------

@dataclass(frozen=True)
class ContentRecord:
    """One cleaned discussion thread: post + top comments + linked pages."""

    record_id: str
    source: str
    url: str
    created_at: datetime
    fetched_at: datetime
    title: str
    body_text: str
    comments: tuple
    engagement: int
    linked_texts: tuple  # of (url, cleaned text)

    def __post_init__(self):
        if not self.record_id:
            _fail("ContentRecord", "record_id", "must be non-empty")
        if self.source not in CONTENT_SOURCES:
            _fail("ContentRecord", "source", f"must be one of {CONTENT_SOURCES}")
        object.__setattr__(self, "created_at", ensure_utc(self.created_at, "ContentRecord", "created_at"))
        object.__setattr__(self, "fetched_at", ensure_utc(self.fetched_at, "ContentRecord", "fetched_at"))
        if self.created_at > self.fetched_at:
            _fail("ContentRecord", "created_at", "must be <= fetched_at")
        object.__setattr__(self, "comments", tuple(self.comments))
        object.__setattr__(self, "linked_texts", tuple((u, t) for u, t in self.linked_texts))
        if not isinstance(self.engagement, int) or self.engagement < 0:
            _fail("ContentRecord", "engagement", "must be an integer >= 0")
        has_text = bool(self.body_text.strip()) or any(
            c.strip() for c in self.comments
        ) or any(t.strip() for _, t in self.linked_texts)
        if not has_text:
            _fail("ContentRecord", "body_text", "record is empty after cleaning")

    to_dict = record_dict
    from_dict = classmethod(from_json_dict)


# -- events ------------------------------------------------------------------

@dataclass(frozen=True)
class EventDraft:
    """Minimal extraction output: headline, date, time, provenance."""

    headline: str
    date: str
    time: str
    source_record: str
    flags: tuple = ()

    def __post_init__(self):
        if not self.headline.strip():
            _fail("EventDraft", "headline", "must be non-empty")
        try:
            date.fromisoformat(self.date)
        except ValueError:
            _fail("EventDraft", "date", f"{self.date!r} is not a valid ISO calendar date")
        if not self.time:
            object.__setattr__(self, "time", UNKNOWN_TIME)
        object.__setattr__(self, "flags", tuple(self.flags))


@dataclass(frozen=True)
class SemanticSignature:
    """Per-granularity-level cluster ids situating an event among peers."""

    levels: tuple
    cluster_ids: tuple

    def __post_init__(self):
        levels = tuple(int(k) for k in self.levels)
        ids = tuple(int(c) for c in self.cluster_ids)
        if len(levels) != len(ids):
            _fail("SemanticSignature", "cluster_ids", "must have one id per level")
        for k, c in zip(levels, ids):
            if k < 1:
                _fail("SemanticSignature", "levels", f"level k={k} must be >= 1")
            if not (0 <= c < k):
                _fail("SemanticSignature", "cluster_ids", f"id {c} out of range [0, {k})")
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "cluster_ids", ids)

    to_dict = to_json_dict
    from_dict = classmethod(from_json_dict)


def _check_relevance(name: str, m: Mapping) -> dict:
    out = {}
    for k, v in m.items():
        v = float(v)
        if not (0.0 <= v <= 1.0) or not math.isfinite(v):
            _fail("EventAbstraction", name, f"relevance for {k!r} is {v}; must be in [0, 1]")
        out[str(k)] = v
    return out


@dataclass(frozen=True)
class EventAbstraction:
    """Structured record of a real-world event plus provenance.

    ``date``/``time``/``description`` are fixed on creation; the
    remaining metadata fields stay None until ensemble inference fills
    them. ``event_time_utc`` is derived from the verbatim date/time
    strings with a configured default timezone.
    """

    event_id: str
    date: str
    time: str
    description: str
    source_records: tuple
    first_mentioned_at: datetime
    event_time_utc: Optional[datetime] = None
    category: Optional[str] = None
    entities: Optional[tuple] = None
    platforms: Optional[tuple] = None
    data_per_user_mb: Optional[int] = None
    audience_size: Optional[int] = None
    continent_relevance: Optional[dict] = None
    nation_relevance: Optional[dict] = None
    spike_duration_hours: Optional[float] = None
    likelihood: Optional[int] = None
    semantic_signature: Optional[SemanticSignature] = None
    merge_history: tuple = ()
    low_confidence_fields: tuple = ()
    flags: tuple = ()

    def __post_init__(self):
        if not self.event_id:
            _fail("EventAbstraction", "event_id", "must be non-empty")
        try:
            date.fromisoformat(self.date)
        except ValueError:
            _fail("EventAbstraction", "date", f"{self.date!r} is not a valid ISO calendar date")
        if not self.description.strip():
            _fail("EventAbstraction", "description", "must be non-empty")
        recs = tuple(self.source_records)
        if not recs:
            _fail("EventAbstraction", "source_records", "must be non-empty")
        object.__setattr__(self, "source_records", recs)
        object.__setattr__(
            self, "first_mentioned_at",
            ensure_utc(self.first_mentioned_at, "EventAbstraction", "first_mentioned_at"),
        )
        if self.event_time_utc is not None:
            object.__setattr__(
                self, "event_time_utc",
                ensure_utc(self.event_time_utc, "EventAbstraction", "event_time_utc"),
            )
        if self.entities is not None:
            object.__setattr__(self, "entities", tuple(self.entities))
        if self.platforms is not None:
            object.__setattr__(self, "platforms", tuple(self.platforms))
        if self.likelihood is not None:
            if not isinstance(self.likelihood, int) or not (0 <= self.likelihood <= 10):
                _fail("EventAbstraction", "likelihood", f"{self.likelihood!r} must be an integer in [0, 10]")
        if self.data_per_user_mb is not None and self.data_per_user_mb < 0:
            _fail("EventAbstraction", "data_per_user_mb", "must be >= 0")
        if self.audience_size is not None and self.audience_size < 0:
            _fail("EventAbstraction", "audience_size", "must be >= 0")
        if self.spike_duration_hours is not None and (
            not math.isfinite(self.spike_duration_hours) or self.spike_duration_hours < 0
        ):
            _fail("EventAbstraction", "spike_duration_hours", "must be finite and >= 0")
        if self.continent_relevance is not None:
            object.__setattr__(
                self, "continent_relevance",
                _check_relevance("continent_relevance", self.continent_relevance),
            )
        if self.nation_relevance is not None:
            object.__setattr__(
                self, "nation_relevance",
                _check_relevance("nation_relevance", self.nation_relevance),
            )
        object.__setattr__(self, "merge_history", tuple(self.merge_history))
        object.__setattr__(self, "low_confidence_fields", tuple(self.low_confidence_fields))
        object.__setattr__(self, "flags", tuple(self.flags))

    to_dict = record_dict
    from_dict = classmethod(from_json_dict)


class ConsensusFailed:
    """Sentinel consensus value when all ensemble attempts disagree."""

    _instance: Optional["ConsensusFailed"] = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "FAILED"

    def __bool__(self):
        return False


FAILED = ConsensusFailed()


@dataclass(frozen=True)
class InferenceRun:
    """Audit record of one field's ensemble inference.

    ``run_outputs`` holds the parsed value of every completion across
    all attempts (abstains as None), so its length is always
    ``ensemble_size * attempts``.
    """

    event_id: str
    field_name: str
    run_outputs: tuple
    consensus_value: Any
    attempts: int
    ensemble_size: int = 3

    def __post_init__(self):
        if self.attempts < 1:
            _fail("InferenceRun", "attempts", "must be >= 1")
        outs = tuple(self.run_outputs)
        if len(outs) != self.ensemble_size * self.attempts:
            _fail(
                "InferenceRun", "run_outputs",
                f"length {len(outs)} != ensemble_size ({self.ensemble_size}) * attempts ({self.attempts})",
            )
        object.__setattr__(self, "run_outputs", outs)

    @property
    def failed(self) -> bool:
        return self.consensus_value is FAILED

    def to_dict(self) -> dict:
        # FAILED is stored as a null value plus a flag
        d = record_dict(self)
        d["consensus_failed"] = self.failed
        if self.failed:
            d["consensus_value"] = None
        return d

    @classmethod
    def from_dict(cls, d: Mapping) -> "InferenceRun":
        d = dict(d)
        if d.pop("consensus_failed", False):
            d["consensus_value"] = FAILED
        return from_json_dict(cls, d)

