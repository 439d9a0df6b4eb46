"""The inferred metadata fields and their ensemble consensus aggregation.

``INFERABLE_SPECS`` is the one list of fields the ensemble infers, in
inference order; the feature export takes its event columns from it
too. A field's data type decides how independent ensemble runs are
aggregated: strings by plurality, list entries by a two-vote rule,
numbers by exact median, and relevance maps by per-key medians with a
two-producer gate. Aggregation returns the FAILED sentinel when
consensus cannot be reached, which triggers a fresh attempt upstream.
"""

from __future__ import annotations

import json
import math
import re
import statistics
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence

from ..model import FAILED, InvariantError

DATA_TYPES = ("string", "string_list", "integer", "real", "real_map", "integer_0_10")

# numeric runs disagreeing by more than this factor are not a consensus
SPREAD_GUARD_FACTOR = 10.0

_TRAILING_PUNCT = ".,;:!?…"


@dataclass(frozen=True)
class FieldSpec:
    """One ensemble-inferred metadata field."""

    field_name: str
    data_type: str
    uses_rag: bool

    def __post_init__(self):
        if self.data_type not in DATA_TYPES:
            raise InvariantError("FieldSpec", "data_type", f"unknown data type {self.data_type!r}")

    @property
    def prompt_template_id(self) -> str:
        return f"field_{self.field_name}_v1"


# In inference order. Category and entities are inferred from the extractor
# output and record alone; the later fields also see reference context
# retrieved for those entities.
INFERABLE_SPECS = (
    FieldSpec("category", "string", uses_rag=False),
    FieldSpec("entities", "string_list", uses_rag=False),
    FieldSpec("platforms", "string_list", uses_rag=True),
    FieldSpec("data_per_user_mb", "integer", uses_rag=True),
    FieldSpec("audience_size", "integer", uses_rag=True),
    FieldSpec("continent_relevance", "real_map", uses_rag=True),
    FieldSpec("nation_relevance", "real_map", uses_rag=True),
    FieldSpec("spike_duration_hours", "real", uses_rag=True),
    FieldSpec("likelihood", "integer_0_10", uses_rag=True),
)

FIELDS_BY_NAME = {spec.field_name: spec for spec in INFERABLE_SPECS}


def normalize_string(s: str) -> str:
    """Canonical form for voting: lowercase, collapse whitespace, strip
    trailing punctuation."""
    out = re.sub(r"\s+", " ", s.strip().lower())
    return out.rstrip(_TRAILING_PUNCT).strip()


def normalize_key(k: str) -> str:
    """Canonical form for relevance-map keys (region/country codes)."""
    return re.sub(r"\s+", " ", k.strip().upper())


class ParseError(ValueError):
    """A completion could not be parsed as the field's data type."""


_FENCE_RE = re.compile(r"^```[a-zA-Z]*\n(.*?)\n?```\s*$", re.S)


def _strip_fences(text: str) -> str:
    text = text.strip()
    m = _FENCE_RE.match(text)
    return m.group(1).strip() if m else text


def _first_line(text: str) -> str:
    for line in text.splitlines():
        if line.strip():
            return line.strip()
    return ""


def _parse_number(text: str) -> float:
    token = _first_line(_strip_fences(text)).replace(",", "").replace("_", "")
    token = token.strip().strip("\"'")
    m = re.match(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?", token)
    if not m:
        raise ParseError(f"no numeric value in {text!r}")
    value = float(m.group(0))
    if not math.isfinite(value):
        raise ParseError(f"non-finite value {value}")
    return value


def parse_value(data_type: str, completion: str):
    """Parse one completion per the field's data type.

    Raises ParseError on malformed output; callers count that run as an
    abstain. Numeric fields here are all non-negative quantities, so
    negative values are rejected.
    """
    text = _strip_fences(completion)
    if data_type == "string":
        line = _first_line(text).strip("\"'").strip()
        if not line:
            raise ParseError("empty string completion")
        return line
    if data_type == "string_list":
        try:
            arr = json.loads(text)
            if isinstance(arr, list) and all(isinstance(x, str) for x in arr):
                return [x.strip() for x in arr if x.strip()]
        except json.JSONDecodeError:
            pass
        line = _first_line(text)
        if line.lower() in ("none", "[]", ""):
            return []
        return [part.strip() for part in line.split(",") if part.strip()]
    if data_type == "integer":
        value = _parse_number(text)
        if value < 0:
            raise ParseError(f"negative value {value}")
        return int(round(value))
    if data_type == "real":
        value = _parse_number(text)
        if value < 0:
            raise ParseError(f"negative value {value}")
        return value
    if data_type == "integer_0_10":
        value = _parse_number(text)
        if value != int(value) or not (0 <= value <= 10):
            raise ParseError(f"{value} is not an integer in [0, 10]")
        return int(value)
    if data_type == "real_map":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON object: {exc}") from exc
        if not isinstance(obj, dict):
            raise ParseError("expected a JSON object")
        out = {}
        for k, v in obj.items():
            if not isinstance(v, (int, float)) or not math.isfinite(float(v)):
                raise ParseError(f"value for {k!r} is not a finite number")
            v = float(v)
            if not (0.0 <= v <= 1.0):
                raise ParseError(f"relevance {v} for {k!r} outside [0, 1]")
            out[str(k)] = v
        return out
    raise ParseError(f"data type {data_type!r} is not ensemble-parseable")


def _spread_violated(values: Sequence[float]) -> bool:
    lo, hi = min(values), max(values)
    if lo == hi:
        return False
    if lo <= 0:
        return hi > 0  # zero vs. non-zero is an unbounded disagreement
    return hi > SPREAD_GUARD_FACTOR * lo


def aggregate_runs(spec: FieldSpec, run_values: Sequence) -> Any:
    """Aggregate one attempt's parsed run values by the field's data type.

    ``run_values`` holds one entry per ensemble run, with None marking a
    run that abstained (parse failure or backend error). Returns the
    consensus value, or the FAILED sentinel when there is none:

    - string: plurality of normalized strings; fails below two votes;
      ties break to the lexicographically smallest.
    - string_list: normalized entries appearing in at least two runs;
      fails only if every run abstained.
    - integer, real, integer_0_10: exact median (mean of middle two);
      fails when the runs spread beyond the 10x sanity guard.
    - real_map: per normalized key, median over producing runs, keys
      kept only with at least two producers; the spread guard applies
      per key.
    """
    values = [v for v in run_values if v is not None]
    if not values:
        return FAILED

    if spec.data_type == "string":
        counts: Dict[str, int] = {}
        for v in values:
            key = normalize_string(str(v))
            if key:
                counts[key] = counts.get(key, 0) + 1
        if not counts:
            return FAILED
        winner = min(counts, key=lambda k: (-counts[k], k))
        return winner if counts[winner] >= 2 else FAILED

    if spec.data_type == "string_list":
        counts = {}
        for run in values:
            seen = {normalize_string(str(e)) for e in run if normalize_string(str(e))}
            for entry in seen:
                counts[entry] = counts.get(entry, 0) + 1
        return tuple(sorted(e for e, c in counts.items() if c >= 2))

    if spec.data_type == "real_map":
        per_key: Dict[str, List[float]] = {}
        for run in values:
            for k, v in run.items():
                per_key.setdefault(normalize_key(k), []).append(float(v))
        out = {}
        for key, nums in sorted(per_key.items()):
            if len(nums) < 2:
                continue
            if _spread_violated(nums):
                return FAILED
            out[key] = statistics.median(nums)
        return out

    nums = [float(v) for v in values]  # integer, real, integer_0_10
    if _spread_violated(nums):
        return FAILED
    return statistics.median(nums)


def apply_consensus(event, spec: FieldSpec, value):
    """Write a consensus value onto an event, respecting field types."""
    from dataclasses import replace

    name = spec.field_name
    if value is FAILED:
        lows = tuple(dict.fromkeys(event.low_confidence_fields + (name,)))
        return replace(event, low_confidence_fields=lows)
    if spec.data_type in ("integer", "integer_0_10"):
        value = int(round(float(value)))
    elif spec.data_type == "real":
        value = float(value)
    elif spec.data_type == "string_list":
        value = tuple(value)
    elif spec.data_type == "real_map":
        value = dict(value)
    return replace(event, **{name: value})
