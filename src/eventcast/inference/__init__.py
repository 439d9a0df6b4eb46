"""LLM-backed event extraction and ensemble metadata inference."""

from .backends import (
    BackendError,
    BackendTimeout,
    HttpLlmBackend,
    LlmBackend,
    LlmBackendConfig,
    StubFixtureMissing,
    StubLlmBackend,
    prompt_key,
)
from .enrich import (
    ContextBundle,
    FixtureRetriever,
    HttpRetriever,
    RetrievalClient,
    enrich_event,
    enrich_with_context,
    infer_field,
)
from .extract import ExtractionError, build_event, event_id_for, extract_events
from .fields import (
    FIELDS_BY_NAME,
    INFERABLE_SPECS,
    FieldSpec,
    ParseError,
    aggregate_runs,
    apply_consensus,
    normalize_string,
    parse_value,
)
from .prompts import build_extract_prompt, build_field_prompt

__all__ = [
    "BackendError",
    "BackendTimeout",
    "ContextBundle",
    "ExtractionError",
    "FIELDS_BY_NAME",
    "FieldSpec",
    "FixtureRetriever",
    "HttpLlmBackend",
    "HttpRetriever",
    "INFERABLE_SPECS",
    "LlmBackend",
    "LlmBackendConfig",
    "ParseError",
    "RetrievalClient",
    "StubFixtureMissing",
    "StubLlmBackend",
    "aggregate_runs",
    "apply_consensus",
    "build_event",
    "build_extract_prompt",
    "build_field_prompt",
    "enrich_event",
    "enrich_with_context",
    "event_id_for",
    "extract_events",
    "infer_field",
    "normalize_string",
    "parse_value",
    "prompt_key",
]
