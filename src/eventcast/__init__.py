"""eventcast: event-driven traffic spike detection and correlation.

A desk-scale pipeline that learns a context-unaware weekly traffic
baseline, extracts upcoming societal events from public discussion
threads with an ensemble-orchestrated LLM backend, deduplicates and
clusters them into semantic signatures, and correlates events with
observed spikes to produce coverage reports, lead-time analyses, and
forecaster-ready feature tables.
"""

from .baseline import (
    BaselineModel,
    ZSeries,
    detect_spikes,
    fit_baseline,
    spike_frequency,
    zscore_series,
)
from .correlate import (
    SpikeEventMatch,
    coverage,
    export_features,
    lead_time_cdf,
    match_spikes_to_events,
)
from .ingest import (
    FilterConfig,
    RawPost,
    assemble_content_record,
    fetch_linked_pages,
    list_posts,
)
from .textclean import clean_text
from .model import (
    ContentRecord,
    EventAbstraction,
    EventDraft,
    FAILED,
    InferenceRun,
    InvariantError,
    SemanticSignature,
    SpikeRecord,
    TrafficSeries,
)
from .pipeline import PipelineConfig, run_pipeline
from .semantics import (
    ClusterModel,
    EventEmbeddings,
    cluster_multilevel,
    cosine_similarity,
    embed_event,
    find_duplicates,
    kmeans,
    merge_events,
)
from .store import EventStore, JsonlStore
from .synth import Scenario, default_scenario, synth_corpus, synth_traffic

__version__ = "0.1.0"

__all__ = [
    "BaselineModel",
    "ClusterModel",
    "ContentRecord",
    "EventAbstraction",
    "EventDraft",
    "EventEmbeddings",
    "EventStore",
    "FAILED",
    "FilterConfig",
    "InferenceRun",
    "InvariantError",
    "JsonlStore",
    "PipelineConfig",
    "RawPost",
    "Scenario",
    "SemanticSignature",
    "SpikeEventMatch",
    "SpikeRecord",
    "TrafficSeries",
    "ZSeries",
    "assemble_content_record",
    "clean_text",
    "cluster_multilevel",
    "cosine_similarity",
    "coverage",
    "default_scenario",
    "detect_spikes",
    "embed_event",
    "export_features",
    "fetch_linked_pages",
    "find_duplicates",
    "fit_baseline",
    "kmeans",
    "lead_time_cdf",
    "list_posts",
    "match_spikes_to_events",
    "merge_events",
    "run_pipeline",
    "spike_frequency",
    "synth_corpus",
    "synth_traffic",
    "zscore_series",
]
