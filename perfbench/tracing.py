"""Spans and counts around the pipeline's layer boundaries.

The tracer wraps, from outside the program, the public functions that
``eventcast.pipeline`` calls and the backend and store methods, recording
one span (name, start, end, parent) per call plus counts taken from the
call's result. Spans stay in memory; ``layer_metrics`` folds them into the
per-layer metrics, where a time is self time: the span's duration minus
that of its child spans.
"""

from __future__ import annotations

import functools
import os
import resource
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import eventcast.pipeline as pipeline_mod
from eventcast import baseline, synth
from eventcast.inference.backends import HttpLlmBackend, StubLlmBackend
from eventcast.inference.enrich import FixtureRetriever, HttpRetriever
from eventcast.semantics import HashingStubEmbedder, HttpEmbedder
from eventcast.store import EventStore, JsonlStore

SPAN_TIMES = {
    # span name -> per-layer metric carrying its self time
    "synth.synth_traffic": "synth.synth_traffic_s",
    "synth.write_traffic_csv": "synth.write_traffic_csv_s",
    "synth.synth_corpus": "synth.synth_corpus_s",
    "baseline.read_traffic_csv": "baseline.read_traffic_csv_s",
    "baseline.fit_baseline": "baseline.fit_baseline_s",
    "baseline.zscore_series": "baseline.zscore_series_s",
    "baseline.detect_spikes": "baseline.detect_spikes_s",
    "ingest.list_posts": "ingest.list_posts_s",
    "ingest.assemble_content_record": "ingest.assemble_content_record_s",
    "inference.extract_events": "inference.extract_events_s",
    "inference.enrich_event": "inference.enrich_event_s",
    "inference.llm": "inference.llm_wait_s",
    "inference.retriever": "inference.retriever_wait_s",
    "semantics.embed": "semantics.embed_wait_s",
    "semantics.find_duplicates": "semantics.find_duplicates_s",
    "semantics.cluster_multilevel": "semantics.cluster_multilevel_s",
    "store.append": "store.append_s",
    "correlate.export_features": "correlate.export_features_s",
    "correlate.match_spikes_to_events": "correlate.match_spikes_to_events_s",
}
SPAN_CALLS = {
    # span name -> per-layer metric counting its calls
    "inference.llm": "inference.llm_calls",
    "inference.retriever": "inference.retriever_calls",
    "semantics.embed": "semantics.embed_calls",
    "store.append": "store.appends",
}
COUNTS = (
    "baseline.samples", "ingest.records", "inference.field_runs", "semantics.merge_groups",
    "correlate.matches", "correlate.feature_rows", "store.bytes_written",
)


class Tracer:
    """In-memory span recorder; spans nest per thread."""

    def __init__(self):
        self.spans: List[list] = []  # [name, start, end, parent index or None]
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, owner, attr: str, name: str,
             on_result: Optional[Callable] = None, around: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a spanning wrapper.

        ``on_result(tracer, result, args)`` turns the result into counts;
        ``around(tracer, args)`` runs before the call and returns a callable
        run after it, for measurements that need both ends.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = self._stack()
            after = around(self, args) if around else None
            with self._lock:
                index = len(self.spans)
                self.spans.append([name, time.perf_counter(), None, stack[-1] if stack else None])
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                self.spans[index][2] = time.perf_counter()
            if after:
                after()
            if on_result:
                on_result(self, result, args)
            return result

        setattr(owner, attr, traced)

    def span_self_times(self) -> List[Tuple[str, float]]:
        """(name, duration minus the duration of its child spans) per span."""
        child_time: Dict[int, float] = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        return [(name, end - start - child_time[index])
                for index, (name, start, end, _) in enumerate(self.spans)]


def _count(key: str, measure: Callable = len):
    def on_result(tracer, result, args):
        tracer.counts[key] += measure(result)
    return on_result


def _count_field_runs(tracer, result, args):
    _, runs = result
    tracer.counts["inference.field_runs"] += len(runs)
    tracer.counts["inference.consensus_runs"] += sum(1 for r in runs if not r.failed)
    tracer.counts["inference.attempts"] += sum(r.attempts for r in runs)


def _grown_bytes(tracer, args):
    path = args[0].path
    before = os.path.getsize(path) if os.path.exists(path) else 0

    def after():
        tracer.counts["store.bytes_written"] += os.path.getsize(path) - before
    return after


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _rss_delta(tracer, args):
    before = peak_rss_mb()

    def after():
        tracer.counts["semantics.cluster_rss_delta_mb"] += peak_rss_mb() - before
    return after


def install_setup_tracing(tracer: Tracer) -> None:
    """Spans around the synth calls that write a scenario's inputs."""
    tracer.wrap(synth, "synth_traffic", "synth.synth_traffic")
    tracer.wrap(synth, "synth_corpus", "synth.synth_corpus")
    tracer.wrap(baseline, "write_traffic_csv", "synth.write_traffic_csv")


def install_pipeline_tracing(tracer: Tracer) -> None:
    """Spans around every layer call ``run_pipeline`` makes."""
    p = pipeline_mod
    tracer.wrap(p, "read_traffic_csv", "baseline.read_traffic_csv",
                _count("baseline.samples", lambda r: sum(len(s) for s in r.values())))
    tracer.wrap(p, "fit_baseline", "baseline.fit_baseline")
    tracer.wrap(p, "zscore_series", "baseline.zscore_series")
    tracer.wrap(p, "detect_spikes", "baseline.detect_spikes")
    tracer.wrap(p, "list_posts", "ingest.list_posts")
    tracer.wrap(p, "assemble_content_record", "ingest.assemble_content_record",
                _count("ingest.records", lambda r: 1))
    tracer.wrap(p, "extract_events", "inference.extract_events")
    tracer.wrap(p, "enrich_event", "inference.enrich_event", _count_field_runs)
    tracer.wrap(p, "find_duplicates", "semantics.find_duplicates",
                _count("semantics.merge_groups"))
    tracer.wrap(p, "cluster_multilevel", "semantics.cluster_multilevel", around=_rss_delta)
    tracer.wrap(p, "match_spikes_to_events", "correlate.match_spikes_to_events",
                _count("correlate.matches"))
    tracer.wrap(p, "export_features", "correlate.export_features",
                _count("correlate.feature_rows", lambda r: len(r[1])))
    for cls in (StubLlmBackend, HttpLlmBackend):
        tracer.wrap(cls, "send", "inference.llm")
    for cls in (FixtureRetriever, HttpRetriever):
        tracer.wrap(cls, "search", "inference.retriever")
    for cls in (HashingStubEmbedder, HttpEmbedder):
        tracer.wrap(cls, "embed", "semantics.embed")
    tracer.wrap(JsonlStore, "append", "store.append", around=_grown_bytes)
    tracer.wrap(EventStore, "append", "store.append", around=_grown_bytes)
    tracer.wrap(EventStore, "apply_merge", "store.append", around=_grown_bytes)


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics from the spans and counts (0 for an unused layer)."""
    self_times: Dict[str, float] = defaultdict(float)
    for name, seconds in tracer.span_self_times():
        self_times[name] += seconds
    calls = Counter(name for name, *_ in tracer.spans)
    out = {metric: self_times[span] for span, metric in SPAN_TIMES.items()}
    out.update({metric: calls[span] for span, metric in SPAN_CALLS.items()})
    out.update({key: tracer.counts[key] for key in COUNTS})
    out["semantics.cluster_rss_delta_mb"] = tracer.counts["semantics.cluster_rss_delta_mb"]
    attempts = tracer.counts["inference.attempts"]
    out["inference.consensus_per_attempt"] = (
        tracer.counts["inference.consensus_runs"] / attempts if attempts else 0.0)
    return out
