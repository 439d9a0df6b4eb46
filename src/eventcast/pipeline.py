"""End-to-end orchestration: ingest -> infer -> dedup -> cluster ->
detect-spikes -> correlate -> report.

Each stage is one module-level ``stage_*`` function, which the CLI
subcommands also call to run it standalone on the documented file
formats. A stage failure halts downstream stages but leaves earlier
artifacts in place for inspection.
"""

from __future__ import annotations

import json
import logging
import time as time_mod
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, List, Optional, Sequence

from . import correlate, ingest, remote, semantics
from . import reports as report_tables
from .baseline import (
    UnpopulatedBinsError,
    detect_spikes,
    fit_baseline,
    read_traffic_csv,
    spike_frequency,
    zscore_series,
)
from .correlate import (
    coverage,
    export_features,
    label_spikes,
    lead_time_cdf,
    load_labels,
    match_spikes_to_events,
)
from .ingest import (
    FileCorpusConnector,
    FilterConfig,
    HttpJsonConnector,
    NullFetcher,
    assemble_content_record,
    fetch_linked_pages,
    list_posts,
    EmptyRecordError,
    FilePageFetcher,
    HttpPageFetcher,
)
from .inference.backends import (
    BackendError,
    HttpLlmBackend,
    LlmBackendConfig,
    StubFixtureMissing,
    StubLlmBackend,
    thread_pool,
)
from .inference.enrich import FixtureRetriever, HttpRetriever, enrich_event
from .inference.extract import ExtractionError, build_event, extract_events
from .model import ContentRecord, EventAbstraction, SpikeRecord, from_json_dict, to_json_dict
from .semantics import (
    STUB_DIM,
    EventEmbeddings,
    HashingStubEmbedder,
    HttpEmbedder,
    cluster_multilevel,
    embed_events,
    find_duplicates,
    merge_events,
)
from .store import fresh_stores

logger = logging.getLogger(__name__)


class StageFailure(RuntimeError):
    """One pipeline stage failed; downstream stages were not run."""

    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage {stage!r} failed: {cause}")


@dataclass
class PipelineConfig:
    """Everything a full run needs, loadable from one JSON file."""

    out_dir: str = "out"
    seed: int = 7
    default_timezone: str = "UTC"
    traffic_csv: Optional[str] = None
    corpus_path: Optional[str] = None
    labels_path: Optional[str] = None
    connector: str = "file"  # file | http
    connector_http: dict = field(default_factory=dict)
    filter: FilterConfig = field(default_factory=lambda: FilterConfig(search_terms=("event",)))
    top_k_comments: int = ingest.DEFAULT_TOP_K_COMMENTS
    max_linked_pages: int = 0
    page_fetcher: dict = field(default_factory=lambda: {"kind": "none"})
    llm: dict = field(default_factory=lambda: {"kind": "stub", "fixtures_path": None})
    embedder: dict = field(default_factory=lambda: {"kind": "hash", "dim": STUB_DIM})
    retriever: dict = field(default_factory=lambda: {"kind": "none"})
    ensemble_size: int = 3
    max_attempts: int = 3
    max_context_docs: int = 3
    window_weeks: int = 4
    bin_minutes: int = 5
    std_floor_fraction: float = 0.05
    z_threshold: float = 2.0
    min_duration_minutes: float = 20.0
    merge_gap_minutes: float = 5.0
    dedup_threshold: float = semantics.DEFAULT_SIM_THRESHOLD
    levels: tuple = semantics.DEFAULT_LEVELS
    match_window_hours: float = correlate.DEFAULT_MATCH_WINDOW_HOURS
    feature_window_days: int = correlate.DEFAULT_FEATURE_WINDOW_DAYS
    min_category_count: int = correlate.DEFAULT_MIN_CATEGORY_COUNT
    report_bins: tuple = (2.0, 3.0, 5.0)
    network_regions: dict = field(default_factory=dict)

    def __post_init__(self):
        # the report stage's check of its bins, made before any stage runs
        spike_frequency((), self.report_bins)

    @classmethod
    def load(cls, path) -> "PipelineConfig":
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        return cls.from_dict(raw, base_dir=Path(path).parent)

    @classmethod
    def from_dict(cls, raw: dict, base_dir: Optional[Path] = None) -> "PipelineConfig":
        cfg = from_json_dict(cls, raw)
        # copies, so that resolving fixtures_path below leaves the caller's dicts alone
        cfg.llm, cfg.retriever = dict(cfg.llm), dict(cfg.retriever)
        if base_dir is not None:
            for attr in ("traffic_csv", "corpus_path", "labels_path", "out_dir"):
                value = getattr(cfg, attr)
                if value and not Path(value).is_absolute():
                    setattr(cfg, attr, str(base_dir / value))
            for section in (cfg.llm, cfg.retriever):
                p = section.get("fixtures_path")
                if p and not Path(p).is_absolute():
                    section["fixtures_path"] = str(base_dir / p)
        return cfg

    to_dict = to_json_dict

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def build_llm(config: PipelineConfig):
    kind = config.llm.get("kind", "stub")
    if kind == "stub":
        path = config.llm.get("fixtures_path")
        if not path:
            raise ValueError("stub llm backend needs fixtures_path")
        return StubLlmBackend.from_file(path)
    if kind == "http":
        backend_config = from_json_dict(LlmBackendConfig, {
            key: value for key, value in config.llm.items()
            if key not in ("kind", "auth_token_env")})
        return HttpLlmBackend(backend_config, auth_token_env=config.llm.get("auth_token_env"))
    raise ValueError(f"unknown llm backend kind {kind!r}")


def build_embedder(config: PipelineConfig):
    kind = config.embedder.get("kind", "hash")
    if kind == "hash":
        return HashingStubEmbedder(dim=config.embedder.get("dim", STUB_DIM))
    if kind == "http":
        return HttpEmbedder(
            endpoint_url=config.embedder["endpoint_url"],
            model_name=config.embedder["model_name"],
        )
    raise ValueError(f"unknown embedder kind {kind!r}")


def build_retriever(config: PipelineConfig):
    kind = config.retriever.get("kind", "none")
    if kind == "none":
        return None
    if kind == "fixture":
        return FixtureRetriever.from_file(config.retriever["fixtures_path"])
    if kind == "http":
        return HttpRetriever(base_url=config.retriever["base_url"])
    raise ValueError(f"unknown retriever kind {kind!r}")


def build_connector(config: PipelineConfig):
    if config.connector == "file":
        return FileCorpusConnector(config.corpus_path)
    if config.connector == "http":
        return HttpJsonConnector(**config.connector_http)
    raise ValueError(f"unknown connector {config.connector!r}")


def build_page_fetcher(config: PipelineConfig):
    kind = config.page_fetcher.get("kind", "none")
    if kind == "none":
        return NullFetcher()
    if kind == "file":
        return FilePageFetcher(config.page_fetcher.get("pages", {}),
                               root=config.page_fetcher.get("root"))
    if kind == "http":
        return HttpPageFetcher()
    raise ValueError(f"unknown page fetcher kind {kind!r}")


class SeriesTooShort(ValueError):
    """A traffic series ends inside its baseline fitting window."""


class AllRecordsFailed(RuntimeError):
    """No record's extraction succeeded; the LLM backend is most likely down."""


def _append_enriched(enriched: EventAbstraction, runs, events_store,
                     runs_store) -> EventAbstraction:
    """Store an enriched event's inference runs, then the event."""
    for run in runs:
        runs_store.append(run)
    events_store.append(enriched)
    return enriched


# Each stage function takes the config, its inputs and the stores it writes,
# and returns its result and the stage's summary for the run report. They
# call the layer functions through this module's globals, which is where
# perfbench/tracing.py wraps them: moved elsewhere, the traced layers read 0.

def stage_ingest(config: PipelineConfig, connector, records_store):
    """Filter the connector's posts and store one content record per kept post."""
    fetcher = build_page_fetcher(config)
    posts = list_posts(connector, config.filter)
    records = []
    discarded = 0
    for post in posts:
        pages = ()
        if config.max_linked_pages > 0 and post.outbound_urls:
            pages = fetch_linked_pages(post, fetcher, config.max_linked_pages)
        try:
            record = assemble_content_record(
                post, pages=pages, top_k_comments=config.top_k_comments
            )
        except EmptyRecordError as exc:
            logger.warning("discarding record: %s", exc)
            discarded += 1
            continue
        records.append(record)
        records_store.append(record)
    return records, {
        "posts_kept": len(posts),
        "posts_skipped_malformed": connector.skip_report.malformed,
        "records": len(records),
        "records_discarded_empty": discarded,
    }


def stage_infer(config: PipelineConfig, records: List[ContentRecord], llm, retriever,
                events_store, runs_store):
    """Extract, build and enrich each record's events; a repeated event id is skipped.

    Records are extracted and events enriched concurrently, at most
    ``MAX_CONCURRENT_REQUESTS`` requests at a time (inline, one at a time,
    when neither backend waits on the network), and stored in record and
    draft order. A record whose extraction fails is logged, counted and
    reported; the run goes on unless every record fails. A missing stub
    fixture, or any other error, fails the stage after storing what a
    sequential run would have stored before it; no event is submitted
    after an enrichment seen to have failed.
    """
    events: List[EventAbstraction] = []
    failed_records = []
    seen_ids = set()
    drafts_total = 0
    flagged_past = 0

    def drafts_in_order(extractions):
        """(record, draft) for each draft of each record that extracted."""
        for record, extraction in zip(records, extractions):
            try:
                drafts = extraction.result()
            except StubFixtureMissing:
                raise
            except (ExtractionError, BackendError) as exc:
                logger.warning("record %s failed: %s", record.record_id, exc)
                failed_records.append({"record_id": record.record_id, "error": str(exc)})
                continue
            for draft in drafts:
                yield record, draft

    with thread_pool("request", llm, retriever) as request_workers, \
            thread_pool("event", llm, retriever) as event_workers:
        extractions = [request_workers.submit(extract_events, record, llm) for record in records]
        enrichments = []
        try:
            for record, draft in drafts_in_order(extractions):
                drafts_total += 1
                if "past_dated" in draft.flags:
                    flagged_past += 1
                event = build_event(draft, record, default_timezone=config.default_timezone)
                if event.event_id in seen_ids:
                    continue
                seen_ids.add(event.event_id)
                enrichment = event_workers.submit(
                    enrich_event, event, llm, retriever, records=[record],
                    ensemble_size=config.ensemble_size, max_attempts=config.max_attempts,
                    max_docs=config.max_context_docs, pool=request_workers)
                enrichments.append(enrichment)
                if enrichment.done() and enrichment.exception() is not None:
                    break  # inline, a failed enrichment is done at submit: add nothing after it
        finally:
            # also after a failure above: a sequential run would have stored
            # these first, and an error here precedes it in record order
            for enrichment in enrichments:
                events.append(_append_enriched(*enrichment.result(), events_store, runs_store))
    if records and len(failed_records) == len(records):
        raise AllRecordsFailed(f"all {len(records)} records failed; first: "
                               f"{failed_records[0]['error']}")
    return events, {
        "records_processed": len(records),
        "records_failed": len(failed_records),
        "failed_records": failed_records,
        "drafts": drafts_total,
        "drafts_flagged_past_dated": flagged_past,
        "events": len(events),
        "events_low_confidence": sum(1 for e in events if e.low_confidence_fields),
    }


def stage_dedup(config: PipelineConfig, events: List[EventAbstraction], embedder, events_store,
                runs_store=None, llm=None, retriever=None, records: Sequence[ContentRecord] = (),
                on_merge: Optional[Callable] = None):
    """Merge same-date near-duplicate events under their earliest-mentioned
    survivor and, given an ``llm``, re-infer each survivor's cleared fields
    over its expanded record set.

    Each merge is appended to ``events_store`` with the survivor's non-fixed
    fields cleared, followed by its inference runs (to ``runs_store``) and
    the re-inferred survivor; ``on_merge(merged, group_ids)`` is called as
    each merge is stored. The groups are disjoint, so every survivor is
    re-inferred at once, on one request pool, and stored in group order:
    the stores read as after one merge at a time, also up to a failure, and
    no merge is submitted after an enrichment seen to have failed.
    Returns the surviving events in first-insertion order, the
    ``EventEmbeddings`` still valid for them (a merged survivor's summary
    text changes, so every merged group's rows are dropped) and the stage
    summary.
    """
    embeddings = embed_events(events, embedder)
    unembedded = len(events) - len(embeddings)
    rows = embeddings.rows()
    groups = find_duplicates(events, embeddings, sim_threshold=config.dedup_threshold)
    live = {e.event_id: e for e in events}
    merges = [merge_events([live[eid] for eid in group_ids]) for group_ids in groups]
    records_by_id = {r.record_id: r for r in records}
    with thread_pool("request", llm, retriever) as request_workers, \
            thread_pool("event", llm, retriever) as event_workers:
        enrichments = []
        for merged in merges if llm is not None else ():
            enrichments.append(event_workers.submit(
                enrich_event, merged, llm, retriever,
                records=[records_by_id[rid] for rid in merged.source_records
                         if rid in records_by_id],
                ensemble_size=config.ensemble_size, max_attempts=config.max_attempts,
                max_docs=config.max_context_docs, pool=request_workers))
            if enrichments[-1].done() and enrichments[-1].exception() is not None:
                break  # inline, a failed enrichment is done at submit: add nothing after it
        for index, (group_ids, merged) in enumerate(zip(groups, merges)):
            # the absorbed ids close the survivor's merge history, in merge order
            events_store.apply_merge(merged, merged.merge_history[1 - len(group_ids):])
            if on_merge is not None:
                on_merge(merged, group_ids)
            if enrichments:
                merged = _append_enriched(*enrichments[index].result(), events_store, runs_store)
            for eid in group_ids:
                rows.pop(eid, None)
                if eid != merged.event_id:
                    del live[eid]
            live[merged.event_id] = merged
    return list(live.values()), EventEmbeddings.stack(rows), {
        "duplicate_groups": len(groups),
        "events_absorbed": sum(len(g) - 1 for g in groups),
        "events_surviving": len(live),
        "events_unembedded": unembedded,
    }


def stage_cluster(config: PipelineConfig, events: List[EventAbstraction], embedder, events_store,
                  models_path, embeddings: EventEmbeddings):
    """Assign multi-level k-means signatures and store each signed event.

    ``embeddings`` holds the rows already computed for some of the events
    (``stage_dedup`` returns them); only the others are embedded, and
    ``cluster_multilevel`` runs on the one matrix of both. An event that
    cannot be embedded is left without a signature.
    """
    rows = embeddings.rows()
    rows.update(embed_events([e for e in events if e.event_id not in rows], embedder).rows())
    embeddings = EventEmbeddings.stack(rows)
    if not embeddings:
        return events, {"events": 0, "levels": list(config.levels)}
    signatures, models = cluster_multilevel(embeddings, levels=config.levels, seed=config.seed)
    models.save(models_path)
    final = []
    for event in events:
        if event.event_id in signatures:
            event = replace(event, semantic_signature=signatures[event.event_id])
            events_store.append(event)
        final.append(event)
    return final, {
        "events": len(final),
        "levels": list(config.levels),
        "effective_k": [m.level_k for m in models.models],
    }


def stage_detect_spikes(config: PipelineConfig, spikes_store):
    """Fit each network's baseline on its first weeks and store the spikes after them.

    A network too short to score past its fitting weeks, or with slots the
    fit has no data for, is logged, skipped and listed with its reason; the
    stage fails only when every network does. Returns the spikes, the
    z-series per network and the stage summary.
    """
    spikes: List[SpikeRecord] = []
    z_by_network = {}
    failed_networks = []
    first_error: Optional[Exception] = None
    if config.traffic_csv:
        traffic = read_traffic_csv(config.traffic_csv)
        for network_id in sorted(traffic):
            series = traffic[network_id]
            boundary = config.window_weeks * 7 * 86400 // series.step_seconds
            try:
                if boundary >= len(series):
                    raise SeriesTooShort(
                        f"network {network_id}: series too short to score past "
                        f"{config.window_weeks} fitting weeks"
                    )
                model = fit_baseline(series.slice(0, boundary),
                                     window_weeks=config.window_weeks,
                                     bin_minutes=config.bin_minutes)
                z = zscore_series(model, series.slice(boundary),
                                  std_floor_fraction=config.std_floor_fraction)
            except (SeriesTooShort, UnpopulatedBinsError) as exc:
                logger.warning("network %s skipped: %s", network_id, exc)
                failed_networks.append({"network_id": network_id, "error": str(exc)})
                first_error = first_error or exc
                continue
            z_by_network[network_id] = z
            found = detect_spikes(z, z_threshold=config.z_threshold,
                                  min_duration_minutes=config.min_duration_minutes,
                                  merge_gap_minutes=config.merge_gap_minutes)
            for spike in found:
                spikes_store.append(spike)
            spikes.extend(found)
        if traffic and not z_by_network:
            raise first_error
    return spikes, z_by_network, {"networks": len(z_by_network), "spikes": len(spikes),
                                  "failed_networks": failed_networks}


def stage_correlate(config: PipelineConfig, spikes: List[SpikeRecord],
                    events: List[EventAbstraction], matches_path):
    """Match spikes to events and write the matches as JSONL; returns the
    keys of the matched spikes, which is all that the report reads of them."""
    matches = match_spikes_to_events(spikes, events, window_hours=config.match_window_hours)
    with open(matches_path, "w", encoding="utf-8") as fh:
        for match in matches:
            fh.write(json.dumps(match.to_dict(), sort_keys=True) + "\n")
    matched_keys = {m.spike.key() for m in matches}
    return matched_keys, {"matches": len(matches), "spikes_matched": len(matched_keys)}


def stage_report(config: PipelineConfig, spikes, events, matched_keys, z_by_network,
                 out_dir) -> dict:
    """Write the report tables and features.csv; returns the stage summary."""
    reports_dir = Path(out_dir) / "reports"
    reports_dir.mkdir(exist_ok=True)
    histogram = spike_frequency(spikes, config.report_bins)
    header, rows = report_tables.spike_frequency_table(histogram)
    (reports_dir / "spike_frequency.csv").write_text(
        report_tables.render_table(header, rows), encoding="utf-8")

    cdfs = lead_time_cdf(events, min_category_count=config.min_category_count)
    header, rows = report_tables.lead_time_table(cdfs)
    (reports_dir / "lead_time.csv").write_text(
        report_tables.render_table(header, rows), encoding="utf-8")

    header, rows = export_features(
        events, z_by_network, config.network_regions,
        levels=config.levels, window_days=config.feature_window_days,
    )
    (Path(out_dir) / "features.csv").write_text(
        report_tables.render_table(header, rows), encoding="utf-8")

    summary = {
        "spike_frequency": {repr(k): v for k, v in sorted(histogram.items())},
        "feature_rows": len(rows),
    }

    if config.labels_path:
        labeled_spikes, planted = label_spikes(spikes, load_labels(config.labels_path),
                                               matched_keys)
        cov = coverage(labeled_spikes, matched_keys)
        header, rows = report_tables.coverage_table(cov)
        (reports_dir / "coverage.csv").write_text(
            report_tables.render_table(header, rows), encoding="utf-8")
        summary["coverage"] = cov.to_dict()
        summary["planted"] = planted
    return summary


def run_pipeline(config: PipelineConfig) -> dict:
    """Execute every stage and return the machine-readable run report.

    The run starts from empty stores in ``config.out_dir`` and removes the
    other files it writes there, so a rerun into the same directory leaves
    the same artifacts as a fresh one. The report
    counts inputs/outputs per stage and includes coverage when ground-truth
    labels are configured, and the lines, bytes and fsyncs of each store.
    Every store is synced at the end of each stage and closed at the end of
    the run. All JSONL/CSV artifacts are byte-stable for a fixed config and
    seed; only the report's timings vary between runs.
    """
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in ("cluster_models.json", "matches.jsonl", "features.csv", "run_report.json"):
        (out_dir / name).unlink(missing_ok=True)
    for table in (out_dir / "reports").glob("*.csv"):
        table.unlink()

    report: dict = {"stages": {}, "failures": [], "status": "ok"}
    stages = report["stages"]
    timings: dict = {}
    connector = llm = retriever = embedder = None

    @contextmanager
    def run_stage(name):
        start = time_mod.perf_counter()
        try:
            try:
                yield
            finally:
                # what the stage stored is on disk once it returns or fails
                for store in stores.values():
                    store.sync()
        except Exception as exc:
            report["failures"].append({"stage": name, "error": str(exc)})
            report["status"] = f"failed at {name}"
            raise StageFailure(name, exc) from exc
        finally:
            timings[name] = round(time_mod.perf_counter() - start, 4)

    with fresh_stores(out_dir) as stores:
        try:
            with run_stage("ingest"):
                connector = build_connector(config)
                records, stages["ingest"] = stage_ingest(config, connector, stores["records"])
            with run_stage("infer"):
                llm, retriever = build_llm(config), build_retriever(config)
                events, stages["infer"] = stage_infer(config, records, llm, retriever,
                                                      stores["events"], stores["runs"])
            with run_stage("dedup"):
                embedder = build_embedder(config)
                events, embeddings, stages["dedup"] = stage_dedup(
                    config, events, embedder, stores["events"], stores["runs"],
                    llm=llm, retriever=retriever, records=records)
            with run_stage("cluster"):
                events, stages["cluster"] = stage_cluster(
                    config, events, embedder, stores["events"], out_dir / "cluster_models.json",
                    embeddings)
            with run_stage("detect_spikes"):
                spikes, z_by_network, stages["detect_spikes"] = stage_detect_spikes(
                    config, stores["spikes"])
            with run_stage("correlate"):
                matched_keys, stages["correlate"] = stage_correlate(
                    config, spikes, events, out_dir / "matches.jsonl")
            with run_stage("report"):
                stages["report"] = stage_report(config, spikes, events, matched_keys,
                                                z_by_network, out_dir)
        except StageFailure:
            pass

    report["stores"] = {kind: dict(store.counts) for kind, store in stores.items()}
    report["remote"] = _remote_counts({"connector": connector, "llm": llm,
                                       "retriever": retriever, "embedder": embedder})
    report["timings_seconds"] = timings
    with open(out_dir / "run_report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report


def _remote_counts(clients: dict) -> dict:
    """Each service's request counts and most requests in flight (zero for a
    local backend, or one never built); closes the idle connections of the
    HTTP clients."""
    counts = {}
    for service, client in clients.items():
        endpoint = getattr(client, "endpoint", None)
        counts[service] = endpoint.counts() if endpoint else dict.fromkeys(remote.COUNTS, 0)
        if endpoint:
            endpoint.close()
    return counts


def materialize_scenario(scenario, out_dir) -> Path:
    """Write a scenario's inputs + a ready-to-run pipeline config.

    Produces traffic.csv, posts.jsonl, labels.jsonl, llm_fixtures.json,
    retriever_fixtures.json, scenario.json, and pipeline.json under
    out_dir; returns the pipeline config path.
    """
    from .baseline import write_traffic_csv
    from .synth import synth_corpus, synth_traffic

    # absolute paths keep the emitted config valid from any working dir
    out_dir = Path(out_dir).resolve()
    out_dir.mkdir(parents=True, exist_ok=True)

    series, labels = synth_traffic(scenario)
    write_traffic_csv(out_dir / "traffic.csv", [series[k] for k in sorted(series)])
    with open(out_dir / "labels.jsonl", "w", encoding="utf-8") as fh:
        for label in labels:
            fh.write(json.dumps(label, sort_keys=True) + "\n")

    posts, llm_fixtures, retriever_fixtures = synth_corpus(scenario)
    with open(out_dir / "posts.jsonl", "w", encoding="utf-8") as fh:
        for post in posts:
            fh.write(json.dumps(post.to_dict(), sort_keys=True) + "\n")
    with open(out_dir / "llm_fixtures.json", "w", encoding="utf-8") as fh:
        json.dump(llm_fixtures, fh, indent=1, sort_keys=True)
        fh.write("\n")
    with open(out_dir / "retriever_fixtures.json", "w", encoding="utf-8") as fh:
        json.dump(retriever_fixtures, fh, indent=1, sort_keys=True)
        fh.write("\n")
    scenario.save(out_dir / "scenario.json")

    communities = sorted({e.community for e in scenario.planted_events if not e.spontaneous})
    config = PipelineConfig(
        out_dir=str(out_dir / "out"),
        seed=scenario.seed,
        traffic_csv=str(out_dir / "traffic.csv"),
        corpus_path=str(out_dir / "posts.jsonl"),
        labels_path=str(out_dir / "labels.jsonl"),
        filter=FilterConfig(search_terms=("premiere", "kickoff"), communities=tuple(communities),
                            min_engagement=25),
        llm={"kind": "stub", "fixtures_path": str(out_dir / "llm_fixtures.json")},
        retriever={"kind": "fixture", "fixtures_path": str(out_dir / "retriever_fixtures.json")},
        min_category_count=scenario.min_category_count,
        network_regions={
            n.network_id: {"country": n.country, "continent": n.continent}
            for n in scenario.networks
        },
    )
    config_path = out_dir / "pipeline.json"
    config.save(config_path)
    return config_path
