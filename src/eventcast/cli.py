"""Command-line entry points for each pipeline stage and the full run."""

from __future__ import annotations

import argparse
import json
import logging
import sys
from collections import Counter
from pathlib import Path

from .baseline import ConfigError, UnpopulatedBinsError, spike_frequency
from .correlate import SpikeEventMatch, coverage, label_spikes, lead_time_cdf, load_labels
from .ingest import FilterConfig
from .model import ContentRecord, InferenceRun, SpikeRecord
from .pipeline import (
    PipelineConfig,
    SeriesTooShort,
    build_connector,
    build_embedder,
    build_llm,
    build_retriever,
    materialize_scenario,
    run_pipeline,
    stage_cluster,
    stage_correlate,
    stage_dedup,
    stage_detect_spikes,
    stage_infer,
    stage_ingest,
)
from .reports import coverage_table, lead_time_table, render_table, spike_frequency_table
from .semantics import EventEmbeddings
from .store import EventStore, JsonlStore
from .synth import BUILTIN_SCENARIOS, Scenario

DEFAULTS = PipelineConfig()  # every stage flag's default


def cmd_synth(args) -> int:
    if args.scenario in BUILTIN_SCENARIOS:
        scenario = BUILTIN_SCENARIOS[args.scenario](seed=args.seed)
    else:
        scenario = Scenario.load(args.scenario)
    config_path = materialize_scenario(scenario, args.out_dir)
    print(f"scenario materialized; pipeline config at {config_path}")
    return 0


def cmd_run(args) -> int:
    config = PipelineConfig.load(args.config)
    report = run_pipeline(config)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if report["status"] == "ok" else 1


def stage_config(args) -> PipelineConfig:
    """The config a stage subcommand's flags describe; a flag left out keeps
    ``PipelineConfig``'s default."""
    if args.command == "detect-spikes":
        return PipelineConfig(
            traffic_csv=args.traffic,
            z_threshold=args.z,
            min_duration_minutes=args.min_duration,
            merge_gap_minutes=args.merge_gap,
            window_weeks=args.window_weeks,
            bin_minutes=args.bin_minutes,
            std_floor_fraction=args.std_floor,
        )
    if args.command == "ingest":
        return PipelineConfig(
            corpus_path=args.corpus,
            filter=FilterConfig(
                search_terms=tuple(args.search_term),
                communities=tuple(args.community),
                min_engagement=args.min_engagement,
                require_outbound_link=args.require_outbound_link,
            ),
            top_k_comments=args.top_k_comments,
        )
    if args.command == "infer-events":
        if args.backend == "stub":
            if not args.fixtures:
                raise SystemExit("--fixtures is required with the stub backend")
            llm = {"kind": "stub", "fixtures_path": args.fixtures}
        else:
            llm = {"kind": "http", "endpoint_url": args.endpoint_url, "model_name": args.model,
                   "auth_token_env": args.auth_token_env}
        retriever = ({"kind": "fixture", "fixtures_path": args.retriever_fixtures}
                     if args.retriever_fixtures else {"kind": "none"})
        return PipelineConfig(default_timezone=args.default_timezone, llm=llm,
                              retriever=retriever)
    if args.command == "dedup":
        return PipelineConfig(dedup_threshold=args.threshold,
                              embedder={"kind": "hash", "dim": args.dim})
    if args.command == "cluster":
        return PipelineConfig(levels=args.levels, seed=args.seed,
                              embedder={"kind": "hash", "dim": args.dim})
    if args.command == "correlate":
        return PipelineConfig(match_window_hours=args.window_hours)
    if args.command == "report":
        return PipelineConfig(report_bins=args.bins, min_category_count=args.min_category_count)
    raise ValueError(f"{args.command} is not a stage subcommand")


def cmd_detect_spikes(args) -> int:
    config = stage_config(args)
    try:
        with JsonlStore(args.out, SpikeRecord, id_prefix="spk") as store:
            spikes, z_by_network, _ = stage_detect_spikes(config, store)
    except (SeriesTooShort, UnpopulatedBinsError, ConfigError) as exc:
        print(exc, file=sys.stderr)  # a malformed CSV, or no network could be scored
        return 2
    per_network = Counter(spike.network_id for spike in spikes)
    for network_id in z_by_network:
        print(f"{network_id}: {per_network[network_id]} spikes")
    print(f"{len(spikes)} spikes appended to {args.out}")
    return 0


def cmd_ingest(args) -> int:
    if not (args.search_term or args.community):
        print("ingest needs at least one --search-term or --community", file=sys.stderr)
        return 2
    config = stage_config(args)
    with JsonlStore(args.out, ContentRecord, id_field="record_id") as store:
        _, summary = stage_ingest(config, build_connector(config), store)
    print(f"{summary['records']} records written to {args.out} "
          f"({summary['posts_skipped_malformed']} malformed posts skipped)")
    return 0


def cmd_infer_events(args) -> int:
    config = stage_config(args)
    out = Path(args.out)
    with EventStore(out) as events_store, \
            JsonlStore(out.parent / "runs.jsonl", InferenceRun, id_prefix="run") as runs_store:
        _, summary = stage_infer(config, JsonlStore(args.records, ContentRecord).load(),
                                 build_llm(config), build_retriever(config),
                                 events_store, runs_store)
    print(f"{summary['events']} events written to {args.out} "
          f"({summary['records_failed']} records failed)")
    return 0


def _announce_merge(merged, group_ids):
    print(f"merged {len(group_ids)} events into {merged.event_id}; "
          "non-fixed fields cleared for re-inference")


def cmd_dedup(args) -> int:
    config = stage_config(args)
    with EventStore(args.events) as store:
        *_, summary = stage_dedup(config, store.load_live(), build_embedder(config), store,
                                  on_merge=_announce_merge)
    print(f"{summary['duplicate_groups']} duplicate groups merged in {args.events}")
    return 0


def cmd_cluster(args) -> int:
    config = stage_config(args)
    with EventStore(args.events) as store:
        _, summary = stage_cluster(config, store.load_live(), build_embedder(config), store,
                                   args.out_models, EventEmbeddings.stack({}))
    if not summary["events"]:
        print("no events to cluster", file=sys.stderr)
        return 2
    print(f"signatures assigned at levels {list(config.levels)}; "
          f"models saved to {args.out_models}")
    return 0


def cmd_correlate(args) -> int:
    config = stage_config(args)
    _, summary = stage_correlate(config, JsonlStore(args.spikes, SpikeRecord).load(),
                                 EventStore(args.events).load_live(), args.out)
    print(f"{summary['matches']} matches written to {args.out}")
    return 0


def cmd_report(args) -> int:
    try:
        config = stage_config(args)
    except ConfigError as exc:
        print(exc, file=sys.stderr)  # --bins not strictly increasing
        return 2
    if args.kind == "spike-frequency":
        spikes = JsonlStore(args.spikes, SpikeRecord).load()
        header, rows = spike_frequency_table(spike_frequency(spikes, config.report_bins))
    elif args.kind == "lead-time":
        events = EventStore(args.events).load_live()
        cdfs = lead_time_cdf(events, min_category_count=config.min_category_count)
        header, rows = lead_time_table(cdfs)
    elif args.kind == "coverage":
        if not (args.labels and args.matches and args.spikes):
            print("coverage needs --labels, --matches and --spikes", file=sys.stderr)
            return 2
        spikes = JsonlStore(args.spikes, SpikeRecord).load()
        matched_keys = {m.spike.key() for m in JsonlStore(args.matches, SpikeEventMatch)}
        labeled, _planted = label_spikes(spikes, load_labels(args.labels), matched_keys)
        header, rows = coverage_table(coverage(labeled, matched_keys))
    else:
        raise SystemExit(f"unknown report kind {args.kind}")
    sys.stdout.write(render_table(header, rows, format=args.format))
    return 0


def _numbers(kind):
    """An argparse type: a comma-separated list of ``kind``, as a tuple."""
    def numbers(text: str) -> tuple:
        return tuple(kind(item) for item in text.split(","))
    return numbers


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="eventcast",
                                     description="event-driven traffic spike pipeline")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="materialize a synthetic scenario")
    p.add_argument("--scenario", default="default",
                   help="builtin name (default) or a scenario JSON path")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("run", help="run the full pipeline from a config file")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("detect-spikes", help="baseline + spike extraction from traffic CSV")
    p.add_argument("--traffic", required=True)
    p.add_argument("--z", type=float, default=DEFAULTS.z_threshold)
    p.add_argument("--min-duration", type=float, default=DEFAULTS.min_duration_minutes)
    p.add_argument("--merge-gap", type=float, default=DEFAULTS.merge_gap_minutes)
    p.add_argument("--window-weeks", type=int, default=DEFAULTS.window_weeks)
    p.add_argument("--bin-minutes", type=int, default=DEFAULTS.bin_minutes)
    p.add_argument("--std-floor", type=float, default=DEFAULTS.std_floor_fraction)
    p.add_argument("--out", default="spikes.jsonl")
    p.set_defaults(fn=cmd_detect_spikes)

    p = sub.add_parser("ingest", help="filter posts and assemble content records")
    p.add_argument("--corpus", required=True)
    p.add_argument("--search-term", action="append", default=[])
    p.add_argument("--community", action="append", default=[])
    p.add_argument("--min-engagement", type=int, default=DEFAULTS.filter.min_engagement)
    p.add_argument("--require-outbound-link", action="store_true")
    p.add_argument("--top-k-comments", type=int, default=DEFAULTS.top_k_comments)
    p.add_argument("--out", default="records.jsonl")
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser("infer-events", help="extract and enrich events from records")
    p.add_argument("--records", required=True)
    p.add_argument("--backend", choices=["stub", "http"], default="stub")
    p.add_argument("--fixtures", help="stub fixture map (JSON)")
    p.add_argument("--endpoint-url")
    p.add_argument("--model")
    p.add_argument("--auth-token-env")
    p.add_argument("--retriever-fixtures")
    p.add_argument("--default-timezone", default=DEFAULTS.default_timezone)
    p.add_argument("--out", default="events.jsonl")
    p.set_defaults(fn=cmd_infer_events)

    p = sub.add_parser("dedup", help="merge same-date near-duplicate events")
    p.add_argument("--events", required=True)
    p.add_argument("--threshold", type=float, default=DEFAULTS.dedup_threshold)
    p.add_argument("--dim", type=int, default=DEFAULTS.embedder["dim"])
    p.set_defaults(fn=cmd_dedup)

    p = sub.add_parser("cluster", help="fit multi-level k-means signatures")
    p.add_argument("--events", required=True)
    p.add_argument("--levels", type=_numbers(int), default=DEFAULTS.levels)
    p.add_argument("--seed", type=int, default=DEFAULTS.seed)
    p.add_argument("--dim", type=int, default=DEFAULTS.embedder["dim"])
    p.add_argument("--out-models", default="cluster_models.json")
    p.set_defaults(fn=cmd_cluster)

    p = sub.add_parser("correlate", help="match spikes to events")
    p.add_argument("--events", required=True)
    p.add_argument("--spikes", required=True)
    p.add_argument("--window-hours", type=float, default=DEFAULTS.match_window_hours)
    p.add_argument("--out", default="matches.jsonl")
    p.set_defaults(fn=cmd_correlate)

    p = sub.add_parser("report", help="emit plot-ready tables")
    p.add_argument("kind", choices=["coverage", "lead-time", "spike-frequency"])
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--spikes", help="spikes.jsonl (spike-frequency, coverage)")
    p.add_argument("--bins", type=_numbers(float), default=DEFAULTS.report_bins)
    p.add_argument("--events", help="events.jsonl (lead-time)")
    p.add_argument("--min-category-count", type=int, default=DEFAULTS.min_category_count)
    p.add_argument("--labels", help="ground-truth labels.jsonl (coverage)")
    p.add_argument("--matches", help="matches.jsonl (coverage)")
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
