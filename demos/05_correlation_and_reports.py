"""Match spikes to events, then build coverage, lead-time, and feature tables.

Constructs a small hand-made set of spikes and enriched events, runs the
window matcher, and prints the three plot-ready report tables plus the
forecaster feature rows.
"""

from datetime import datetime, timedelta, timezone

from eventcast import (
    EventAbstraction,
    SemanticSignature,
    SpikeRecord,
    coverage,
    export_features,
    lead_time_cdf,
    match_spikes_to_events,
    spike_frequency,
)
from eventcast.baseline import ZSeries
from eventcast.reports import (
    coverage_table,
    lead_time_table,
    render_table,
    spike_frequency_table,
)

UTC = timezone.utc


def spike(network_id, when, minutes, peak):
    return SpikeRecord(network_id=network_id, start=when,
                       end=when + timedelta(minutes=minutes),
                       peak_z=peak, mean_z=max(2.0, peak - 1.0),
                       duration_minutes=float(minutes))


def event(event_id, when, category, lead_days, likelihood=8):
    return EventAbstraction(
        event_id=event_id, date=when.date().isoformat(),
        time=when.strftime("%H:%M"), description=f"{category} event {event_id}",
        source_records=(f"rec-{event_id}",),
        first_mentioned_at=when - timedelta(days=lead_days),
        event_time_utc=when,
        category=category, entities=(event_id,), platforms=("streamdemo",),
        data_per_user_mb=1200, audience_size=1_000_000,
        continent_relevance={"EU": 0.8}, nation_relevance={"DE": 0.7},
        spike_duration_hours=2.0, likelihood=likelihood,
        semantic_signature=SemanticSignature(levels=(10,), cluster_ids=(2,)),
    )


base = datetime(2025, 7, 2, tzinfo=UTC)
spikes = [
    spike("net-eu-1", base + timedelta(hours=19), 120, 5.2),   # the match
    spike("net-eu-1", base + timedelta(days=1, hours=21), 80, 3.4),  # the premiere
    spike("net-eu-1", base + timedelta(days=2, hours=4), 45, 4.1),   # unexplained
]
events = [
    event("match", base + timedelta(hours=19), "sports", lead_days=4),
    event("premiere", base + timedelta(days=1, hours=21), "tv & film", lead_days=35),
    event("patch", base + timedelta(days=4, hours=17), "video games", lead_days=10),
]

matches = match_spikes_to_events(spikes, events, window_hours=6)
print(f"{len(matches)} spike-event matches:")
for m in matches:
    print(f"  spike {m.spike.start:%d %H:%M} ~ {m.event_id:9s} "
          f"offset {m.time_offset_minutes:+7.1f} min, score {m.match_score:.2f}")

labeled = [(spikes[0], True), (spikes[1], True), (spikes[2], True)]
report = coverage(labeled, {m.spike.key() for m in matches})
print("\ncoverage table (the unexplained spike is an honest miss):")
header, rows = coverage_table(report)
print(render_table(header, rows, "csv"))

cdfs = lead_time_cdf(events, min_category_count=1)
print("lead-time CDF table:")
header, rows = lead_time_table(cdfs)
print(render_table(header, rows, "csv"))

print("spike-frequency table:")
header, rows = spike_frequency_table(spike_frequency(spikes, [2, 3, 5]))
print(render_table(header, rows, "csv"))

z = ZSeries(network_id="net-eu-1", start=base - timedelta(days=2), step_seconds=300,
            z_values=tuple([0.4] * (12 * 24 * 7)))
header, rows = export_features(
    events, {"net-eu-1": z},
    network_regions={"net-eu-1": {"country": "DE", "continent": "EU"}},
    levels=(10,), window_days=3,
)
print("forecaster feature rows (one per event-network pair):")
print(render_table(header, rows, "csv"))
