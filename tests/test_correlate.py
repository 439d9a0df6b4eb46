from __future__ import annotations

import random
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from eventcast.baseline import ZSeries
from eventcast.correlate import (
    EVENT_FEATURE_COLUMNS,
    _fmt,
    _peak_z_in_window,
    coverage,
    export_features,
    feature_header,
    lead_time_cdf,
    match_spikes_to_events,
)
from eventcast.model import SemanticSignature, SpikeRecord, utc_to_iso
from eventcast.reports import render_table

from .conftest import MONDAY, make_event

UTC = timezone.utc
DATA = Path(__file__).parent / "data"


def spike(network_id, start, minutes):
    return SpikeRecord(
        network_id=network_id, start=start,
        end=start + timedelta(minutes=minutes),
        peak_z=4.0, mean_z=3.0, duration_minutes=float(minutes),
    )


def event_at(event_id, when, likelihood=None, duration_hours=None, category=None,
             first_mentioned=None):
    return make_event(
        event_id=event_id,
        date=when.date().isoformat(),
        time=when.strftime("%H:%M"),
        first_mentioned_at=first_mentioned or (when - timedelta(days=3)),
        likelihood=likelihood,
        spike_duration_hours=duration_hours,
        category=category,
    )


# -- independent oracle: O(n*m) interval intersection --------------------------

def naive_matches(spikes, events, window_hours):
    found = set()
    for spike_record in spikes:
        for event in events:
            if event.event_time_utc is None:
                continue
            forward = max(event.spike_duration_hours or 0.0, window_hours)
            lo = event.event_time_utc - timedelta(hours=window_hours)
            hi = event.event_time_utc + timedelta(hours=forward)
            if spike_record.start <= hi and spike_record.end >= lo:
                found.add((spike_record.key(), event.event_id))
    return found


class TestMatching:
    def test_containment_match_and_offset(self):
        s = spike("net", datetime(2025, 7, 2, 20, 0, tzinfo=UTC), 120)
        e = event_at("evt-x", datetime(2025, 7, 2, 20, 45, tzinfo=UTC))
        matches = match_spikes_to_events([s], [e], window_hours=6)
        assert len(matches) == 1
        assert matches[0].time_offset_minutes == pytest.approx(45.0)
        assert 0.0 <= matches[0].match_score <= 1.0

    def test_event_days_away_no_match(self):
        s = spike("net", datetime(2025, 7, 5, 20, 0, tzinfo=UTC), 60)
        e = event_at("evt-x", datetime(2025, 7, 2, 20, 0, tzinfo=UTC))
        assert match_spikes_to_events([s], [e], window_hours=6) == []

    def test_predicted_duration_extends_forward_window(self):
        # event at 10:00 with 12h predicted duration still matches a spike
        # starting 10 hours later
        s = spike("net", datetime(2025, 7, 2, 20, 0, tzinfo=UTC), 30)
        e = event_at("evt-x", datetime(2025, 7, 2, 10, 0, tzinfo=UTC), duration_hours=12.0)
        matches = match_spikes_to_events([s], [e], window_hours=6)
        assert len(matches) == 1

    def test_multiple_matches_ranked_by_offset_then_likelihood(self):
        s = spike("net", datetime(2025, 7, 2, 20, 0, tzinfo=UTC), 60)
        near = event_at("evt-near", datetime(2025, 7, 2, 20, 30, tzinfo=UTC), likelihood=5)
        far = event_at("evt-far", datetime(2025, 7, 2, 23, 0, tzinfo=UTC), likelihood=9)
        tied_low = event_at("evt-low", datetime(2025, 7, 2, 19, 30, tzinfo=UTC), likelihood=2)
        matches = match_spikes_to_events([s], [far, tied_low, near], window_hours=6)
        assert [m.event_id for m in matches] == ["evt-near", "evt-low", "evt-far"]

    def test_likelihood_breaks_offset_ties(self):
        s = spike("net", datetime(2025, 7, 2, 20, 0, tzinfo=UTC), 60)
        a = event_at("evt-a", datetime(2025, 7, 2, 20, 30, tzinfo=UTC), likelihood=3)
        b = event_at("evt-b", datetime(2025, 7, 2, 19, 30, tzinfo=UTC), likelihood=8)
        matches = match_spikes_to_events([s], [a, b], window_hours=6)
        assert [m.event_id for m in matches] == ["evt-b", "evt-a"]

    def test_underivable_timestamps_excluded(self):
        s = spike("net", datetime(2025, 7, 2, 20, 0, tzinfo=UTC), 60)
        e = make_event(event_id="evt-u", date="2025-07-02", time="unknown")
        object.__setattr__(e, "event_time_utc", None)
        assert match_spikes_to_events([s], [e]) == []

    def test_matches_equal_brute_force_oracle(self):
        rng = random.Random(77)
        base = datetime(2025, 7, 1, tzinfo=UTC)
        spikes = [
            spike(f"net-{rng.randint(0, 2)}", base + timedelta(minutes=rng.randint(0, 7 * 1440)),
                  rng.randint(20, 240))
            for _ in range(40)
        ]
        events = [
            event_at(f"evt-{i}", base + timedelta(minutes=rng.randint(0, 7 * 1440)),
                     likelihood=rng.randint(0, 10),
                     duration_hours=rng.choice([None, 1.0, 8.0, 24.0]))
            for i in range(30)
        ]
        matches = match_spikes_to_events(spikes, events, window_hours=6)
        got = {(m.spike.key(), m.event_id) for m in matches}
        assert got == naive_matches(spikes, events, 6)


class TestCoverage:
    def test_ratio(self):
        spikes = [spike("net", MONDAY + timedelta(hours=i * 12), 60) for i in range(10)]
        events = [event_at(f"evt-{i}", spikes[i].start) for i in range(8)]
        matches = match_spikes_to_events(spikes, events, window_hours=1)
        report = coverage([(s, True) for s in spikes], matches)
        assert report.per_network["net"] == (8, 10, pytest.approx(0.8))
        assert report.overall == pytest.approx(0.8)

    def test_all_matched(self):
        spikes = [spike("net", MONDAY + timedelta(hours=i * 12), 60) for i in range(4)]
        events = [event_at(f"evt-{i}", s.start) for i, s in enumerate(spikes)]
        matches = match_spikes_to_events(spikes, events, window_hours=1)
        report = coverage([(s, True) for s in spikes], matches)
        assert report.overall == 1.0

    def test_network_without_event_driven_spikes_omitted(self):
        s1 = spike("net-a", MONDAY, 60)
        s2 = spike("net-b", MONDAY, 60)
        report = coverage([(s1, True), (s2, False)], [])
        assert "net-b" not in report.per_network
        assert report.omitted_networks == ("net-b",)

    def test_adding_event_never_decreases_coverage(self):
        spikes = [spike("net", MONDAY + timedelta(hours=i * 12), 60) for i in range(6)]
        labeled = [(s, True) for s in spikes]
        events = [event_at(f"evt-{i}", spikes[i].start) for i in range(3)]
        base = coverage(labeled, match_spikes_to_events(spikes, events, 1)).overall
        events.append(event_at("evt-extra", spikes[4].start))
        grown = coverage(labeled, match_spikes_to_events(spikes, events, 1)).overall
        assert grown >= base


class TestLeadTimeCdf:
    def test_empirical_cdf_points(self):
        when = datetime(2025, 7, 10, 12, 0, tzinfo=UTC)
        events = [
            event_at("e1", when, category="Sports", first_mentioned=when - timedelta(days=1)),
            event_at("e2", when, category="Sports", first_mentioned=when - timedelta(days=7)),
            event_at("e3", when, category="Sports", first_mentioned=when - timedelta(days=30)),
        ]
        cdfs = lead_time_cdf(events, min_category_count=1)
        cdf = cdfs["Sports"]
        assert cdf.lead_days == pytest.approx((1.0, 7.0, 30.0))
        assert cdf.cumulative_fraction == pytest.approx((1 / 3, 2 / 3, 1.0))

    def test_sparse_category_grouped_as_others(self):
        when = datetime(2025, 7, 10, 12, 0, tzinfo=UTC)
        events = [event_at(f"m{i}", when, category="Music") for i in range(2)]
        events += [event_at(f"s{i}", when, category="Sports") for i in range(3)]
        cdfs = lead_time_cdf(events, min_category_count=3)
        assert set(cdfs) == {"Sports", "Others"}
        assert len(cdfs["Others"].lead_days) == 2

    def test_negative_leads_bucketed_separately(self):
        when = datetime(2025, 7, 10, 12, 0, tzinfo=UTC)
        events = [
            event_at("late", when, category="Sports", first_mentioned=when + timedelta(days=1)),
            event_at("early", when, category="Sports", first_mentioned=when - timedelta(days=2)),
        ]
        cdf = lead_time_cdf(events, 1)["Sports"]
        assert cdf.negative_lead_count == 1
        assert cdf.lead_days == pytest.approx((2.0,))
        assert cdf.cumulative_fraction[-1] == 1.0

    def test_matches_sort_and_rank_oracle(self):
        rng = random.Random(31)
        when = datetime(2025, 7, 10, 12, 0, tzinfo=UTC)
        leads = [rng.uniform(0.1, 60.0) for _ in range(50)]
        events = [
            event_at(f"e{i}", when, category="Sports",
                     first_mentioned=when - timedelta(days=lead))
            for i, lead in enumerate(leads)
        ]
        cdf = lead_time_cdf(events, 1)["Sports"]
        expected = sorted(leads)
        assert cdf.lead_days == pytest.approx(tuple(expected))
        assert cdf.cumulative_fraction == pytest.approx(
            tuple((i + 1) / len(leads) for i in range(len(leads))))
        # non-decreasing, terminates at 1.0
        assert list(cdf.cumulative_fraction) == sorted(cdf.cumulative_fraction)
        assert cdf.cumulative_fraction[-1] == 1.0


def z_series(network_id, start, hours, value=0.5):
    n = hours * 12  # 5-minute steps
    return ZSeries(network_id=network_id, start=start, step_seconds=300,
                   z_values=tuple([value] * n))


def full_event(event_id="evt-f", when=None):
    when = when or datetime(2025, 7, 2, 19, 0, tzinfo=UTC)
    return make_event(
        event_id=event_id,
        date=when.date().isoformat(),
        time=when.strftime("%H:%M"),
        first_mentioned_at=when - timedelta(days=10),
        category="sports",
        entities=("velmora hawks", "drassen united"),
        platforms=("streamarena",),
        data_per_user_mb=1500,
        audience_size=2_000_000,
        continent_relevance={"EU": 0.9, "NA": 0.3},
        nation_relevance={"DE": 0.9},
        spike_duration_hours=2.0,
        likelihood=9,
        semantic_signature=SemanticSignature(levels=(10, 100), cluster_ids=(3, 42)),
    )


REGIONS = {"net-eu-1": {"country": "DE", "continent": "EU"}}


class TestExportFeatures:
    def test_schema_one_row_thirteen_feature_columns(self):
        event = full_event()
        z = z_series("net-eu-1", datetime(2025, 6, 30, tzinfo=UTC), hours=7 * 24)
        header, rows = export_features([event], {"net-eu-1": z}, REGIONS, levels=(10, 100))
        assert len(rows) == 1
        assert len(EVENT_FEATURE_COLUMNS) == 13
        assert header == (["network_id", "window_start", "window_end", "event_id"]
                          + list(EVENT_FEATURE_COLUMNS) + ["sig_k10", "sig_k100"]
                          + ["target_peak_z"])
        assert len(rows[0]) == len(header)
        row = dict(zip(header, rows[0]))
        assert row["continent_relevance"] == "0.9"
        assert row["nation_relevance"] == "0.9"
        assert row["sig_k10"] == "3" and row["sig_k100"] == "42"
        assert row["target_peak_z"] == "0.5"

    def test_event_columns_follow_inferable_specs(self):
        from eventcast.inference.fields import INFERABLE_SPECS
        assert EVENT_FEATURE_COLUMNS == (
            ("event_date", "event_time", "event_time_utc", "description")
            + tuple(spec.field_name for spec in INFERABLE_SPECS))
        z = z_series("net-eu-1", datetime(2025, 6, 30, tzinfo=UTC), hours=7 * 24)
        header, rows = export_features([full_event()], {"net-eu-1": z}, REGIONS,
                                       levels=(10, 100))
        row = dict(zip(header, rows[0]))
        # string_list cells join with "|"; scalar cells print as they are
        assert row["entities"] == "velmora hawks|drassen united"
        assert row["platforms"] == "streamarena"
        assert row["category"] == "sports"
        assert row["likelihood"] == "9"
        assert row["spike_duration_hours"] == "2.0"

    def test_window_width(self):
        event = full_event()
        header, rows = export_features([event], {}, REGIONS, levels=(10,), window_days=3)
        row = dict(zip(header, rows[0]))
        from eventcast.model import utc_from_iso
        width = utc_from_iso(row["window_end"]) - utc_from_iso(row["window_start"])
        assert width == timedelta(days=3)

    def test_future_window_has_absent_target(self):
        event = full_event(when=datetime(2025, 8, 30, 19, 0, tzinfo=UTC))
        z = z_series("net-eu-1", datetime(2025, 6, 30, tzinfo=UTC), hours=24)
        header, rows = export_features([event], {"net-eu-1": z}, REGIONS, levels=(10,))
        row = dict(zip(header, rows[0]))
        assert row["target_peak_z"] == ""

    def test_missing_signature_emits_empty_columns(self):
        event = full_event()
        object.__setattr__(event, "semantic_signature", None)
        header, rows = export_features([event], {}, REGIONS, levels=(10, 100))
        row = dict(zip(header, rows[0]))
        assert row["sig_k10"] == "" and row["sig_k100"] == ""

    def test_one_row_per_event_network_pair(self):
        regions = {"net-a": {"country": "DE", "continent": "EU"},
                   "net-b": {"country": "US", "continent": "NA"}}
        events = [full_event("evt-1"), full_event("evt-2")]
        header, rows = export_features(events, {}, regions, levels=(10,))
        pairs = {(r[0], r[3]) for r in rows}
        assert len(rows) == 4 and len(pairs) == 4

    def test_golden_csv(self):
        event = full_event()
        z = z_series("net-eu-1", datetime(2025, 6, 30, tzinfo=UTC), hours=7 * 24)
        header, rows = export_features([event], {"net-eu-1": z}, REGIONS, levels=(10, 100))
        rendered = render_table(header, rows, format="csv")
        expected = (DATA / "golden_features.csv").read_text(encoding="utf-8")
        assert rendered == expected

    def test_column_order_stable_across_runs(self):
        event = full_event()
        h1, r1 = export_features([event], {}, REGIONS, levels=(10,))
        h2, r2 = export_features([event], {}, REGIONS, levels=(10,))
        assert h1 == h2 and r1 == r2


# -- export_features against the per-(event, network) loop it replaced ---------------

def oracle_export_features(events, z_by_network, network_regions, levels, window_days=3,
                           networks=None):
    """The earlier export, which built and formatted every cell of every (event, network) row."""
    if networks is None:
        networks = sorted(set(z_by_network) | set(network_regions))
    half = timedelta(days=window_days) / 2
    rows = []
    for event in sorted(events, key=lambda e: (e.date, e.event_id)):
        if event.event_time_utc is None:
            continue
        signature = event.semantic_signature
        if signature is None or signature.levels != tuple(int(k) for k in levels):
            sig = [None] * len(levels)
        else:
            sig = list(signature.cluster_ids)
        win_start = event.event_time_utc - half
        win_end = event.event_time_utc + half
        for network_id in networks:
            region = network_regions.get(network_id, {})
            continent = region.get("continent", "")
            country = region.get("country", "")
            cont_rel = None
            if event.continent_relevance is not None:
                cont_rel = event.continent_relevance.get(continent, 0.0)
            nat_rel = None
            if event.nation_relevance is not None:
                nat_rel = event.nation_relevance.get(country, 0.0)
            features = {
                "event_date": event.date,
                "event_time": event.time,
                "event_time_utc": utc_to_iso(event.event_time_utc),
                "description": event.description,
                "category": event.category,
                "entities": "|".join(event.entities) if event.entities is not None else None,
                "platforms": "|".join(event.platforms) if event.platforms is not None else None,
                "data_per_user_mb": event.data_per_user_mb,
                "audience_size": event.audience_size,
                "continent_relevance": cont_rel,
                "nation_relevance": nat_rel,
                "spike_duration_hours": event.spike_duration_hours,
                "likelihood": event.likelihood,
            }
            target = _peak_z_in_window(z_by_network.get(network_id), win_start, win_end)
            rows.append(
                [network_id, utc_to_iso(win_start), utc_to_iso(win_end), event.event_id]
                + [_fmt(features[c]) for c in EVENT_FEATURE_COLUMNS]
                + [_fmt(s) for s in sig]
                + [_fmt(target)]
            )
    return feature_header(levels), rows


def oracle_export_events():
    base = datetime(2025, 7, 2, 19, 0, tzinfo=UTC)
    events = [full_event("evt-full", base)]
    unsigned = full_event("evt-unsigned", base + timedelta(hours=5))
    object.__setattr__(unsigned, "semantic_signature", None)
    events.append(unsigned)
    other_levels = full_event("evt-other-levels", base - timedelta(days=1))
    object.__setattr__(other_levels, "semantic_signature",
                       SemanticSignature(levels=(10, 1000), cluster_ids=(3, 7)))
    events.append(other_levels)
    events.append(make_event("evt-bare", date="2025-07-03", time="08:30"))  # relevances None
    no_nation = full_event("evt-no-nation", base + timedelta(days=2, minutes=7))
    object.__setattr__(no_nation, "nation_relevance", None)
    events.append(no_nation)
    events.append(make_event("evt-untimed", date="2025-07-02", time="unknown",
                             continent_relevance={"EU": 0.5}))
    return events


@pytest.mark.parametrize("networks", [None, ["net-unknown", "net-z-only", "net-eu-1"]])
@pytest.mark.parametrize("levels", [(10, 100), (10,)])
def test_export_matches_per_pair_oracle(levels, networks):
    rng = random.Random(5)
    start = datetime(2025, 6, 30, 0, 2, tzinfo=UTC)
    z = {
        "net-eu-1": ZSeries("net-eu-1", start, 300,
                            [rng.gauss(0.0, 2.0) if rng.random() > 0.1 else float("nan")
                             for _ in range(12 * 24 * 7)]),
        "net-z-only": ZSeries("net-z-only", start + timedelta(days=3), 60,
                              [rng.gauss(1.0, 1.0) for _ in range(60 * 24)]),
    }
    regions = {"net-eu-1": {"country": "DE", "continent": "EU"},
               "net-us": {"country": "US", "continent": "NA"},  # no z-series
               "net-no-country": {"continent": "EU"}}
    events = oracle_export_events()
    for window_days in (1, 3):
        got = export_features(events, z, regions, levels=levels, window_days=window_days,
                              networks=networks)
        want = oracle_export_features(events, z, regions, levels, window_days=window_days,
                                      networks=networks)
        assert got == want
    header, rows = got
    assert len(rows) == (len(events) - 1) * len(networks or ["net-eu-1", "net-z-only", "net-us",
                                                           "net-no-country"])
    assert {r[3] for r in rows} == {e.event_id for e in events} - {"evt-untimed"}
