from __future__ import annotations

import json
import random
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from eventcast.baseline import ZSeries
from eventcast.correlate import (
    EVENT_FEATURE_COLUMNS,
    SpikeEventMatch,
    _fmt,
    _peak_z_in_window,
    coverage,
    export_features,
    feature_header,
    label_spikes,
    lead_time_cdf,
    load_labels,
    match_spikes_to_events,
)
from eventcast.model import SemanticSignature, SpikeRecord, utc_from_iso, utc_to_iso
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


def keys_of(matches):
    return {m.spike.key() for m in matches}


class TestCoverage:
    def test_ratio(self):
        spikes = [spike("net", MONDAY + timedelta(hours=i * 12), 60) for i in range(10)]
        events = [event_at(f"evt-{i}", spikes[i].start) for i in range(8)]
        matches = match_spikes_to_events(spikes, events, window_hours=1)
        report = coverage([(s, True) for s in spikes], keys_of(matches))
        assert report.per_network["net"] == (8, 10, pytest.approx(0.8))
        assert report.overall == pytest.approx(0.8)

    def test_all_matched(self):
        spikes = [spike("net", MONDAY + timedelta(hours=i * 12), 60) for i in range(4)]
        events = [event_at(f"evt-{i}", s.start) for i, s in enumerate(spikes)]
        matches = match_spikes_to_events(spikes, events, window_hours=1)
        report = coverage([(s, True) for s in spikes], keys_of(matches))
        assert report.overall == 1.0

    def test_network_without_event_driven_spikes_omitted(self):
        s1 = spike("net-a", MONDAY, 60)
        s2 = spike("net-b", MONDAY, 60)
        report = coverage([(s1, True), (s2, False)], set())
        assert "net-b" not in report.per_network
        assert report.omitted_networks == ("net-b",)

    def test_adding_event_never_decreases_coverage(self):
        spikes = [spike("net", MONDAY + timedelta(hours=i * 12), 60) for i in range(6)]
        labeled = [(s, True) for s in spikes]
        events = [event_at(f"evt-{i}", spikes[i].start) for i in range(3)]
        base = coverage(labeled, keys_of(match_spikes_to_events(spikes, events, 1))).overall
        events.append(event_at("evt-extra", spikes[4].start))
        grown = coverage(labeled, keys_of(match_spikes_to_events(spikes, events, 1))).overall
        assert grown >= base


# -- oracle: the per-(spike, label) scan that parsed each label's bounds per pair --

def oracle_overlap_fraction(spike: SpikeRecord, start, end) -> float:
    lo = max(spike.start, start)
    hi = min(spike.end, end)
    length = (hi - lo).total_seconds()
    planted = (end - start).total_seconds()
    return max(0.0, length) / planted if planted > 0 else 0.0


def oracle_label_spikes(spikes, labels, matched_keys):
    labeled = []
    for spike in spikes:
        event_driven = any(
            label["network_id"] == spike.network_id
            and oracle_overlap_fraction(spike, utc_from_iso(label["start"]),
                                        utc_from_iso(label["end"])) > 0
            for label in labels
        )
        labeled.append((spike, event_driven))

    non_spont_total = non_spont_covered = 0
    spont_total = spont_matched = 0
    detected_planted = 0
    for label in labels:
        start, end = utc_from_iso(label["start"]), utc_from_iso(label["end"])
        overlapping = [
            s for s in spikes
            if s.network_id == label["network_id"] and oracle_overlap_fraction(s, start, end) > 0
        ]
        if overlapping:
            detected_planted += 1
        matched = any(s.key() in matched_keys for s in overlapping)
        if label.get("spontaneous"):
            spont_total += 1
            spont_matched += int(matched)
        elif not label.get("sub_threshold"):
            non_spont_total += 1
            non_spont_covered += int(matched)
    planted = {
        "planted_total": len(labels),
        "planted_detected": detected_planted,
        "non_spontaneous_total": non_spont_total,
        "non_spontaneous_covered": non_spont_covered,
        "non_spontaneous_coverage": (
            non_spont_covered / non_spont_total if non_spont_total else None
        ),
        "spontaneous_total": spont_total,
        "spontaneous_matched": spont_matched,
    }
    return labeled, planted


T0 = datetime(2024, 3, 4, tzinfo=UTC)


def _spike(network_id, start_min, minutes):
    return spike(network_id, T0 + timedelta(minutes=start_min), minutes)


def _label(network_id, start_min, minutes, **flags):
    start = T0 + timedelta(minutes=start_min)
    return {"network_id": network_id, "start": utc_to_iso(start),
            "end": utc_to_iso(start + timedelta(minutes=minutes)), **flags}


class TestLabelSpikes:
    def assert_same_as_oracle(self, spikes, labels, matched_keys):
        labeled, planted = label_spikes(spikes, labels, matched_keys)
        expected_labeled, expected_planted = oracle_label_spikes(spikes, labels, matched_keys)
        assert [(s.key(), flag) for s, flag in labeled] == \
            [(s.key(), flag) for s, flag in expected_labeled]
        assert all(a is b for (a, _), (b, _) in zip(labeled, expected_labeled))
        assert planted == expected_planted
        return labeled, planted

    def test_edges_across_networks(self):
        spikes = [_spike("a", 60, 30), _spike("b", 60, 30), _spike("b", 200, 10),
                  _spike("c", 0, 5), _spike("a", 300, 60)]
        labels = [
            _label("a", 90, 20),                      # starts exactly at a's first spike end
            _label("b", 30, 30),                      # ends exactly at b's first spike start
            _label("a", 70, 0),                       # zero length, inside a spike
            _label("a", 80, -15),                     # ends before it starts
            _label("b", 205, 60, spontaneous=True),   # overlaps b's matched second spike
            _label("a", 320, 5, sub_threshold=True),  # inside a's second spike
            _label("c", 1, 1),
            _label("d", 0, 600),                      # a network without spikes
            # at +01:00, over the last minute of a's second spike
            {"network_id": "a", "start": "2024-03-04T06:59:00+01:00",
             "end": "2024-03-04T07:01:00+01:00"},
        ]
        matched_keys = {spikes[2].key(), spikes[3].key()}
        labeled, planted = self.assert_same_as_oracle(spikes, labels, matched_keys)
        assert [flag for _, flag in labeled] == [False, False, True, True, True]
        assert planted == {
            "planted_total": 9, "planted_detected": 4, "non_spontaneous_total": 7,
            "non_spontaneous_covered": 1, "non_spontaneous_coverage": 1 / 7,
            "spontaneous_total": 1, "spontaneous_matched": 1,
        }

    def test_no_labels_or_no_spikes(self):
        spikes = [_spike("a", 0, 10)]
        self.assert_same_as_oracle(spikes, [], set())
        self.assert_same_as_oracle([], [_label("a", 0, 10), _label("a", 5, 0)], set())

    @pytest.mark.parametrize("seed", range(20))
    def test_random_grid_matches_oracle(self, seed):
        # a coarse 5-minute grid makes touching and zero-length intervals common
        rng = random.Random(seed)
        networks = ["n0", "n1", "n2", "n3"]
        spikes = [_spike(rng.choice(networks), 5 * rng.randrange(60), 5 * rng.randint(1, 6))
                  for _ in range(rng.randrange(25))]
        flags = [{}, {"spontaneous": True}, {"sub_threshold": True}]
        labels = [_label(rng.choice(networks), 5 * rng.randrange(60), 5 * rng.randrange(5),
                         **rng.choice(flags))
                  for _ in range(rng.randrange(15))]
        matched_keys = {s.key() for s in spikes if rng.random() < 0.4}
        self.assert_same_as_oracle(spikes, labels, matched_keys)

    def test_default_run_matches_oracle(self, default_run):
        _, config, report = default_run
        out = Path(config.out_dir)
        spikes = [SpikeRecord.from_dict(json.loads(line))
                  for line in (out / "spikes.jsonl").read_text().splitlines()]
        matched_keys = {SpikeEventMatch.from_dict(json.loads(line)).spike.key()
                        for line in (out / "matches.jsonl").read_text().splitlines()}
        labels = load_labels(config.labels_path)
        assert labels and matched_keys
        _, planted = self.assert_same_as_oracle(spikes, labels, matched_keys)
        assert planted == report["stages"]["report"]["planted"]

    def test_first_malformed_label_in_file_order_fails(self):
        spikes = [_spike("a", 0, 10)]
        good = _label("a", 0, 10)
        with pytest.raises(KeyError):
            label_spikes(spikes, [good, {"network_id": "b", "end": good["end"]},
                                  {**good, "start": "not a time"}], set())
        with pytest.raises(ValueError, match="not a time"):
            label_spikes(spikes, [good, {**good, "start": "not a time"},
                                  {"network_id": "b", "end": good["end"]}], set())


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

def oracle_export_features(events, z_by_network, network_regions, levels, window_days=3):
    """The earlier export, which built and formatted every cell of every (event, network) row."""
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


@pytest.mark.parametrize("levels", [(10, 100), (10,)])
def test_export_matches_per_pair_oracle(levels):
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
        got = export_features(events, z, regions, levels=levels, window_days=window_days)
        want = oracle_export_features(events, z, regions, levels, window_days=window_days)
        assert got == want
    header, rows = got
    # one row per timed event and per network with a Z series or a region
    assert len(rows) == (len(events) - 1) * 4
    assert sorted({r[0] for r in rows}) == ["net-eu-1", "net-no-country", "net-us", "net-z-only"]
    assert {r[3] for r in rows} == {e.event_id for e in events} - {"evt-untimed"}
