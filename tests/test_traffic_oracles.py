"""The array traffic layer against the per-sample loops it replaced.

Each ``oracle_*`` function below is the earlier implementation, which
stepped a ``datetime`` through the series one sample at a time. They are
kept here as references only; every comparison is exact.
"""

from __future__ import annotations

import csv
import math
import random
from datetime import timedelta

import numpy as np
import pytest

from eventcast.baseline import (
    STD_EPS,
    ConfigError,
    UnpopulatedBinsError,
    ZSeries,
    fit_baseline,
    read_traffic_csv,
    write_traffic_csv,
    zscore_series,
)
from eventcast.correlate import _peak_z_in_window
from eventcast.model import utc_to_iso

from .conftest import MONDAY, make_series

# -- the per-sample references ------------------------------------------------


def oracle_slot(ts, bin_minutes):
    return ts.weekday(), (ts.hour * 60 + ts.minute) // bin_minutes


def oracle_fit_stats(series, window_weeks, bin_minutes):
    per_slot = {}  # slot -> day ordinal -> samples
    ts = series.start
    step = timedelta(seconds=series.step_seconds)
    for v in series.values.tolist():
        if not math.isnan(v):
            slot = oracle_slot(ts, bin_minutes)
            per_slot.setdefault(slot, {}).setdefault(ts.date().toordinal(), []).append(v)
        ts = ts + step
    stats = {}
    for slot, by_day in per_slot.items():
        trailing_days = sorted(by_day)[-window_weeks:]
        pooled = np.array([v for d in trailing_days for v in by_day[d]], dtype=float)
        stats[slot] = (float(pooled.mean()), float(pooled.std()), int(pooled.size))
    return stats


def oracle_zscore(model, series, std_floor_fraction):
    """The z values, or the sorted list of missing slots."""
    ts = series.start
    step = timedelta(seconds=series.step_seconds)
    slots, missing = [], set()
    for _ in range(len(series)):
        slot = oracle_slot(ts, model.bin_minutes)
        slots.append(slot)
        if slot not in model.stats:
            missing.add(slot)
        ts = ts + step
    if missing:
        return sorted(missing)
    z = []
    for v, slot in zip(series.values.tolist(), slots):
        if math.isnan(v):
            z.append(float("nan"))
            continue
        mean, std, _ = model.stats[slot]
        z.append((v - mean) / max(std, std_floor_fraction * mean, STD_EPS))
    return z


def oracle_peak(z, win_start, win_end):
    step = timedelta(seconds=z.step_seconds)
    series_end = z.start + step * len(z.z_values)
    if win_end < z.start or win_start > series_end:
        return None
    peak = None
    ts = z.start
    for value in z.z_values.tolist():
        if win_start <= ts <= win_end and not math.isnan(value):
            peak = value if peak is None else max(peak, value)
        ts = ts + step
    return peak


def oracle_write_csv(path, series_list):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp_utc", "network_id", "bits_per_second"])
        for series in series_list:
            ts = series.start
            step = timedelta(seconds=series.step_seconds)
            for v in series.values.tolist():
                writer.writerow([utc_to_iso(ts), series.network_id,
                                 "" if math.isnan(v) else repr(v)])
                ts = ts + step


# -- inputs ---------------------------------------------------------------------

def noisy_series(weeks, step_seconds=300, start=MONDAY, seed=0, nan_share=0.0,
                 nan_days=(), network_id="net-test"):
    """Weekly-seasonal noise with scattered NaN samples and whole NaN days."""
    rng = random.Random(seed)
    n = int(weeks * 7 * 86400 // step_seconds)
    values = [abs(rng.gauss(1000.0 + 300.0 * math.sin(i / 40.0), 250.0)) for i in range(n)]
    per_day = 86400 // step_seconds
    for i in range(n):
        if rng.random() < nan_share or i // per_day in nan_days:
            values[i] = float("nan")
    return make_series(values, start=start, step_seconds=step_seconds, network_id=network_id)


FIT_CASES = {
    # name: (series, window_weeks, bin_minutes)
    "four_weeks_exact": (noisy_series(4, seed=1), 4, 5),
    "nan_samples_and_days": (noisy_series(6, seed=2, nan_share=0.05,
                                          nan_days=(0, 7, 8, 35, 41)), 4, 5),
    "history_longer_than_window": (noisy_series(7, seed=3), 3, 5),
    "step_60_bins_5_pools_of_20": (noisy_series(5, step_seconds=60, seed=4, nan_share=0.01), 4, 5),
    "start_off_midnight_with_seconds": (
        noisy_series(5, start=MONDAY + timedelta(hours=7, minutes=3, seconds=17), seed=5,
                     nan_days=(9,)), 4, 15),
    "start_with_microseconds": (
        noisy_series(5, step_seconds=90, seed=6,
                     start=MONDAY + timedelta(hours=23, seconds=59, microseconds=500_000)), 2, 10),
    "step_30_bins_60_pools_of_480": (noisy_series(4, step_seconds=30, seed=7), 4, 60),
    "window_of_one_week": (noisy_series(3, seed=8, nan_share=0.3), 1, 30),
}


# -- fit_baseline -----------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(FIT_CASES))
def test_fit_matches_per_sample_oracle(name):
    series, window_weeks, bin_minutes = FIT_CASES[name]
    model = fit_baseline(series, window_weeks=window_weeks, bin_minutes=bin_minutes)
    assert model.stats == oracle_fit_stats(series, window_weeks, bin_minutes)


def test_fit_skips_days_without_data():
    # six weeks, window 4: the NaN Mondays of weeks 5 and 6 leave weeks 1-4 in the
    # Monday slots, while every other slot pools weeks 3-6
    per_day = 288
    values = [float(week + 1) for week in range(6) for _ in range(7 * per_day)]
    for week in (4, 5):
        values[week * 7 * per_day:(week * 7 + 1) * per_day] = [float("nan")] * per_day
    model = fit_baseline(make_series(values), window_weeks=4, bin_minutes=5)
    assert model.stats[(0, 0)] == (2.5, float(np.std([1.0, 2.0, 3.0, 4.0])), 4)
    assert model.stats[(1, 0)] == (4.5, float(np.std([3.0, 4.0, 5.0, 6.0])), 4)


# -- zscore_series ----------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(FIT_CASES))
def test_zscore_matches_per_sample_oracle(name):
    series, window_weeks, bin_minutes = FIT_CASES[name]
    model = fit_baseline(series, window_weeks=window_weeks, bin_minutes=bin_minutes)
    for fraction in (0.05, 0.0, 0.5):
        z = zscore_series(model, series, std_floor_fraction=fraction)
        expected = oracle_zscore(model, series, fraction)
        np.testing.assert_array_equal(z.z_values, np.array(expected))
        assert not z.z_values.flags.writeable


def test_zscore_lists_the_same_missing_slots_as_the_oracle():
    history = noisy_series(2, seed=9, nan_days=(3, 10))  # no Thursday has data
    model = fit_baseline(history, window_weeks=2, bin_minutes=5)
    scored = noisy_series(1, seed=10, start=MONDAY + timedelta(days=14, seconds=30))
    with pytest.raises(UnpopulatedBinsError) as err:
        zscore_series(model, scored)
    assert err.value.missing == oracle_zscore(model, scored, 0.05)
    assert len(err.value.missing) == 288


# -- window peak --------------------------------------------------------------------

def peak_windows(z, rng, count):
    """Windows on sample times, between them, overlapping either end, and outside."""
    step = timedelta(seconds=z.step_seconds)
    span = step * len(z)
    yield z.start, z.start
    yield z.time_at(len(z) - 1), z.time_at(len(z) - 1)
    yield z.time_at(3), z.time_at(9)
    yield z.time_at(3) + timedelta(microseconds=1), z.time_at(9) - timedelta(microseconds=1)
    yield z.time_at(3) + timedelta(seconds=1), z.time_at(4) - timedelta(seconds=1)
    yield z.start - span, z.start - step  # wholly before
    yield z.start + span, z.start + 2 * span  # wholly after, from one step past the end
    yield z.start - span, z.start + 2 * span  # covers everything
    yield z.start - span, z.time_at(5)  # partly before
    yield z.time_at(len(z) - 5), z.start + 2 * span  # partly after
    for _ in range(count):
        a = z.start + timedelta(seconds=rng.uniform(-0.3, 1.3) * span.total_seconds())
        if rng.random() < 0.5:
            a = z.time_at(rng.randrange(-5, len(z) + 5))
        b = a + timedelta(seconds=rng.uniform(0.0, 0.4) * span.total_seconds())
        yield a, b


@pytest.mark.parametrize("step_seconds,start", [
    (300, MONDAY),
    (60, MONDAY + timedelta(seconds=7)),
    (90, MONDAY + timedelta(hours=5, microseconds=250)),
])
def test_window_peak_matches_per_sample_oracle(step_seconds, start):
    rng = random.Random(step_seconds)
    values = [rng.gauss(0.0, 2.0) for _ in range(500)]
    for i in range(100, 160):
        values[i] = float("nan")  # a window can hold only missing samples
    z = ZSeries("net-test", start, step_seconds, values)
    checked = 0
    for win_start, win_end in peak_windows(z, rng, 300):
        assert _peak_z_in_window(z, win_start, win_end) == oracle_peak(z, win_start, win_end)
        checked += 1
    assert _peak_z_in_window(z, z.time_at(110), z.time_at(150)) is None
    assert _peak_z_in_window(None, z.start, z.start) is None
    assert checked == 310


# -- traffic CSV ----------------------------------------------------------------------

CSV_SERIES = [
    make_series([1e6, float("nan"), 2.5e-7, 1e17, 123456789.0, 0.0],
                step_seconds=300, network_id="net-a"),
    make_series([3.25, 4.5, float("nan")], start=MONDAY + timedelta(hours=1, seconds=13),
                step_seconds=90, network_id="net, quoted"),
    make_series([7.0, 8.0], start=MONDAY + timedelta(microseconds=120_000),
                step_seconds=1, network_id="net-us"),
    noisy_series(1, seed=11, nan_share=0.02, network_id="net-week"),
]


def test_csv_bytes_match_per_sample_oracle(tmp_path):
    write_traffic_csv(tmp_path / "new.csv", CSV_SERIES)
    oracle_write_csv(tmp_path / "oracle.csv", CSV_SERIES)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def test_csv_round_trip_sorts_rows_per_network(tmp_path):
    path = tmp_path / "traffic.csv"
    write_traffic_csv(path, CSV_SERIES)
    header, *rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
    random.Random(12).shuffle(rows)
    path.write_text(header + "".join(rows), encoding="utf-8")
    loaded = read_traffic_csv(path)
    assert sorted(loaded) == sorted(s.network_id for s in CSV_SERIES)
    for series in CSV_SERIES:
        again = loaded[series.network_id]
        assert (again.start, again.step_seconds) == (series.start, series.step_seconds)
        np.testing.assert_array_equal(again.values, series.values)
        assert not again.values.flags.writeable


def _write_rows(path, rows):
    path.write_text("timestamp_utc,network_id,bits_per_second\n"
                    + "".join(r + "\n" for r in rows), encoding="utf-8")


def test_csv_rejects_row_with_missing_column(tmp_path):
    path = tmp_path / "traffic.csv"
    _write_rows(path, ["2025-06-02T00:00:00Z,net-a,1.0", "2025-06-02T00:05:00Z,net-a"])
    with pytest.raises(ConfigError, match="line 3"):
        read_traffic_csv(path)


def test_csv_rejects_fractional_step(tmp_path):
    path = tmp_path / "traffic.csv"
    _write_rows(path, ["2025-06-02T00:00:00Z,net-a,1.0", "2025-06-02T00:01:30.500000Z,net-a,2.0",
                       "2025-06-02T00:03:01Z,net-a,3.0"])
    with pytest.raises(ConfigError, match="network net-a: step of 90.5 s"):
        read_traffic_csv(path)


def test_csv_rejects_duplicate_timestamp(tmp_path):
    path = tmp_path / "traffic.csv"
    _write_rows(path, ["2025-06-02T00:00:00Z,net-a,1.0", "2025-06-02T00:00:00Z,net-a,2.0"])
    with pytest.raises(ConfigError, match="network net-a: duplicate timestamp 2025-06-02T00:00:00Z"):
        read_traffic_csv(path)


def test_csv_rejects_unparsable_value(tmp_path):
    path = tmp_path / "traffic.csv"
    _write_rows(path, ["2025-06-02T00:00:00Z,net-a,1.0", "2025-06-02T00:05:00Z,net-a,fast"])
    with pytest.raises(ConfigError, match="line 3"):
        read_traffic_csv(path)
