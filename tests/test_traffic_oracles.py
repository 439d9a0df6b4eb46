"""The array traffic layer against the per-sample loops it replaced.

Each ``oracle_*`` function below is the earlier implementation, which
stepped a ``datetime`` through the series one sample at a time, or read
the traffic CSV one ``csv`` row at a time. They are kept here as
references only; every comparison is exact.
"""

from __future__ import annotations

import csv
import json
import math
import random
from array import array
from collections import defaultdict
from datetime import timedelta

import numpy as np
import pytest

from eventcast import baseline
from eventcast.baseline import (
    EPOCH,
    STD_EPS,
    BaselineModel,
    ConfigError,
    UnpopulatedBinsError,
    ZSeries,
    fit_baseline,
    read_traffic_csv,
    write_traffic_csv,
    _parse_block,
    zscore_series,
)
from eventcast.correlate import _peak_z_in_window
from eventcast.model import TrafficSeries, utc_from_iso, utc_to_iso

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


def oracle_read_csv(path):
    """The per-row reader. It let a negative or infinite value, and an empty
    network id, through to ``TrafficSeries``, which rejects them by sample index."""
    one_us = timedelta(microseconds=1)
    parsed = {}  # timestamp text -> epoch microseconds
    columns = defaultdict(lambda: (array("q"), array("d")))
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["timestamp_utc", "network_id", "bits_per_second"]:
            raise ConfigError(
                f"traffic CSV header must be timestamp_utc,network_id,bits_per_second, got {header}"
            )
        for row in filter(None, reader):  # skips blank lines
            try:
                stamp_text, network_id, raw = row
                stamp = parsed.get(stamp_text)
                if stamp is None:
                    stamp = parsed[stamp_text] = (utc_from_iso(stamp_text) - EPOCH) // one_us
                value = float(raw) if raw.strip() else math.nan
            except ValueError as exc:
                raise ConfigError(f"traffic CSV line {reader.line_num}: {exc}") from None
            stamps, values = columns[network_id]
            stamps.append(stamp)
            values.append(value)

    out = {}
    for network_id, (stamps, values) in columns.items():
        if len(stamps) < 2:
            raise ConfigError(f"network {network_id}: need at least 2 samples")
        stamps = np.frombuffer(stamps, dtype=np.int64)
        order = np.argsort(stamps, kind="stable")
        stamps = stamps[order]
        steps = np.diff(stamps)
        repeated = np.flatnonzero(steps == 0)
        if repeated.size:
            raise ConfigError(f"network {network_id}: duplicate timestamp "
                              f"{utc_to_iso(EPOCH + int(stamps[repeated[0]]) * one_us)}")
        uneven = np.flatnonzero(steps != steps[0])
        if uneven.size:
            raise ConfigError(f"network {network_id}: non-uniform step near "
                              f"{utc_to_iso(EPOCH + int(stamps[uneven[0] + 1]) * one_us)}")
        step_seconds, fraction = divmod(int(steps[0]), 1_000_000)
        if fraction:
            raise ConfigError(f"network {network_id}: step of {steps[0] / 1e6} s is not "
                              "a whole number of seconds")
        out[network_id] = TrafficSeries(
            network_id=network_id,
            start=EPOCH + int(stamps[0]) * one_us,
            step_seconds=step_seconds,
            values=np.frombuffer(values, dtype=np.float64)[order],
        )
    return out


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

GAPPY_CASES = {
    # name: (series, window_weeks, bin_minutes); each leaves some slots unpopulated
    "no_thursday": (noisy_series(2, seed=9, nan_days=(3, 10)), 2, 5),
    "sparse_samples": (noisy_series(3, seed=13, nan_share=0.9), 2, 5),
    "sparse_samples_bins_of_20": (noisy_series(5, step_seconds=600, seed=14, nan_share=0.93),
                                  3, 20),
    "nine_weeks_gappy_window_4": (noisy_series(9, seed=15, nan_share=0.5,
                                               nan_days=(5, 12, 19, 26, 33, 40, 47, 54, 61)),
                                  4, 10),
}

ALL_FIT_CASES = {**FIT_CASES, **GAPPY_CASES}


# -- fit_baseline -----------------------------------------------------------------

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


def oracle_arrays(stats, bin_minutes):
    """The oracle's stats as slot-indexed (mean, std, count) arrays; 0 where unpopulated."""
    bins = 1440 // bin_minutes
    mean, std, count = np.zeros(7 * bins), np.zeros(7 * bins), np.zeros(7 * bins, np.int64)
    for (weekday, bin_), (m, sd, c) in stats.items():
        slot = weekday * bins + bin_
        mean[slot], std[slot], count[slot] = m, sd, c
    return mean, std, count


def assert_same_arrays(model, mean, std, count):
    for got, want in ((model.mean, mean), (model.std, std), (model.count, count)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert not got.flags.writeable


@pytest.mark.parametrize("name", sorted(ALL_FIT_CASES))
def test_fit_matches_per_sample_oracle(name):
    series, window_weeks, bin_minutes = ALL_FIT_CASES[name]
    model = fit_baseline(series, window_weeks=window_weeks, bin_minutes=bin_minutes)
    stats = oracle_fit_stats(series, window_weeks, bin_minutes)
    assert model.stats == stats
    assert_same_arrays(model, *oracle_arrays(stats, bin_minutes))
    assert (name in GAPPY_CASES) == (len(stats) < 7 * 1440 // bin_minutes)


@pytest.mark.parametrize("name", sorted(ALL_FIT_CASES))
def test_dict_round_trip_gives_identical_arrays(name):
    series, window_weeks, bin_minutes = ALL_FIT_CASES[name]
    model = fit_baseline(series, window_weeks=window_weeks, bin_minutes=bin_minutes)
    again = BaselineModel.from_dict(json.loads(json.dumps(model.to_dict())))
    assert (again.network_id, again.bin_minutes, again.window_weeks) == (
        model.network_id, model.bin_minutes, model.window_weeks)
    assert_same_arrays(again, model.mean, model.std, model.count)
    assert again.stats == model.stats


def test_hand_built_model_names_the_first_bad_slot():
    good = (100.0, 10.0, 4)
    for bad, message in [((100.0, 10.0, 0), "count must be >= 1 and std >= 0"),
                         ((100.0, -1.0, 4), "count must be >= 1 and std >= 0"),
                         ((100.0, 10.0, -2), "count must be >= 1 and std >= 0")]:
        stats = {(3, 5): good, (2, 7): bad, (0, 1): bad, (6, 287): good}
        with pytest.raises(ConfigError, match=rf"^slot \(2, 7\): {message}$"):
            BaselineModel.from_stats("net-test", 5, 4, stats)
    for slot in [(7, 0), (0, 288), (-1, 3), (2, -1)]:
        with pytest.raises(ConfigError, match=rf"^slot \({slot[0]}, {slot[1]}\): outside"):
            BaselineModel.from_stats("net-test", 5, 4, {(0, 0): good, slot: good})
    with pytest.raises(ConfigError, match="bin_minutes=7 must be a positive divisor of 1440"):
        BaselineModel.from_stats("net-test", 7, 4, {(0, 0): good})


def test_array_model_names_the_first_bad_slot():
    mean, std, count = np.full(2016, 5.0), np.ones(2016), np.full(2016, 4)
    std[[7, 300]] = -1.0
    count[7] = 0  # an unpopulated slot's std is not checked
    with pytest.raises(ConfigError, match=r"^slot \(1, 12\): count must be >= 0"):
        BaselineModel("net-test", 5, 4, mean, std, count)
    count[2015] = -1
    std[300] = 1.0
    with pytest.raises(ConfigError, match=r"^slot \(6, 287\): count must be >= 0"):
        BaselineModel("net-test", 5, 4, mean, std, count)
    with pytest.raises(ConfigError, match=r"^mean must hold 2016 slots, got shape \(288,\)"):
        BaselineModel("net-test", 5, 4, mean[:288], std, count)
    count[2015] = 0
    model = BaselineModel("net-test", 5, 4, mean, std, count)
    count[0] = 0  # the model holds its own read-only copies
    assert model.count[0] == 4 and not model.count.flags.writeable
    assert len(model.stats) == 2014 and (0, 7) not in model.stats


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


@pytest.mark.parametrize("name", sorted(GAPPY_CASES))
def test_zscore_lists_the_oracle_missing_slots_of_gappy_fits(name):
    series, window_weeks, bin_minutes = GAPPY_CASES[name]
    model = fit_baseline(series, window_weeks=window_weeks, bin_minutes=bin_minutes)
    for offset in (timedelta(0), timedelta(days=3, seconds=90)):
        scored = noisy_series(1, seed=16, start=series.start + offset)
        with pytest.raises(UnpopulatedBinsError) as err:
            zscore_series(model, scored)
        assert err.value.missing == oracle_zscore(model, scored, 0.05)
        assert err.value.missing == sorted(err.value.missing)


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


# -- the block parser against the per-row reader ----------------------------------------

def assert_same_series(got, want):
    assert list(got) == list(want)  # networks in order of first appearance
    for network_id, series in want.items():
        again = got[network_id]
        assert (again.start, again.step_seconds) == (series.start, series.step_seconds)
        np.testing.assert_array_equal(again.values, series.values)  # NaN equals NaN
        assert not again.values.flags.writeable


def writer_lines(series_list, tmp_path):
    """The header and the rows that write_traffic_csv writes, each with its CRLF."""
    write_traffic_csv(tmp_path / "writer.csv", series_list)
    return (tmp_path / "writer.csv").read_bytes().decode("utf-8").splitlines(keepends=True)


BLOCK_SERIES = [noisy_series(0.5, seed=20 + i, nan_share=0.05, network_id=f"net-{i}")
                for i in range(3)]  # 3 x 1008 rows


def _shuffled(lines, rng):
    rows = lines[1:]
    rng.shuffle(rows)
    return lines[:1] + rows


def _interleaved(lines, rng):
    per_network = len(lines[1:]) // len(BLOCK_SERIES)
    rows = [lines[1 + k * per_network:1 + (k + 1) * per_network] for k in range(len(BLOCK_SERIES))]
    return lines[:1] + [row for group in zip(*rows) for row in group]


def _line_ends_and_blank_lines(lines, rng):
    out = []
    for line in lines:
        out.append(line.rstrip("\r\n") + rng.choice(["\n", "\r\n"]))
        if rng.random() < 0.05:
            out.append(rng.choice(["\n", "\r\n"]))
    out[-1] = out[-1].rstrip("\r\n")  # no line end after the last row
    return out


VALUE_SPELLINGS = [" ", "\t", "  \t ", "1e5", "2.5E-3", "0.12345678901234567",
                   "12345678901234567", "nan", "NaN", "1_0", " 12.5 ", "+3", "-0.0", "7."]


def _value_spellings(lines, rng):
    out = lines[:1]
    for line in lines[1:]:
        stamp, network_id, _ = line.rstrip("\r\n").split(",")
        out.append(f"{stamp},{network_id},{rng.choice(VALUE_SPELLINGS)}\r\n")
    return out


def _timestamps_off_shape(lines, rng):
    out = list(lines)
    for i in range(len(out) // 2, len(out), 7):  # past the first blocks
        stamp, rest = out[i].split(",", 1)
        moved = utc_from_iso(stamp) + timedelta(hours=2)
        out[i] = rng.choice([stamp[:-1] + ".000000Z", moved.strftime("%Y-%m-%dT%H:%M:%S+02:00")]
                            ) + "," + rest
    return out


def _quoted_network_id(lines, rng):
    return lines + [line.replace(",net-0,", ',"net, quoted",') for line in lines
                    if ",net-0," in line]


def _quoted_network_ids(lines, rng):
    out = list(lines)
    for i in range(len(out) // 2, len(out), 5):
        stamp, network_id, value = out[i].rstrip("\r\n").split(",")
        out[i] = f'{stamp},"{network_id}",{value}\r\n'
    return out


def _cr_line_ends(lines, rng):
    return [line.rstrip("\r\n") + "\r" for line in lines]


CSV_CASES = {
    # name: (edit of the writer's lines, the least number of lines read before the
    # per-row loop takes over, or None when the block parser reads every line)
    "writer_output": (lambda lines, rng: lines, None),
    "shuffled": (_shuffled, None),
    "interleaved": (_interleaved, None),
    "lf_crlf_and_blank_lines": (_line_ends_and_blank_lines, None),
    "value_spellings": (_value_spellings, None),
    "timestamps_with_microseconds_or_offsets": (_timestamps_off_shape, 1400),
    "quoted_network_id_with_a_comma": (_quoted_network_id, 2900),
    "quoted_network_ids": (_quoted_network_ids, 1400),
    "cr_line_ends": (_cr_line_ends, 0),
}


@pytest.fixture
def row_loop_starts(monkeypatch):
    """The line counts after which the per-row loop took over, one per read."""
    starts = []
    read_rows = baseline._read_rows

    def spy(fh, lines_before, parts):
        starts.append(lines_before)
        return read_rows(fh, lines_before, parts)

    monkeypatch.setattr(baseline, "_read_rows", spy)
    return starts


@pytest.mark.parametrize("block_size", [97, 4096])
@pytest.mark.parametrize("name", sorted(CSV_CASES))
def test_csv_reader_matches_per_row_oracle(name, block_size, tmp_path, monkeypatch,
                                           row_loop_starts):
    monkeypatch.setattr(baseline, "CSV_READ_BLOCK", block_size)
    edit, block_lines = CSV_CASES[name]
    path = tmp_path / "traffic.csv"
    lines = edit(writer_lines(BLOCK_SERIES, tmp_path), random.Random(name))
    path.write_bytes("".join(lines).encode())
    assert path.stat().st_size >= 3 * block_size
    assert_same_series(read_traffic_csv(path), oracle_read_csv(path))
    if block_lines is None:
        assert row_loop_starts == []
    else:  # from the block holding the first line that needs it
        [lines_before] = row_loop_starts
        assert lines_before >= block_lines


def test_csv_reader_matches_oracle_on_three_full_blocks(tmp_path, row_loop_starts):
    path = tmp_path / "traffic.csv"
    write_traffic_csv(path, [noisy_series(4, seed=40 + i, nan_share=0.02, network_id=f"net-{i}")
                             for i in range(3)])
    assert path.stat().st_size >= 3 * baseline.CSV_READ_BLOCK
    assert_same_series(read_traffic_csv(path), oracle_read_csv(path))
    assert row_loop_starts == []


MALFORMED_ROWS = {
    "missing_column": "2025-06-02T00:00:00Z,net-0",
    "extra_column": "2025-06-02T00:00:00Z,net-0,1.0,2.0",
    "month_13": "2025-13-02T00:00:00Z,net-0,1.0",
    "day_out_of_month": "2025-02-29T00:00:00Z,net-0,1.0",
    "year_0": "0000-01-01T00:00:00Z,net-0,1.0",
    "naive_timestamp": "2025-06-02T00:00:00,net-0,1.0",
    "not_a_timestamp": "yesterday,net-0,1.0",
    "unparsable_value": "2025-06-02T00:00:00Z,net-0,fast",
    "value_with_a_comma": '2025-06-02T00:00:00Z,net-0,"1,5"',
    "nul_byte": "2025-06-02T00:00:00Z,net-0,1.0\0",
    "lone_cr_in_network_id": "2025-06-02T00:00:00Z,net-0\rx,1.0",
}


@pytest.mark.parametrize("newline", ["\r\n", "\n"])
@pytest.mark.parametrize("kind", sorted(MALFORMED_ROWS))
def test_malformed_row_past_the_first_block_raises_the_oracle_error(kind, newline, tmp_path,
                                                                       monkeypatch):
    monkeypatch.setattr(baseline, "CSV_READ_BLOCK", 4096)
    lines = [line.rstrip("\r\n") + newline for line in writer_lines(BLOCK_SERIES, tmp_path)]
    bad_line = 1500  # 1-based line number
    lines.insert(bad_line - 1, MALFORMED_ROWS[kind] + newline)
    path = tmp_path / "traffic.csv"
    path.write_text("".join(lines), encoding="utf-8", newline="")
    assert sum(map(len, lines[:bad_line])) > 3 * 4096
    with pytest.raises(Exception) as want:
        oracle_read_csv(path)
    with pytest.raises(want.type) as got:
        read_traffic_csv(path)
    assert str(got.value) == str(want.value)
    if want.type is ConfigError:
        assert str(got.value).startswith(f"traffic CSV line {bad_line}: ")


@pytest.mark.parametrize("row,message", [
    ("2025-06-02T00:10:00Z,net-0,-2.0", "bits_per_second '-2.0' must be finite and >= 0"),
    ("2025-06-02T00:10:00Z,net-0,inf", "bits_per_second 'inf' must be finite and >= 0"),
    ("2025-06-02T00:10:00Z,net-0,-1e400", "bits_per_second '-1e400' must be finite and >= 0"),
    ("2025-06-02T00:10:00Z,,1.0", "empty network_id"),
])
@pytest.mark.parametrize("bad_line", [3, 1500])
def test_csv_rejects_negative_infinite_value_and_empty_network_by_line(row, message, bad_line,
                                                                        tmp_path, monkeypatch):
    monkeypatch.setattr(baseline, "CSV_READ_BLOCK", 4096)
    lines = writer_lines(BLOCK_SERIES, tmp_path)
    lines.insert(bad_line - 1, row + "\r\n")
    path = tmp_path / "traffic.csv"
    path.write_text("".join(lines), encoding="utf-8", newline="")
    with pytest.raises(ConfigError) as err:
        read_traffic_csv(path)
    assert str(err.value) == f"traffic CSV line {bad_line}: {message}"


# -- the casts the block parser relies on -----------------------------------------------

CAST_SPELLINGS = VALUE_SPELLINGS + [
    "1", ".5", "1e", "e5", ".", "+", "1.5.5", "1 5", "--1", "0x10", "1__0", "_1", "1_",
    "4.9406564584124654e-324", "2.2250738585072011e-308", "1.7976931348623157e308",
    "1e400", "1e-400", "-nan", "inf", "-Infinity", "infinit", "nan(1)", "1\x0b", "\x0c1",
    "\x1c1", "1\x1f", " 1", "١", "", "\x1c",
]


def _float_or_error(text):
    try:
        return float(text)
    except ValueError:
        return ValueError


@pytest.mark.parametrize("text", CAST_SPELLINGS)
def test_bytes_to_float64_cast_agrees_with_float(text):
    expected = _float_or_error(text)
    try:
        got = np.array([text.encode()], dtype=bytes).astype(np.float64)[0]
    except ValueError:
        return  # the per-row loop reads what the cast declines
    assert expected is not ValueError
    assert np.float64(expected).tobytes() == got.tobytes()


@pytest.mark.parametrize("text", CAST_SPELLINGS)
def test_block_parser_reads_a_value_as_the_row_loop_does(text):
    parsed = _parse_block(f"2025-06-02T00:00:00Z,net-0,{text}\n".encode())
    expected = math.nan if not text.strip() else _float_or_error(text)
    if expected is ValueError or math.isinf(expected) or expected < 0:
        assert parsed is None
    elif parsed is not None:
        [(_, _, values)] = parsed[1]
        assert np.float64(expected).tobytes() == values.tobytes() or (
            math.isnan(expected) and math.isnan(values[0]))


@pytest.mark.parametrize("stamp", [
    "2025-06-02T00:00:00Z", "2024-02-29T23:59:59Z", "0001-01-01T00:00:00Z", "9999-12-31T23:59:59Z",
    "2025-02-29T00:00:00Z", "2025-04-31T00:00:00Z", "2025-00-10T00:00:00Z", "2025-01-00T00:00:00Z",
    "2025-06-02T24:00:00Z", "2025-06-02T23:60:00Z", "2025-06-02T23:59:60Z", "2025-06-02 00:00:00Z",
    "2025-06-02T00:00:00z", "2025-06-02T00:00:00.5Z", "2025-06-02T00:00:00+00:00",
    "20250602T000000Z", "2025-6-2T00:00:00Z", "+025-06-02T00:00:00Z", "2025-06-02T00:00:0 Z",
])
def test_block_parser_reads_a_timestamp_as_the_row_loop_does(stamp):
    parsed = _parse_block(f"{stamp},net-0,1.0\n".encode())
    try:
        expected = (utc_from_iso(stamp) - EPOCH) // timedelta(microseconds=1)
    except ValueError:
        assert parsed is None
        return
    if parsed is not None:
        [(_, stamps, _)] = parsed[1]
        assert stamps.tolist() == [expected]


def test_year_zero_is_rejected_though_numpy_reads_it(tmp_path):
    assert np.array([b"0000-01-01T00:00:00"]).astype("datetime64[s]")[0] == np.datetime64(
        "0000-01-01T00:00:00")
    assert _parse_block(b"0000-01-01T00:00:00Z,net-0,1.0\n") is None
    path = tmp_path / "traffic.csv"
    _write_rows(path, ["0001-01-01T00:00:00Z,net-0,1.0", "0000-01-01T00:00:00Z,net-0,1.0"])
    with pytest.raises(ConfigError, match="^traffic CSV line 3: year 0 is out of range"):
        read_traffic_csv(path)
