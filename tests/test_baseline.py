from __future__ import annotations

import math
import random
from datetime import timedelta

import numpy as np
import pytest

from eventcast.baseline import (
    BaselineModel,
    ConfigError,
    InsufficientHistoryError,
    UnpopulatedBinsError,
    ZSeries,
    detect_spikes,
    fit_baseline,
    read_traffic_csv,
    spike_frequency,
    write_traffic_csv,
    zscore_series,
)
from eventcast.model import SpikeRecord

from .conftest import MONDAY, make_series, week_of_samples


# -- independent oracle: naive linear scan over the z sequence ---------------

def naive_detect(z: ZSeries, thr=2.0, min_dur=20.0, merge_gap=5.0):
    """Index-walking reference: runs, gap merge, duration filter."""
    values = list(z.z_values)
    n = len(values)
    step_min = z.step_seconds / 60.0

    def above(i):
        return not math.isnan(values[i]) and values[i] >= thr

    runs = []
    i = 0
    while i < n:
        if above(i):
            j = i
            while j + 1 < n and above(j + 1):
                j += 1
            runs.append([i, j])
            i = j + 1
        else:
            i += 1

    merged = []
    for first, last in runs:
        if merged:
            prev_first, prev_last = merged[-1]
            gap_minutes = (first - prev_last - 1) * step_min
            gap_has_nan = any(math.isnan(values[t]) for t in range(prev_last + 1, first))
            if gap_minutes < merge_gap and not gap_has_nan:
                merged[-1][1] = last
                continue
        merged.append([first, last])

    spikes = []
    for first, last in merged:
        duration = (last - first + 1) * step_min
        if duration < min_dur:
            continue
        above_vals = np.array([values[t] for t in range(first, last + 1) if above(t)])
        spikes.append(SpikeRecord(
            network_id=z.network_id,
            start=z.time_at(first),
            end=z.time_at(last + 1),
            peak_z=float(above_vals.max()),
            mean_z=float(above_vals.mean()),
            duration_minutes=duration,
        ))
    return spikes


def make_z(values, step_seconds=60, network_id="net-test"):
    return ZSeries(network_id=network_id, start=MONDAY,
                   step_seconds=step_seconds, z_values=tuple(values))


def random_z(rng: random.Random, length=None):
    n = length or rng.randint(200, 1500)
    values = []
    i = 0
    while i < n:
        if rng.random() < 0.08:
            # elevated burst, sometimes long enough to be a spike
            burst = rng.randint(3, 45)
            for _ in range(min(burst, n - i)):
                values.append(rng.uniform(1.5, 6.0))
                i += 1
        elif rng.random() < 0.02:
            values.append(float("nan"))  # missing sample
            i += 1
        else:
            values.append(rng.gauss(0.0, 1.0))
            i += 1
    return make_z(values)


# -- fit_baseline --------------------------------------------------------------

class TestFitBaseline:
    def test_constant_series(self):
        series = week_of_samples(level=100.0, weeks=4)
        model = fit_baseline(series, window_weeks=4, bin_minutes=5)
        assert len(model.stats) == 7 * 288
        for mean, std, count in model.stats.values():
            assert mean == 100.0 and std == 0.0 and count == 4

    def test_weekday_levels(self):
        levels = [100.0, 200.0, 300.0, 400.0, 500.0, 600.0, 700.0]
        step = 300
        values = []
        ts = MONDAY
        for _ in range(4 * 7 * 86400 // step):
            values.append(levels[ts.weekday()])
            ts += timedelta(seconds=step)
        model = fit_baseline(make_series(values), window_weeks=4, bin_minutes=5)
        for (weekday, _bin), (mean, std, _count) in model.stats.items():
            assert mean == levels[weekday] and std == 0.0

    def test_matches_brute_force_grouping(self):
        # oracle: group samples by (weekday, bin) over the whole 4-week
        # series, then mean/std per group
        rng = random.Random(42)
        step = 300
        values = [abs(rng.gauss(100.0, 25.0)) for _ in range(4 * 7 * 86400 // step)]
        series = make_series(values, step_seconds=step)
        model = fit_baseline(series, window_weeks=4, bin_minutes=5)

        groups = {}
        ts = MONDAY
        for v in values:
            slot = (ts.weekday(), (ts.hour * 60 + ts.minute) // 5)
            groups.setdefault(slot, []).append(v)
            ts += timedelta(seconds=step)
        assert set(model.stats) == set(groups)
        for slot, samples in groups.items():
            mean, std, count = model.stats[slot]
            assert count == len(samples)
            assert mean == pytest.approx(np.mean(samples), abs=1e-9)
            assert std == pytest.approx(np.std(samples), abs=1e-9)

    def test_trailing_window_drops_old_weeks(self):
        # 5 weeks of data, window 4: week 1 must not influence the stats
        step = 300
        per_week = 7 * 86400 // step
        values = [999_999.0] * per_week + [100.0] * (4 * per_week)
        model = fit_baseline(make_series(values, step_seconds=step),
                             window_weeks=4, bin_minutes=5)
        for mean, std, count in model.stats.values():
            assert mean == 100.0 and std == 0.0 and count == 4

    def test_nan_samples_excluded(self):
        series = week_of_samples(level=100.0, weeks=4)
        values = list(series.values)
        values[10] = float("nan")
        model = fit_baseline(make_series(values), window_weeks=4, bin_minutes=5)
        slot_of_gap = (0, 10 * 300 // 60 // 5)
        assert model.stats[slot_of_gap][2] == 3  # one occurrence lost

    def test_short_series_rejected(self):
        with pytest.raises(InsufficientHistoryError):
            fit_baseline(make_series([100.0] * 10), window_weeks=4)

    def test_model_round_trips_through_its_stats(self):
        model = fit_baseline(week_of_samples(weeks=4), window_weeks=4)
        again = BaselineModel.from_stats(model.network_id, model.bin_minutes,
                                         model.window_weeks, model.stats)
        assert again.stats == model.stats


# -- zscore_series ---------------------------------------------------------------

def constant_model(mean=100.0, std=10.0, bin_minutes=5, network_id="net-test"):
    stats = {(w, b): (mean, std, 4) for w in range(7) for b in range(1440 // bin_minutes)}
    return BaselineModel.from_stats(network_id=network_id, bin_minutes=bin_minutes,
                                    window_weeks=4, stats=stats)


class TestZscore:
    def test_basic_arithmetic(self):
        model = constant_model(mean=100.0, std=10.0)
        z = zscore_series(model, make_series([130.0]))
        assert z.z_values[0] == pytest.approx(3.0)

    def test_value_at_mean_is_zero(self):
        model = constant_model(mean=100.0, std=10.0)
        z = zscore_series(model, make_series([100.0]))
        assert z.z_values[0] == 0.0

    def test_zero_std_floored(self):
        model = constant_model(mean=100.0, std=0.0)
        z = zscore_series(model, make_series([100.0]))
        assert z.z_values[0] == 0.0  # floor prevents division blowup

    def test_floor_uses_mean_fraction(self):
        model = constant_model(mean=100.0, std=0.0)
        z = zscore_series(model, make_series([110.0]), std_floor_fraction=0.05)
        assert z.z_values[0] == pytest.approx(10.0 / 5.0)

    def test_unpopulated_bins_listed(self):
        stats = {(0, b): (100.0, 10.0, 4) for b in range(288)}  # Mondays only
        model = BaselineModel.from_stats("net-test", 5, 4, stats)
        tuesday = MONDAY + timedelta(days=1)
        with pytest.raises(UnpopulatedBinsError) as err:
            zscore_series(model, make_series([1.0, 2.0], start=tuesday))
        assert (1, 0) in err.value.missing

    def test_nan_passthrough(self):
        model = constant_model()
        z = zscore_series(model, make_series([float("nan"), 100.0]))
        assert math.isnan(z.z_values[0]) and z.z_values[1] == 0.0

    def test_reconstruction_when_std_above_floor(self):
        rng = random.Random(7)
        step = 300
        values = [abs(rng.gauss(1000.0, 400.0)) + 1.0 for _ in range(4 * 7 * 86400 // step)]
        series = make_series(values, step_seconds=step)
        model = fit_baseline(series, window_weeks=4, bin_minutes=5)
        z = zscore_series(model, series, std_floor_fraction=0.05)
        ts = MONDAY
        for x, zv in zip(series.values, z.z_values):
            slot = (ts.weekday(), (ts.hour * 60 + ts.minute) // 5)
            mean, std, _ = model.stats[slot]
            if std > max(0.05 * mean, 1e-6):
                assert zv * std + mean == pytest.approx(x, rel=1e-9)
            ts += timedelta(seconds=step)


# -- detect_spikes ------------------------------------------------------------------

class TestDetectSpikes:
    def test_all_below_threshold(self):
        z = make_z([0.0, 1.5, 1.99] * 20)
        assert detect_spikes(z) == []

    def test_thirty_minute_run(self):
        values = [0.0] * 100 + [2.5] * 30 + [0.0] * 50
        z = make_z(values, step_seconds=60)
        spikes = detect_spikes(z, z_threshold=2.0, min_duration_minutes=20)
        assert len(spikes) == 1
        spike = spikes[0]
        assert spike.start == MONDAY + timedelta(minutes=100)
        assert spike.duration_minutes == 30.0
        assert spike.peak_z == 2.5 and spike.mean_z == 2.5

    def test_short_gap_merges(self):
        values = [0.0] * 10 + [3.0] * 25 + [1.0] * 3 + [3.0] * 25 + [0.0] * 10
        z = make_z(values, step_seconds=60)
        spikes = detect_spikes(z, merge_gap_minutes=5.0)
        assert len(spikes) == 1
        assert spikes[0].duration_minutes == 53.0
        assert spikes[0].mean_z == pytest.approx(3.0)  # gap samples excluded

    def test_gap_at_merge_limit_does_not_merge(self):
        values = [0.0] * 10 + [3.0] * 25 + [1.0] * 5 + [3.0] * 25 + [0.0] * 10
        z = make_z(values, step_seconds=60)
        spikes = detect_spikes(z, merge_gap_minutes=5.0)
        assert len(spikes) == 2

    def test_nan_gap_never_merges(self):
        values = [0.0] * 10 + [3.0] * 25 + [float("nan")] * 2 + [3.0] * 25 + [0.0] * 10
        z = make_z(values, step_seconds=60)
        spikes = detect_spikes(z, merge_gap_minutes=5.0)
        assert len(spikes) == 2

    def test_too_short_run_discarded(self):
        values = [0.0] * 10 + [5.0] * 10 + [0.0] * 10
        z = make_z(values, step_seconds=60)
        assert detect_spikes(z, min_duration_minutes=20) == []

    def test_exactly_min_duration_kept(self):
        values = [0.0] * 10 + [5.0] * 20 + [0.0] * 10
        z = make_z(values, step_seconds=60)
        assert len(detect_spikes(z, min_duration_minutes=20)) == 1

    def test_bad_config_rejected(self):
        z = make_z([0.0, 0.0])
        with pytest.raises(ConfigError):
            detect_spikes(z, z_threshold=0.0)
        with pytest.raises(ConfigError):
            detect_spikes(z, min_duration_minutes=-1)

    def test_matches_oracle_on_random_series(self):
        rng = random.Random(1234)
        for _ in range(60):
            z = random_z(rng)
            assert detect_spikes(z) == naive_detect(z)

    def test_idempotent(self):
        rng = random.Random(99)
        z = random_z(rng)
        assert detect_spikes(z) == detect_spikes(z)

    def test_disjoint_sorted_and_mean_above_threshold(self):
        rng = random.Random(5)
        for _ in range(20):
            z = random_z(rng)
            spikes = detect_spikes(z)
            for a, b in zip(spikes, spikes[1:]):
                assert a.end <= b.start
            for s in spikes:
                assert s.mean_z >= 2.0

    def test_raising_threshold_shrinks_coverage(self):
        # gap merging can split one low-threshold spike into several
        # high-threshold ones, so the spike COUNT is not monotone; the
        # detected intervals are: every high-threshold spike lies inside
        # some low-threshold spike
        rng = random.Random(17)
        for _ in range(20):
            z = random_z(rng)
            lower = detect_spikes(z, z_threshold=2.0)
            higher = detect_spikes(z, z_threshold=3.0)
            for hi in higher:
                assert any(lo.start <= hi.start and hi.end <= lo.end for lo in lower)


# -- spike_frequency -------------------------------------------------------------

def spike_at(peak, network_id="net"):
    return SpikeRecord(network_id, MONDAY, MONDAY + timedelta(minutes=30),
                       peak_z=peak, mean_z=min(peak, 2.0), duration_minutes=30.0)


class TestSpikeFrequency:
    def test_counting(self):
        spikes = [spike_at(2.1), spike_at(3.5), spike_at(6.0)]
        hist = spike_frequency(spikes, [2, 3, 5])
        assert hist == {2.0: 3, 3.0: 2, 5.0: 1}

    def test_empty_spikes(self):
        assert spike_frequency([], [2, 3, 5]) == {2.0: 0, 3.0: 0, 5.0: 0}

    def test_matches_filter_oracle(self):
        rng = random.Random(3)
        spikes = [spike_at(rng.uniform(2.0, 8.0)) for _ in range(200)]
        bins = [2.0, 2.5, 3.0, 4.0, 6.0]
        hist = spike_frequency(spikes, bins)
        for b in bins:
            assert hist[b] == len([s for s in spikes if s.peak_z >= b])

    def test_monotone_non_increasing(self):
        rng = random.Random(8)
        spikes = [spike_at(rng.uniform(2.0, 9.0)) for _ in range(100)]
        hist = spike_frequency(spikes, [2, 3, 4, 5, 6])
        counts = [hist[b] for b in sorted(hist)]
        assert counts == sorted(counts, reverse=True)

    def test_rejects_bad_bins(self):
        with pytest.raises(ConfigError):
            spike_frequency([], [])
        with pytest.raises(ConfigError):
            spike_frequency([], [3, 2])


# -- traffic CSV ------------------------------------------------------------------

def test_traffic_csv_round_trip(tmp_path):
    series = make_series([1e6, 2e6, float("nan"), 1.5e6], step_seconds=300)
    path = tmp_path / "traffic.csv"
    write_traffic_csv(path, [series])
    loaded = read_traffic_csv(path)["net-test"]
    assert loaded.start == series.start and loaded.step_seconds == 300
    assert loaded.values[0] == 1e6 and math.isnan(loaded.values[2])


def test_traffic_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,net,bps\n2025-06-02T00:00:00Z,n,1\n")
    with pytest.raises(ConfigError, match="header"):
        read_traffic_csv(path)
