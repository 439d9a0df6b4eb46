"""Context-unaware traffic baseline: rolling weekly statistics and spikes.

The baseline is a per-(weekday, time-of-day bin) mean/std computed over a
trailing window of weeks, which captures the weekly cycle without any
knowledge of real-world events. Subtracting it yields residual Z-scores,
and maximal above-threshold runs become spike records.
"""

from __future__ import annotations

import csv
import io
import math
from array import array
from collections import defaultdict
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from functools import cached_property
from types import MappingProxyType
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from .model import (SpikeRecord, TrafficSeries, ensure_utc, readonly_float64, utc_from_iso,
                    utc_to_iso)

MINUTES_PER_DAY = 1440
EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)  # a Thursday: weekday 3
STD_EPS = 1e-6  # absolute floor; guards flat history


class ConfigError(ValueError):
    """Invalid detection or fitting configuration."""


class InsufficientHistoryError(ValueError):
    """Series too short to estimate the weekly seasonal baseline."""


class UnpopulatedBinsError(ValueError):
    """Scoring touched (weekday, bin) slots the model has no data for."""

    def __init__(self, missing: Sequence[Tuple[int, int]]):
        self.missing = list(missing)
        preview = ", ".join(f"(wd={w}, bin={b})" for w, b in self.missing[:8])
        more = "" if len(self.missing) <= 8 else f" and {len(self.missing) - 8} more"
        super().__init__(f"baseline has no data for slots: {preview}{more}")


def _bins_per_day(bin_minutes: int) -> int:
    if bin_minutes < 1 or MINUTES_PER_DAY % bin_minutes != 0:
        raise ConfigError(f"bin_minutes={bin_minutes} must be a positive divisor of 1440")
    return MINUTES_PER_DAY // bin_minutes


@dataclass(frozen=True, eq=False)  # identity equality: compare the arrays with numpy
class BaselineModel:
    """Per-(weekday, bin-of-day) trailing-window mean/std of throughput.

    ``mean``, ``std`` and ``count`` are read-only arrays indexed by slot
    ``weekday * bins_per_day + bin``; a count of 0 marks an unpopulated slot.
    """

    network_id: str
    bin_minutes: int
    window_weeks: int
    mean: np.ndarray
    std: np.ndarray
    count: np.ndarray

    def __post_init__(self):
        slots = 7 * _bins_per_day(self.bin_minutes)
        for name, dtype in (("mean", np.float64), ("std", np.float64), ("count", np.int64)):
            values = np.array(getattr(self, name), dtype=dtype)
            if values.shape != (slots,):
                raise ConfigError(f"{name} must hold {slots} slots, got shape {values.shape}")
            values.flags.writeable = False
            object.__setattr__(self, name, values)
        bad = np.flatnonzero((self.count < 0) | ((self.count > 0) & (self.std < 0)))
        if bad.size:
            raise ConfigError(f"slot {self._slot(bad[0])}: count must be >= 0, "
                              "and std >= 0 where it is not")

    @classmethod
    def from_stats(cls, network_id: str, bin_minutes: int, window_weeks: int,
                   stats: Mapping) -> "BaselineModel":
        """The model of ``{(weekday, bin): (mean, std, count)}``; absent slots are unpopulated."""
        bins = _bins_per_day(bin_minutes)
        mean, std, count = np.zeros(7 * bins), np.zeros(7 * bins), np.zeros(7 * bins, np.int64)
        for (weekday, bin_), (m, s, c) in stats.items():
            if not (0 <= weekday < 7 and 0 <= bin_ < bins):
                raise ConfigError(f"slot {(weekday, bin_)}: outside a week of {bins} bins a day")
            if c < 1 or s < 0:
                raise ConfigError(f"slot {(weekday, bin_)}: count must be >= 1 and std >= 0")
            slot = weekday * bins + bin_
            mean[slot], std[slot], count[slot] = m, s, c
        return cls(network_id, bin_minutes, window_weeks, mean, std, count)

    def bins_per_day(self) -> int:
        return MINUTES_PER_DAY // self.bin_minutes

    def _slot(self, slot) -> Tuple[int, int]:
        return divmod(int(slot), self.bins_per_day())

    @cached_property
    def stats(self) -> Mapping[Tuple[int, int], Tuple[float, float, int]]:
        """Read-only ``{(weekday, bin): (mean, std, count)}`` of the populated slots, in slot
        order, built from the arrays on first use."""
        slots = np.flatnonzero(self.count)
        return MappingProxyType({self._slot(s): (m, sd, c) for s, m, sd, c in zip(
            slots.tolist(), self.mean[slots].tolist(), self.std[slots].tolist(),
            self.count[slots].tolist())})

    def to_dict(self) -> dict:
        return {
            "network_id": self.network_id,
            "bin_minutes": self.bin_minutes,
            "window_weeks": self.window_weeks,
            "stats": {f"{w},{b}": [m, s, c] for (w, b), (m, s, c) in self.stats.items()},
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "BaselineModel":
        stats = {}
        for key, (m, s, c) in d["stats"].items():
            w, b = key.split(",")
            stats[(int(w), int(b))] = (float(m), float(s), int(c))
        return cls.from_stats(d["network_id"], d["bin_minutes"], d["window_weeks"], stats)


@dataclass(frozen=True, eq=False)  # identity equality: compare the arrays with numpy
class ZSeries:
    """Residual Z-scores (a read-only float64 array) aligned with the scored series."""

    network_id: str
    start: datetime
    step_seconds: int
    z_values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "start", ensure_utc(self.start, "ZSeries", "start"))
        vals = readonly_float64(self.z_values)
        if not vals.size:
            raise ConfigError("ZSeries.z_values must be non-empty")
        bad = np.flatnonzero(np.isinf(vals))  # NaN marks a missing input sample
        if bad.size:
            raise ConfigError(f"ZSeries.z_values[{bad[0]}] is {vals[bad[0]].item()!r}; "
                              "must be finite")
        object.__setattr__(self, "z_values", vals)

    def __len__(self):
        return len(self.z_values)

    def time_at(self, index: int):
        return self.start + timedelta(seconds=index * self.step_seconds)


def _sample_slots(start: datetime, step_seconds: int, n: int, bin_minutes: int):
    """Day number since 1970-01-01 and slot ``weekday * bins_per_day + bin`` of each sample.

    Whole epoch seconds suffice: the sub-second part every sample shares never moves a bin.
    """
    seconds = (start - EPOCH) // timedelta(seconds=1) + step_seconds * np.arange(n, dtype=np.int64)
    day, second_of_day = np.divmod(seconds, 86400)
    return day, (day + 3) % 7 * (MINUTES_PER_DAY // bin_minutes) + second_of_day // (60 * bin_minutes)


def fit_baseline(
    series: TrafficSeries, window_weeks: int = 4, bin_minutes: int = 5
) -> BaselineModel:
    """Fit per-(weekday, bin) mean/std over the trailing window_weeks.

    Each calendar day contributes one occurrence of its slots; for every
    slot only the last ``window_weeks`` occurrences with data are pooled.
    NaN samples are excluded. Slots with no data stay unpopulated.
    """
    if window_weeks < 1:
        raise ConfigError("window_weeks must be >= 1")
    slots = 7 * _bins_per_day(bin_minutes)
    span_seconds = len(series) * series.step_seconds
    if span_seconds < 7 * 86400:
        raise InsufficientHistoryError(
            f"series spans {span_seconds / 86400:.2f} days; need at least one full week"
        )

    day, slot = _sample_slots(series.start, series.step_seconds, len(series), bin_minutes)
    # observed samples by slot, days in order, samples of a day in time order
    order = np.flatnonzero(~np.isnan(series.values))
    order = order[np.lexsort((day[order], slot[order]))]
    day, slot, values = day[order], slot[order], series.values[order]
    # keep each slot's last window_weeks days (day_number steps by one per day within a slot)
    day_number = np.cumsum(np.diff(day, prepend=day[:1]) != 0)
    last_of_slot = np.flatnonzero(np.diff(slot, append=-1))
    last_day_number = np.repeat(day_number[last_of_slot], np.diff(last_of_slot, prepend=-1))
    trailing = day_number > last_day_number - window_weeks
    slot, values = slot[trailing], values[trailing]

    # the rows of a (slots, count) matrix reduce exactly like each pool on its own
    slot_ids, first, counts = np.unique(slot, return_index=True, return_counts=True)
    mean, std, count = np.zeros(slots), np.zeros(slots), np.zeros(slots, np.int64)
    count[slot_ids] = counts
    for n in np.unique(counts).tolist():
        rows = np.flatnonzero(counts == n)
        pools = values[first[rows, None] + np.arange(n)]
        mean[slot_ids[rows]] = pools.mean(axis=1)
        std[slot_ids[rows]] = pools.std(axis=1)
    return BaselineModel(series.network_id, bin_minutes, window_weeks, mean, std, count)


def zscore_series(
    model: BaselineModel, series: TrafficSeries, std_floor_fraction: float = 0.05
) -> ZSeries:
    """Score a series against the baseline: z = (x - mean) / floored std.

    The denominator is max(std, std_floor_fraction * mean, 1e-6), so flat
    history cannot produce infinite scores. NaN input samples yield NaN
    scores. Raises UnpopulatedBinsError listing every missing slot.
    """
    if std_floor_fraction < 0:
        raise ConfigError("std_floor_fraction must be >= 0")
    _day, slot = _sample_slots(series.start, series.step_seconds, len(series), model.bin_minutes)
    unpopulated = model.count[slot] == 0
    if unpopulated.any():
        raise UnpopulatedBinsError([model._slot(s) for s in np.unique(slot[unpopulated]).tolist()])

    denom = np.maximum(np.maximum(model.std, std_floor_fraction * model.mean), STD_EPS)
    z = (series.values - model.mean[slot]) / denom[slot]
    return ZSeries(series.network_id, series.start, series.step_seconds, z)


def detect_spikes(
    z: ZSeries,
    z_threshold: float = 2.0,
    min_duration_minutes: float = 20.0,
    merge_gap_minutes: float = 5.0,
) -> List[SpikeRecord]:
    """Extract maximal above-threshold runs as disjoint spike records.

    Runs separated by sub-threshold gaps shorter than merge_gap_minutes
    are merged (a NaN gap never merges: missing data breaks contiguity).
    Intervals end one step after their last sample; those shorter than
    min_duration_minutes are discarded. peak_z/mean_z are computed over
    the above-threshold samples only.
    """
    if z_threshold <= 0 or min_duration_minutes <= 0 or merge_gap_minutes <= 0:
        raise ConfigError("thresholds and durations must be positive")

    zv = z.z_values
    step_min = z.step_seconds / 60.0
    above = zv >= z_threshold  # False at NaN

    # maximal runs of consecutive above-threshold samples, as [first, last] indices
    padded = np.concatenate(([False], above, [False]))
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    firsts, lasts = edges[::2], edges[1::2] - 1

    # merge neighbouring runs across short, NaN-free gaps
    nans_before = np.concatenate(([0], np.cumsum(np.isnan(zv))))
    joins_next = np.zeros(len(firsts), dtype=bool)
    joins_next[:-1] = ((firsts[1:] - lasts[:-1] - 1) * step_min < merge_gap_minutes) & (
        nans_before[firsts[1:]] == nans_before[lasts[:-1] + 1])
    firsts, lasts = firsts[~np.roll(joins_next, 1)], lasts[~joins_next]

    spikes = []
    for first, last in zip(firsts.tolist(), lasts.tolist()):
        duration = (last - first + 1) * step_min
        if duration < min_duration_minutes:
            continue
        window = zv[first:last + 1]
        above_vals = window[window >= z_threshold]
        spikes.append(
            SpikeRecord(
                network_id=z.network_id,
                start=z.time_at(first),
                end=z.time_at(last + 1),
                peak_z=float(above_vals.max()),
                mean_z=float(above_vals.mean()),
                duration_minutes=duration,
            )
        )
    return spikes


def spike_frequency(spikes: Sequence[SpikeRecord], z_bins: Sequence[float]) -> Dict[float, int]:
    """Count spikes with peak_z >= threshold, for each threshold."""
    bins = [float(b) for b in z_bins]
    if not bins:
        raise ConfigError("z_bins must be non-empty")
    if any(b2 <= b1 for b1, b2 in zip(bins, bins[1:])):
        raise ConfigError("z_bins must be strictly increasing")
    return {b: sum(1 for s in spikes if s.peak_z >= b) for b in bins}


# -- traffic CSV interface ----------------------------------------------------

TRAFFIC_CSV_HEADER = ["timestamp_utc", "network_id", "bits_per_second"]
CSV_WRITE_CHUNK = 1024  # samples formatted at once: the writer's buffers stay this small
CSV_READ_BLOCK = 1 << 18  # bytes of whole lines parsed at once; the reader's temporaries
# take about 8x this, and parse speed is flat from 128 KiB to 1 MiB
_HEADER_LINE = ",".join(TRAFFIC_CSV_HEADER).encode()
_STAMP_SHAPE = np.frombuffer(b"0000-00-00T00:00:00Z", dtype=np.uint8)
_STAMP_DIGITS = _STAMP_SHAPE == ord("0")
_FIELD_WIDTH = 64  # widest network id or value the block parser gathers
_BLANK_BYTES = np.zeros(256, dtype=bool)  # what str.strip drops, and the gathers' zero padding
_BLANK_BYTES[[0] + [b for b in range(128) if chr(b).isspace()]] = True


def write_traffic_csv(path, series_list: Sequence[TrafficSeries]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRAFFIC_CSV_HEADER)
        for series in series_list:
            start = np.datetime64(series.start.replace(tzinfo=None), "us")
            step = np.timedelta64(series.step_seconds, "s")
            unit = "us" if series.start.microsecond else "s"
            for lo in range(0, len(series), CSV_WRITE_CHUNK):
                index = np.arange(lo, min(lo + CSV_WRITE_CHUNK, len(series)))
                stamps = np.datetime_as_string(start + index * step, unit=unit, timezone="UTC")
                values = ("" if math.isnan(v) else repr(v) for v in series.values[index].tolist())
                writer.writerows(zip(stamps, [series.network_id] * len(index), values))


def read_traffic_csv(path) -> Dict[str, TrafficSeries]:
    """Load per-network uniform series from the documented CSV format.

    Each network's rows are sorted by time and must then have a uniform step
    of a whole number of seconds; an empty bits_per_second field marks a
    missing sample. Malformed input raises ConfigError naming the line or network.

    The file is parsed CSV_READ_BLOCK bytes at a time with numpy. From the first
    block that ``_parse_block`` declines, the per-row ``csv`` loop reads the rest.
    """
    parts: Dict[str, list] = {}  # network id -> [(epoch microseconds, values)] in file order
    with open(path, "rb") as fh:
        header = fh.readline(len(_HEADER_LINE) + 2)
        if header.removesuffix(b"\n").removesuffix(b"\r") != _HEADER_LINE:
            fh.seek(0)
            _read_rows(fh, 0, parts)  # the per-row loop checks the header
        else:
            offset, lines = len(header), 1
            for block in _whole_lines(fh):
                parsed = _parse_block(block)
                if parsed is None:
                    fh.seek(offset)
                    _read_rows(fh, lines, parts)
                    break
                block_lines, networks = parsed
                for network_id, stamps, values in networks:
                    parts.setdefault(network_id, []).append((stamps, values))
                offset += len(block)
                lines += block_lines

    one_us = timedelta(microseconds=1)
    out = {}
    for network_id, chunks in parts.items():
        stamps = np.concatenate([s for s, _ in chunks])
        if len(stamps) < 2:
            raise ConfigError(f"network {network_id}: need at least 2 samples")
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
            values=np.concatenate([v for _, v in chunks])[order],
        )
    return out


def _whole_lines(fh):
    """The file in blocks of whole lines, read CSV_READ_BLOCK bytes at a time.

    A read without a line end ends the blocks with one that does not end a line.
    """
    tail = b""
    while data := fh.read(CSV_READ_BLOCK):
        cut = data.rfind(b"\n") + 1
        if not cut:
            yield tail + data
            return
        yield tail + data[:cut]
        tail = data[cut:]
    if tail:
        yield tail + b"\n"


def _parse_block(block: bytes):
    """The line count of a block of whole lines, and ``(network_id, epoch microseconds,
    values)`` per network in it.

    Networks come in order of first appearance, each with its rows in file
    order. Returns None when the block does not end a line (it holds a line
    longer than CSV_READ_BLOCK), or when a line needs the per-row loop: a
    quote, a NUL, a CR that does not end a line, a non-blank row without
    exactly two commas, a timestamp not in the writer's
    ``YYYY-MM-DDTHH:MM:SSZ`` shape (year 0000 included), an empty network
    id, a field wider than _FIELD_WIDTH bytes, or a field that does not
    cast or that the loop would reject.
    """
    if not block.endswith(b"\n") or b'"' in block or b"\0" in block:
        return None
    buf = np.frombuffer(block + bytes(_FIELD_WIDTH), dtype=np.uint8)  # padded for the gathers
    ends = np.flatnonzero(buf == ord("\n"))
    cr = np.flatnonzero(buf == ord("\r"))
    if (buf[cr + 1] != ord("\n")).any():
        return None
    starts = np.concatenate(([0], ends[:-1] + 1))
    ends -= buf[ends - 1] == ord("\r")
    lines = len(ends)
    rows = np.flatnonzero(ends > starts)  # blank lines are skipped
    if not rows.size:
        return lines, []
    starts, ends = starts[rows], ends[rows]
    commas = np.flatnonzero(buf == ord(","))
    first = np.searchsorted(commas, starts)
    if (np.searchsorted(commas, ends) - first != 2).any():
        return None
    stamp_end, id_end = commas[first], commas[first + 1]
    if (stamp_end - starts != len(_STAMP_SHAPE)).any() or (id_end - stamp_end < 2).any():
        return None
    stamp = _fixed_width(buf, starts, stamp_end)
    digits = stamp[:, _STAMP_DIGITS] - ord("0")  # uint8: other bytes wrap past 9
    if ((digits > 9).any() or (stamp[:, ~_STAMP_DIGITS] != _STAMP_SHAPE[~_STAMP_DIGITS]).any()
            or not digits[:, :4].any(axis=1).all()):  # numpy accepts year 0, fromisoformat not
        return None
    raw = _fixed_width(buf, id_end + 1, ends)
    ids = _fixed_width(buf, stamp_end + 1, id_end)
    if raw is None or ids is None:
        return None
    blank = _BLANK_BYTES[raw[:, 0]]  # empty, or whitespace only
    maybe = np.flatnonzero(blank)
    blank[maybe] = _BLANK_BYTES[raw[maybe]].all(axis=1)
    values = np.full(len(rows), math.nan)
    try:
        # the cast leaves out the "Z": on a stamp with a timezone numpy warns that it has
        # "no explicit representation of timezones", and with numpy 2.4.6 that cast of
        # 1,000 or more such stamps at once crashes the process (SIGSEGV, exit 139);
        # 100 and 500 stamps do not
        stamps = stamp[:, :19].view("S19")[:, 0].astype("datetime64[us]").astype(np.int64)
        if not blank.all():
            values[~blank] = raw[~blank].view(f"S{raw.shape[1]}")[:, 0].astype(np.float64)
        run_starts = np.flatnonzero(np.concatenate(([True], (ids[1:] != ids[:-1]).any(axis=1))))
        names = [block[lo:hi].decode("utf-8") for lo, hi in
                 zip((stamp_end[run_starts] + 1).tolist(), id_end[run_starts].tolist())]
    except ValueError:
        return None
    if ((values < 0) | np.isinf(values)).any():
        return None

    index: Dict[str, int] = {}
    codes = [index.setdefault(name, len(index)) for name in names]
    if len(index) == 1:
        return lines, [(names[0], stamps, values)]
    code = np.repeat(codes, np.diff(np.append(run_starts, len(rows))))
    order = np.argsort(code, kind="stable")
    bounds = np.cumsum(np.bincount(code))[:-1]
    return lines, list(zip(index, np.split(stamps[order], bounds),
                           np.split(values[order], bounds)))


def _fixed_width(buf, starts, ends):
    """``buf[starts[i]:ends[i]]`` as rows of a zero-padded uint8 matrix; None past _FIELD_WIDTH."""
    widths = ends - starts
    width = max(int(widths.max()), 1)  # an empty field is one byte of padding
    if width > _FIELD_WIDTH:
        return None
    fields = np.lib.stride_tricks.sliding_window_view(buf, width)[starts]
    if widths.min() < width:
        fields[np.arange(width) >= widths[:, None]] = 0
    return fields


def _read_rows(fh, lines_before: int, parts: Dict[str, list]) -> None:
    """Parse the rest of binary ``fh`` row by row with the ``csv`` module into ``parts``; close it.

    ``lines_before`` lines precede the file position; at 0 the header comes first.
    """
    one_us = timedelta(microseconds=1)
    parsed: Dict[str, int] = {}  # timestamp text -> epoch microseconds
    columns: Dict[str, Tuple[array, array]] = defaultdict(lambda: (array("q"), array("d")))
    with io.TextIOWrapper(fh, encoding="utf-8", newline="") as text:
        reader = csv.reader(text)
        if not lines_before:
            header = next(reader, None)
            if header != TRAFFIC_CSV_HEADER:
                raise ConfigError(
                    f"traffic CSV header must be {','.join(TRAFFIC_CSV_HEADER)}, got {header}"
                )
        for row in filter(None, reader):  # skips blank lines
            try:
                stamp_text, network_id, raw = row
                if not network_id:
                    raise ValueError("empty network_id")
                stamp = parsed.get(stamp_text)
                if stamp is None:
                    stamp = parsed[stamp_text] = (utc_from_iso(stamp_text) - EPOCH) // one_us
                value = float(raw) if raw.strip() else math.nan
                if value < 0 or math.isinf(value):
                    raise ValueError(f"bits_per_second {raw!r} must be finite and >= 0")
            except ValueError as exc:
                line = lines_before + reader.line_num
                raise ConfigError(f"traffic CSV line {line}: {exc}") from None
            stamps, values = columns[network_id]
            stamps.append(stamp)
            values.append(value)
    for network_id, (stamps, values) in columns.items():
        parts.setdefault(network_id, []).append(
            (np.frombuffer(stamps, dtype=np.int64), np.frombuffer(values, dtype=np.float64)))
