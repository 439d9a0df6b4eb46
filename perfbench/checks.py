"""Correctness checks on one run's outputs, made apart from the program.

Ground truth is the generated scenario (planted events, written samples
and missing-sample runs), never a copy of an earlier run's output. Each
check returns a list of failure messages; an empty list means it passed.
"""

from __future__ import annotations

import csv
import json
from datetime import datetime
from pathlib import Path
from typing import Dict, List

import numpy as np

from eventcast.model import EventAbstraction
from eventcast.semantics import HashingStubEmbedder, event_summary_text

EPOCH_WEEKDAY = 3  # 1970-01-01 was a Thursday (Monday = 0)
PEAK_Z_RTOL = 1e-9


def _jsonl(path: Path) -> List[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _ts(iso: str) -> float:
    return datetime.fromisoformat(iso.replace("Z", "+00:00")).timestamp()


def _overlaps(a: dict, b: dict) -> bool:
    """Intervals given as ISO start/end strings share a positive stretch."""
    return max(_ts(a["start"]), _ts(b["start"])) < min(_ts(a["end"]), _ts(b["end"]))


def reference_spikes(values: np.ndarray, start_epoch: int, step: int, config: dict) -> List[tuple]:
    """Baseline, Z-scores and spikes for one network, in numpy.

    The baseline pools, per (weekday, bin) slot, the samples of the last
    ``window_weeks`` days that have data in the fitting span; scoring uses
    max(std, floor * mean, 1e-6). Returns (start, end, peak_z) per spike,
    with times in epoch seconds.
    """
    window, bin_s = config["window_weeks"], config["bin_minutes"] * 60
    t = start_epoch + step * np.arange(len(values))
    day = t // 86400
    slot = ((day + EPOCH_WEEKDAY) % 7) * (86400 // bin_s) + (t % 86400) // bin_s
    fit = window * 7 * 86400 // step
    mean = np.full(7 * 86400 // bin_s, np.nan)
    std = np.full_like(mean, np.nan)
    for s in np.unique(slot[:fit]):
        idx = np.flatnonzero((slot[:fit] == s) & ~np.isnan(values[:fit]))
        days_with_data = np.unique(day[idx])[-window:]
        pooled = values[idx[np.isin(day[idx], days_with_data)]]
        mean[s], std[s] = pooled.mean(), pooled.std()
    x, m, sd = values[fit:], mean[slot[fit:]], std[slot[fit:]]
    z = (x - m) / np.maximum(np.maximum(sd, config["std_floor_fraction"] * m), 1e-6)

    above = np.concatenate(([False], np.nan_to_num(z, nan=-np.inf) >= config["z_threshold"], [False]))
    edges = np.flatnonzero(above[1:] != above[:-1])
    runs: List[list] = []
    for first, end in zip(edges[::2], edges[1::2]):
        gap = first - runs[-1][1] if runs else None
        if gap is not None and gap * step / 60 < config["merge_gap_minutes"] \
                and not np.isnan(z[runs[-1][1]:first]).any():
            runs[-1][1] = end
        else:
            runs.append([first, end])
    out = []
    for first, end in runs:
        if (end - first) * step / 60 < config["min_duration_minutes"]:
            continue
        window_z = z[first:end]
        t0 = start_epoch + (fit + first) * step
        out.append((t0, t0 + (end - first) * step,
                    float(window_z[window_z >= config["z_threshold"]].max())))
    return out


def check_traffic(inputs, out_dir: Path, config: dict) -> List[str]:
    """Detected spikes against the planted intervals and the missing samples."""
    failures = []
    scenario = inputs.scenario
    step = scenario.step_seconds
    start = int(scenario.start.timestamp())
    spikes = _jsonl(out_dir / "spikes.jsonl")
    planted = [{"network_id": e.network_id, "start": e.event_time.isoformat(),
                "end": e.end_time.isoformat(), "name": e.name}
               for e in scenario.planted_events if not e.sub_threshold]
    for p in planted:
        if not any(s["network_id"] == p["network_id"] and _overlaps(s, p) for s in spikes):
            failures.append(f"planted {p['name']} on {p['network_id']} has no detected spike")
    for s in spikes:
        if not any(s["network_id"] == p["network_id"] and _overlaps(s, p) for p in planted):
            failures.append(f"spike {s['network_id']} {s['start']} overlaps no planted interval")
        values = inputs.series[s["network_id"]]
        lo, hi = (int(_ts(s["start"])) - start) // step, (int(_ts(s["end"])) - start) // step
        if np.isnan(values[lo:hi]).any():
            failures.append(f"spike {s['network_id']} {s['start']} spans a missing sample")

    for network_id in sorted({g[0] for g in inputs.gaps}):
        expected = reference_spikes(inputs.series[network_id], start, step, config)
        got = [(int(_ts(s["start"])), int(_ts(s["end"])), s["peak_z"])
               for s in spikes if s["network_id"] == network_id]
        same = len(got) == len(expected) and all(
            g[:2] == e[:2] and abs(g[2] - e[2]) <= PEAK_Z_RTOL * abs(e[2])
            for g, e in zip(got, expected))
        if not same:
            failures.append(f"{network_id}: spikes differ from the reference baseline fit "
                            f"({len(got)} detected, {len(expected)} expected)")

    with open(out_dir / "features.csv", "r", encoding="utf-8", newline="") as fh:
        rows = sum(1 for _ in csv.reader(fh)) - 1
    announced = sum(1 for e in scenario.planted_events if not e.spontaneous)
    if rows != announced * len(scenario.networks):
        failures.append(f"features.csv has {rows} rows, expected "
                        f"{announced} events x {len(scenario.networks)} networks")
    return failures


def live_events(path: Path) -> tuple:
    """Fold the event log: last version per id wins, tombstoned ids drop.

    Returns (live events, {survivor id: absorbed ids}).
    """
    latest: Dict[str, dict] = {}
    absorbed: Dict[str, list] = {}
    for entry in _jsonl(path):
        if entry.get("kind") == "tombstone":
            absorbed.setdefault(entry["absorbed_into"], []).append(entry["event_id"])
        else:
            latest[entry["event_id"]] = entry
    dead = {eid for ids in absorbed.values() for eid in ids}
    return [e for eid, e in latest.items() if eid not in dead], absorbed


def check_events(inputs, out_dir: Path, config: dict, spontaneous_unmatched: bool) -> List[str]:
    """Surviving events, merges, consensus, signatures and coverage."""
    failures = []
    scenario = inputs.scenario
    announced = {e.headline: e for e in scenario.planted_events if not e.spontaneous}
    events, absorbed = live_events(out_dir / "events.jsonl")

    if sorted(e["description"] for e in events) != sorted(announced):
        failures.append(f"{len(events)} surviving events, expected the {len(announced)} "
                        "announced planted events once each")
    twice = sum(1 for e in announced.values() if e.n_posts > 1)
    if len(absorbed) != twice:
        failures.append(f"{len(absorbed)} duplicate groups, expected {twice}")

    for event in events:
        planted = announced.get(event["description"])
        if planted is None:
            continue
        expected = (planted.category.lower(), sorted(x.lower() for x in planted.entities),
                    sorted(x.lower() for x in planted.platforms), planted.likelihood)
        got = (event["category"], sorted(event["entities"] or []),
               sorted(event["platforms"] or []), event["likelihood"])
        if got != expected:
            failures.append(f"{event['event_id']}: consensus {got} != planted {expected}")

    with open(out_dir / "cluster_models.json", "r", encoding="utf-8") as fh:
        models = json.load(fh)
    embedder = HashingStubEmbedder(dim=config["embedder"].get("dim", 64))
    vectors = np.array([embedder.embed(event_summary_text(EventAbstraction.from_dict(e)))
                        for e in events])
    for index, (level, model) in enumerate(zip(models["levels"], models["models"])):
        if model["level_k"] != min(level, len(events)):
            failures.append(f"level {level}: effective k {model['level_k']}, "
                            f"expected {min(level, len(events))}")
        centroids = np.asarray(model["centroids"], dtype=float)
        for event, vec in zip(events, vectors):
            d2 = ((centroids - vec) ** 2).sum(axis=1)
            signature = event["semantic_signature"]
            got = signature["cluster_ids"][index] if signature else None
            if got is None or d2[got] > d2.min() * (1 + 1e-9) + 1e-12:
                failures.append(f"{event['event_id']}: cluster id {got} at level {level} "
                                f"is not its nearest centroid {int(d2.argmin())}")
                break

    labels = _jsonl(inputs.config_path.parent / config["labels_path"])
    matched = {(m["spike"]["network_id"], _ts(m["spike"]["start"]), _ts(m["spike"]["end"]))
               for m in _jsonl(out_dir / "matches.jsonl")}

    def is_matched(label):
        lo, hi = _ts(label["start"]), _ts(label["end"])
        return any(net == label["network_id"] and max(lo, t0) < min(hi, t1)
                   for net, t0, t1 in matched)

    targets = [lb for lb in labels if not lb["spontaneous"] and not lb["sub_threshold"]]
    covered = sum(1 for lb in targets if is_matched(lb))
    if not targets or covered / len(targets) < 0.90:
        failures.append(f"non-spontaneous coverage {covered}/{len(targets)} is below 0.90")
    if spontaneous_unmatched:
        for lb in labels:
            if lb["spontaneous"] and is_matched(lb):
                failures.append(f"spontaneous {lb['event_name']} was matched to an event")
    return failures
