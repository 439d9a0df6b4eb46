"""Spike-event matching, ground-truth labelling, coverage, lead-time CDFs,
and feature export."""

from __future__ import annotations

import logging
from collections import defaultdict
from dataclasses import dataclass
from datetime import timedelta
from typing import AbstractSet, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .baseline import ZSeries
from .inference.fields import INFERABLE_SPECS
from .model import (EventAbstraction, SpikeRecord, from_json_dict, record_dict, utc_from_iso,
                    utc_to_iso)
from .store import read_jsonl

logger = logging.getLogger(__name__)

DEFAULT_MATCH_WINDOW_HOURS = 6.0
DEFAULT_FEATURE_WINDOW_DAYS = 3
OTHERS_CATEGORY = "Others"
# categories below this inferred-event count fold into "Others"
DEFAULT_MIN_CATEGORY_COUNT = 1_000


@dataclass(frozen=True)
class SpikeEventMatch:
    """One (spike, event) pairing within the matching window."""

    spike: SpikeRecord
    event_id: str
    time_offset_minutes: float  # event UTC time - spike start
    match_score: float

    def __post_init__(self):
        if not (0.0 <= self.match_score <= 1.0):
            raise ValueError(f"match_score {self.match_score} outside [0, 1]")

    to_dict = record_dict
    from_dict = classmethod(from_json_dict)


def match_spikes_to_events(
    spikes: Sequence[SpikeRecord],
    events: Sequence[EventAbstraction],
    window_hours: float = DEFAULT_MATCH_WINDOW_HOURS,
) -> List[SpikeEventMatch]:
    """Pair each spike with every event whose window intersects it.

    An event's window runs from window_hours before its derived UTC time
    to max(predicted spike duration, window_hours) after it. Matches for
    one spike are ranked by |time offset|, then by higher likelihood.
    Events without a derivable timestamp are excluded with a warning.
    """
    if window_hours <= 0:
        raise ValueError("window_hours must be positive")
    usable = []
    for event in events:
        if event.event_time_utc is None:
            logger.warning("event %s has no derivable timestamp; excluded from matching",
                           event.event_id)
            continue
        usable.append(event)

    matches: List[SpikeEventMatch] = []
    for spike in sorted(spikes, key=lambda s: (s.network_id, s.start)):
        candidates = []
        for event in usable:
            forward_hours = max(event.spike_duration_hours or 0.0, window_hours)
            win_start = event.event_time_utc - timedelta(hours=window_hours)
            win_end = event.event_time_utc + timedelta(hours=forward_hours)
            if spike.start <= win_end and spike.end >= win_start:
                offset_min = (event.event_time_utc - spike.start).total_seconds() / 60.0
                span_min = (window_hours + forward_hours) * 60.0
                score = min(1.0, max(0.0, 1.0 - abs(offset_min) / span_min))
                likelihood = event.likelihood if event.likelihood is not None else -1
                candidates.append((abs(offset_min), -likelihood, event.event_id,
                                   SpikeEventMatch(spike, event.event_id, offset_min, score)))
        candidates.sort(key=lambda c: c[:3])
        matches.extend(c[3] for c in candidates)
    return matches


def load_labels(path) -> List[dict]:
    """The ground-truth labels of a labels.jsonl file, one dict per line."""
    return list(read_jsonl(path))


def _overlaps(spike: SpikeRecord, start, end) -> bool:
    """Whether the spike and the planted interval [start, end] share a
    positive length of time, which an empty interval never does."""
    return max(spike.start, start) < min(spike.end, end)


def label_spikes(spikes: Sequence[SpikeRecord], labels: Sequence[dict],
                 matched_keys: AbstractSet[tuple]):
    """Label detected spikes against planted ground truth.

    A detected spike is event-driven when it overlaps a planted interval
    on its network. Also summarizes planted-event outcomes: a planted
    event is covered when the key of some overlapping detected spike is
    in ``matched_keys`` (the ``SpikeRecord.key()`` of every matched spike).
    Each label's bounds are parsed once, in label order, so a malformed
    label fails on the first one in file order.
    """
    intervals = [(label["network_id"], utc_from_iso(label["start"]), utc_from_iso(label["end"]))
                 for label in labels]
    intervals_by_network = defaultdict(list)
    for network_id, start, end in intervals:
        intervals_by_network[network_id].append((start, end))
    spikes_by_network = defaultdict(list)
    for spike in spikes:
        spikes_by_network[spike.network_id].append(spike)

    labeled = [
        (spike, any(_overlaps(spike, start, end)
                    for start, end in intervals_by_network.get(spike.network_id, ())))
        for spike in spikes
    ]

    non_spont_total = non_spont_covered = 0
    spont_total = spont_matched = 0
    detected_planted = 0
    for label, (network_id, start, end) in zip(labels, intervals):
        overlapping = [s for s in spikes_by_network.get(network_id, ()) if _overlaps(s, start, end)]
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


@dataclass(frozen=True)
class CoverageReport:
    per_network: Mapping  # network_id -> (covered, event_driven_total, fraction)
    overall: Optional[float]
    omitted_networks: tuple

    def to_dict(self) -> dict:
        return {
            "per_network": {
                net: {"covered": c, "event_driven": t, "coverage": f}
                for net, (c, t, f) in sorted(self.per_network.items())
            },
            "overall": self.overall,
            "omitted_networks": list(self.omitted_networks),
        }


def coverage(
    labeled_spikes: Sequence[Tuple[SpikeRecord, bool]],
    matched_keys: AbstractSet[tuple],
) -> CoverageReport:
    """Fraction of event-driven labeled spikes that got at least one match:
    whose ``SpikeRecord.key()`` is in ``matched_keys``.

    Networks with no event-driven labeled spikes are omitted (noted in
    the report) rather than reported as 0/0.
    """
    per_network: Dict[str, List[int]] = {}
    for spike, event_driven in labeled_spikes:
        stats = per_network.setdefault(spike.network_id, [0, 0])
        if event_driven:
            stats[1] += 1
            if spike.key() in matched_keys:
                stats[0] += 1

    reportize = {}
    omitted = []
    total_covered = total_driven = 0
    for net, (covered, driven) in sorted(per_network.items()):
        if driven == 0:
            omitted.append(net)
            continue
        reportize[net] = (covered, driven, covered / driven)
        total_covered += covered
        total_driven += driven
    overall = total_covered / total_driven if total_driven else None
    return CoverageReport(per_network=reportize, overall=overall,
                          omitted_networks=tuple(omitted))


@dataclass(frozen=True)
class LeadTimeCdf:
    """Empirical CDF of detection lead times for one category."""

    category: str
    lead_days: tuple  # sorted, non-negative
    cumulative_fraction: tuple  # same length, ends at 1.0
    negative_lead_count: int  # mentions that came after the event


def lead_time_cdf(
    events: Sequence[EventAbstraction],
    min_category_count: int = DEFAULT_MIN_CATEGORY_COUNT,
) -> Dict[str, LeadTimeCdf]:
    """Per-category CDF of (event time - first mention).

    Categories with fewer events than min_category_count fold into
    "Others". Events whose first mention came after the event count in a
    separate negative-lead bucket instead of the CDF.
    """
    by_cat: Dict[str, List[EventAbstraction]] = {}
    for event in events:
        if event.event_time_utc is not None:
            by_cat.setdefault(event.category or "Uncategorized", []).append(event)
    groups: Dict[str, List[EventAbstraction]] = {}
    for cat, members in by_cat.items():
        target = cat if len(members) >= min_category_count else OTHERS_CATEGORY
        groups.setdefault(target, []).extend(members)

    out = {}
    for cat in sorted(groups):
        leads = []
        negative = 0
        for event in groups[cat]:
            lead_days = (event.event_time_utc - event.first_mentioned_at).total_seconds() / 86400.0
            if lead_days < 0:
                negative += 1
            else:
                leads.append(lead_days)
        leads.sort()
        n = len(leads)
        fractions = tuple((i + 1) / n for i in range(n))
        out[cat] = LeadTimeCdf(
            category=cat,
            lead_days=tuple(leads),
            cumulative_fraction=fractions,
            negative_lead_count=negative,
        )
    return out


# -- forecaster feature export -------------------------------------------------

# Metadata columns in stable export order: the fields fixed on creation,
# then one per inferred field
EVENT_FEATURE_COLUMNS = (
    ("event_date", "event_time", "event_time_utc", "description")
    + tuple(spec.field_name for spec in INFERABLE_SPECS)
)

# the network region key each relevance map resolves through
_REGION_KEYS = {"continent_relevance": "continent", "nation_relevance": "country"}


def feature_header(levels: Sequence[int]) -> List[str]:
    return (
        ["network_id", "window_start", "window_end", "event_id"]
        + list(EVENT_FEATURE_COLUMNS)
        + [f"sig_k{k}" for k in levels]
        + ["target_peak_z"]
    )


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def export_features(
    events: Sequence[EventAbstraction],
    z_by_network: Mapping[str, ZSeries],
    network_regions: Mapping[str, Mapping[str, str]],
    levels: Sequence[int],
    window_days: int = DEFAULT_FEATURE_WINDOW_DAYS,
) -> Tuple[List[str], List[List[str]]]:
    """Flatten events into one row per (event, network), for every network
    with a Z series or a configured region, in sorted order.

    The window is window_days wide, centered on the event's UTC time.
    Relevance maps resolve to the network's configured country/continent;
    the semantic signature expands to one integer column per level. The
    target is the peak observed Z inside the window, absent when the
    window has no observed traffic. Rows come back as formatted strings
    with a stable column order, ready for CSV.
    """
    if window_days <= 0:
        raise ValueError("window_days must be positive")
    networks = sorted(set(z_by_network) | set(network_regions))
    half = timedelta(days=window_days) / 2

    header = feature_header(levels)
    rows = []
    for event in sorted(events, key=lambda e: (e.date, e.event_id)):
        if event.event_time_utc is None:
            logger.warning("event %s has no derivable timestamp; skipped in export",
                           event.event_id)
            continue
        signature = event.semantic_signature
        if signature is None:
            logger.warning("event %s has no semantic signature; emitting empty signature columns",
                           event.event_id)
            sig: Sequence = [None] * len(levels)
        elif signature.levels != tuple(int(k) for k in levels):
            logger.warning("event %s signature levels %s do not match export levels %s; "
                           "emitting empty signature columns",
                           event.event_id, signature.levels, tuple(levels))
            sig = [None] * len(levels)
        else:
            sig = list(signature.cluster_ids)
        win_start = event.event_time_utc - half
        win_end = event.event_time_utc + half
        shared = [utc_to_iso(win_start), utc_to_iso(win_end), event.event_id,
                  _fmt(event.date), _fmt(event.time), utc_to_iso(event.event_time_utc),
                  _fmt(event.description)]
        relevances = []  # (row cell, relevance map, region key), resolved per network
        for spec in INFERABLE_SPECS:
            value = getattr(event, spec.field_name)
            if value is not None and spec.data_type == "string_list":
                value = "|".join(value)
            elif value is not None and spec.data_type == "real_map":
                # a row is this list with network_id in front
                relevances.append((1 + len(shared), value, _REGION_KEYS[spec.field_name]))
                value = None
            shared.append(_fmt(value))
        shared += [_fmt(s) for s in sig]
        for network_id in networks:
            region = network_regions.get(network_id, {})
            row = [network_id, *shared,
                   _fmt(_peak_z_in_window(z_by_network.get(network_id), win_start, win_end))]
            for cell, relevance, region_key in relevances:
                row[cell] = _fmt(relevance.get(region.get(region_key, ""), 0.0))
            rows.append(row)
    return header, rows


def _peak_z_in_window(z: Optional[ZSeries], win_start, win_end) -> Optional[float]:
    """Largest observed Z among the samples timed inside [win_start, win_end]."""
    if z is None:
        return None
    step = timedelta(seconds=z.step_seconds)
    first = max(0, -((z.start - win_start) // step))  # ceiling division
    end = max(first, (win_end - z.start) // step + 1)  # one past the window's last sample
    window = z.z_values[first:end]
    observed = window[~np.isnan(window)]
    return float(observed.max()) if observed.size else None
