"""Workload inputs: scaled synthetic scenarios and their materialized files.

Every scenario is built from ``eventcast.synth`` types and functions only,
from the seed given on the command line, so the same seed always gives the
same inputs. The pipeline itself sees nothing but the written files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from eventcast import baseline, synth
from eventcast.ingest import FilterConfig
from eventcast.pipeline import PipelineConfig

STEP_SECONDS = 300
START = datetime(2025, 6, 2, tzinfo=timezone.utc)  # a Monday
HISTORY_WEEKS = 4
GAP_MARGIN = timedelta(hours=1)  # missing samples stay this far from planted intervals

_CATEGORIES = (
    ("Sports", "matchday", "Kickoff: {a} against {b}", "StreamArena"),
    ("TV & Film", "screenroom", "Premiere of {a} starring {b}", "Streamflix"),
    ("Video Games", "patchnotes", "Launch of {a} with {b}", "GameGrid"),
    ("Music", "encore", "Live concert by {a} and {b}", "TuneCast"),
)
_CONSONANTS = "bdfghklmnprstvz"
_VOWELS = "aeiou"


@dataclass(frozen=True)
class ScaleSpec:
    """Shape of one scaled scenario."""

    networks: int
    weeks: int
    events: int
    twice_share: float  # share of announced events posted twice (they merge)
    spontaneous_share: float  # share of events with no advance discussion
    gap_networks: int = 0  # networks that get missing-sample runs
    gaps_per_network: int = 0
    gap_samples: Tuple[int, int] = (6, 36)  # run length range, in samples


@dataclass
class Inputs:
    """One materialized scenario: its directory plus what the checks need."""

    scenario: synth.Scenario
    config_path: Path
    series: Dict[str, np.ndarray]  # network -> values written, NaN = missing
    gaps: List[Tuple[str, int, int]]  # (network, first sample, end sample)


def _unique_word(rng: random.Random, used: set) -> str:
    while True:
        word = "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(3))
        if word not in used:
            used.add(word)
            return word.capitalize()


def scaled_scenario(spec: ScaleSpec, seed: int) -> synth.Scenario:
    """Plant ``spec.events`` events with globally unique names and entities.

    Each event's summary shares only its template and category words with
    others, so only events announced twice reach the 0.90 dedup cosine.
    Bumps of Z >= 4 for >= 45 minutes sit 4.4 noise deviations above the
    detection threshold, so every planted interval is detected on any seed.
    """
    rng = random.Random(seed)
    used: set = set()
    networks = tuple(
        synth.SynthNetwork(f"net-{i:03d}", country=rng.choice(("DE", "US", "SE", "FR", "JP")),
                           continent=rng.choice(("EU", "NA", "AS")),
                           base_mbps=float(rng.randint(400, 1600)))
        for i in range(spec.networks)
    )
    eval_start = START + timedelta(weeks=HISTORY_WEEKS)
    eval_minutes = (spec.weeks - HISTORY_WEEKS) * 7 * 1440
    n_spontaneous = round(spec.events * spec.spontaneous_share)
    n_twice = round((spec.events - n_spontaneous) * spec.twice_share)
    events = []
    for i in range(spec.events):
        category, community, template, platform = _CATEGORIES[i % len(_CATEGORIES)]
        a = f"{_unique_word(rng, used)} {_unique_word(rng, used)}"
        b = f"{_unique_word(rng, used)} {_unique_word(rng, used)}"
        duration = 5 * rng.randint(9, 24)
        offset = 5 * rng.randrange((eval_minutes - duration) // 5)
        spontaneous = i < n_spontaneous
        network = rng.choice(networks)
        events.append(synth.PlantedEvent(
            name=f"e{i:05d}",
            headline=template.format(a=a, b=b),
            category=category,
            community=community,
            event_time=eval_start + timedelta(minutes=offset),
            magnitude_z=round(rng.uniform(4.0, 6.0), 2),
            duration_min=float(duration),
            lead_time_days=0.0 if spontaneous else float(rng.randint(2, 30)),
            network_id=network.network_id,
            entities=(a, b),
            platforms=(platform,),
            audience_size=rng.randint(100, 5000) * 1000,
            data_per_user_mb=rng.randint(300, 9000),
            continent_relevance={network.continent: 0.9},
            nation_relevance={network.country: 0.8},
            likelihood=rng.randint(5, 9),
            n_posts=2 if n_spontaneous <= i < n_spontaneous + n_twice else 1,
        ))
    return synth.Scenario(seed=seed, duration_weeks=spec.weeks, networks=networks,
                          planted_events=tuple(events), start=START,
                          history_weeks=HISTORY_WEEKS)


def plan_gaps(scenario: synth.Scenario, spec: ScaleSpec, seed: int) -> List[Tuple[str, int, int]]:
    """Missing-sample runs away from planted intervals.

    A run is rejected when it comes within GAP_MARGIN of a planted interval
    on its network, touches another run, or would leave some (weekday, bin)
    slot of the first four weeks with no data, which the baseline cannot fit.
    """
    rng = random.Random(seed ^ 0x9E3779B9)
    n_samples = spec.weeks * 7 * 86400 // STEP_SECONDS
    fit_samples = HISTORY_WEEKS * 7 * 86400 // STEP_SECONDS
    gaps = []
    for network in scenario.networks[:spec.gap_networks]:
        blocked = np.zeros(n_samples, dtype=bool)
        for ev in scenario.planted_events:
            if ev.network_id == network.network_id:
                lo = (ev.event_time - GAP_MARGIN - scenario.start) // timedelta(seconds=STEP_SECONDS)
                hi = (ev.end_time + GAP_MARGIN - scenario.start) // timedelta(seconds=STEP_SECONDS)
                blocked[max(0, lo):hi + 1] = True
        missing = np.zeros(n_samples, dtype=bool)
        placed = 0
        while placed < spec.gaps_per_network:
            length = rng.randint(*spec.gap_samples)
            first = rng.randrange(n_samples - length)
            end = first + length
            if blocked[max(0, first - 1):end + 1].any():
                continue
            trial = missing.copy()
            trial[first:end] = True
            if trial[:fit_samples].reshape(HISTORY_WEEKS, -1).all(axis=0).any():
                continue
            missing = trial
            blocked[first:end] = True
            gaps.append((network.network_id, first, end))
            placed += 1
    return sorted(gaps)


def write_inputs(scenario: synth.Scenario, gaps, out_dir: Path) -> Inputs:
    """Render traffic (with missing samples), corpus, fixtures and config.

    Writes what ``eventcast.pipeline.materialize_scenario`` writes, which has
    no way to leave samples missing. This is the set-up timed as ``setup_s``.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    series, labels = synth.synth_traffic(scenario)
    for network_id, first, end in gaps:
        values = list(series[network_id].values)
        values[first:end] = [float("nan")] * (end - first)
        series[network_id] = replace(series[network_id], values=tuple(values))
    baseline.write_traffic_csv(out_dir / "traffic.csv", [series[k] for k in sorted(series)])
    _write_jsonl(out_dir / "labels.jsonl", labels)

    posts, llm_fixtures, retriever_fixtures = synth.synth_corpus(scenario)
    _write_jsonl(out_dir / "posts.jsonl", [p.to_dict() for p in posts])
    for name, payload in (("llm_fixtures.json", llm_fixtures),
                          ("retriever_fixtures.json", retriever_fixtures)):
        with open(out_dir / name, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True)
    scenario.save(out_dir / "scenario.json")

    communities = sorted({e.community for e in scenario.planted_events if not e.spontaneous})
    config = PipelineConfig(
        out_dir="out",
        seed=scenario.seed,
        traffic_csv="traffic.csv",
        corpus_path="posts.jsonl",
        labels_path="labels.jsonl",
        filter=FilterConfig(search_terms=("premiere", "kickoff"), communities=tuple(communities),
                            min_engagement=25),
        llm={"kind": "stub", "fixtures_path": "llm_fixtures.json"},
        embedder={"kind": "hash", "dim": 64},
        retriever={"kind": "fixture", "fixtures_path": "retriever_fixtures.json"},
        min_category_count=scenario.min_category_count,
        network_regions={n.network_id: {"country": n.country, "continent": n.continent}
                         for n in scenario.networks},
    )
    config_path = out_dir / "pipeline.json"
    config.save(config_path)
    return Inputs(scenario, config_path,
                  {k: np.asarray(s.values, dtype=float) for k, s in series.items()}, gaps)


def _write_jsonl(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
