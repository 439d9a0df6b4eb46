"""Synthetic scenarios: traffic with planted spikes + a matching corpus.

Substitutes for confidential interconnect traffic and live API access so
the whole pipeline runs deterministically at desk scale. A scenario
plants events with known times, magnitudes, and discussion lead times;
``synth_traffic`` renders weekly-seasonal series with bumps, and
``synth_corpus`` writes the discussion posts plus the stub-backend
fixture maps that make inference reproduce the planted metadata.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .ingest import RawPost, assemble_content_record
from .inference.backends import prompt_key
from .inference.enrich import FixtureRetriever, enrich_event
from .inference.extract import build_event, extract_events
from .inference.fields import INFERABLE_SPECS
from .model import TrafficSeries, from_json_dict, to_json_dict, utc_to_iso
from .pipeline import PipelineConfig
from .semantics import HashingStubEmbedder, embed_events, find_duplicates, merge_events
from .store import read_json, write_json

# the run settings the synthetic inputs are made for: planted bumps are
# sized in units of the default std floor, and a run that keeps the other
# defaults sends exactly the prompts synth_corpus has completions for
RUN_DEFAULTS = PipelineConfig()


@dataclass(frozen=True)
class SynthNetwork:
    network_id: str
    country: str
    continent: str
    base_mbps: float = 800.0

    to_dict = to_json_dict
    from_dict = classmethod(from_json_dict)


@dataclass(frozen=True)
class PlantedEvent:
    """One event the scenario plants in traffic and (usually) discussion.

    A zero lead time marks a spontaneous event: it bumps traffic but has
    no advance discussion, so the pipeline cannot anticipate it.
    """

    name: str
    headline: str
    category: str
    event_time: datetime
    magnitude_z: float
    duration_min: float
    lead_time_days: float
    network_id: str
    entities: tuple = ()
    platforms: tuple = ()
    community: str = "general"
    audience_size: int = 1_000_000
    data_per_user_mb: int = 800
    continent_relevance: dict = field(default_factory=dict)
    nation_relevance: dict = field(default_factory=dict)
    likelihood: int = 8
    n_posts: int = 1
    sub_threshold: bool = False

    @property
    def spontaneous(self) -> bool:
        return self.lead_time_days <= 0

    @property
    def end_time(self) -> datetime:
        return self.event_time + timedelta(minutes=self.duration_min)

    to_dict = to_json_dict
    from_dict = classmethod(from_json_dict)


@dataclass(frozen=True)
class Scenario:
    seed: int
    duration_weeks: int
    networks: Tuple[SynthNetwork, ...]
    planted_events: Tuple[PlantedEvent, ...]
    noise_std_fraction: float = 0.02
    start: datetime = datetime(2025, 6, 2, tzinfo=timezone.utc)  # a Monday
    step_seconds: int = 300
    history_weeks: int = 4
    min_category_count: int = 3
    detection_z: float = 2.0
    detection_min_duration: float = 20.0

    def __post_init__(self):
        if self.history_weeks >= self.duration_weeks:
            raise ValueError("duration_weeks must exceed history_weeks")
        eval_start = self.start + timedelta(weeks=self.history_weeks)
        eval_end = self.start + timedelta(weeks=self.duration_weeks)
        networks = {n.network_id for n in self.networks}
        for ev in self.planted_events:
            if ev.network_id not in networks:
                raise ValueError(f"event {ev.name} targets unknown network {ev.network_id}")
            if not (eval_start <= ev.event_time and ev.end_time <= eval_end):
                raise ValueError(f"event {ev.name} falls outside the scored span")
            strong = ev.magnitude_z >= self.detection_z and ev.duration_min >= self.detection_min_duration
            if strong == ev.sub_threshold:
                raise ValueError(
                    f"event {ev.name}: magnitude/duration must satisfy the detection rule "
                    "unless marked sub_threshold"
                )

    @property
    def eval_start(self) -> datetime:
        return self.start + timedelta(weeks=self.history_weeks)

    to_dict = to_json_dict
    from_dict = classmethod(from_json_dict)

    @classmethod
    def load(cls, path) -> "Scenario":
        return cls.from_dict(read_json(path))

    def save(self, path) -> None:
        write_json(path, self.to_dict(), indent=2)


# -- traffic -----------------------------------------------------------------

def _base_curve(network: SynthNetwork, minutes_of_day: np.ndarray, weekday: np.ndarray) -> np.ndarray:
    base = network.base_mbps * 1e6
    diurnal = 1.0 + 0.35 * np.sin(2 * np.pi * (minutes_of_day / 1440.0 - 0.3))
    weekend = np.where(weekday >= 5, 1.12, 1.0)
    return base * diurnal * weekend


def synth_traffic(scenario: Scenario) -> Tuple[Dict[str, TrafficSeries], List[dict]]:
    """Render per-network series plus ground-truth planted-spike labels.

    Each series is a weekly-seasonal curve with Gaussian noise; planted
    events add a flat-top bump scaled so the scored Z lands near the
    requested magnitude. Deterministic per scenario seed.
    """
    n_samples = int(scenario.duration_weeks * 7 * 86400 // scenario.step_seconds)
    offsets = np.arange(n_samples) * scenario.step_seconds
    start_minute = scenario.start.hour * 60 + scenario.start.minute
    minutes_of_day = (start_minute + offsets // 60) % 1440
    start_day = scenario.start.weekday()
    weekday = (start_day + (start_minute * 60 + offsets) // 86400) % 7

    series = {}
    labels = []
    rng = np.random.default_rng(scenario.seed)
    for network in sorted(scenario.networks, key=lambda n: n.network_id):
        base = _base_curve(network, minutes_of_day, weekday)
        noise = rng.normal(0.0, scenario.noise_std_fraction, size=n_samples) * base
        values = base + noise
        z_unit = max(scenario.noise_std_fraction, RUN_DEFAULTS.std_floor_fraction)
        for ev in scenario.planted_events:
            if ev.network_id != network.network_id:
                continue
            lo = int((ev.event_time - scenario.start).total_seconds() // scenario.step_seconds)
            hi = int((ev.end_time - scenario.start).total_seconds() // scenario.step_seconds)
            values[lo:hi] += ev.magnitude_z * z_unit * base[lo:hi]
            labels.append({
                "network_id": network.network_id,
                "start": utc_to_iso(ev.event_time),
                "end": utc_to_iso(ev.end_time),
                "event_name": ev.name,
                "spontaneous": ev.spontaneous,
                "sub_threshold": ev.sub_threshold,
            })
        values = np.maximum(values, 0.0)
        series[network.network_id] = TrafficSeries(
            network_id=network.network_id,
            start=scenario.start,
            step_seconds=scenario.step_seconds,
            values=values,
        )
    labels.sort(key=lambda l: (l["network_id"], l["start"]))
    return series, labels


# -- corpus + stub fixtures ----------------------------------------------------

_POST_BODY = (
    "Heads up everyone: **{headline}** is happening on {date} at {time} UTC. "
    "Expect huge interest around {entities}. Who else is planning to watch?"
)
_POST_BODY_ALT = (
    "Just saw the announcement thread: {headline} ({date}, {time} UTC). "
    "The hype around {entities} is real, servers better be ready."
)
_COMMENTS = (
    "Absolutely cannot wait for this.",
    "Calling it now, streams will buckle under the load.",
    "Setting three alarms so I do not miss it.",
)


def _event_posts(scenario: Scenario, rng: random.Random) -> List[Tuple[RawPost, PlantedEvent]]:
    posts = []
    for ev in sorted(scenario.planted_events, key=lambda e: e.name):
        if ev.spontaneous:
            continue  # no advance discussion, by definition
        first_mention = ev.event_time - timedelta(days=ev.lead_time_days)
        for i in range(max(1, ev.n_posts)):
            body_tpl = _POST_BODY if i == 0 else _POST_BODY_ALT
            body = body_tpl.format(
                headline=ev.headline,
                date=ev.event_time.date().isoformat(),
                time=ev.event_time.strftime("%H:%M"),
                entities=", ".join(ev.entities) or ev.category,
            )
            title = ev.headline if i == 0 else f"{ev.headline} - discussion thread"
            posts.append((
                RawPost(
                    post_id=f"{ev.name}-p{i}",
                    community=ev.community,
                    title=title,
                    body=body,
                    score=rng.randint(40, 95),
                    outbound_urls=(),
                    comments_raw=tuple((c, rng.randint(5, 50)) for c in _COMMENTS[: i + 2]),
                    created_at=first_mention + timedelta(days=i),
                    url=f"https://forum.example/{ev.community}/{ev.name}-p{i}",
                ),
                ev,
            ))
    return posts


def _distractor_posts(scenario: Scenario, communities: Sequence[str], rng: random.Random) -> List[RawPost]:
    anchor = scenario.eval_start - timedelta(days=10)
    return [
        # passes the filter but announces nothing: extraction returns []
        RawPost(
            post_id="distractor-recipe", community=communities[0],
            title="My grandmother's stew recipe, finally written down",
            body="Slow-cooked for six hours with bay leaves. No event here, just food.",
            score=70, outbound_urls=(), comments_raw=(("Looks delicious", 12),),
            created_at=anchor, url="https://forum.example/recipe",
        ),
        # fails the engagement threshold
        RawPost(
            post_id="distractor-lowscore", community=communities[0],
            title="Anyone else notice the weather?", body="It rained.",
            score=1, outbound_urls=(), comments_raw=(),
            created_at=anchor, url="https://forum.example/weather",
        ),
        # community outside the filter
        RawPost(
            post_id="distractor-offtopic", community="knitting",
            title="Cast-on techniques compared", body="Long-tail vs. cable cast-on.",
            score=88, outbound_urls=(), comments_raw=(),
            created_at=anchor, url="https://forum.example/knitting",
        ),
    ]


def _field_completions(ev: PlantedEvent, spec) -> List[str]:
    """Three ensemble completions whose consensus is the planted value."""
    if spec.field_name == "category":
        return [ev.category, ev.category, "Other"]
    if spec.field_name == "entities":
        return [json.dumps(list(ev.entities))] * 3
    if spec.field_name == "platforms":
        return [json.dumps(list(ev.platforms))] * 3
    if spec.field_name == "data_per_user_mb":
        v = ev.data_per_user_mb
        return [str(v), str(int(v * 1.1)), str(max(1, int(v * 0.9)))]
    if spec.field_name == "audience_size":
        v = ev.audience_size
        return [str(v), str(int(v * 1.2)), str(max(1, int(v * 0.85)))]
    if spec.field_name == "continent_relevance":
        return [json.dumps(ev.continent_relevance, sort_keys=True)] * 3
    if spec.field_name == "nation_relevance":
        return [json.dumps(ev.nation_relevance, sort_keys=True)] * 3
    if spec.field_name == "spike_duration_hours":
        v = ev.duration_min / 60.0
        return [repr(round(v, 2)), repr(round(v * 1.25, 2)), repr(round(max(0.1, v * 0.8), 2))]
    if spec.field_name == "likelihood":
        v = ev.likelihood
        return [str(v), str(v), str(min(10, v + 1))]
    raise ValueError(f"no synthetic completion rule for field {spec.field_name}")


class _RecordingLlm:
    """Answers each ``send`` with the next of ``answers`` and stores it as the
    stub fixture of that prompt and salt; a salt outside ``salts`` (a
    re-prompt or re-sample), or a send after the last answer, raises."""

    def __init__(self, fixtures: Dict[str, str], answers: Sequence[str], salts: Sequence[str]):
        self.fixtures, self.answers, self.salts = fixtures, iter(answers), salts

    def send(self, prompt: str, salt: str = "") -> str:
        if salt not in self.salts:
            raise RuntimeError(f"synthetic fixtures hold no answer for salt {salt!r}")
        answer = next(self.answers, None)
        if answer is None:
            raise RuntimeError(f"synthetic fixtures ran out of answers at salt {salt!r}")
        self.fixtures[prompt_key(prompt, salt)] = answer
        return answer


def _record_enrichment(event, planted: PlantedEvent, records_by_id, retriever,
                       fixtures: Dict[str, str]):
    """Enrich ``event`` over its source records as the pipeline will, recording
    the planted answers. Inline, ``enrich_event`` fills the fields in
    ``INFERABLE_SPECS`` order, each field's ensemble members in turn. The
    recorder answers only first-attempt salts, so a planted answer that
    misses consensus raises at the second attempt's first request."""
    answers = [c for spec in INFERABLE_SPECS for c in _field_completions(planted, spec)]
    salts = [f"a1r{i}" for i in range(RUN_DEFAULTS.ensemble_size)]
    event, _ = enrich_event(
        event, _RecordingLlm(fixtures, answers, salts), retriever,
        [records_by_id[rid] for rid in event.source_records],
        ensemble_size=RUN_DEFAULTS.ensemble_size, max_attempts=RUN_DEFAULTS.max_attempts,
        max_docs=RUN_DEFAULTS.max_context_docs)
    return event


def synth_corpus(scenario: Scenario) -> Tuple[List[RawPost], Dict[str, str], Dict[str, list]]:
    """Generate the discussion corpus plus complete stub fixture maps.

    Returns (posts, llm_fixtures, retriever_fixtures). The LLM fixtures are
    recorded by running extraction, enrichment and dedup inline: they cover
    the extraction prompt per record, every pre-merge field prompt, and the
    re-inference prompts for events that will merge during dedup, so a
    stub-backed run with ``PipelineConfig``'s default comments, ensemble
    size, context docs, time zone, embedder and dedup threshold never misses
    a key. Spontaneous events get traffic bumps only: no posts.
    """
    rng = random.Random(scenario.seed)
    tagged_posts = _event_posts(scenario, rng)
    communities = sorted({ev.community for ev in scenario.planted_events if not ev.spontaneous}) or ["general"]
    posts = [p for p, _ in tagged_posts] + _distractor_posts(scenario, communities, rng)

    retriever_fixtures: Dict[str, list] = {}
    for ev in scenario.planted_events:
        for entity in ev.entities:
            retriever_fixtures.setdefault(entity, [{
                "title": entity,
                "text": f"{entity} is central to {ev.headline.lower()} and draws a large online following.",
                "url": f"https://wiki.example/{entity.replace(' ', '_')}",
            }])
    retriever = FixtureRetriever(retriever_fixtures)

    llm_fixtures: Dict[str, str] = {}
    events, records_by_id, planted_by_id = [], {}, {}

    def extract(post: RawPost, answer: str):
        record = assemble_content_record(post, top_k_comments=RUN_DEFAULTS.top_k_comments)
        records_by_id[record.record_id] = record
        return record, extract_events(record, _RecordingLlm(llm_fixtures, [answer], ["extract"]))

    for post, ev in tagged_posts:
        record, (draft,) = extract(post, json.dumps([{
            "headline": ev.headline,
            "date": ev.event_time.date().isoformat(),
            "time": ev.event_time.strftime("%H:%M"),
        }]))
        event = build_event(draft, record, default_timezone=RUN_DEFAULTS.default_timezone)
        events.append(event)
        planted_by_id[event.event_id] = ev

    # the no-event distractor still gets an extraction fixture
    extract(next(p for p in posts if p.post_id == "distractor-recipe"), "[]")

    enriched = [_record_enrichment(event, planted_by_id[event.event_id], records_by_id,
                                   retriever, llm_fixtures) for event in events]

    # events that will merge re-infer everything over the expanded records
    embedder = HashingStubEmbedder(dim=RUN_DEFAULTS.embedder["dim"])
    by_id = {e.event_id: e for e in enriched}
    for group_ids in find_duplicates(enriched, embed_events(enriched, embedder),
                                     sim_threshold=RUN_DEFAULTS.dedup_threshold):
        merged = merge_events([by_id[eid] for eid in group_ids])
        _record_enrichment(merged, planted_by_id[merged.event_id], records_by_id, retriever,
                           llm_fixtures)

    return posts, llm_fixtures, retriever_fixtures


# -- built-in scenarios ----------------------------------------------------------

def _ev(name, headline, category, community, entities, platforms, day, hhmm,
        duration_min, magnitude, lead_days, network_id, eval_start,
        audience, data_mb, cont_rel, nat_rel, likelihood=8, n_posts=1):
    hh, mm = (int(p) for p in hhmm.split(":"))
    return PlantedEvent(
        name=name, headline=headline, category=category, community=community,
        entities=tuple(entities), platforms=tuple(platforms),
        event_time=eval_start + timedelta(days=day, hours=hh, minutes=mm),
        magnitude_z=magnitude, duration_min=duration_min, lead_time_days=lead_days,
        network_id=network_id, audience_size=audience, data_per_user_mb=data_mb,
        continent_relevance=cont_rel, nation_relevance=nat_rel,
        likelihood=likelihood, n_posts=n_posts,
    )


def default_scenario(seed: int = 7) -> Scenario:
    """Twenty planted events over three networks, one eval week.

    Two events (10%) are spontaneous: they bump traffic with zero
    discussion lead, so the pipeline can only miss them. Their times sit
    in gaps no other event's 6-hour matching window reaches; keep that
    property if editing the schedule. Two announcements are posted twice
    to exercise dedup merging end to end.
    """
    networks = (
        SynthNetwork("net-eu-1", country="DE", continent="EU", base_mbps=900),
        SynthNetwork("net-na-1", country="US", continent="NA", base_mbps=1200),
        SynthNetwork("net-eu-2", country="SE", continent="EU", base_mbps=600),
    )
    start = datetime(2025, 6, 2, tzinfo=timezone.utc)
    eval_start = start + timedelta(weeks=4)
    eu = {"EU": 0.9, "NA": 0.3}
    na = {"NA": 0.9, "EU": 0.3}
    world = {"EU": 0.7, "NA": 0.7, "AS": 0.5}
    events = [
        # sports: short notice
        _ev("s1", "Continental Cup semi-final: Velmora Hawks vs Drassen United", "Sports",
            "matchday", ["Velmora Hawks", "Drassen United"], ["StreamArena"],
            0, "19:00", 120, 5.0, 4, "net-eu-1", eval_start, 2_000_000, 1500, eu,
            {"DE": 0.9, "GB": 0.4}, likelihood=9, n_posts=2),
        _ev("s2", "Harbor City derby: Ostfell FC vs Baylight Rovers", "Sports",
            "matchday", ["Ostfell FC", "Baylight Rovers"], ["StreamArena"],
            1, "15:00", 110, 4.5, 3, "net-eu-2", eval_start, 900_000, 1400, eu,
            {"SE": 0.8, "DK": 0.3}, likelihood=9),
        _ev("s3", "National basketball finals game five", "Sports",
            "matchday", ["Redport Giants", "Calverton Jays"], ["HoopsNet"],
            2, "22:00", 100, 4.0, 2, "net-na-1", eval_start, 3_000_000, 1200, na,
            {"US": 0.9, "CA": 0.5}, likelihood=8),
        _ev("s4", "Openweight boxing title fight: Maren vs Kovic", "Sports",
            "matchday", ["Tomas Maren", "Ilya Kovic"], ["FightPass"],
            4, "21:00", 90, 5.5, 6, "net-na-1", eval_start, 4_000_000, 1800, world,
            {"US": 0.8, "DE": 0.4}, likelihood=8),
        _ev("s5", "Cycling grand tour mountain stage finale", "Sports",
            "matchday", ["Tour Montane"], ["VeloLive"],
            5, "14:00", 150, 4.0, 5, "net-eu-1", eval_start, 1_200_000, 900, eu,
            {"FR": 0.8, "DE": 0.5}, likelihood=9),
        _ev("s6", "Tennis open championship final", "Sports",
            "matchday", ["Mira Vance", "Lena Okafor"], ["CourtStream"],
            6, "13:00", 130, 4.5, 3, "net-eu-2", eval_start, 1_500_000, 1100, world,
            {"SE": 0.6, "US": 0.5}, likelihood=9),
        # tv & film: long notice
        _ev("t1", "Season finale of The Glass Meridian", "TV & Film",
            "screenroom", ["The Glass Meridian"], ["Streamflix"],
            0, "20:00", 90, 5.0, 40, "net-na-1", eval_start, 5_000_000, 2500, world,
            {"US": 0.9, "GB": 0.6}, likelihood=9, n_posts=2),
        _ev("t2", "Premiere of the conclave drama series White Smoke", "TV & Film",
            "screenroom", ["White Smoke"], ["Streamflix"],
            1, "21:00", 80, 4.0, 35, "net-eu-1", eval_start, 2_500_000, 2200, eu,
            {"DE": 0.7, "IT": 0.8}, likelihood=8),
        _ev("t3", "Documentary launch: Beneath the Ice Shelf", "TV & Film",
            "screenroom", ["Beneath the Ice Shelf"], ["DocuPlay"],
            2, "18:00", 60, 3.5, 30, "net-eu-2", eval_start, 700_000, 1600, eu,
            {"SE": 0.7, "NO": 0.6}, likelihood=8),
        _ev("t4", "Anthology horror special midnight drop", "TV & Film",
            "screenroom", ["Crimson Hours"], ["Streamflix"],
            3, "23:00", 70, 4.0, 38, "net-na-1", eval_start, 1_800_000, 2000, na,
            {"US": 0.8, "MX": 0.4}, likelihood=7),
        _ev("t5", "Live award gala for streaming originals", "TV & Film",
            "screenroom", ["Meridian Awards"], ["GalaCast"],
            5, "19:30", 120, 4.5, 45, "net-eu-1", eval_start, 2_200_000, 1700, world,
            {"DE": 0.6, "US": 0.7}, likelihood=8),
        _ev("t6", "Interactive film premiere: Choose the Dawn", "TV & Film",
            "screenroom", ["Choose the Dawn"], ["Streamflix"],
            6, "20:30", 75, 3.8, 32, "net-eu-2", eval_start, 1_000_000, 2100, eu,
            {"SE": 0.7, "FI": 0.5}, likelihood=8),
        # video games: mixed notice
        _ev("g1", "Worldwide launch of Starfall Frontier expansion", "Video Games",
            "patchnotes", ["Starfall Frontier"], ["GameGrid"],
            1, "17:00", 180, 6.0, 20, "net-na-1", eval_start, 3_500_000, 9000, world,
            {"US": 0.8, "KR": 0.6}, likelihood=9),
        _ev("g2", "Battle royale season reset with double XP weekend", "Video Games",
            "patchnotes", ["Nova Drop"], ["GameGrid"],
            3, "16:00", 240, 4.0, 1.5, "net-eu-1", eval_start, 2_800_000, 6000, world,
            {"DE": 0.6, "FR": 0.6}, likelihood=8),
        _ev("g3", "Speedrun charity marathon opening block", "Video Games",
            "patchnotes", ["Games Done Fast"], ["StreamArena"],
            4, "12:00", 300, 3.5, 12, "net-na-1", eval_start, 600_000, 1000, na,
            {"US": 0.7, "CA": 0.4}, likelihood=9),
        _ev("g4", "MMO cross-server siege weekend begins", "Video Games",
            "patchnotes", ["Eternal Siege"], ["GameGrid"],
            5, "18:00", 200, 4.2, 8, "net-eu-2", eval_start, 1_400_000, 5000, eu,
            {"SE": 0.6, "PL": 0.5}, likelihood=8),
        # music: a sparse category, folds into "Others" in reports
        _ev("m1", "Global livestream concert: Aurora Veil reunion", "Music",
            "encore", ["Aurora Veil"], ["TuneCast"],
            2, "20:00", 150, 5.0, 10, "net-eu-1", eval_start, 2_600_000, 1300, world,
            {"DE": 0.7, "JP": 0.5}, likelihood=9),
        _ev("m2", "Album listening party with live Q&A", "Music",
            "encore", ["Jun Halley"], ["TuneCast"],
            4, "19:00", 60, 3.6, 7, "net-na-1", eval_start, 800_000, 700, na,
            {"US": 0.7, "BR": 0.4}, likelihood=8),
    ]
    # spontaneous events: traffic only, zero lead, placed in match-window gaps
    events.append(PlantedEvent(
        name="b1", headline="Sudden retirement announcement of football legend",
        category="Breaking News", event_time=eval_start + timedelta(days=3, hours=5),
        magnitude_z=5.0, duration_min=60, lead_time_days=0.0, network_id="net-eu-1",
    ))
    events.append(PlantedEvent(
        name="b2", headline="Surprise flash sale crashes storefronts",
        category="Breaking News", event_time=eval_start + timedelta(days=6, hours=2, minutes=30),
        magnitude_z=4.5, duration_min=45, lead_time_days=0.0, network_id="net-na-1",
    ))
    return Scenario(
        seed=seed,
        duration_weeks=5,
        networks=networks,
        planted_events=tuple(events),
        noise_std_fraction=0.02,
        start=start,
        history_weeks=4,
        min_category_count=3,
    )


BUILTIN_SCENARIOS = {"default": default_scenario}
