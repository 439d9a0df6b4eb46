"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -rA` to see the per-criterion
lines in the summary.
"""

from __future__ import annotations

import json
import random
import statistics
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from eventcast.baseline import detect_spikes, spike_frequency
from eventcast.correlate import lead_time_cdf
from eventcast.inference.fields import FIELDS_BY_NAME, aggregate_runs, normalize_string
from eventcast.model import FAILED, SpikeRecord
from eventcast.pipeline import PipelineConfig, materialize_scenario, run_pipeline
from eventcast.semantics import (
    EventEmbeddings,
    cosine_similarity,
    find_duplicates,
    kmeans,
    merge_events,
)
from eventcast.store import EventStore

from .conftest import make_event
from .test_baseline import naive_detect, random_z
from .test_semantics import optimal_inertia


def announce(n, text):
    print(f"CRITERION {n}: PASS - {text}")


# -- 1. spike detector oracle equivalence -------------------------------------

def test_criterion_1_spike_detector_oracle_equivalence():
    rng = random.Random(2025)
    start = time.perf_counter()
    checked = 0
    for _ in range(1000):
        z = random_z(rng)
        assert detect_spikes(z) == naive_detect(z), "detector diverged from scan oracle"
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"oracle-equivalence sweep took {elapsed:.1f}s (budget 10s)"
    announce(1, f"{checked} random series match the linear-scan oracle exactly "
                f"in {elapsed:.1f}s")


# -- 2. aggregation property suite ---------------------------------------------

CATEGORY = FIELDS_BY_NAME["category"]
ENTITIES = FIELDS_BY_NAME["entities"]
AUDIENCE = FIELDS_BY_NAME["audience_size"]
CONTINENTS = FIELDS_BY_NAME["continent_relevance"]

TRIPLES = 500


def _assert_permutation_invariant(spec, runs, rng):
    reference = aggregate_runs(spec, runs)
    for _ in range(3):
        shuffled = list(runs)
        rng.shuffle(shuffled)
        assert repr(aggregate_runs(spec, shuffled)) == repr(reference)


def test_criterion_2_plurality_rule():
    rng = random.Random(101)
    vocab = ["Sports", "sports ", "TV & Film", "Music", "Video Games", None]
    for _ in range(TRIPLES):
        runs = [rng.choice(vocab) for _ in range(3)]
        result = aggregate_runs(CATEGORY, runs)
        counts = Counter(normalize_string(v) for v in runs if v is not None)
        if result is FAILED:
            assert not counts or max(counts.values()) < 2
        else:
            assert counts[result] >= 2
            assert counts[result] == max(counts.values())
        _assert_permutation_invariant(CATEGORY, runs, rng)
    announce(2, f"plurality >=2-vote rule holds on {TRIPLES} random triples")


def test_criterion_2_votes_ge_2_rule_and_monotonicity():
    rng = random.Random(102)
    pool = ["A", "B", "C", "D", "E"]
    for _ in range(TRIPLES):
        runs = [
            rng.sample(pool, rng.randint(0, 4)) if rng.random() > 0.15 else None
            for _ in range(3)
        ]
        result = aggregate_runs(ENTITIES, runs)
        produced = [r for r in runs if r is not None]
        if not produced:
            assert result is FAILED
        else:
            votes = Counter()
            for run in produced:
                for entry in set(normalize_string(e) for e in run):
                    votes[entry] += 1
            assert set(result) == {e for e, c in votes.items() if c >= 2}
        _assert_permutation_invariant(ENTITIES, runs, rng)

        # monotonicity: adding an entry to one run never removes entries
        if produced and result is not FAILED:
            grown = [list(r) if r is not None else None for r in runs]
            target = rng.choice([i for i, r in enumerate(grown) if r is not None])
            grown[target] = grown[target] + [rng.choice(pool)]
            assert set(result) <= set(aggregate_runs(ENTITIES, grown))
    announce(2, f"votes_ge_2 two-vote gate + monotonicity hold on {TRIPLES} random triples")


def test_criterion_2_median_exactness():
    rng = random.Random(103)
    for _ in range(TRIPLES):
        runs = [
            round(rng.uniform(0, 1000), 3) if rng.random() > 0.2 else None
            for _ in range(3)
        ]
        result = aggregate_runs(AUDIENCE, runs)
        produced = [v for v in runs if v is not None]
        if not produced:
            assert result is FAILED
        else:
            lo, hi = min(produced), max(produced)
            guard = (hi > 10 * lo) if lo > 0 else (hi > 0 and lo != hi)
            if guard:
                assert result is FAILED
            else:
                assert result == statistics.median(produced)
        _assert_permutation_invariant(AUDIENCE, runs, rng)
    announce(2, f"exact-median rule (with spread guard) holds on {TRIPLES} random triples")


def test_criterion_2_per_entry_median_gate():
    rng = random.Random(104)
    keys = ["EU", "NA", "SA", "AS"]
    for _ in range(TRIPLES):
        runs = []
        for _ in range(3):
            if rng.random() < 0.15:
                runs.append(None)
            else:
                runs.append({
                    k: round(rng.uniform(0.3, 1.0), 2)
                    for k in rng.sample(keys, rng.randint(0, 3))
                })
        result = aggregate_runs(CONTINENTS, runs)
        produced = [r for r in runs if r is not None]
        if not produced:
            assert result is FAILED
            continue
        per_key = {}
        for run in produced:
            for k, v in run.items():
                per_key.setdefault(k, []).append(v)
        kept = {k: vals for k, vals in per_key.items() if len(vals) >= 2}
        guard = any(max(vals) > 10 * min(vals) for vals in kept.values() if min(vals) > 0)
        if result is FAILED:
            assert guard
        else:
            assert set(result) == set(kept)
            for k, vals in kept.items():
                assert result[k] == statistics.median(vals)
        _assert_permutation_invariant(CONTINENTS, runs, rng)
    announce(2, f"per-entry median two-producer gate holds on {TRIPLES} random triples")


# -- 3. k-means micro optimality -------------------------------------------------

def micro_fixture_suite():
    rng = np.random.default_rng(77)
    suite = [
        (np.array([0.0, 0.1, 10.0, 10.1])[:, None], 2),
        (np.array([0.0, 5.0])[:, None], 2),
        (np.array([1.0, 1.0, 1.0])[:, None], 2),
        (np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [8.0, 8.0]]), 2),
    ]
    for n, d, k in [(5, 1, 2), (6, 2, 3), (7, 2, 3), (8, 2, 4), (8, 1, 3), (4, 2, 4)]:
        suite.append((rng.uniform(-5, 5, size=(n, d)), k))
    return suite


def test_criterion_3_kmeans_micro_optimality():
    checked = 0
    for points, k in micro_fixture_suite():
        best = min(kmeans(points, k, seed=s)[0].inertia for s in range(10))
        target = optimal_inertia(points, k)
        assert best == pytest.approx(target, abs=1e-9), (
            f"n={len(points)} k={k}: best {best} vs optimal {target}")
        checked += 1
    announce(3, f"best-of-10-seeds matches exhaustive-partition optimum on "
                f"{checked} micro datasets (<=1e-9)")


# -- 4. dedup fixpoint -------------------------------------------------------------

def random_event_corpus(rng: np.random.Generator, py_rng: random.Random):
    """Events over a few dates with planted near-duplicate clusters."""
    dates = [f"2025-07-{d:02d}" for d in range(1, 5)]
    events, vectors = [], {}
    eid = 0

    def add(vector, date):
        nonlocal eid
        event = make_event(event_id=f"evt-{eid:03d}", date=date,
                           description=f"synthetic event {eid}")
        events.append(event)
        vectors[event.event_id] = vector
        eid += 1

    for date in dates:
        # planted duplicate clusters: tight cones around a base direction
        for _ in range(py_rng.randint(0, 3)):
            base = rng.normal(size=8)
            base /= np.linalg.norm(base)
            for _ in range(py_rng.randint(2, 4)):
                jitter = base + rng.normal(scale=0.02, size=8)
                add(jitter, date)
        # singletons
        for _ in range(py_rng.randint(1, 5)):
            add(rng.normal(size=8), date)
    return events, EventEmbeddings.stack(vectors)


def bfs_components(events, embeddings, threshold):
    rows = embeddings.rows()
    by_date = {}
    for e in events:
        by_date.setdefault(e.date, []).append(e.event_id)
    components = []
    for date, ids in by_date.items():
        seen = set()
        for root in ids:
            if root in seen:
                continue
            comp, queue = [], [root]
            seen.add(root)
            while queue:
                node = queue.pop()
                comp.append(node)
                for other in ids:
                    if other in seen:
                        continue
                    sim = cosine_similarity(rows[node], rows[other])
                    if sim >= threshold:
                        seen.add(other)
                        queue.append(other)
            if len(comp) >= 2:
                components.append(sorted(comp))
    return components


def test_criterion_4_dedup_fixpoint_on_generated_corpora():
    rng = np.random.default_rng(404)
    py_rng = random.Random(405)
    corpora = 0
    merged_total = 0
    for _ in range(25):
        events, embeddings = random_event_corpus(rng, py_rng)
        groups = find_duplicates(events, embeddings, sim_threshold=0.90)

        # independent component oracle fixes the expected count change
        expected = bfs_components(events, embeddings, 0.90)
        assert sorted(map(tuple, groups)) == sorted(map(tuple, expected))
        removal = sum(len(c) for c in expected) - len(expected)

        by_id = {e.event_id: e for e in events}
        survivors = {e.event_id: e for e in events}
        for group in groups:
            merged = merge_events([by_id[g] for g in group])
            for absorbed in group:
                survivors.pop(absorbed, None)
            survivors[merged.event_id] = merged
        assert len(survivors) == len(events) - removal

        # fixpoint: no surviving same-date pair at or above the threshold
        rows = embeddings.rows()
        remaining = list(survivors.values())
        for i in range(len(remaining)):
            for j in range(i + 1, len(remaining)):
                a, b = remaining[i], remaining[j]
                if a.date != b.date:
                    continue
                sim = cosine_similarity(rows[a.event_id], rows[b.event_id])
                assert sim < 0.90
        corpora += 1
        merged_total += removal
    announce(4, f"dedup fixpoint + exact count arithmetic on {corpora} generated "
                f"corpora ({merged_total} events absorbed)")


# -- 5-8: end-to-end scenario criteria ----------------------------------------------

@pytest.fixture(scope="module")
def scenario_run(tmp_path_factory):
    from eventcast.synth import default_scenario

    base = tmp_path_factory.mktemp("acceptance")
    config_path = materialize_scenario(default_scenario(seed=7), base)
    config = PipelineConfig.load(config_path)
    started = time.perf_counter()
    report = run_pipeline(config)
    elapsed = time.perf_counter() - started
    return base, config, report, elapsed


def test_criterion_5_end_to_end_synthetic_coverage(scenario_run):
    base, config, report, elapsed = scenario_run
    scenario = json.loads((base / "scenario.json").read_text())
    events = scenario["planted_events"]
    spontaneous = [e for e in events if e["lead_time_days"] <= 0]
    assert len(events) >= 20
    assert len({e["network_id"] for e in events}) == 3
    assert len(spontaneous) / len(events) == pytest.approx(0.10, abs=0.01)

    planted = report["stages"]["report"]["planted"]
    assert report["status"] == "ok"
    assert planted["non_spontaneous_coverage"] >= 0.90
    assert planted["spontaneous_matched"] == 0
    assert planted["spontaneous_total"] == len(spontaneous)
    assert elapsed < 120.0
    announce(5, f"coverage {planted['non_spontaneous_coverage']:.2f} on "
                f"{planted['non_spontaneous_total']} non-spontaneous planted spikes, "
                f"{planted['spontaneous_total']} spontaneous unmatched, "
                f"run took {elapsed:.1f}s")


def test_criterion_6_lead_time_cdf_shape(scenario_run):
    base, config, report, _ = scenario_run
    events = EventStore(Path(config.out_dir) / "events.jsonl").load_live()
    cdfs = lead_time_cdf(events, min_category_count=3)
    tv, sports = cdfs["tv & film"], cdfs["sports"]

    def fraction_at_least(cdf, days):
        return sum(1 for lead in cdf.lead_days if lead >= days) / len(cdf.lead_days)

    tv_frac = fraction_at_least(tv, 30.0)
    sports_frac = fraction_at_least(sports, 30.0)
    assert tv_frac > sports_frac, "TV & Film must dominate Sports at 30-day lead"
    for cdf in cdfs.values():
        fractions = list(cdf.cumulative_fraction)
        assert fractions == sorted(fractions)
        assert fractions[-1] == pytest.approx(1.0)
    announce(6, f"TV & Film fraction detected >=30d before event: {tv_frac:.2f} "
                f"vs Sports {sports_frac:.2f}; all CDFs non-decreasing ending at 1.0")


def test_criterion_7_spike_frequency_report(scenario_run):
    base, config, report, _ = scenario_run
    from eventcast.store import JsonlStore

    spikes = JsonlStore(Path(config.out_dir) / "spikes.jsonl", SpikeRecord).load()
    bins = (2.0, 3.0, 5.0)
    histogram = spike_frequency(spikes, bins)
    for threshold in bins:
        assert histogram[threshold] == len([s for s in spikes if s.peak_z >= threshold])
    counts = [histogram[b] for b in bins]
    assert counts == sorted(counts, reverse=True)
    announce(7, f"histogram {counts} for bins {list(bins)} equals brute-force "
                f"counting and is non-increasing")


def test_criterion_8_reproducibility(scenario_run, tmp_path):
    base, config, report, _ = scenario_run
    outputs = {}
    for run_name in ("r1", "r2"):
        run_config = PipelineConfig.from_dict(config.to_dict())
        run_config.out_dir = str(tmp_path / run_name)
        run_pipeline(run_config)
        payload = {}
        for path in sorted(Path(run_config.out_dir).rglob("*")):
            if path.suffix in (".jsonl", ".csv") and path.is_file():
                payload[path.relative_to(run_config.out_dir)] = path.read_bytes()
        outputs[run_name] = payload
    assert outputs["r1"].keys() == outputs["r2"].keys()
    diffs = [str(k) for k in outputs["r1"] if outputs["r1"][k] != outputs["r2"][k]]
    assert not diffs, f"outputs differ between identical runs: {diffs}"
    announce(8, f"two runs produced byte-identical outputs across "
                f"{len(outputs['r1'])} JSONL/CSV files")
