from __future__ import annotations

import io
import json
import logging
import math
import tracemalloc
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest

from eventcast import semantics
from eventcast.semantics import (
    ClusterModel,
    EmbeddingError,
    EventEmbeddings,
    HashingStubEmbedder,
    MultilevelClusterModels,
    cluster_multilevel,
    cosine_similarity,
    embed_event,
    embed_events,
    find_duplicates,
    kmeans,
    merge_events,
)
from eventcast.store import EventStore

from .conftest import MONDAY, make_event

DATA = Path(__file__).parent / "data"


# -- independent oracle: exhaustive set-partition optimum ---------------------

def optimal_inertia(points, k: int) -> float:
    """Minimum within-cluster sum of squares over all partitions of the
    points into at most k non-empty blocks (restricted-growth walk)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    n = len(pts)
    best = math.inf

    def inertia(blocks):
        total = 0.0
        for block in blocks:
            cluster = pts[block]
            total += float(((cluster - cluster.mean(axis=0)) ** 2).sum())
        return total

    def walk(i, blocks):
        nonlocal best
        if i == n:
            best = min(best, inertia(blocks))
            return
        for block in blocks:
            block.append(i)
            walk(i + 1, blocks)
            block.pop()
        if len(blocks) < k:
            blocks.append([i])
            walk(i + 1, blocks)
            blocks.pop()

    walk(0, [])
    return best


def best_of_seeds(points, k, seeds=range(10)):
    best_model = None
    best_assign = None
    for seed in seeds:
        model, assign = kmeans(points, k, seed=seed)
        if best_model is None or model.inertia < best_model.inertia:
            best_model, best_assign = model, assign
    return best_model, best_assign


class TestKmeans:
    def test_two_clear_clusters_match_brute_force(self):
        points = [0.0, 0.1, 10.0, 10.1]
        model, assign = best_of_seeds(points, k=2)
        assert model.inertia == pytest.approx(optimal_inertia(points, 2), abs=1e-9)
        assert assign[0] == assign[1] and assign[2] == assign[3]
        assert assign[0] != assign[2]

    def test_k_equals_n(self):
        points = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        model, assign = kmeans(points, k=3, seed=0)
        assert model.inertia == 0.0
        assert sorted(assign) == [0, 1, 2]

    def test_k_one_is_mean(self):
        points = [[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]]
        model, _ = kmeans(points, k=1, seed=0)
        assert model.centroids[0].tolist() == [1.0, 1.0]

    def test_k_clamped_to_n(self):
        model, assign = kmeans([[0.0], [1.0]], k=10, seed=0)
        assert model.level_k == 2 and len(assign) == 2

    def test_identical_points_no_crash(self):
        model, assign = kmeans([[3.0, 3.0]] * 4, k=2, seed=1)
        assert model.inertia == 0.0
        assert len(assign) == 4

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            kmeans([[float("inf")]], k=1, seed=0)

    def test_assignments_are_nearest_fixpoint(self):
        rng = np.random.default_rng(5)
        points = rng.normal(size=(40, 3))
        model, assign = kmeans(points, k=5, seed=2)
        centroids = np.asarray(model.centroids)
        dists = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assert (dists.argmin(axis=1) == assign).all()
        assert model.inertia == pytest.approx(
            float(dists[np.arange(len(points)), assign].sum()))

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(6)
        points = rng.normal(size=(30, 2))
        m1, a1 = kmeans(points, k=4, seed=9)
        m2, a2 = kmeans(points, k=4, seed=9)
        assert m1.to_dict() == m2.to_dict() and (a1 == a2).all()

    def test_inertia_non_increasing_with_more_iterations(self):
        rng = np.random.default_rng(21)
        points = rng.normal(size=(50, 2))
        inertias = [kmeans(points, k=4, seed=3, max_iters=i)[0].inertia
                    for i in range(1, 10)]
        for earlier, later in zip(inertias, inertias[1:]):
            assert later <= earlier + 1e-9

    def test_micro_optimality_sweep(self):
        # n <= 8, D <= 2 fixtures: best of 10 seeds reaches the global optimum
        rng = np.random.default_rng(12)
        fixtures = [
            ([0.0, 0.1, 10.0, 10.1], 2),
            ([0.0, 1.0, 2.0, 10.0, 11.0], 2),
            (rng.uniform(0, 1, size=(6, 2)), 3),
            (rng.uniform(0, 1, size=(8, 2)), 3),
            (rng.normal(size=(7, 1)), 4),
        ]
        for points, k in fixtures:
            model, _ = best_of_seeds(points, k)
            assert model.inertia == pytest.approx(optimal_inertia(points, k), abs=1e-9)


# -- nearest-centroid assignment ---------------------------------------------------

def oracle_assign_nearest(points, centroids, chunk=2_048):
    """The fixed 2,048-row blocking ``_assign_nearest`` replaced."""
    n = points.shape[0]
    assignments = np.empty(n, dtype=int)
    dist_sq = np.empty(n)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        block = ((points[lo:hi, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assignments[lo:hi] = block.argmin(axis=1)
        dist_sq[lo:hi] = block[np.arange(hi - lo), assignments[lo:hi]]
    return assignments, dist_sq


def assert_same_assignment(points, centroids):
    got_ids, got_sq = semantics._assign_nearest(points, centroids)
    want_ids, want_sq = oracle_assign_nearest(points, centroids)
    assert np.array_equal(got_ids, want_ids)
    assert np.array_equal(got_sq.view(np.int64), want_sq.view(np.int64))


class TestAssignNearest:
    def tie_case(self):
        # integer grid points against duplicated and mirrored centroids:
        # many points are equidistant from several centroids
        rng = np.random.default_rng(31)
        points = rng.integers(-2, 3, size=(50, 2)).astype(float)
        centroids = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, -1.0],
                              [-1.0, 1.0], [1.0, 1.0]])
        return points, centroids

    def test_ties_go_to_lowest_index(self):
        points, centroids = self.tie_case()
        ids, _ = semantics._assign_nearest(points, centroids)
        dists = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        tied = (dists == dists.min(axis=1, keepdims=True)).sum(axis=1) > 1
        assert tied.any()
        assert (ids == dists.argmin(axis=1)).all()
        assert not np.isin(ids, [1, 5]).any()  # duplicates never win a tie
        assert_same_assignment(points, centroids)

    @pytest.mark.parametrize("rows_per_block,extra_bytes", [(1, 0), (1, -1), (3, 7), (7, 0)])
    def test_small_blocks_match_oracle_bitwise(self, monkeypatch, rows_per_block, extra_bytes):
        # one-row blocks (also when a single row exceeds the bound) and
        # a 50-point set that the block does not divide
        points, centroids = self.tie_case()
        row_bytes = centroids.size * 8
        monkeypatch.setattr(semantics, "_ASSIGN_BLOCK_BYTES",
                            rows_per_block * row_bytes + extra_bytes)
        assert_same_assignment(points, centroids)
        rng = np.random.default_rng(rows_per_block)
        assert_same_assignment(rng.normal(size=(50, 5)), rng.normal(size=(9, 5)))

    def test_default_bound_matches_oracle_bitwise(self):
        # 2,500 points at 873 rows per block, against the oracle's 2,048 + 452
        rng = np.random.default_rng(32)
        points, centroids = rng.normal(size=(2_500, 16)), rng.normal(size=(300, 16))
        assert semantics._ASSIGN_BLOCK_BYTES // (centroids.size * 8) == 873
        assert_same_assignment(points, centroids)

    def test_block_memory_bounded_by_bytes(self):
        # the 2,048-row block here would be 128 MiB
        rng = np.random.default_rng(33)
        points, centroids = rng.normal(size=(2_048, 32)), rng.normal(size=(256, 32))
        tracemalloc.start()
        try:
            semantics._assign_nearest(points, centroids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * semantics._ASSIGN_BLOCK_BYTES

    def test_kmeans_unchanged_by_block_size(self, monkeypatch):
        rng = np.random.default_rng(34)
        points = rng.normal(size=(60, 3))
        model, assign = kmeans(points, k=7, seed=4)
        monkeypatch.setattr(semantics, "_ASSIGN_BLOCK_BYTES", 1)
        one_row_model, one_row_assign = kmeans(points, k=7, seed=4)
        assert json.dumps(one_row_model.to_dict()) == json.dumps(model.to_dict())
        assert (one_row_assign == assign).all()


class TestCosine:
    def test_identity(self):
        assert cosine_similarity([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0)

    def test_hand_value(self):
        assert cosine_similarity([1.0, 1.0], [1.0, 0.0]) == pytest.approx(0.7071, abs=1e-4)

    def test_symmetric_and_scale_invariant(self):
        a, b = [0.3, -0.7, 2.0], [1.5, 0.2, -0.4]
        assert cosine_similarity(a, b) == pytest.approx(cosine_similarity(b, a))
        scaled = [3.7 * x for x in a]
        assert cosine_similarity(scaled, b) == pytest.approx(cosine_similarity(a, b))

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError, match="zero-norm"):
            cosine_similarity([0.0, 0.0], [1.0, 0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            cosine_similarity([1.0], [1.0, 2.0])


class TestEmbedding:
    def test_deterministic(self):
        event = make_event(description="Cup final at the arena")
        embedder = HashingStubEmbedder()
        e1 = embed_event(event, embedder)
        e2 = embed_event(event, HashingStubEmbedder())
        assert e1.tolist() == e2.tolist() and np.linalg.norm(e1) > 0

    def test_empty_description_rejected(self):
        event = make_event()
        object.__setattr__(event, "description", "  ")
        with pytest.raises(ValueError, match="description"):
            embed_event(event, HashingStubEmbedder())

    def test_fixture_vector(self):
        # frozen stub embedding: guards the hashing projection against
        # accidental change (it anchors every dedup fixture downstream)
        event = make_event(description="Continental Cup semi-final",
                           category="Sports", entities=("Hawks",))
        vector = embed_event(event, HashingStubEmbedder(dim=8))
        frozen = json.loads((DATA / "stub_embedding_fixture.json").read_text())
        assert list(vector) == pytest.approx(frozen, abs=1e-12)

    def test_summary_includes_category_and_entities(self):
        base = make_event(description="Same text")
        with_meta = make_event(description="Same text", category="Sports",
                               entities=("Hawks",))
        embedder = HashingStubEmbedder()
        assert (embed_event(base, embedder).tolist()
                != embed_event(with_meta, embedder).tolist())


    @pytest.mark.parametrize("vector,error", [
        ([0.0, 0.0, 0.0], EmbeddingError),
        ([1.0, float("nan"), 0.0], ValueError),
        ([float("inf"), 1.0, 0.0], ValueError),
    ])
    def test_bad_vector_skips_that_event_only(self, caplog, vector, error):
        class OneBadEmbedder:
            def embed(self, text):
                return list(vector) if "bad" in text else [1.0, 2.0, 3.0]

        events = [make_event(event_id="good-1", description="fine"),
                  make_event(event_id="bad", description="bad one"),
                  make_event(event_id="good-2", description="also fine")]
        with pytest.raises(error):
            embed_event(events[1], OneBadEmbedder())
        with caplog.at_level(logging.WARNING, logger="eventcast.semantics"):
            embeddings = embed_events(events, OneBadEmbedder())
        assert embeddings.event_ids == ("good-1", "good-2")
        assert embeddings.matrix.tolist() == [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]]
        assert [r.args[0] for r in caplog.records] == ["bad"]


class TestEventEmbeddings:
    def test_stack_is_a_read_only_float64_copy_in_mapping_order(self):
        b = np.array([0.0, 2.0])
        embeddings = EventEmbeddings.stack({"b": b, "a": [1, 3]})
        assert embeddings.event_ids == ("b", "a") and len(embeddings) == 2
        assert embeddings.matrix.dtype == np.float64
        assert embeddings.matrix.tolist() == [[0.0, 2.0], [1.0, 3.0]]
        b[0] = 9.0
        assert embeddings.matrix[0, 0] == 0.0
        with pytest.raises(ValueError):
            embeddings.matrix[0, 0] = 1.0
        with pytest.raises(ValueError):
            embeddings.rows()["a"][0] = 1.0

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError, match=r"mixed embedding dimensions: \[2, 3\]"):
            EventEmbeddings.stack({"a": (1.0, 0.0), "b": (1.0, 0.0, 0.0)})

    def test_mixed_embedder_widths_rejected(self):
        class WidthByText:
            def embed(self, text):
                return [1.0] * (3 if "wide" in text else 2)

        events = [make_event(event_id="a", description="narrow"),
                  make_event(event_id="b", description="wide")]
        with pytest.raises(ValueError, match="mixed embedding dimensions"):
            embed_events(events, WidthByText())

    def test_rows_must_match_distinct_ids(self):
        for ids, matrix in ((("a",), np.zeros((2, 3))), (("a",), np.zeros(3)),
                            (("a", "a"), np.ones((2, 3)))):
            with pytest.raises(ValueError, match="one matrix row per distinct event id"):
                EventEmbeddings(ids, matrix)

    def test_empty(self):
        embeddings = EventEmbeddings.stack({})
        assert not embeddings and embeddings.matrix.shape == (0, 0)
        assert embeddings.rows() == {}


def unit(angle_deg):
    rad = math.radians(angle_deg)
    return (math.cos(rad), math.sin(rad))


def embeddings_at(angles_deg):
    """``{event_id: angle}`` -> one unit-circle row per event."""
    return EventEmbeddings.stack({eid: unit(angle) for eid, angle in angles_deg.items()})


class TestFindDuplicates:
    def test_same_date_above_threshold(self):
        events = [make_event(event_id="a", date="2025-07-02"),
                  make_event(event_id="b", date="2025-07-02")]
        embeddings = embeddings_at({"a": 0, "b": 10})  # cos 0.985
        groups = find_duplicates(events, embeddings, sim_threshold=0.90)
        assert groups == [["a", "b"]]

    def test_different_dates_never_grouped(self):
        events = [make_event(event_id="a", date="2025-07-02"),
                  make_event(event_id="b", date="2025-07-03")]
        embeddings = embeddings_at({"a": 0, "b": 0})  # identical
        assert find_duplicates(events, embeddings) == []

    def test_chain_forms_one_component(self):
        # a~b and b~c above 0.9, a~c below: connected components join all three
        events = [make_event(event_id=e, date="2025-07-02") for e in "abc"]
        embeddings = embeddings_at({
            "a": 0.0,
            "b": 23.0,   # cos(23) = 0.921
            "c": 47.0,   # cos(24) = 0.914 to b, cos(47) = 0.682 to a
        })
        rows = embeddings.rows()
        assert cosine_similarity(rows["a"], rows["c"]) < 0.90
        groups = find_duplicates(events, embeddings, sim_threshold=0.90)
        assert groups == [["a", "b", "c"]]

    def test_singletons_not_returned(self):
        events = [make_event(event_id="a"), make_event(event_id="b")]
        embeddings = embeddings_at({"a": 0, "b": 60})
        assert find_duplicates(events, embeddings) == []


class TestMergeEvents:
    def make_pair(self):
        early = make_event(event_id="evt-early", record_id="rec-1",
                           first_mentioned_at=MONDAY,
                           category="sports", likelihood=9)
        late = make_event(event_id="evt-late", record_id="rec-2",
                          first_mentioned_at=MONDAY + timedelta(days=1),
                          category="sports", likelihood=8)
        return early, late

    def test_union_rule(self):
        early, late = self.make_pair()
        extra = make_event(event_id="evt-late", record_id="rec-3",
                           first_mentioned_at=MONDAY + timedelta(days=1))
        merged = merge_events([early, extra])
        assert merged.event_id == "evt-early"
        assert merged.source_records == ("rec-1", "rec-3")
        assert merged.merge_history == ("evt-late",)

    def test_first_mentioned_is_min(self):
        early, late = self.make_pair()
        merged = merge_events([late, early])
        assert merged.first_mentioned_at == early.first_mentioned_at

    def test_non_fixed_fields_cleared(self):
        early, late = self.make_pair()
        merged = merge_events([early, late])
        assert merged.category is None and merged.likelihood is None
        assert merged.date == early.date and merged.description == early.description

    def test_different_dates_rejected(self):
        a = make_event(event_id="a", date="2025-07-01")
        b = make_event(event_id="b", date="2025-07-02")
        with pytest.raises(ValueError, match="dates"):
            merge_events([a, b])

    def test_store_merge_and_fixpoint(self, tmp_path):
        early, late = self.make_pair()
        embeddings = embeddings_at({"evt-early": 0, "evt-late": 5})
        groups = find_duplicates([early, late], embeddings)
        assert len(groups) == 1
        with EventStore(tmp_path / "events.jsonl") as store:
            store.append(early)
            store.append(late)
            merged = merge_events([early, late])
            store.apply_merge(merged, merged.merge_history)
        live = store.load_live()
        assert [e.event_id for e in live] == ["evt-early"]
        # event count decreased by group size - 1
        assert len(live) == 2 - 1
        # re-running dedup on survivors finds nothing
        rows = embeddings.rows()
        survivors = EventEmbeddings.stack({e.event_id: rows[e.event_id] for e in live})
        assert find_duplicates(live, survivors) == []

    def test_record_ids_conserved(self):
        early, late = self.make_pair()
        merged = merge_events([early, late])
        assert set(early.source_records) | set(late.source_records) == set(merged.source_records)


class TestMultilevel:
    def make_embeddings(self, vectors):
        return EventEmbeddings.stack({f"evt-{i}": v for i, v in enumerate(vectors)})

    def test_clamped_levels_and_signature_length(self):
        rng = np.random.default_rng(0)
        embeddings = self.make_embeddings(rng.normal(size=(5, 4)))
        signatures, models = cluster_multilevel(embeddings, levels=[10, 100], seed=3)
        assert all(sig.levels == (10, 100) for sig in signatures.values())
        assert all(len(sig.cluster_ids) == 2 for sig in signatures.values())
        assert [m.level_k for m in models.models] == [5, 5]

    def test_identical_embeddings_identical_signatures(self):
        vec = [0.5, -0.2, 1.0]
        embeddings = self.make_embeddings([vec, vec, [9.0, 9.0, 9.0]])
        signatures, _ = cluster_multilevel(embeddings, levels=[2], seed=1)
        assert signatures["evt-0"] == signatures["evt-1"]

    def test_planted_partition_recovered(self):
        rng = np.random.default_rng(42)
        centers = np.array([[0.0, 0.0], [50.0, 0.0], [0.0, 50.0]])
        vectors, truth = [], []
        for label, center in enumerate(centers):
            for _ in range(6):
                vectors.append(center + rng.normal(scale=0.5, size=2))
                truth.append(label)
        embeddings = self.make_embeddings(vectors)
        signatures, _ = cluster_multilevel(embeddings, levels=[3], seed=4)
        assigned = [signatures[f"evt-{i}"].cluster_ids[0] for i in range(len(vectors))]
        # same planted group <=> same cluster id
        for i in range(len(truth)):
            for j in range(len(truth)):
                assert (assigned[i] == assigned[j]) == (truth[i] == truth[j])

    def test_models_persist_and_assign(self, tmp_path):
        rng = np.random.default_rng(2)
        embeddings = self.make_embeddings(rng.normal(size=(6, 3)))
        signatures, models = cluster_multilevel(embeddings, levels=[2, 3], seed=5)
        path = tmp_path / "models.json"
        models.save(path)
        loaded = MultilevelClusterModels.load(path)
        # assigning an existing vector reproduces its signature
        probe = embeddings.rows()["evt-0"]
        assert loaded.assign(probe) == signatures["evt-0"]

    def test_row_order_does_not_matter(self, tmp_path):
        rng = np.random.default_rng(8)
        embeddings = self.make_embeddings(rng.normal(size=(12, 4)))
        rows = embeddings.rows()
        reversed_rows = EventEmbeddings.stack(dict(reversed(list(rows.items()))))
        for path, given in ((tmp_path / "a.json", embeddings),
                            (tmp_path / "b.json", reversed_rows)):
            signatures, models = cluster_multilevel(given, levels=[3, 5], seed=2)
            models.save(path)
            assert signatures == cluster_multilevel(embeddings, levels=[3, 5], seed=2)[0]
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cluster_multilevel(EventEmbeddings.stack({}), levels=[2], seed=0)

    def test_saved_bytes_are_json_dumps(self, tmp_path):
        rng = np.random.default_rng(6)
        _, fitted = cluster_multilevel(self.make_embeddings(rng.normal(size=(40, 8))),
                                       levels=[4, 16], seed=5)
        awkward = ClusterModel(level_k=2, centroids=((-0.0, 5e-324), (1e16, 0.1 + 0.2)),
                               seed=7, inertia=1 / 3)
        for models in (fitted, MultilevelClusterModels(levels=(2,), models=(awkward,))):
            path = tmp_path / "models.json"
            models.save(path)
            dumped = io.StringIO()
            json.dump({"levels": list(models.levels),
                       "models": [m.to_dict() for m in models.models]}, dumped, sort_keys=True)
            assert path.read_bytes() == (dumped.getvalue() + "\n").encode("utf-8")


def test_cluster_model_round_trip():
    model = ClusterModel(level_k=2, centroids=((0.0, 1.0), (2.0, 3.0)), seed=7, inertia=1.5)
    assert ClusterModel.from_dict(model.to_dict()).to_dict() == model.to_dict()


def test_cluster_model_centroids_are_a_read_only_array():
    model = ClusterModel(level_k=2, centroids=[[0, 1], [2, 3]], seed=7, inertia=1.5)
    assert model.centroids.dtype == np.float64 and model.centroids.shape == (2, 2)
    with pytest.raises(ValueError):
        model.centroids[0, 0] = 5.0
    with pytest.raises(ValueError, match="finite"):
        ClusterModel(level_k=1, centroids=[[float("nan"), 0.0]], seed=0, inertia=0.0)
    with pytest.raises(ValueError, match=r"finite \(2, D\) array"):
        ClusterModel(level_k=2, centroids=[[0.0, 1.0]], seed=0, inertia=0.0)
