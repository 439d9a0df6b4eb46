"""Event embeddings, same-date duplicate merging, and semantic signatures.

Embeddings come from a pluggable encoder backend (HTTP, or a
deterministic hashing stub for tests). Same-date events whose embeddings
exceed a cosine threshold are duplicates: connected components merge
under the earliest-mentioned survivor. Independent k-means runs at
several granularity levels assign every event a cluster-id vector that
situates it among related events.
"""

from __future__ import annotations

import hashlib
import json
import logging
import re
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .inference.backends import thread_pool
from .model import EventAbstraction, SemanticSignature
from .remote import JsonEndpoint, RemoteError
from .store import EventStore

logger = logging.getLogger(__name__)

DEFAULT_SIM_THRESHOLD = 0.90  # "highly similar"; a documented tuning point
DEFAULT_LEVELS = (10, 100, 1_000, 10_000)
STUB_DIM = 64


@dataclass(frozen=True)
class EventEmbedding:
    event_id: str
    vector: tuple
    norm: float

    def __post_init__(self):
        vec = tuple(float(v) for v in self.vector)
        object.__setattr__(self, "vector", vec)
        if not np.isfinite(vec).all():
            raise ValueError(f"embedding for {self.event_id} has non-finite components")

    @property
    def dim(self) -> int:
        return len(self.vector)


class EmbeddingError(RuntimeError):
    """Embedder failed; the event stays un-embedded and is reported."""


class HashingStubEmbedder:
    """Deterministic embedder: pseudo-random projection of the token multiset.

    Each token maps to a fixed unit vector seeded from its SHA-256, and a
    text embeds as the count-weighted sum. Stable across processes and
    platforms, which makes fixtures and reproducibility tests possible.
    """

    def __init__(self, dim: int = STUB_DIM):
        self.dim = dim
        self._token_cache: Dict[str, np.ndarray] = {}

    def _token_vector(self, token: str) -> np.ndarray:
        if token not in self._token_cache:
            seed = int.from_bytes(hashlib.sha256(token.encode("utf-8")).digest()[:8], "big")
            rng = np.random.default_rng(seed)
            vec = rng.standard_normal(self.dim)
            self._token_cache[token] = vec / np.linalg.norm(vec)
        return self._token_cache[token]

    def embed(self, text: str) -> List[float]:
        tokens = re.findall(r"[a-z0-9]+", text.lower())
        if not tokens:
            return [0.0] * self.dim
        acc = np.zeros(self.dim)
        for token in tokens:
            acc += self._token_vector(token)
        return [float(v) for v in acc]


class HttpEmbedder:
    """JSON-over-HTTP encoder: POST {model, input} -> {"vector": [...]}."""

    def __init__(self, endpoint_url: str, model_name: str, timeout: float = 60.0):
        self.model_name = model_name
        self.endpoint = JsonEndpoint(endpoint_url, timeout=timeout)

    def embed(self, text: str) -> List[float]:
        try:
            vector = self.endpoint.request({"model": self.model_name, "input": text})["vector"]
        except (RemoteError, KeyError, TypeError) as exc:
            raise EmbeddingError(f"embedder request failed: {exc}") from exc
        return [float(v) for v in vector]


def event_summary_text(event: EventAbstraction) -> str:
    """Canonical free-text summary fed to the encoder."""
    parts = [event.description]
    if event.category:
        parts.append(event.category)
    if event.entities:
        parts.append(", ".join(event.entities))
    return "\n".join(parts)


def embed_event(event: EventAbstraction, embedder, retries: int = 1) -> EventEmbedding:
    """Embed one event's summary text; deterministic per embedder."""
    if not event.description.strip():
        raise ValueError(f"event {event.event_id} has no description to embed")
    text = event_summary_text(event)
    last_exc: Optional[Exception] = None
    for _ in range(retries + 1):
        try:
            vector = embedder.embed(text)
            break
        except Exception as exc:
            last_exc = exc
    else:
        raise EmbeddingError(f"embedding failed for {event.event_id}: {last_exc}")
    norm = float(np.linalg.norm(vector))
    if norm == 0.0:
        raise EmbeddingError(f"embedder returned a zero vector for {event.event_id}")
    return EventEmbedding(event_id=event.event_id, vector=tuple(vector), norm=norm)


def embed_events(events: Sequence[EventAbstraction], embedder) -> Dict[str, EventEmbedding]:
    """Embed each event by id, in input order; an event that cannot be
    embedded is logged and left out.

    The embedder requests run on a ``thread_pool("request")``, so at most
    ``MAX_CONCURRENT_REQUESTS`` are in flight.
    """
    with thread_pool("request") as pool:
        futures = [pool.submit(embed_event, event, embedder) for event in events]
        embeddings = {}
        for event, future in zip(events, futures):
            try:
                embeddings[event.event_id] = future.result()
            except (EmbeddingError, ValueError) as exc:
                logger.warning("event %s not embedded: %s", event.event_id, exc)
    return embeddings


def cosine_similarity(a: Sequence[float], b: Sequence[float]) -> float:
    av, bv = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if av.shape != bv.shape:
        raise ValueError(f"dimension mismatch: {av.shape} vs {bv.shape}")
    na, nb = np.linalg.norm(av), np.linalg.norm(bv)
    if na == 0 or nb == 0:
        raise ValueError("cosine similarity undefined for zero-norm vectors")
    return float(np.dot(av, bv) / (na * nb))


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def find_duplicates(
    events: Sequence[EventAbstraction],
    embeddings: Dict[str, EventEmbedding],
    sim_threshold: float = DEFAULT_SIM_THRESHOLD,
) -> List[List[str]]:
    """Group same-date events whose embeddings are near-identical.

    Within each date bucket, events are nodes and cosine >= threshold is
    an edge; the returned groups are the connected components of size
    >= 2 (components avoid any dependence on comparison order). Events
    without an embedding are skipped.
    """
    dims = {emb.dim for emb in embeddings.values()}
    if len(dims) > 1:
        raise ValueError(f"mixed embedding dimensions: {sorted(dims)}")

    by_date: Dict[str, List[EventAbstraction]] = {}
    for event in events:
        if event.event_id in embeddings:
            by_date.setdefault(event.date, []).append(event)

    groups = []
    for date_key in sorted(by_date):
        bucket = sorted(by_date[date_key], key=lambda e: e.event_id)
        if len(bucket) < 2:
            continue
        uf = _UnionFind([e.event_id for e in bucket])
        for i in range(len(bucket)):
            for j in range(i + 1, len(bucket)):
                a, b = bucket[i], bucket[j]
                sim = cosine_similarity(
                    embeddings[a.event_id].vector, embeddings[b.event_id].vector
                )
                if sim >= sim_threshold:
                    uf.union(a.event_id, b.event_id)
        components: Dict[str, List[str]] = {}
        for e in bucket:
            components.setdefault(uf.find(e.event_id), []).append(e.event_id)
        for root in sorted(components):
            member_ids = sorted(components[root])
            if len(member_ids) >= 2:
                groups.append(member_ids)
    return groups


def merge_events(
    group: Sequence[EventAbstraction], store: Optional[EventStore] = None
) -> EventAbstraction:
    """Merge one duplicate group under a single surviving abstraction.

    The survivor is the earliest-mentioned event (ties break to the
    smallest id, so merging is deterministic). Its source records become
    the union, absorbed ids land in merge_history, and every non-fixed
    metadata field is cleared for re-inference over the expanded record
    set. When a store is given, tombstones plus the replacement are
    appended atomically.
    """
    if len(group) < 2:
        raise ValueError("merge group must contain at least 2 events")
    dates = {e.date for e in group}
    if len(dates) != 1:
        raise ValueError(f"cannot merge events with different dates: {sorted(dates)}")

    members = sorted(group, key=lambda e: (e.first_mentioned_at, e.event_id))
    survivor, absorbed = members[0], members[1:]

    source_records = list(survivor.source_records)
    for event in absorbed:
        for rid in event.source_records:
            if rid not in source_records:
                source_records.append(rid)
    absorbed_ids = tuple(e.event_id for e in absorbed)
    merged = replace(
        survivor,
        source_records=tuple(source_records),
        first_mentioned_at=min(e.first_mentioned_at for e in members),
        merge_history=survivor.merge_history + absorbed_ids,
        # non-fixed metadata is stale: re-infer with the expanded records
        **dict.fromkeys(EventAbstraction.INFERABLE_FIELDS),
        semantic_signature=None,
        low_confidence_fields=(),
    )
    if store is not None:
        store.apply_merge(merged, absorbed_ids)
    return merged


# -- k-means -----------------------------------------------------------------

@dataclass(frozen=True)
class ClusterModel:
    """One granularity level's fitted centroids."""

    level_k: int
    centroids: tuple  # k x D, as nested tuples
    seed: int
    inertia: float

    def __post_init__(self):
        if self.level_k < 1:
            raise ValueError("level_k must be >= 1")
        arr = np.asarray(self.centroids, dtype=float)
        if not np.isfinite(arr).all():
            raise ValueError("centroids must be finite")
        if self.inertia < 0:
            raise ValueError("inertia must be >= 0")

    def to_dict(self) -> dict:
        return {
            "level_k": self.level_k,
            "centroids": [list(c) for c in self.centroids],
            "seed": self.seed,
            "inertia": self.inertia,
        }

    @classmethod
    def from_dict(cls, d) -> "ClusterModel":
        return cls(
            level_k=d["level_k"],
            centroids=tuple(tuple(c) for c in d["centroids"]),
            seed=d["seed"],
            inertia=d["inertia"],
        )


_ASSIGN_CHUNK = 2_048  # rows per distance block, keeps n*k memory bounded


def _assign_nearest(points: np.ndarray, centroids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Nearest centroid per point (ties to the lowest index) + distance^2."""
    n = points.shape[0]
    assignments = np.empty(n, dtype=int)
    dist_sq = np.empty(n)
    for lo in range(0, n, _ASSIGN_CHUNK):
        hi = min(lo + _ASSIGN_CHUNK, n)
        block = ((points[lo:hi, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assignments[lo:hi] = block.argmin(axis=1)
        dist_sq[lo:hi] = block[np.arange(hi - lo), assignments[lo:hi]]
    return assignments, dist_sq


def _plusplus_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    first = int(rng.integers(n))
    centroids[0] = points[first]
    closest_sq = ((points - centroids[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = closest_sq.sum()
        if total <= 0:
            idx = int(rng.integers(n))  # all points coincide with a centroid
        else:
            idx = int(rng.choice(n, p=closest_sq / total))
        centroids[i] = points[idx]
        closest_sq = np.minimum(closest_sq, ((points - centroids[i]) ** 2).sum(axis=1))
    return centroids


def kmeans(
    points, k: int, seed: int = 0, max_iters: int = 100
) -> Tuple[ClusterModel, np.ndarray]:
    """Seeded k-means++ with Lloyd iterations to an assignment fixpoint.

    Nearest-centroid ties break to the lowest centroid index; a cluster
    left empty is re-seeded with the point farthest from its assigned
    centroid. k is clamped to the number of points.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.size == 0:
        raise ValueError("kmeans needs at least one point")
    if not np.isfinite(pts).all():
        raise ValueError("kmeans points must be finite")
    n = pts.shape[0]
    k = max(1, min(int(k), n))

    rng = np.random.default_rng(seed)
    centroids = _plusplus_init(pts, k, rng)
    assignments = np.full(n, -1, dtype=int)

    for _ in range(max_iters):
        new_assignments, dist_sq = _assign_nearest(pts, centroids)

        # re-seed empty clusters with the farthest point from its centroid
        counts = np.bincount(new_assignments, minlength=k)
        if (counts == 0).any():
            point_dist = dist_sq.copy()
            for j in np.flatnonzero(counts == 0):
                far = int(point_dist.argmax())
                centroids[j] = pts[far]
                point_dist[far] = -1.0
            continue  # re-assign against the repaired centroids

        if (new_assignments == assignments).all():
            break
        assignments = new_assignments
        for j in range(k):
            centroids[j] = pts[assignments == j].mean(axis=0)
    else:
        assignments, _ = _assign_nearest(pts, centroids)

    inertia = float(((pts - centroids[assignments]) ** 2).sum())
    model = ClusterModel(
        level_k=k,
        centroids=tuple(tuple(float(x) for x in c) for c in centroids),
        seed=seed,
        inertia=inertia,
    )
    return model, assignments


@dataclass(frozen=True)
class MultilevelClusterModels:
    """Fitted models per granularity level, for assigning future events."""

    levels: tuple
    models: tuple  # ClusterModel per level

    def assign(self, vector) -> SemanticSignature:
        ids = []
        vec = np.asarray(vector, dtype=float)
        for model in self.models:
            cents = np.asarray(model.centroids, dtype=float)
            ids.append(int(((cents - vec) ** 2).sum(axis=1).argmin()))
        return SemanticSignature(levels=self.levels, cluster_ids=tuple(ids))

    def save(self, path) -> None:
        payload = {
            "levels": list(self.levels),
            "models": [m.to_dict() for m in self.models],
        }
        with open(path, "w", encoding="utf-8") as fh:
            # one dumps call runs the C encoder; json.dump encodes chunk by chunk
            fh.write(json.dumps(payload, sort_keys=True))
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "MultilevelClusterModels":
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        return cls(
            levels=tuple(payload["levels"]),
            models=tuple(ClusterModel.from_dict(m) for m in payload["models"]),
        )


def cluster_multilevel(
    embeddings: Dict[str, EventEmbedding],
    levels: Sequence[int] = DEFAULT_LEVELS,
    seed: int = 0,
) -> Tuple[Dict[str, SemanticSignature], MultilevelClusterModels]:
    """Independent k-means per granularity level -> signature per event.

    Each level's k is clamped to the corpus size; signatures list the
    cluster id per level in level order. Level runs derive distinct
    seeds from the base seed so they stay independent but reproducible.
    """
    if not embeddings:
        raise ValueError("cluster_multilevel needs at least one embedding")
    event_ids = sorted(embeddings)
    matrix = np.asarray([embeddings[eid].vector for eid in event_ids], dtype=float)

    models = []
    per_level_ids = []
    for index, level in enumerate(levels):
        model, assignments = kmeans(matrix, k=level, seed=seed + index)
        models.append(model)
        per_level_ids.append(assignments)

    signatures = {}
    for row, eid in enumerate(event_ids):
        signatures[eid] = SemanticSignature(
            levels=tuple(int(k) for k in levels),
            cluster_ids=tuple(int(per_level_ids[lvl][row]) for lvl in range(len(levels))),
        )
    return signatures, MultilevelClusterModels(levels=tuple(int(k) for k in levels),
                                               models=tuple(models))
