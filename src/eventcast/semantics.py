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
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .inference.backends import thread_pool
from .inference.fields import INFERABLE_SPECS
from .model import EventAbstraction, SemanticSignature
from .remote import JsonEndpoint, RemoteError

logger = logging.getLogger(__name__)

DEFAULT_SIM_THRESHOLD = 0.90  # "highly similar"; a documented tuning point
DEFAULT_LEVELS = (10, 100, 1_000, 10_000)
STUB_DIM = 64


@dataclass(frozen=True, eq=False)  # identity equality: compare the matrices with numpy
class EventEmbeddings:
    """Embedded events: ``matrix`` is a read-only ``(n, D)`` float64 array
    whose row ``i`` embeds ``event_ids[i]``."""

    event_ids: tuple
    matrix: np.ndarray

    def __post_init__(self):
        ids = tuple(self.event_ids)
        matrix = np.array(self.matrix, dtype=np.float64)
        if len(set(ids)) != len(ids) or matrix.ndim != 2 or len(matrix) != len(ids):
            raise ValueError(f"need one matrix row per distinct event id: {len(ids)} ids, "
                             f"matrix shape {matrix.shape}")
        matrix.flags.writeable = False
        object.__setattr__(self, "event_ids", ids)
        object.__setattr__(self, "matrix", matrix)

    @classmethod
    def stack(cls, rows: Mapping[str, Sequence[float]]) -> "EventEmbeddings":
        """One row per ``{event_id: vector}`` entry, in mapping order."""
        dims = sorted({len(vector) for vector in rows.values()})
        if len(dims) > 1:
            raise ValueError(f"mixed embedding dimensions: {dims}")
        matrix = np.array(list(rows.values()), dtype=np.float64)
        return cls(tuple(rows), matrix.reshape(len(rows), dims[0] if dims else 0))

    def __len__(self) -> int:
        return len(self.event_ids)

    def rows(self) -> Dict[str, np.ndarray]:
        """``{event_id: read-only row view}``, in row order."""
        return dict(zip(self.event_ids, self.matrix))


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

    waits_on_network = True

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


def embed_event(event: EventAbstraction, embedder) -> np.ndarray:
    """Embed one event's summary text as a float64 vector; deterministic per
    embedder. A failed request is retried once. A zero or non-finite vector
    is rejected."""
    if not event.description.strip():
        raise ValueError(f"event {event.event_id} has no description to embed")
    text = event_summary_text(event)
    last_exc: Optional[Exception] = None
    for _ in range(2):
        try:
            vector = embedder.embed(text)
            break
        except Exception as exc:
            last_exc = exc
    else:
        raise EmbeddingError(f"embedding failed for {event.event_id}: {last_exc}")
    vector = np.array(vector, dtype=np.float64)
    if not np.isfinite(vector).all():
        raise ValueError(f"embedding for {event.event_id} has non-finite components")
    if np.linalg.norm(vector) == 0.0:
        raise EmbeddingError(f"embedder returned a zero vector for {event.event_id}")
    return vector


def embed_events(events: Sequence[EventAbstraction], embedder) -> EventEmbeddings:
    """Embed each event, one matrix row per event in input order; an event
    that cannot be embedded is logged and left out.

    The embedder requests run on a ``thread_pool("request", embedder)``, so
    at most ``MAX_CONCURRENT_REQUESTS`` are in flight. Mixed widths raise
    ``ValueError``.
    """
    with thread_pool("request", embedder) as pool:
        futures = [pool.submit(embed_event, event, embedder) for event in events]
        rows = {}
        for event, future in zip(events, futures):
            try:
                rows[event.event_id] = future.result()
            except (EmbeddingError, ValueError) as exc:
                logger.warning("event %s not embedded: %s", event.event_id, exc)
    return EventEmbeddings.stack(rows)


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
    embeddings: EventEmbeddings,
    sim_threshold: float = DEFAULT_SIM_THRESHOLD,
) -> List[List[str]]:
    """Group same-date events whose embeddings are near-identical.

    Within each date bucket, events are nodes and cosine >= threshold is
    an edge; the returned groups are the connected components of size
    >= 2 (components avoid any dependence on comparison order). Events
    without an embedding row are skipped.
    """
    rows = embeddings.rows()
    by_date: Dict[str, List[str]] = {}
    for event in events:
        if event.event_id in rows:
            by_date.setdefault(event.date, []).append(event.event_id)

    groups = []
    for date_key in sorted(by_date):
        bucket = sorted(by_date[date_key])
        if len(bucket) < 2:
            continue
        uf = _UnionFind(bucket)
        for i, a in enumerate(bucket):
            for b in bucket[i + 1:]:
                if cosine_similarity(rows[a], rows[b]) >= sim_threshold:
                    uf.union(a, b)
        components: Dict[str, List[str]] = {}
        for eid in bucket:
            components.setdefault(uf.find(eid), []).append(eid)
        for root in sorted(components):
            member_ids = sorted(components[root])
            if len(member_ids) >= 2:
                groups.append(member_ids)
    return groups


def merge_events(group: Sequence[EventAbstraction]) -> EventAbstraction:
    """Merge one duplicate group under a single surviving abstraction.

    The survivor is the earliest-mentioned event (ties break to the
    smallest id, so merging is deterministic). Its source records become
    the union, absorbed ids land in merge_history, and every non-fixed
    metadata field is cleared for re-inference over the expanded record
    set.
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
    return replace(
        survivor,
        source_records=tuple(source_records),
        first_mentioned_at=min(e.first_mentioned_at for e in members),
        merge_history=survivor.merge_history + tuple(e.event_id for e in absorbed),
        # non-fixed metadata is stale: re-infer with the expanded records
        **dict.fromkeys(spec.field_name for spec in INFERABLE_SPECS),
        semantic_signature=None,
        low_confidence_fields=(),
    )


# -- k-means -----------------------------------------------------------------

@dataclass(frozen=True, eq=False)  # identity equality: compare the centroids with numpy
class ClusterModel:
    """One granularity level's fitted centroids, a read-only ``(k, D)`` float64 array."""

    level_k: int
    centroids: np.ndarray
    seed: int
    inertia: float

    def __post_init__(self):
        if self.level_k < 1:
            raise ValueError("level_k must be >= 1")
        centroids = np.array(self.centroids, dtype=np.float64)
        if centroids.ndim != 2 or len(centroids) != self.level_k or not np.isfinite(centroids).all():
            raise ValueError(f"centroids must be a finite ({self.level_k}, D) array")
        if self.inertia < 0:
            raise ValueError("inertia must be >= 0")
        centroids.flags.writeable = False
        object.__setattr__(self, "centroids", centroids)

    def to_dict(self) -> dict:
        return {
            "level_k": self.level_k,
            "centroids": self.centroids.tolist(),
            "seed": self.seed,
            "inertia": self.inertia,
        }

    @classmethod
    def from_dict(cls, d) -> "ClusterModel":
        return cls(level_k=d["level_k"], centroids=d["centroids"], seed=d["seed"],
                   inertia=d["inertia"])


_ASSIGN_BLOCK_BYTES = 32 * 2**20  # bound on one rows x k x D float64 difference block


def _assign_nearest(points: np.ndarray, centroids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Nearest centroid per point (ties to the lowest index) + distance^2."""
    n = points.shape[0]
    step = max(1, _ASSIGN_BLOCK_BYTES // (centroids.size * 8))
    assignments = np.empty(n, dtype=int)
    dist_sq = np.empty(n)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
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
    return ClusterModel(level_k=k, centroids=centroids, seed=seed, inertia=inertia), assignments


@dataclass(frozen=True)
class MultilevelClusterModels:
    """Fitted models per granularity level, for assigning future events."""

    levels: tuple
    models: tuple  # ClusterModel per level

    def assign(self, vector) -> SemanticSignature:
        vec = np.asarray(vector, dtype=float)
        ids = tuple(int(((m.centroids - vec) ** 2).sum(axis=1).argmin()) for m in self.models)
        return SemanticSignature(levels=self.levels, cluster_ids=ids)

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
    embeddings: EventEmbeddings,
    levels: Sequence[int] = DEFAULT_LEVELS,
    seed: int = 0,
) -> Tuple[Dict[str, SemanticSignature], MultilevelClusterModels]:
    """Independent k-means per granularity level -> signature per event.

    Every level clusters the one matrix of ``embeddings``, its rows taken
    in event-id order. Each level's k is clamped to the corpus size;
    signatures list the cluster id per level in level order. Level runs
    derive distinct seeds from the base seed so they stay independent but
    reproducible.
    """
    if not embeddings:
        raise ValueError("cluster_multilevel needs at least one embedding")
    order = sorted(range(len(embeddings)), key=embeddings.event_ids.__getitem__)
    matrix = embeddings.matrix[order]  # rows in event-id order
    levels = tuple(int(k) for k in levels)
    fits = [kmeans(matrix, k=level, seed=seed + index) for index, level in enumerate(levels)]
    signatures = {
        embeddings.event_ids[row]: SemanticSignature(
            levels=levels, cluster_ids=tuple(int(ids[i]) for _, ids in fits))
        for i, row in enumerate(order)
    }
    return signatures, MultilevelClusterModels(levels=levels, models=tuple(m for m, _ in fits))
