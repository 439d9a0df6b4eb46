"""Merge duplicate announcements and build multi-level semantic signatures.

Two threads announce the same match on the same date; their embeddings
exceed the cosine threshold, so they merge under the earliest mention.
Independent k-means runs at several granularities then assign every
surviving event a cluster-id vector.
"""

from datetime import datetime, timedelta, timezone

from eventcast import (
    EventAbstraction,
    cluster_multilevel,
    cosine_similarity,
    find_duplicates,
    merge_events,
)
from eventcast.semantics import HashingStubEmbedder, embed_events

UTC = timezone.utc
FIRST_POST = datetime(2025, 6, 28, 10, 0, tzinfo=UTC)


def event(event_id, description, record_id, mentioned, category, entities):
    return EventAbstraction(
        event_id=event_id, date="2025-07-05", time="20:00",
        description=description, source_records=(record_id,),
        first_mentioned_at=mentioned, category=category, entities=entities,
    )


events = [
    event("evt-a", "Cup final: Velmora Hawks vs Drassen United", "rec-1",
          FIRST_POST, "sports", ("velmora hawks", "drassen united")),
    event("evt-b", "Cup final: Velmora Hawks vs Drassen United", "rec-2",
          FIRST_POST + timedelta(days=1), "sports", ("velmora hawks", "drassen united")),
    event("evt-c", "Indie rhythm game tournament finals", "rec-3",
          FIRST_POST, "video games", ("beat arena",)),
    event("evt-d", "Open-air synthwave festival live stream", "rec-4",
          FIRST_POST, "music", ("neon fields",)),
]

embedder = HashingStubEmbedder(dim=64)
embeddings = embed_events(events, embedder)  # one (n, D) matrix, a row per event
rows = embeddings.rows()

print("pairwise cosine similarities (same date):")
for i in range(len(events)):
    for j in range(i + 1, len(events)):
        a, b = events[i], events[j]
        sim = cosine_similarity(rows[a.event_id], rows[b.event_id])
        print(f"  {a.event_id} ~ {b.event_id}: {sim:6.3f}")

groups = find_duplicates(events, embeddings, sim_threshold=0.90)
print(f"\nduplicate groups at threshold 0.90: {groups}")

by_id = {e.event_id: e for e in events}
survivors = {e.event_id: e for e in events}
for group in groups:
    merged = merge_events([by_id[g] for g in group])
    for absorbed_id in group:
        survivors.pop(absorbed_id, None)
    survivors[merged.event_id] = merged
    print(f"merged {group} -> survivor {merged.event_id} "
          f"(records {list(merged.source_records)}, history {list(merged.merge_history)})")
    print("  non-fixed metadata cleared for re-inference over the expanded records")

# merged events would be re-enriched here; re-attach minimal metadata so
# the signature text is meaningful
from dataclasses import replace
final = []
for e in survivors.values():
    if e.category is None:
        e = replace(e, category="sports", entities=("velmora hawks", "drassen united"))
    final.append(e)

final_embeddings = embed_events(final, embedder)
signatures, models = cluster_multilevel(final_embeddings, levels=[10, 100, 1000], seed=7)

print(f"\nsemantic signatures over levels {list(models.levels)} "
      f"(k clamps to the {len(final)}-event corpus):")
for event_id in sorted(signatures):
    sig = signatures[event_id]
    print(f"  {event_id}: {list(sig.cluster_ids)}")

probe_id = min(final_embeddings.event_ids)
assigned = models.assign(final_embeddings.rows()[probe_id])
print(f"\nnearest-centroid assignment reproduces a known signature: "
      f"{list(assigned.cluster_ids)}")
