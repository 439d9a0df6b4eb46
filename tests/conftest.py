from __future__ import annotations

import threading
from datetime import datetime, timezone

import pytest

import eventcast.pipeline as pipeline
from eventcast.inference.fields import INFERABLE_SPECS
from eventcast.ingest import RawPost
from eventcast.model import ContentRecord, EventAbstraction, TrafficSeries
from eventcast.synth import default_scenario

UTC = timezone.utc
MONDAY = datetime(2025, 6, 2, tzinfo=UTC)  # aligned week start


def make_series(values, start=MONDAY, step_seconds=300, network_id="net-test"):
    return TrafficSeries(network_id=network_id, start=start,
                         step_seconds=step_seconds, values=tuple(values))


def week_of_samples(level=100.0, weeks=4, step_seconds=300, start=MONDAY):
    n = int(weeks * 7 * 86400 // step_seconds)
    return make_series([level] * n, start=start, step_seconds=step_seconds)


def make_record(record_id="rec-1", body="A discussion about an upcoming match.",
                created_at=MONDAY, title="Upcoming match thread", comments=(),
                engagement=50):
    return ContentRecord(
        record_id=record_id,
        source="forum_thread",
        url=f"https://forum.example/{record_id}",
        created_at=created_at,
        fetched_at=created_at,
        title=title,
        body_text=body,
        comments=tuple(comments),
        engagement=engagement,
        linked_texts=(),
    )


INFERABLE = tuple(spec.field_name for spec in INFERABLE_SPECS)


def inferred_fields(event) -> tuple:
    """The ensemble-inferred fields that hold a value, in registry order."""
    return tuple(name for name in INFERABLE if getattr(event, name) is not None)


def make_event(event_id="evt-1", date="2025-07-02", time="19:00",
               description="Continental Cup semi-final", record_id="rec-1",
               first_mentioned_at=MONDAY, **extra):
    return EventAbstraction(
        event_id=event_id,
        date=date,
        time=time,
        description=description,
        source_records=(record_id,),
        first_mentioned_at=first_mentioned_at,
        event_time_utc=datetime.fromisoformat(f"{date}T{time}:00+00:00") if time != "unknown" else None,
        **extra,
    )


def make_post(post_id="p1", community="matchday", title="Cup final announced",
              body="The cup final kicks off next Saturday.", score=80,
              outbound_urls=(), comments=(), created_at=MONDAY):
    return RawPost(
        post_id=post_id, community=community, title=title, body=body,
        score=score, outbound_urls=tuple(outbound_urls),
        comments_raw=tuple(comments), created_at=created_at,
        url=f"https://forum.example/{post_id}",
    )


@pytest.fixture
def tmp_store_dir(tmp_path):
    return tmp_path / "stores"


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    """A stub-backend run of ``default_scenario(7)``: (input dir, config, report)."""
    base = tmp_path_factory.mktemp("default_run")
    config = pipeline.PipelineConfig.load(
        pipeline.materialize_scenario(default_scenario(seed=7), base))
    return base, config, pipeline.run_pipeline(config)


class OnTheNetwork:
    """An in-process backend that declares it waits on the network, so the
    stages given it run on thread pools; it adds no latency, and records the
    names of the threads its calls ran on."""

    waits_on_network = True

    def __init__(self, inner, threads: set):
        self.inner, self.threads = inner, threads

    def send(self, prompt: str, salt: str = "") -> str:
        self.threads.add(threading.current_thread().name)
        return self.inner.send(prompt, salt)

    def embed(self, text: str):
        self.threads.add(threading.current_thread().name)
        return self.inner.embed(text)

    def search(self, query: str, max_results: int):
        self.threads.add(threading.current_thread().name)
        return self.inner.search(query, max_results)


def run_on_threads(monkeypatch) -> set:
    """Wrap the LLM, embedder and retriever that ``run_pipeline`` builds in
    ``OnTheNetwork``; returns the set their calls add thread names to."""
    threads: set = set()
    for name in ("build_llm", "build_embedder", "build_retriever"):
        def wrapped(config, build=getattr(pipeline, name)):
            return OnTheNetwork(build(config), threads)
        monkeypatch.setattr(pipeline, name, wrapped)
    return threads
