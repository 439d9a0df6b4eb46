"""Reference-context retrieval and ensemble metadata inference."""

from __future__ import annotations

import json
import logging
from concurrent.futures import Executor
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import groupby
from typing import Dict, List, Optional, Protocol, Sequence, Tuple

from ..model import FAILED, ContentRecord, EventAbstraction, InferenceRun
from ..remote import JsonEndpoint
from ..textclean import clean_text
from .backends import (
    BackendError,
    BackendTimeout,
    InlineExecutor,
    LlmBackend,
    StubFixtureMissing,
    send_retrying_timeouts,
    thread_pool,
)
from .fields import (
    INFERABLE_SPECS,
    FieldSpec,
    ParseError,
    aggregate_runs,
    apply_consensus,
    normalize_string,
    parse_value,
)
from .prompts import CONTEXT_DOC_CHARS, build_field_prompt

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ContextBundle:
    """Retrieved reference docs injected into later field prompts."""

    event_id: str
    retrieved_docs: tuple  # of (title, cleaned summary text, source url)

    def __post_init__(self):
        docs = tuple((str(t), str(x), str(u)) for t, x, u in self.retrieved_docs)
        object.__setattr__(self, "retrieved_docs", docs)


EMPTY_BUNDLE = ContextBundle(event_id="", retrieved_docs=())


class RetrievalClient(Protocol):
    def search(self, query: str, max_results: int) -> List[Tuple[str, str, str]]: ...


class FixtureRetriever:
    """Serves ranked (title, text, url) docs from a query-keyed map."""

    def __init__(self, fixtures: Dict[str, List]):
        self.fixtures = {normalize_string(k): list(v) for k, v in fixtures.items()}

    @classmethod
    def from_file(cls, path) -> "FixtureRetriever":
        with open(path, "r", encoding="utf-8") as fh:
            return cls(json.load(fh))

    def search(self, query: str, max_results: int) -> List[Tuple[str, str, str]]:
        docs = self.fixtures.get(normalize_string(query), [])
        out = []
        for doc in docs[:max_results]:
            if isinstance(doc, dict):
                out.append((doc["title"], doc["text"], doc.get("url", "")))
            else:
                title, text, url = doc
                out.append((title, text, url))
        return out


class HttpRetriever:
    """Encyclopedia search over an opensearch-style JSON endpoint.

    GET {base_url}?q=<query>&limit=<n> must return a JSON list of
    {"title", "text", "url"} objects, best match first.
    """

    waits_on_network = True

    def __init__(self, base_url: str, timeout: float = 15.0):
        self.endpoint = JsonEndpoint(base_url, timeout=timeout)

    def search(self, query: str, max_results: int) -> List[Tuple[str, str, str]]:
        docs = self.endpoint.request(params={"q": query, "limit": max_results})
        return [(d["title"], d["text"], d.get("url", "")) for d in docs[:max_results]]


def enrich_with_context(
    event: EventAbstraction, retriever: RetrievalClient, max_docs: int = 3,
    pool: Executor = InlineExecutor(),
) -> ContextBundle:
    """Retrieve reference summaries for an event's entities.

    Queries are the event's entities followed by its description, all
    submitted to ``pool`` at once, in that order; docs are pooled in query
    order, deduplicated by url, and capped at max_docs. The answers of
    queries after the one that fills max_docs are not read, so a failure of
    one of them is ignored; a failure of any query before degrades to an
    empty bundle so inference can proceed without reference context.
    """
    queries = list(event.entities or ()) + [event.description]
    searches = [pool.submit(retriever.search, query, max_docs) for query in queries]
    docs: List[Tuple[str, str, str]] = []
    seen_urls = set()
    for query, search in zip(queries, searches):
        if len(docs) >= max_docs:
            break
        try:
            results = search.result()
        except Exception as exc:
            logger.warning("retrieval failed for %r: %s; continuing without context", query, exc)
            return ContextBundle(event_id=event.event_id, retrieved_docs=())
        for title, text, url in results:
            if url in seen_urls or len(docs) >= max_docs:
                continue
            seen_urls.add(url)
            docs.append((title, clean_text(text, "plain", max_chars=CONTEXT_DOC_CHARS), url))
    return ContextBundle(event_id=event.event_id, retrieved_docs=tuple(docs))


def _complete(llm: LlmBackend, prompt: str, salt: str, where: str) -> Optional[str]:
    """One ensemble member's completion, or None when it abstains on backend trouble."""
    try:
        return send_retrying_timeouts(llm, prompt, salt)
    except StubFixtureMissing:
        raise  # a fixture gap is a configuration defect, not noise
    except BackendTimeout:
        logger.warning("%s run %s timed out; counting as abstain", where, salt)
    except BackendError as exc:
        logger.warning("%s run %s failed (%s); counting as abstain", where, salt, exc)
    return None


def _infer_fields(
    event: EventAbstraction,
    specs: Sequence[FieldSpec],
    context: ContextBundle,
    llm: LlmBackend,
    pool: Executor,
    ensemble_size: int,
    max_attempts: int,
    records: Sequence[ContentRecord],
) -> List[InferenceRun]:
    """``infer_field`` for several fields whose prompts do not depend on
    each other: every ensemble member of every field still short of
    consensus is sent at once, one attempt at a time."""
    prompts = [build_field_prompt(event, spec.prompt_template_id, records=records,
                                  context_docs=context.retrieved_docs) for spec in specs]
    outputs: List[list] = [[] for _ in specs]
    consensus = [FAILED] * len(specs)
    attempts = [0] * len(specs)
    pending = list(range(len(specs)))
    for attempt in range(1, max_attempts + 1):
        if not pending:
            break
        completions = {
            i: [pool.submit(_complete, llm, prompts[i], f"a{attempt}r{run_index}",
                            f"{event.event_id}/{specs[i].field_name}")
                for run_index in range(ensemble_size)]
            for i in pending
        }
        for i in pending:
            spec = specs[i]
            values = []
            for run_index, future in enumerate(completions[i]):
                completion = future.result()
                if completion is None:
                    values.append(None)
                    continue
                try:
                    values.append(parse_value(spec.data_type, completion))
                except ParseError as exc:
                    logger.debug("%s/%s run a%dr%d unparseable: %s", event.event_id,
                                 spec.field_name, attempt, run_index, exc)
                    values.append(None)
            outputs[i].extend(values)
            attempts[i] = attempt
            consensus[i] = aggregate_runs(spec, values)
        pending = [i for i in pending if consensus[i] is FAILED]
    return [
        InferenceRun(
            event_id=event.event_id,
            field_name=spec.field_name,
            run_outputs=tuple(outputs[i]),
            consensus_value=consensus[i],
            attempts=attempts[i],
            ensemble_size=ensemble_size,
        )
        for i, spec in enumerate(specs)
    ]


def infer_field(
    event: EventAbstraction,
    spec: FieldSpec,
    context: ContextBundle,
    llm: LlmBackend,
    ensemble_size: int = 3,
    max_attempts: int = 3,
    records: Sequence[ContentRecord] = (),
) -> InferenceRun:
    """Infer one metadata field by ensemble consensus.

    Each attempt requests ensemble_size independent completions (same
    prompt, distinct run salts) concurrently on a
    ``thread_pool("request", llm)``, parses them per the field's data type
    (failures abstain), and aggregates. A failed consensus triggers a
    fresh attempt, up to max_attempts; the returned run keeps every parsed
    output plus the final consensus value or FAILED.
    """
    with thread_pool("request", llm) as pool:
        return _infer_fields(event, [spec], context, llm, pool, ensemble_size, max_attempts,
                             records)[0]


def enrich_event(
    event: EventAbstraction,
    llm: LlmBackend,
    retriever: Optional[RetrievalClient],
    records: Sequence[ContentRecord],
    ensemble_size: int = 3,
    max_attempts: int = 3,
    max_docs: int = 3,
    pool: Optional[Executor] = None,
) -> Tuple[EventAbstraction, List[InferenceRun]]:
    """Fill every unset ensemble-inferred field of one event, in
    ``INFERABLE_SPECS`` order, so that entities exist before the RAG-backed
    fields query for them.

    A prompt reads only the event's fixed fields, category and entities
    (``prompts.event_summary``), and retrieval only its entities and
    description, so each run of consecutive RAG-backed fields shares one
    retrieval, whose queries are sent together from this thread, and is
    inferred together. Every request runs on ``pool`` (a
    fresh ``thread_pool("request", llm, retriever)`` when None); runs come
    back in field order.
    """
    specs = [spec for spec in INFERABLE_SPECS if getattr(event, spec.field_name) is None]
    runs: List[InferenceRun] = []
    with nullcontext(pool) if pool is not None else \
            thread_pool("request", llm, retriever) as pool:
        for uses_rag, group in groupby(specs, key=lambda spec: spec.uses_rag):
            group = list(group)
            context, batches = EMPTY_BUNDLE, [[spec] for spec in group]
            if uses_rag:
                batches = [group]
                if retriever is not None:
                    context = enrich_with_context(event, retriever, max_docs, pool)
            for batch in batches:
                batch_runs = _infer_fields(event, batch, context, llm, pool, ensemble_size,
                                           max_attempts, records)
                for spec, run in zip(batch, batch_runs):
                    event = apply_consensus(event, spec, run.consensus_value)
                runs.extend(batch_runs)
    return event, runs
