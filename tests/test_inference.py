from __future__ import annotations

import json
import threading
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest

from eventcast.inference.backends import (
    BackendTimeout,
    HttpLlmBackend,
    LlmBackendConfig,
    StubFixtureMissing,
    StubLlmBackend,
    TIMEOUT_RETRIES,
    prompt_key,
    thread_pool,
)
from eventcast.inference.enrich import (
    ContextBundle,
    FixtureRetriever,
    HttpRetriever,
    enrich_event,
    enrich_with_context,
    infer_field,
)
from eventcast.inference.extract import (
    ExtractionError,
    build_event,
    event_id_for,
    extract_events,
)
from eventcast.inference.fields import FIELDS_BY_NAME, ParseError, parse_value
from eventcast.inference.prompts import (
    CONTEXT_DOC_CHARS,
    FORMAT_REMINDER,
    build_extract_prompt,
    build_field_prompt,
)
from eventcast.model import FAILED, InvariantError
from eventcast.textclean import clean_text

from .conftest import INFERABLE, inferred_fields, make_event, make_record

DATA = Path(__file__).parent / "data"


def golden_record():
    return make_record(
        record_id="rec-golden", title="Cup final announced for May 31",
        body="The **cup final** is confirmed for May 31 at 20:00 UTC. Tickets sold out in minutes.",
        comments=("Going to watch with friends.", "Streams will melt."),
    )


class TestExtractEvents:
    def test_two_event_completion(self):
        record = make_record()
        completion = json.dumps([
            {"headline": "Cup final", "date": "2025-07-05", "time": "20:00"},
            {"headline": "Qualifier draw", "date": "2025-07-08", "time": "unknown"},
        ])
        llm = StubLlmBackend({prompt_key(build_extract_prompt(record), "extract"): completion})
        drafts = extract_events(record, llm)
        assert [d.headline for d in drafts] == ["Cup final", "Qualifier draw"]
        assert {d.date for d in drafts} == {"2025-07-05", "2025-07-08"}

    def test_no_event_thread(self):
        record = make_record(body="A stew recipe, slow cooked.")
        llm = StubLlmBackend({prompt_key(build_extract_prompt(record), "extract"): "[]"})
        assert extract_events(record, llm) == []

    def test_golden_prompt_byte_equal(self):
        record = golden_record()
        expected = (DATA / "golden_extract_prompt.txt").read_text(encoding="utf-8")
        llm = StubLlmBackend({prompt_key(expected, "extract"): "[]"})
        extract_events(record, llm)  # would raise StubFixtureMissing on drift

    def test_unparseable_gets_one_format_reminder(self):
        record = make_record()
        prompt = build_extract_prompt(record)
        llm = StubLlmBackend({
            prompt_key(prompt, "extract"): "sorry, here are the events in prose",
            prompt_key(prompt + FORMAT_REMINDER, "extract-retry"):
                '[{"headline": "Cup final", "date": "2025-07-05", "time": "20:00"}]',
        })
        drafts = extract_events(record, llm)
        assert len(drafts) == 1 and drafts[0].headline == "Cup final"

    def test_unparseable_twice_fails(self):
        record = make_record()
        prompt = build_extract_prompt(record)
        llm = StubLlmBackend({
            prompt_key(prompt, "extract"): "prose",
            prompt_key(prompt + FORMAT_REMINDER, "extract-retry"): "still prose",
        })
        with pytest.raises(ExtractionError, match="unparseable"):
            extract_events(record, llm)

    def test_timeout_retried_then_fatal(self):
        record = make_record()

        class TimeoutBackend:
            def __init__(self):
                self.calls = 0

            def send(self, prompt, salt=""):
                self.calls += 1
                raise BackendTimeout("slow")

        backend = TimeoutBackend()
        with pytest.raises(ExtractionError, match="timed out"):
            extract_events(record, backend)
        assert backend.calls == 1 + TIMEOUT_RETRIES

    def test_past_dates_flagged_not_dropped(self):
        record = make_record()  # created 2025-06-02
        completion = json.dumps([
            {"headline": "Old final", "date": "2025-05-01", "time": "20:00"},
            {"headline": "New final", "date": "2025-07-05", "time": "20:00"},
        ])
        llm = StubLlmBackend({prompt_key(build_extract_prompt(record), "extract"): completion})
        drafts = extract_events(record, llm)
        assert len(drafts) == 2
        assert drafts[0].flags == ("past_dated",)
        assert drafts[1].flags == ()


class TestBuildEvent:
    def test_constructor_contract(self):
        record = make_record()
        from eventcast.model import EventDraft
        draft = EventDraft(headline="Cup final", date="2025-05-31", time="20:00",
                           source_record=record.record_id)
        event = build_event(draft, record)
        assert "Cup final" in event.description
        assert event.date == "2025-05-31"
        assert event.source_records == (record.record_id,)
        assert event.first_mentioned_at == record.created_at
        assert event.event_time_utc is not None
        assert inferred_fields(event) == ()

    def test_two_drafts_share_source_record(self):
        record = make_record()
        from eventcast.model import EventDraft
        d1 = EventDraft(headline="A", date="2025-07-01", time="unknown",
                        source_record=record.record_id)
        d2 = EventDraft(headline="B", date="2025-07-02", time="unknown",
                        source_record=record.record_id)
        e1, e2 = build_event(d1, record), build_event(d2, record)
        assert e1.event_id != e2.event_id
        assert e1.source_records == e2.source_records == (record.record_id,)

    def test_malformed_date_rejected_at_draft(self):
        from eventcast.model import EventDraft
        with pytest.raises(InvariantError, match="date"):
            EventDraft(headline="x", date="31/13/2025", time="20:00", source_record="rec-1")

    def test_event_id_stable(self):
        assert event_id_for("rec-1", "2025-07-01", "Final") == event_id_for(
            "rec-1", "2025-07-01", "Final")


def field_stub(event, spec, completions_by_salt, records=()):
    """Stub covering one field's prompt for the given salts."""
    prompt = build_field_prompt(event, spec.prompt_template_id, records=records)
    return StubLlmBackend({
        prompt_key(prompt, salt): completion
        for salt, completion in completions_by_salt.items()
    })


class TestInferField:
    def test_plurality_consensus(self):
        event = make_event()
        spec = FIELDS_BY_NAME["category"]
        llm = field_stub(event, spec, {"a1r0": "Sports", "a1r1": "Sports", "a1r2": "TV & Film"})
        run = infer_field(event, spec, ContextBundle("evt-1", ()), llm)
        assert run.consensus_value == "sports"
        assert run.attempts == 1 and len(run.run_outputs) == 3

    def test_median_consensus(self):
        event = make_event()
        spec = FIELDS_BY_NAME["audience_size"]
        llm = field_stub(event, spec, {"a1r0": "1e6", "a1r1": "2e6", "a1r2": "5e6"})
        run = infer_field(event, spec, ContextBundle("evt-1", ()), llm)
        assert run.consensus_value == 2_000_000

    def test_no_consensus_retries_then_fails(self):
        event = make_event()
        spec = FIELDS_BY_NAME["category"]
        completions = {}
        values = ["A", "B", "C"]
        for attempt in (1, 2, 3):
            for r in range(3):
                completions[f"a{attempt}r{r}"] = values[r] + str(attempt)
        llm = field_stub(event, spec, completions)
        run = infer_field(event, spec, ContextBundle("evt-1", ()), llm, max_attempts=3)
        assert run.failed and run.consensus_value is FAILED
        assert run.attempts == 3 and len(run.run_outputs) == 9

    def test_parse_failure_counts_as_abstain(self):
        event = make_event()
        spec = FIELDS_BY_NAME["audience_size"]
        llm = field_stub(event, spec, {"a1r0": "seven-ish", "a1r1": "not sure", "a1r2": "7"})
        run = infer_field(event, spec, ContextBundle("evt-1", ()), llm)
        assert run.run_outputs == (None, None, 7)
        assert run.consensus_value == 7  # median over the single produced value

    def test_reproducible_with_stub(self):
        event = make_event()
        spec = FIELDS_BY_NAME["category"]
        completions = {"a1r0": "Music", "a1r1": "Music", "a1r2": "Music"}
        run1 = infer_field(event, spec, ContextBundle("evt-1", ()),
                           field_stub(event, spec, completions))
        run2 = infer_field(event, spec, ContextBundle("evt-1", ()),
                           field_stub(event, spec, completions))
        assert run1 == run2

    def test_missing_fixture_is_fatal_naming_hash(self):
        event = make_event()
        spec = FIELDS_BY_NAME["category"]
        with pytest.raises(StubFixtureMissing, match="[0-9a-f]{16}"):
            infer_field(event, spec, ContextBundle("evt-1", ()), StubLlmBackend({}))


class TestEnrichWithContext:
    def test_fixture_lookup(self):
        event = make_event(entities=("Team X",))
        retriever = FixtureRetriever({
            "Team X": [{"title": "Team X", "text": "A club with a loud fanbase.", "url": "u1"}],
        })
        bundle = enrich_with_context(event, retriever, max_docs=3)
        assert bundle.retrieved_docs == (("Team X", "A club with a loud fanbase.", "u1"),)

    def test_offline_retriever_degrades(self):
        event = make_event(entities=("Team X",))

        class Offline:
            def search(self, query, max_results):
                raise ConnectionError("unreachable")

        bundle = enrich_with_context(event, Offline(), max_docs=3)
        assert bundle.retrieved_docs == ()

    def test_max_docs_keeps_highest_ranked(self):
        event = make_event(entities=("Team X",))
        retriever = FixtureRetriever({
            "Team X": [
                {"title": "Best", "text": "rank 0", "url": "u0"},
                {"title": "Second", "text": "rank 1", "url": "u1"},
            ],
        })
        bundle = enrich_with_context(event, retriever, max_docs=1)
        assert [d[0] for d in bundle.retrieved_docs] == ["Best"]

    def test_docs_deduplicated_by_url(self):
        event = make_event(entities=("A", "B"))
        doc = {"title": "Shared", "text": "same doc", "url": "same"}
        retriever = FixtureRetriever({"A": [doc], "B": [doc]})
        bundle = enrich_with_context(event, retriever, max_docs=5)
        assert len(bundle.retrieved_docs) == 1


def oracle_enrich_with_context(event, retriever, max_docs=3):
    """Retrieval one query at a time, stopping once max_docs are pooled."""
    queries = list(event.entities or ()) + [event.description]
    docs = []
    seen_urls = set()
    for query in queries:
        if len(docs) >= max_docs:
            break
        try:
            results = retriever.search(query, max_docs)
        except Exception:
            return ContextBundle(event_id=event.event_id, retrieved_docs=())
        for title, text, url in results:
            if url in seen_urls or len(docs) >= max_docs:
                continue
            seen_urls.add(url)
            docs.append((title, clean_text(text, "plain", max_chars=CONTEXT_DOC_CHARS), url))
    return ContextBundle(event_id=event.event_id, retrieved_docs=tuple(docs))


class ScriptedRetriever:
    """Answers each query with its scripted docs, or raises its scripted
    exception; records the queries in the order they arrive."""

    def __init__(self, answers):
        self.answers = answers
        self.queries = []
        self.lock = threading.Lock()

    def search(self, query, max_results):
        with self.lock:
            self.queries.append(query)
        answer = self.answers.get(query, [])
        if isinstance(answer, Exception):
            raise answer
        return answer[:max_results]


def _docs(*urls):
    return [(f"Title {url}", f"**{url}** text<br>with  markup", url) for url in urls]


DESCRIPTION = "Continental Cup semi-final"
RETRIEVAL_CASES = {
    "first query fills max_docs": (("A", "B"), {"A": _docs("a1", "a2", "a3"),
                                                "B": _docs("b1")}),
    "duplicate urls across queries": (("A", "B"), {"A": _docs("u1", "u2"),
                                                   "B": _docs("u2", "u3"),
                                                   DESCRIPTION: _docs("u4")}),
    "a reached query fails": (("A", "B"), {"A": _docs("a1"), "B": ConnectionError("down")}),
    "an unreached query fails": (("A", "B"), {"A": _docs("a1", "a2", "a3"),
                                              "B": ConnectionError("down")}),
    "the description query fails": (("A",), {"A": _docs("a1"),
                                             DESCRIPTION: TimeoutError("slow")}),
    "no entities": ((), {DESCRIPTION: _docs("d1", "d2")}),
    "nothing found": (("A", "B"), {}),
}


class TestEnrichWithContextOracle:
    @pytest.mark.parametrize("case", RETRIEVAL_CASES)
    @pytest.mark.parametrize("threaded", [False, True])
    def test_bundle_matches_the_serial_loop(self, case, threaded):
        entities, answers = RETRIEVAL_CASES[case]
        event = make_event(description=DESCRIPTION, entities=entities or None)
        expected = oracle_enrich_with_context(event, ScriptedRetriever(answers), max_docs=3)
        retriever = ScriptedRetriever(answers)
        if threaded:
            with ThreadPoolExecutor(max_workers=4) as pool:
                bundle = enrich_with_context(event, retriever, max_docs=3, pool=pool)
        else:
            bundle = enrich_with_context(event, retriever, max_docs=3)
        assert bundle == expected
        # every query is sent, whether its answer is read or not
        assert sorted(retriever.queries) == sorted([*entities, DESCRIPTION])

    def test_inline_queries_run_in_query_order(self):
        retriever = ScriptedRetriever({"A": _docs("a1", "a2", "a3")})
        event = make_event(description=DESCRIPTION, entities=("A", "B"))
        with thread_pool("request", retriever) as pool:
            enrich_with_context(event, retriever, max_docs=3, pool=pool)
        assert retriever.queries == ["A", "B", DESCRIPTION]

    def test_queries_are_in_flight_together_on_a_pool(self):
        class BarrierRetriever(ScriptedRetriever):
            """Answers no query until all three have arrived."""

            waits_on_network = True

            def __init__(self, answers):
                super().__init__(answers)
                self.barrier = threading.Barrier(3, timeout=10)

            def search(self, query, max_results):
                self.barrier.wait()  # raises BrokenBarrierError if the queries come one by one
                return super().search(query, max_results)

        answers = {"A": _docs("a1"), "B": _docs("b1"), DESCRIPTION: _docs("d1")}
        retriever = BarrierRetriever(answers)
        event = make_event(description=DESCRIPTION, entities=("A", "B"))
        with thread_pool("request", retriever) as pool:
            bundle = enrich_with_context(event, retriever, max_docs=3, pool=pool)
        assert not retriever.barrier.broken
        assert bundle == oracle_enrich_with_context(event, ScriptedRetriever(answers))
        assert [url for *_, url in bundle.retrieved_docs] == ["a1", "b1", "d1"]


class TestEnrichEvent:
    def test_fills_all_fields_in_registry_order(self):
        event = make_event()
        records = [make_record()]
        completions = {
            "category": ["Sports"] * 3,
            "entities": ['["Team X"]'] * 3,
            "platforms": ['["StreamArena"]'] * 3,
            "data_per_user_mb": ["1500"] * 3,
            "audience_size": ["2000000"] * 3,
            "continent_relevance": ['{"EU": 0.9}'] * 3,
            "nation_relevance": ['{"DE": 0.8}'] * 3,
            "spike_duration_hours": ["2.0"] * 3,
            "likelihood": ["9"] * 3,
        }
        fixtures = {}
        from eventcast.inference.fields import INFERABLE_SPECS, aggregate_runs, apply_consensus, parse_value
        state = event
        for spec in INFERABLE_SPECS:
            prompt = build_field_prompt(state, spec.prompt_template_id, records=records)
            values = []
            for r in range(3):
                fixtures[prompt_key(prompt, f"a1r{r}")] = completions[spec.field_name][r]
                values.append(parse_value(spec.data_type, completions[spec.field_name][r]))
            state = apply_consensus(state, spec, aggregate_runs(spec, values))
        llm = StubLlmBackend(fixtures)
        enriched, runs = enrich_event(event, llm, retriever=None, records=records)
        assert inferred_fields(enriched) == INFERABLE
        assert enriched.category == "sports"
        assert enriched.entities == ("team x",)
        assert enriched.likelihood == 9
        assert len(runs) == 9
        assert enriched.low_confidence_fields == ()

    def test_failed_consensus_marks_field_low_confidence(self):
        # every inferred field but category is already set, so only category is inferred
        event = make_event(entities=("team x",), platforms=("streamarena",),
                           data_per_user_mb=1500.0, audience_size=2_000_000,
                           continent_relevance={"EU": 0.9}, nation_relevance={"DE": 0.8},
                           spike_duration_hours=2.0, likelihood=9)
        records = [make_record()]
        spec = FIELDS_BY_NAME["category"]
        fixtures = {}
        prompt = build_field_prompt(event, spec.prompt_template_id, records=records)
        for attempt in (1, 2, 3):
            for r, answer in enumerate(("A", "B", "C")):
                fixtures[prompt_key(prompt, f"a{attempt}r{r}")] = answer + str(attempt)
        llm = StubLlmBackend(fixtures)
        enriched, runs = enrich_event(event, llm, retriever=None, records=records)
        assert [run.field_name for run in runs] == ["category"]
        assert runs[0].failed
        assert enriched.category is None
        assert enriched.low_confidence_fields == ("category",)


class TestParseValue:
    def test_string_strips_quotes_and_fences(self):
        assert parse_value("string", '```\n"Sports"\n```') == "Sports"

    def test_string_list_json(self):
        assert parse_value("string_list", '["a", "b"]') == ["a", "b"]

    def test_string_list_comma_fallback(self):
        assert parse_value("string_list", "a, b , c") == ["a", "b", "c"]

    def test_integer_with_separators(self):
        assert parse_value("integer", "1,000,000") == 1_000_000

    def test_integer_scientific(self):
        assert parse_value("integer", "2e6") == 2_000_000

    def test_negative_rejected(self):
        with pytest.raises(ParseError):
            parse_value("integer", "-5")

    def test_likert_bounds(self):
        assert parse_value("integer_0_10", "7") == 7
        with pytest.raises(ParseError):
            parse_value("integer_0_10", "11")

    def test_real_map_validates_range(self):
        assert parse_value("real_map", '{"EU": 0.9}') == {"EU": 0.9}
        with pytest.raises(ParseError):
            parse_value("real_map", '{"EU": 1.7}')

    def test_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_value("real", "around lunchtime")


class _LlmHandler(BaseHTTPRequestHandler):
    last_body = None

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        type(self).last_body = json.loads(self.rfile.read(length))
        payload = json.dumps({"completion": "Sports"}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def local_llm():
    server = HTTPServer(("127.0.0.1", 0), _LlmHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}/v1/complete"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


class TestHttpBackend:
    def test_wire_format(self, local_llm):
        config = LlmBackendConfig(endpoint_url=local_llm, model_name="test-model",
                                  temperature=0.3, max_output_tokens=128)
        backend = HttpLlmBackend(config)
        completion = backend.send("what category?", salt="a1r0")
        backend.endpoint.close()
        assert completion == "Sports"
        body = _LlmHandler.last_body
        assert body["model"] == "test-model"
        assert body["input"] == "what category?"
        assert body["temperature"] == 0.3
        assert body["max_tokens"] == 128
        assert isinstance(body["seed"], int)

    def test_distinct_salts_give_distinct_seeds(self, local_llm):
        config = LlmBackendConfig(endpoint_url=local_llm, model_name="m")
        backend = HttpLlmBackend(config)
        backend.send("p", salt="a1r0")
        seed0 = _LlmHandler.last_body["seed"]
        backend.send("p", salt="a1r1")
        backend.endpoint.close()
        assert _LlmHandler.last_body["seed"] != seed0

    def test_config_invariants(self):
        with pytest.raises(InvariantError, match="temperature"):
            LlmBackendConfig(endpoint_url="u", model_name="m", temperature=-1)
        with pytest.raises(InvariantError, match="timeout"):
            LlmBackendConfig(endpoint_url="u", model_name="m", timeout_seconds=0)


class TestHttpRetriever:
    def test_search_wire(self):
        class _RetrHandler(BaseHTTPRequestHandler):
            def do_GET(self):
                docs = [{"title": "T", "text": "body", "url": "u"}]
                payload = json.dumps(docs).encode()
                self.send_response(200)
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        server = HTTPServer(("127.0.0.1", 0), _RetrHandler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        retriever = HttpRetriever(f"http://127.0.0.1:{server.server_address[1]}/search")
        try:
            assert retriever.search("query", 3) == [("T", "body", "u")]
        finally:
            retriever.endpoint.close()
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
