from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from eventcast.ingest import (
    ConnectorError,
    EmptyRecordError,
    FileCorpusConnector,
    FilePageFetcher,
    FilterConfig,
    HttpJsonConnector,
    RawPost,
    TokenBucket,
    assemble_content_record,
    fetch_linked_pages,
    list_posts,
)
from eventcast.model import InvariantError

from .conftest import make_post


class ListConnector:
    """In-memory connector for filter tests."""

    def __init__(self, items):
        self.items = items
        from eventcast.ingest import SkipReport
        self.skip_report = SkipReport()

    def list_raw(self):
        return iter(self.items)


class NetworkPageFetcher(FilePageFetcher):
    """A fixture fetcher that declares it waits on the network, so its pages
    are fetched on the page pool; a later URL answers sooner."""

    waits_on_network = True

    def __init__(self, pages):
        super().__init__(pages)
        self.threads = set()

    def fetch(self, url):
        self.threads.add(threading.current_thread().name)
        time.sleep(0.002 * (len(self.pages) - list(self.pages).index(url)))
        return super().fetch(url)


class TestFilterConfig:
    def test_needs_terms_or_communities(self):
        with pytest.raises(InvariantError):
            FilterConfig()

    def test_engagement_threshold(self):
        posts = [make_post(post_id=f"p{i}", score=s).to_dict() for i, s in enumerate((10, 60, 90))]
        filter_config = FilterConfig(communities=("matchday",), min_engagement=50)
        kept = list_posts(ListConnector(posts), filter_config)
        assert [p.score for p in kept] == [60, 90]

    def test_outbound_link_required(self):
        with_link = make_post(post_id="a", outbound_urls=("https://x.example",)).to_dict()
        without = make_post(post_id="b").to_dict()
        filter_config = FilterConfig(communities=("matchday",), require_outbound_link=True)
        kept = list_posts(ListConnector([with_link, without]), filter_config)
        assert [p.post_id for p in kept] == ["a"]

    def test_term_match_is_case_insensitive_substring(self):
        corpus = [
            make_post(post_id="a", title="Season FINALE discussion", community="misc").to_dict(),
            make_post(post_id="b", body="waiting for the finale tonight", community="misc").to_dict(),
            make_post(post_id="c", title="recipe swap", body="stew", community="misc").to_dict(),
        ]
        filter_config = FilterConfig(search_terms=("finale",))
        kept = list_posts(ListConnector(corpus), filter_config)
        # oracle: case-insensitive substring scan over title+body
        expected = [
            p["post_id"] for p in corpus
            if "finale" in (p["title"] + "\n" + p["body"]).lower()
        ]
        assert [p.post_id for p in kept] == expected == ["a", "b"]

    def test_community_match(self):
        corpus = [
            make_post(post_id="a", community="matchday").to_dict(),
            make_post(post_id="b", community="knitting").to_dict(),
        ]
        kept = list_posts(ListConnector(corpus), FilterConfig(communities=("MATCHDAY",)))
        assert [p.post_id for p in kept] == ["a"]

    def test_malformed_items_counted_not_fatal(self):
        connector = ListConnector([
            make_post(post_id="ok").to_dict(),
            {"post_id": "missing-created-at"},
            "not even a dict",
        ])
        kept = list_posts(connector, FilterConfig(communities=("matchday",)))
        assert [p.post_id for p in kept] == ["ok"]
        assert connector.skip_report.malformed == 2


class TestFileCorpus:
    def test_reads_jsonl_and_skips_bad_lines(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        lines = [json.dumps(make_post(post_id="one").to_dict()), "{broken", ""]
        path.write_text("\n".join(lines) + "\n")
        connector = FileCorpusConnector(path)
        kept = list_posts(connector, FilterConfig(communities=("matchday",)))
        assert [p.post_id for p in kept] == ["one"]
        assert connector.skip_report.malformed == 1

    def test_missing_corpus_not_retryable(self, tmp_path):
        connector = FileCorpusConnector(tmp_path / "absent.jsonl")
        with pytest.raises(ConnectorError) as err:
            list(connector.list_raw())
        assert not err.value.retryable


class TestFetchLinkedPages:
    def test_no_links(self):
        post = make_post()
        assert fetch_linked_pages(post, FilePageFetcher({}), max_pages=5) == []

    def test_truncates_to_max_pages(self):
        urls = ("u1", "u2", "u3")
        post = make_post(outbound_urls=urls)
        fetcher = FilePageFetcher({u: f"<p>{u}</p>" for u in urls})
        pages = fetch_linked_pages(post, fetcher, max_pages=2)
        assert [u for u, _ in pages] == ["u1", "u2"]

    def test_fixture_round_trip(self):
        post = make_post(outbound_urls=("u1",))
        fetcher = FilePageFetcher({"u1": "<p>exact body</p>"})
        pages = fetch_linked_pages(post, fetcher, max_pages=3)
        assert pages == [("u1", "<p>exact body</p>")]

    def test_failures_logged_not_fatal(self):
        post = make_post(outbound_urls=("present", "absent"))
        fetcher = FilePageFetcher({"present": "<p>ok</p>"})
        pages = fetch_linked_pages(post, fetcher, max_pages=5)
        assert [u for u, _ in pages] == ["present"]

    def test_parallel_fetch_keeps_listed_order(self):
        urls = tuple(f"u{i}" for i in range(12))
        post = make_post(outbound_urls=urls)
        fetcher = NetworkPageFetcher({u: f"<p>{u}</p>" for u in urls})
        pages = fetch_linked_pages(post, fetcher, max_pages=12)
        assert pages == [(u, f"<p>{u}</p>") for u in urls]
        assert fetcher.threads and all(name.startswith("eventcast-page_")
                                       for name in fetcher.threads)

    def test_a_local_fetcher_fetches_on_the_callers_thread(self):
        threads = set()

        class Recording(FilePageFetcher):
            def fetch(self, url):
                threads.add(threading.current_thread().name)
                return super().fetch(url)

        post = make_post(outbound_urls=("u1", "u2"))
        pages = fetch_linked_pages(post, Recording({"u1": "a", "u2": "b"}), max_pages=2)
        assert pages == [("u1", "a"), ("u2", "b")]
        assert threads == {threading.current_thread().name}


class TestAssembly:
    def test_top_k_highest_scored_comments(self):
        comments = tuple((f"comment {i}", i * 10) for i in range(10))
        post = make_post(comments=comments)
        record = assemble_content_record(post, top_k_comments=5)
        assert len(record.comments) == 5
        # the five highest-scored are comments 5..9, kept in thread order
        assert record.comments == tuple(f"comment {i}" for i in range(5, 10))

    def test_empty_body_with_comment_is_valid(self):
        post = make_post(body="", comments=(("only comment", 5),))
        record = assemble_content_record(post)
        assert record.body_text == "" and record.comments == ("only comment",)

    def test_empty_after_cleaning_discarded(self):
        post = make_post(title="", body="   ", comments=())
        with pytest.raises(EmptyRecordError):
            assemble_content_record(post)

    def test_deterministic(self):
        post = make_post(comments=(("a", 1), ("b", 2)))
        assert assemble_content_record(post) == assemble_content_record(post)

    def test_markdown_body_cleaned(self):
        post = make_post(body="**Bold** announcement with [a link](https://x.example)")
        record = assemble_content_record(post)
        assert record.body_text == "Bold announcement with a link"

    def test_engagement_and_provenance(self):
        post = make_post(score=73)
        record = assemble_content_record(post)
        assert record.engagement == 73
        assert record.record_id == "rec-p1"
        assert record.created_at == post.created_at
        assert record.fetched_at == post.created_at  # deterministic default

    def test_comment_char_cap(self):
        post = make_post(comments=(("x" * 5000, 10),))
        record = assemble_content_record(post)
        assert len(record.comments[0]) <= 2000

    def test_linked_pages_cleaned(self):
        post = make_post(outbound_urls=("u1",))
        record = assemble_content_record(post, pages=[("u1", "<p>linked body</p>")])
        assert record.linked_texts == (("u1", "linked body"),)


class TestTokenBucket:
    def test_respects_rate(self):
        clock = {"now": 0.0}
        sleeps = []

        def fake_sleep(seconds):
            sleeps.append(seconds)
            clock["now"] += seconds

        bucket = TokenBucket(rate_per_minute=60, capacity=1,
                             clock=lambda: clock["now"], sleep=fake_sleep)
        bucket.acquire()  # initial token
        bucket.acquire()  # must wait ~1s at 60/min
        assert sleeps and sum(sleeps) == pytest.approx(1.0, abs=0.01)

    def test_burst_capacity(self):
        clock = {"now": 0.0}
        bucket = TokenBucket(rate_per_minute=60, capacity=5,
                             clock=lambda: clock["now"], sleep=lambda s: None)
        for _ in range(5):
            bucket.acquire()  # burst drains capacity without sleeping


class _PostsHandler(BaseHTTPRequestHandler):
    posts = []
    fail_times = 0

    def do_GET(self):
        if type(self).fail_times > 0:
            type(self).fail_times -= 1
            self.send_response(503)
            self.end_headers()
            return
        body = json.dumps({"posts": self.posts}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def local_api():
    server = HTTPServer(("127.0.0.1", 0), _PostsHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}/posts"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


class TestHttpConnector:
    def test_fetches_and_filters(self, local_api):
        _PostsHandler.posts = [make_post(post_id="h1").to_dict()]
        _PostsHandler.fail_times = 0
        connector = HttpJsonConnector(local_api, requests_per_minute=6000)
        kept = list_posts(connector, FilterConfig(communities=("matchday",)))
        connector.endpoint.close()
        assert [p.post_id for p in kept] == ["h1"]

    def test_retries_with_backoff_then_succeeds(self, local_api):
        _PostsHandler.posts = [make_post(post_id="h2").to_dict()]
        _PostsHandler.fail_times = 2
        connector = HttpJsonConnector(local_api, requests_per_minute=6000,
                                      max_retries=3, backoff_seconds=0.01)
        kept = list_posts(connector, FilterConfig(communities=("matchday",)))
        connector.endpoint.close()
        assert [p.post_id for p in kept] == ["h2"]

    def test_exhausted_retries_raise_retryable(self, local_api, monkeypatch):
        _PostsHandler.fail_times = 99
        sleeps = []
        monkeypatch.setattr("eventcast.ingest.time_mod.sleep", sleeps.append)
        connector = HttpJsonConnector(local_api, requests_per_minute=6000,
                                      max_retries=2, backoff_seconds=0.01)
        with pytest.raises(ConnectorError) as err:
            list(connector.list_raw())
        connector.endpoint.close()
        assert err.value.retryable
        assert sleeps == [0.01]  # between the two attempts, not after the last
        _PostsHandler.fail_times = 0


def test_raw_post_round_trip():
    post = make_post(comments=(("c1", 3), ("c2", 9)), outbound_urls=("u",))
    assert RawPost.from_dict(post.to_dict()) == post


def test_connector_state_not_mutated_by_listing():
    items = [make_post(post_id="a").to_dict()]
    connector = ListConnector(items)
    list_posts(connector, FilterConfig(communities=("matchday",)))
    assert connector.items == items
