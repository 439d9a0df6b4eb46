"""The keep-alive JSON transport and the HTTP clients built on it, against
loopback servers that count the connections they accept."""

from __future__ import annotations

import base64
import dataclasses
import json
import logging
import sys
import threading
import time
import urllib.error
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

import pytest

import eventcast.ingest as ingest
from eventcast.inference.backends import (
    MAX_CONCURRENT_REQUESTS,
    BackendError,
    BackendTimeout,
    HttpLlmBackend,
    LlmBackendConfig,
    prompt_key,
    salt_seed,
    thread_pool,
)
from eventcast.inference.enrich import FixtureRetriever, HttpRetriever
from eventcast.ingest import ConnectorError, HttpJsonConnector, HttpPageFetcher
from eventcast.pipeline import PipelineConfig, materialize_scenario, run_pipeline
from eventcast.remote import COUNTS, MAX_OPENING_CONNECTIONS, JsonEndpoint, RemoteError
from eventcast.semantics import (
    EmbeddingError,
    HashingStubEmbedder,
    HttpEmbedder,
    embed_event,
    embed_events,
)
from eventcast.synth import default_scenario

from .conftest import make_event, make_post
from .test_pipeline import _artifacts


class Loopback(ThreadingHTTPServer):
    """A threaded loopback server that counts accepted connections and requests.

    ``answer(method, path, body)`` returns (status, headers, body bytes).
    The handler speaks ``protocol``, sends a Content-Length unless told not
    to, and with ``close_after_reply`` closes each connection after one
    reply without saying so, as a server does with an idle one.
    """

    daemon_threads = True

    def __init__(self, answer, protocol="HTTP/1.1", content_length=True,
                 close_after_reply=False):
        handler = type("Handler", (_Handler,), {"protocol_version": protocol})
        super().__init__(("127.0.0.1", 0), handler)
        self.answer = answer
        self.content_length = content_length
        self.close_after_reply = close_after_reply
        self.lock = threading.Lock()
        self.accepted = 0
        self.unanswered = 0  # accepted connections with no reply sent yet
        self.most_unanswered = 0
        self.requests = []  # (method, path, headers) in arrival order

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server_address[1]}"

    def get_request(self):
        accepted = super().get_request()
        with self.lock:
            self.accepted += 1
            self.unanswered += 1
            self.most_unanswered = max(self.most_unanswered, self.unanswered)
        return accepted

    def handle_error(self, request, client_address):
        pass  # a client that timed out leaves a broken pipe behind


class _Handler(BaseHTTPRequestHandler):
    disable_nagle_algorithm = True  # headers and body go out without delayed-ACK stalls
    server: Loopback

    def log_message(self, *args):
        pass

    def _serve(self):
        body = self.rfile.read(int(self.headers.get("Content-Length") or 0))
        with self.server.lock:
            self.server.requests.append((self.command, self.path, dict(self.headers)))
        status, headers, payload = self.server.answer(self.command, self.path, body)
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        if self.server.content_length:
            self.send_header("Content-Length", str(len(payload)))
        if getattr(self, "answered", False):
            self.end_headers()
        else:
            self.answered = True
            # The client may open its next connection as soon as this
            # status line arrives; get_request counts that one under the
            # same lock, so it is not counted before this reply is.
            with self.server.lock:
                self.end_headers()
                self.server.unanswered -= 1
        self.wfile.write(payload)
        if self.server.close_after_reply:
            self.close_connection = True

    do_GET = do_POST = _serve


@pytest.fixture
def serve():
    """Start loopback servers for one test; all are shut down after it."""
    servers = []

    def start(answer, **options) -> Loopback:
        server = Loopback(answer, **options)
        thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05},
                                  daemon=True)
        thread.start()
        servers.append((server, thread))
        return server

    yield start
    for server, thread in servers:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


@pytest.fixture(autouse=True)
def close_endpoints(monkeypatch):
    """Close the idle connections of every endpoint a test builds."""
    built = []
    init = JsonEndpoint.__init__

    def tracked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(JsonEndpoint, "__init__", tracked)
    yield
    for endpoint in built:
        endpoint.close()


def json_answer(payload, status=200, delay=0.0):
    def answer(method, path, body):
        time.sleep(delay)
        return status, {"Content-Type": "application/json"}, json.dumps(payload).encode()
    return answer


class TestConnectionReuse:
    def test_sequential_requests_share_one_connection(self, serve):
        server = serve(json_answer({"ok": True}))
        endpoint = JsonEndpoint(f"{server.url}/api", timeout=5)
        for i in range(50):
            assert endpoint.request({"i": i}) == {"ok": True}
        assert server.accepted == 1
        assert endpoint.counts() == {"requests": 50, "connections": 1, "reconnects": 0,
                                     "timeouts": 0, "max_inflight": 1}

    def test_concurrent_requests_open_at_most_one_connection_per_worker(self, serve):
        server = serve(json_answer({"ok": True}, delay=0.02))
        endpoint = JsonEndpoint(f"{server.url}/api", timeout=5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, to expose a lost count update
        try:
            with thread_pool("request") as pool:
                answers = list(pool.map(lambda i: endpoint.request(params={"i": i}), range(36)))
        finally:
            sys.setswitchinterval(interval)
        assert answers == [{"ok": True}] * 36
        assert 1 < server.accepted <= MAX_CONCURRENT_REQUESTS
        counts = endpoint.counts()
        assert counts["connections"] == server.accepted
        assert len(server.requests) == counts["requests"] == 36
        assert 1 < counts["max_inflight"] <= MAX_CONCURRENT_REQUESTS

    def test_new_connections_to_one_address_wait_for_first_answers(self, serve):
        # a burst on two endpoints of one server: more new connections at
        # once would overflow a short listen backlog
        server = serve(json_answer({"ok": True}, delay=0.05))
        endpoints = [JsonEndpoint(f"{server.url}/a", timeout=5),
                     JsonEndpoint(f"{server.url}/b", timeout=5)]
        with thread_pool("request") as pool:
            answers = list(pool.map(lambda i: endpoints[i % 2].request(params={"i": i}),
                                    range(32)))
        assert answers == [{"ok": True}] * 32
        assert server.most_unanswered <= MAX_OPENING_CONNECTIONS < MAX_CONCURRENT_REQUESTS
        opened = sum(e.counts()["connections"] for e in endpoints)
        assert opened == server.accepted <= 2 * MAX_CONCURRENT_REQUESTS

    def test_connection_closed_while_idle_is_replaced_once(self, serve):
        server = serve(json_answer({"ok": True}), close_after_reply=True)
        endpoint = JsonEndpoint(f"{server.url}/api", timeout=5)
        assert endpoint.request({"n": 1}) == {"ok": True}
        time.sleep(0.05)  # the server has closed the connection by now
        assert endpoint.request({"n": 2}) == {"ok": True}
        assert server.accepted == 2 and len(server.requests) == 2
        assert endpoint.counts() == {"requests": 2, "connections": 2, "reconnects": 1,
                                     "timeouts": 0, "max_inflight": 1}

    def test_a_new_connection_that_drops_is_not_retried(self, serve):
        def hang_up(method, path, body):
            raise ConnectionAbortedError  # the handler dies without a reply

        server = serve(hang_up)
        endpoint = JsonEndpoint(f"{server.url}/api", timeout=5)
        with pytest.raises(RemoteError, match="^request failed: "):
            endpoint.request({"n": 1})
        assert server.accepted == 1
        assert endpoint.counts()["reconnects"] == 0

    def test_http10_reply_without_content_length(self, serve):
        server = serve(json_answer([{"title": "T", "text": "body", "url": "u"}]),
                       protocol="HTTP/1.0", content_length=False)
        retriever = HttpRetriever(f"{server.url}/search")
        assert retriever.search("query", 3) == [("T", "body", "u")]
        assert retriever.search("two words", 1) == [("T", "body", "u")]
        # the server closes every connection, so none is reused
        assert server.accepted == 2 and retriever.endpoint.counts()["connections"] == 2
        assert [urlsplit(path).query for _, path, _ in server.requests] == [
            "q=query&limit=3", "q=two+words&limit=1"]


class TestErrors:
    def test_stall_past_the_timeout(self, serve):
        server = serve(json_answer({"completion": "late", "vector": [1.0]}, delay=0.5))
        llm = HttpLlmBackend(LlmBackendConfig(endpoint_url=f"{server.url}/llm", model_name="m",
                                              timeout_seconds=0.1))
        with pytest.raises(BackendTimeout, match="no response within 0.1s"):
            llm.send("prompt")
        embedder = HttpEmbedder(f"{server.url}/embed", "m", timeout=0.1)
        with pytest.raises(EmbeddingError, match="^embedder request failed: no response"):
            embedder.embed("text")
        assert llm.endpoint.counts()["timeouts"] == embedder.endpoint.counts()["timeouts"] == 1

    @pytest.mark.parametrize("status, body, message", [
        (500, b"internal trouble", "backend returned HTTP 500: internal trouble"),
        (200, b"<html>not json</html>", "non-JSON response: <html>not json</html>"),
    ])
    def test_error_status_and_non_json_body(self, serve, monkeypatch, status, body, message):
        server = serve(lambda method, path, _: (status, {}, body))
        llm = HttpLlmBackend(LlmBackendConfig(endpoint_url=f"{server.url}/llm", model_name="m"))
        with pytest.raises(BackendError) as err:
            llm.send("prompt")
        assert not isinstance(err.value, BackendTimeout) and str(err.value) == message
        with pytest.raises(EmbeddingError, match=f"^embedder request failed: {message}$"):
            HttpEmbedder(f"{server.url}/embed", "m").embed("text")
        with pytest.raises(RemoteError, match=f"^{message}$"):
            HttpRetriever(f"{server.url}/search").search("query", 3)
        monkeypatch.setattr(ingest.time_mod, "sleep", lambda seconds: None)
        connector = HttpJsonConnector(f"{server.url}/posts", requests_per_minute=6000,
                                      max_retries=2)
        with pytest.raises(ConnectorError) as err:
            list(connector.list_raw())
        assert err.value.retryable
        assert str(err.value) == f"connector unreachable after 2 attempts: {message}"
        # an error reply leaves the connection reusable
        assert server.accepted == 4 and len(server.requests) == 5

    def test_any_2xx_answers_and_a_redirect_is_not_followed(self, serve):
        def answer(method, path, body):
            if path == "/old":
                return 302, {"Location": "/new"}, b"moved"
            return 203, {}, b'{"ok": true}'

        server = serve(answer)
        assert JsonEndpoint(f"{server.url}/new", timeout=5).request() == {"ok": True}
        with pytest.raises(RemoteError, match="^backend returned HTTP 302: moved$"):
            JsonEndpoint(f"{server.url}/old", timeout=5).request()
        assert [path for _, path, _ in server.requests] == ["/new", "/old"]


class TestHttpJsonConnector:
    def test_backs_off_exponentially_then_succeeds(self, serve, monkeypatch):
        replies = [503, 503, 200]

        def answer(method, path, body):
            return replies.pop(0), {}, json.dumps({"posts": [{"post_id": "h1"}]}).encode()

        server = serve(answer)
        waits = []
        monkeypatch.setattr(ingest.time_mod, "sleep", waits.append)
        monkeypatch.setenv("CORPUS_TOKEN", "secret")
        connector = HttpJsonConnector(f"{server.url}/posts", auth_token_env="CORPUS_TOKEN",
                                      requests_per_minute=6000, max_retries=3,
                                      backoff_seconds=0.5)
        assert list(connector.list_raw()) == [{"post_id": "h1"}]
        assert waits == [0.5, 1.0]
        assert [headers["Authorization"] for *_, headers in server.requests] == [
            "Bearer secret"] * 3
        assert connector.endpoint.counts() == {"requests": 3, "connections": 1,
                                               "reconnects": 0, "timeouts": 0,
                                               "max_inflight": 1}


class TestHttpPageFetcher:
    def test_follows_a_redirect_and_decodes_the_declared_charset(self, serve):
        def answer(method, path, body):
            if path == "/old":
                return 302, {"Location": "/new"}, b""
            return 200, {"Content-Type": "text/html; charset=iso-8859-1"}, "café".encode("latin-1")

        server = serve(answer)
        assert HttpPageFetcher(timeout=5).fetch(f"{server.url}/old") == "café"
        assert [path for _, path, _ in server.requests] == ["/old", "/new"]

    def test_without_a_charset_decodes_utf8_and_replaces_bad_bytes(self, serve):
        server = serve(lambda method, path, _: (200, {"Content-Type": "text/html"},
                                                 "café".encode() + b" \xff"))
        assert HttpPageFetcher(timeout=5).fetch(f"{server.url}/page") == "café �"

    def test_a_linked_file_url_is_not_read(self, serve, tmp_path, caplog):
        secret = tmp_path / "secret.txt"
        secret.write_text("do not leak")
        server = serve(lambda method, path, _: (200, {}, b"page"))
        fetcher = HttpPageFetcher(timeout=5)
        for url in (secret.as_uri(), "data:,do%20not%20leak", "ftp://127.0.0.1:9/x"):
            with pytest.raises(ValueError, match="^not an http"):
                fetcher.fetch(url)
        post = make_post(outbound_urls=[secret.as_uri(), f"{server.url}/page"])
        with caplog.at_level(logging.WARNING, logger="eventcast.ingest"):
            pages = ingest.fetch_linked_pages(post, fetcher, max_pages=2)
        assert pages == [(f"{server.url}/page", "page")]
        assert f"failed to fetch {secret.as_uri()}" in caplog.text

    @pytest.mark.parametrize("target", ["file:///etc/hostname", "ftp://127.0.0.1:9/x",
                                        "data:,do%20not%20leak"])
    def test_a_redirect_off_http_is_not_followed(self, serve, target):
        server = serve(lambda method, path, _: (302, {"Location": target}, b""))
        with pytest.raises(urllib.error.URLError) as err:
            HttpPageFetcher(timeout=5).fetch(f"{server.url}/old")
        assert "Connection refused" not in str(err.value)  # no ftp connection was tried
        assert len(server.requests) == 1
        if isinstance(err.value, urllib.error.HTTPError):  # a refused redirect
            assert err.value.fp.closed

    def test_an_error_status_closes_its_response(self, serve):
        server = serve(lambda method, path, _: (404, {}, b"gone"))
        with pytest.raises(urllib.error.HTTPError) as err:
            HttpPageFetcher(timeout=5).fetch(f"{server.url}/page")
        assert err.value.code == 404 and err.value.fp.closed


class TestProxies:
    @pytest.fixture(autouse=True)
    def no_proxy_environment(self, monkeypatch):
        # the lowercase names win over the uppercase ones the tests set
        for name in ("http_proxy", "no_proxy", "HTTP_PROXY", "NO_PROXY"):
            monkeypatch.delenv(name, raising=False)

    def test_proxy_is_resolved_once_when_the_endpoint_is_built(self, serve, monkeypatch):
        proxy = serve(json_answer({"via": "proxy"}))
        monkeypatch.setenv("HTTP_PROXY", proxy.url.replace("://", "://user:p%40ss@"))
        endpoint = JsonEndpoint("http://service.invalid/api?v=1", timeout=5)
        monkeypatch.delenv("HTTP_PROXY")
        assert endpoint.request(params={"q": "a b"}) == {"via": "proxy"}
        (method, path, headers), = proxy.requests
        assert (method, path) == ("GET", "http://service.invalid/api?v=1&q=a+b")
        assert headers["Host"] == "service.invalid"
        assert headers["Proxy-Authorization"] == "Basic " + base64.b64encode(b"user:p@ss").decode()

    def test_no_proxy_goes_direct(self, serve, monkeypatch):
        server = serve(json_answer({"via": "direct"}))
        monkeypatch.setenv("HTTP_PROXY", "http://127.0.0.1:9")  # nothing listens there
        monkeypatch.setenv("NO_PROXY", "127.0.0.1")
        assert JsonEndpoint(f"{server.url}/api", timeout=5).request() == {"via": "direct"}


class TestEmbedEvents:
    def test_keeps_input_order_and_logs_skipped_events_in_input_order(self, caplog):
        class SlowEarlyEmbedder:
            """Answers later events first; refuses the texts marked "refuse"."""

            def __init__(self, count):
                self.count = count
                self.inner = HashingStubEmbedder()

            def embed(self, text):
                index = int(text.split()[1])
                time.sleep(0.005 * (self.count - index))
                if "refuse" in text:
                    raise EmbeddingError(f"refused {index}")
                return self.inner.embed(text)

        events = [make_event(event_id=f"evt-{i}",
                             description=f"event {i} {'refuse' if i % 3 == 0 else 'keep'}")
                  for i in range(12)]
        with caplog.at_level(logging.WARNING, logger="eventcast.semantics"):
            embeddings = embed_events(events, SlowEarlyEmbedder(len(events)))
        assert list(embeddings.event_ids) == [e.event_id for e in events
                                              if int(e.event_id[4:]) % 3]
        skipped = [r.args[0] for r in caplog.records if "not embedded" in r.getMessage()]
        assert skipped == ["evt-0", "evt-3", "evt-6", "evt-9"]
        assert {eid: row.tolist() for eid, row in embeddings.rows().items()} == {
            e.event_id: embed_event(e, HashingStubEmbedder()).tolist()
            for e in events if e.event_id in embeddings.event_ids}


def scenario_answer(inputs, config: PipelineConfig):
    """Serve a materialized scenario's LLM, embedder and retriever fixtures,
    mapping each sampling seed back to the run salt that produced it."""
    with open(inputs / "llm_fixtures.json", "r", encoding="utf-8") as fh:
        fixtures = json.load(fh)
    salts = ["extract", "extract-retry"] + [
        f"a{attempt}r{run}" for attempt in range(1, config.max_attempts + 1)
        for run in range(config.ensemble_size)]
    salt_of_seed = {salt_seed(s): s for s in salts}
    retriever = FixtureRetriever.from_file(config.retriever["fixtures_path"])
    embedder = HashingStubEmbedder(dim=config.embedder["dim"])
    embed_lock = threading.Lock()  # the stub's token cache is shared

    def answer(method, path, body):
        url = urlsplit(path)
        if url.path == "/llm":
            request = json.loads(body)
            key = prompt_key(request["input"], salt_of_seed[request["seed"]])
            payload = {"completion": fixtures[key]}
        elif url.path == "/embed":
            with embed_lock:
                payload = {"vector": embedder.embed(json.loads(body)["input"])}
        else:
            query = parse_qs(url.query)
            payload = [{"title": t, "text": x, "url": u} for t, x, u in
                       retriever.search(query["q"][0], int(query["limit"][0]))]
        return 200, {"Content-Type": "application/json"}, json.dumps(payload).encode()
    return answer


class TestPipelineOverHttp:
    def test_artifacts_match_the_stub_run_and_counts_match_the_servers(self, serve,
                                                                       tmp_path):
        inputs = tmp_path / "scenario"
        config = PipelineConfig.load(materialize_scenario(default_scenario(seed=7), inputs))
        stub_report = run_pipeline(dataclasses.replace(config, out_dir=str(tmp_path / "stub")))
        answer = scenario_answer(inputs, config)
        servers = {service: serve(answer) for service in ("llm", "embedder", "retriever")}
        http_config = dataclasses.replace(
            config, out_dir=str(tmp_path / "http"),
            llm={"kind": "http", "endpoint_url": f"{servers['llm'].url}/llm",
                 "model_name": "m"},
            embedder={"kind": "http", "endpoint_url": f"{servers['embedder'].url}/embed",
                      "model_name": "m"},
            retriever={"kind": "http", "base_url": f"{servers['retriever'].url}/search"})
        http_report = run_pipeline(http_config)

        assert http_report["status"] == "ok"
        artifacts = _artifacts(tmp_path / "stub")
        assert len(artifacts) == 10
        assert _artifacts(tmp_path / "http") == artifacts
        assert http_report["stages"] == stub_report["stages"]

        zero = dict.fromkeys(COUNTS, 0)
        assert stub_report["remote"] == {s: zero for s in
                                         ("connector", "llm", "retriever", "embedder")}
        assert http_report["remote"]["connector"] == zero
        for service, server in servers.items():
            counts = dict(http_report["remote"][service])
            assert 1 <= counts.pop("max_inflight") <= MAX_CONCURRENT_REQUESTS
            assert counts == {"requests": len(server.requests), "connections": server.accepted,
                              "reconnects": 0, "timeouts": 0}
        assert len(servers["embedder"].requests) == 22
        assert len(servers["retriever"].requests) == 51
