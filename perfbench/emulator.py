"""Loopback emulator of the pipeline's remote services, for `remote_services`.

Serves the three documented wire protocols from a materialized scenario's
fixture files, adding a fixed latency of ``LATENCY_MS`` to every request:

- LLM:       POST /llm    {model, input, seed, ...} -> {"completion": ...}
- embedder:  POST /embed  {model, input}           -> {"vector": [...]}
- retriever: GET  /search?q=<query>&limit=<n>      -> [{title, text, url}, ...]

Run as its own process (so it never competes with the pipeline for the
interpreter lock) with a thread per connection and HTTP/1.1 keep-alive,
so a concurrent client would see its requests overlap:

    python3 perfbench/emulator.py --inputs <scenario dir>

It prints ``PORT <n>`` once listening. ``GET /stats`` returns the request
log counts; it is not delayed or counted.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from eventcast.inference.backends import prompt_key, salt_seed  # noqa: E402
from eventcast.inference.enrich import FixtureRetriever  # noqa: E402
from eventcast.semantics import HashingStubEmbedder  # noqa: E402

LATENCY_MS = 15.0  # per request; well above scheduler jitter
EXTRACT_SALTS = ("extract", "extract-retry")


def known_salts(ensemble_size: int, max_attempts: int) -> dict:
    """Inverse of ``salt_seed`` over every salt the pipeline sends."""
    salts = list(EXTRACT_SALTS) + [
        f"a{attempt}r{run}"
        for attempt in range(1, max_attempts + 1)
        for run in range(ensemble_size)
    ]
    return {salt_seed(s): s for s in salts}


class Stats:
    """Request log shared by the handler threads."""

    def __init__(self):
        self.lock = threading.Lock()
        self.requests = {"llm": 0, "embed": 0, "search": 0}
        self.misses = 0
        self.inflight = 0
        self.max_inflight = 0

    def enter(self, kind: str):
        with self.lock:
            self.requests[kind] += 1
            self.inflight += 1
            self.max_inflight = max(self.max_inflight, self.inflight)

    def leave(self):
        with self.lock:
            self.inflight -= 1

    def snapshot(self) -> dict:
        with self.lock:
            return {"requests": dict(self.requests), "misses": self.misses,
                    "max_inflight": self.max_inflight}


class EmulatorServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, inputs: Path, latency_s: float, pipeline_config: dict):
        super().__init__(("127.0.0.1", 0), Handler)
        with open(inputs / "llm_fixtures.json", "r", encoding="utf-8") as fh:
            self.llm_fixtures = json.load(fh)
        self.retriever = FixtureRetriever.from_file(inputs / "retriever_fixtures.json")
        self.embedder = HashingStubEmbedder(dim=pipeline_config["embedder"].get("dim", 64))
        self.embed_lock = threading.Lock()  # the embedder's token cache is not thread-safe
        self.salts = known_salts(pipeline_config["ensemble_size"], pipeline_config["max_attempts"])
        self.latency_s = latency_s
        self.stats = Stats()


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive
    disable_nagle_algorithm = True  # headers and body go out without delayed-ACK stalls
    server: EmulatorServer

    def log_message(self, format, *args):  # noqa: A002 - silence per-request logging
        pass

    def _reply(self, status: int, payload) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _served(self, kind: str, answer) -> None:
        stats = self.server.stats
        stats.enter(kind)
        try:
            time.sleep(self.server.latency_s)
            status, payload = answer()
        finally:
            stats.leave()
        self._reply(status, payload)

    def do_GET(self):
        url = urlsplit(self.path)
        if url.path == "/stats":
            self._reply(200, self.server.stats.snapshot())
        elif url.path == "/search":
            query = parse_qs(url.query)
            self._served("search", lambda: (200, [
                {"title": t, "text": x, "url": u}
                for t, x, u in self.server.retriever.search(query.get("q", [""])[0],
                                                            int(query.get("limit", ["3"])[0]))
            ]))
        else:
            self._reply(404, {"error": f"no route {url.path}"})

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length) or b"{}")
        if self.path == "/llm":
            self._served("llm", lambda: self._complete(body))
        elif self.path == "/embed":
            self._served("embed", lambda: self._embed(body))
        else:
            self._reply(404, {"error": f"no route {self.path}"})

    def _complete(self, body: dict):
        salt = self.server.salts.get(body.get("seed"))
        completion = None
        if salt is not None:
            completion = self.server.llm_fixtures.get(prompt_key(body.get("input", ""), salt))
        if completion is None:
            with self.server.stats.lock:
                self.server.stats.misses += 1
            return 404, {"error": "no fixture for this prompt and seed"}
        return 200, {"completion": completion}

    def _embed(self, body: dict):
        with self.server.embed_lock:
            return 200, {"vector": self.server.embedder.embed(body.get("input", ""))}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", type=Path, required=True,
                        help="materialized scenario directory (fixtures + pipeline.json)")
    args = parser.parse_args()
    with open(args.inputs / "pipeline.json", "r", encoding="utf-8") as fh:
        pipeline_config = json.load(fh)
    server = EmulatorServer(args.inputs, LATENCY_MS / 1000.0, pipeline_config)
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
