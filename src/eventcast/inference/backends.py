"""Pluggable LLM completion backends.

The backend contract is a single call: send(prompt, salt) -> completion
text. Ensemble runs within an attempt differ only by the salt, which an
HTTP backend maps to a sampling seed and the deterministic stub mixes
into its fixture lookup key.

Inference keeps at most ``MAX_CONCURRENT_REQUESTS`` remote requests in
flight: every LLM, retriever and embedder call runs on a ``thread_pool``
worker, and so does every linked-page fetch of ingest. A backend or page
fetcher whose calls wait on the network says so with a true
``waits_on_network`` class attribute; a stage given none of those runs
every call inline on the caller's thread instead. Each HTTP client sends
through its own ``remote.JsonEndpoint``, which reuses an idle keep-alive
connection or opens one more, so a client holds at most one connection
per request in flight, and opens at most
``remote.MAX_OPENING_CONNECTIONS`` at a time.
"""

from __future__ import annotations

import hashlib
import json
import logging
from concurrent.futures import Executor, Future, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Protocol

from ..model import InvariantError
from ..remote import JsonEndpoint, RemoteError, RemoteTimeout, bearer_headers

logger = logging.getLogger(__name__)


# stage_infer and stage_dedup run as many event threads again, so a stage
# that waits on the network runs twice this many threads; in-process
# backends never start one (see thread_pool). On the remote_services
# benchmark workload's inputs (15 ms per request, seed 1, 2 cores, one BLAS
# thread, a fresh emulator per run) the median of five interleaved runs took
# 1.16 s at 16, 0.97 s at 24, 0.88 s at 32, 0.93 s at 48 and 0.93 s at 64.
# The infer stage took 0.81, 0.61, 0.59, 0.57 and 0.58 s, so it flattens at
# 32, while dedup stayed near 0.21 s at every cap: each merge survivor's
# re-inference is a chain of request rounds that wait on the one before.
# However high the cap, at most remote.MAX_OPENING_CONNECTIONS new
# connections to one address wait for a first answer at a time.
MAX_CONCURRENT_REQUESTS = 32

# an LLM request that times out is sent this many more times before the
# timeout reaches its caller
TIMEOUT_RETRIES = 2


class InlineExecutor(Executor):
    """Runs each call at ``submit``, on the caller's thread, and returns a
    done future holding its result or exception."""

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:
            future.set_exception(exc)
        return future


@contextmanager
def thread_pool(name: str, *backends) -> Iterator[Executor]:
    """``MAX_CONCURRENT_REQUESTS`` worker threads when any of ``backends``
    waits on the network, else an ``InlineExecutor``; on exit, queued work
    is cancelled and running work awaited.

    Inference sends every remote request from a "request" pool whose tasks
    never wait on other tasks, so work that waits on them (an event's
    enrichment) may run on the caller's thread or on a second pool without
    deadlock. Inline, every call runs in the order it was submitted, which
    is the order of a one-request-at-a-time run.
    """
    if not any(getattr(backend, "waits_on_network", False) for backend in backends):
        yield InlineExecutor()
        return
    pool = ThreadPoolExecutor(max_workers=MAX_CONCURRENT_REQUESTS,
                              thread_name_prefix=f"eventcast-{name}")
    try:
        yield pool
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


class BackendError(RuntimeError):
    """Backend failed to produce a completion."""


class BackendTimeout(BackendError):
    """Backend did not answer in time; callers may retry."""


class StubFixtureMissing(BackendError):
    """The stub has no completion for this prompt hash."""

    def __init__(self, key: str):
        self.key = key
        super().__init__(f"stub backend has no fixture for prompt hash {key}")


@dataclass(frozen=True)
class LlmBackendConfig:
    endpoint_url: str
    model_name: str
    temperature: float = 0.7
    max_output_tokens: int = 2048
    timeout_seconds: int = 120

    def __post_init__(self):
        if self.temperature < 0:
            raise InvariantError("LlmBackendConfig", "temperature", "must be >= 0")
        if self.timeout_seconds <= 0:
            raise InvariantError("LlmBackendConfig", "timeout_seconds", "must be > 0")


class LlmBackend(Protocol):
    def send(self, prompt: str, salt: str = "") -> str: ...


def send_retrying_timeouts(llm: LlmBackend, prompt: str, salt: str) -> str:
    """``llm.send``, sent again on ``BackendTimeout`` up to ``TIMEOUT_RETRIES``
    times; the last timeout, and any other error, propagates."""
    for retry in range(1, TIMEOUT_RETRIES + 1):
        try:
            return llm.send(prompt, salt=salt)
        except BackendTimeout:
            logger.warning("run %s timed out; sending again (%d/%d)", salt, retry,
                           TIMEOUT_RETRIES)
    return llm.send(prompt, salt=salt)


def prompt_key(prompt: str, salt: str = "") -> str:
    """Stable fixture key: hash of the prompt plus the run salt."""
    return hashlib.sha256((prompt + "\x00" + salt).encode("utf-8")).hexdigest()


def salt_seed(salt: str) -> int:
    """Map a run salt to a deterministic 32-bit sampling seed."""
    digest = hashlib.sha256(salt.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


class HttpLlmBackend:
    """JSON-over-HTTP completion backend.

    POSTs {model, input, temperature, max_tokens, seed} and expects a
    JSON response carrying the completion text under "completion" (or
    "output"/"text" as fallbacks). Secrets come from the environment,
    never from config files.
    """

    waits_on_network = True

    def __init__(self, config: LlmBackendConfig, auth_token_env: Optional[str] = None):
        self.config = config
        self.endpoint = JsonEndpoint(config.endpoint_url, timeout=config.timeout_seconds,
                                     headers=bearer_headers(auth_token_env))

    def send(self, prompt: str, salt: str = "") -> str:
        body = {
            "model": self.config.model_name,
            "input": prompt,
            "temperature": self.config.temperature,
            "max_tokens": self.config.max_output_tokens,
            "seed": salt_seed(salt),
        }
        try:
            payload = self.endpoint.request(body)
        except RemoteTimeout as exc:
            raise BackendTimeout(str(exc)) from exc
        except RemoteError as exc:
            raise BackendError(str(exc)) from exc
        if not isinstance(payload, dict):
            raise BackendError(f"response is not a JSON object: {str(payload)[:200]}")
        for key in ("completion", "output", "text"):
            if isinstance(payload.get(key), str):
                return payload[key]
        raise BackendError(f"response carries no completion text: {list(payload)}")


class StubLlmBackend:
    """Deterministic fixture-backed backend for tests and synthetic runs."""

    def __init__(self, fixtures: Dict[str, str]):
        self.fixtures = dict(fixtures)

    @classmethod
    def from_file(cls, path) -> "StubLlmBackend":
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        # fixtures may be {key: completion} or {key: {"completion": ...}}
        fixtures = {
            k: (v["completion"] if isinstance(v, dict) else v) for k, v in raw.items()
        }
        return cls(fixtures)

    def send(self, prompt: str, salt: str = "") -> str:
        key = prompt_key(prompt, salt)
        if key not in self.fixtures:
            raise StubFixtureMissing(key)
        return self.fixtures[key]
