"""Discussion-thread collection: connectors, filtering, record assembly.

Connectors are pluggable; the file-corpus connector (JSONL of raw posts)
is the deterministic default, and a generic HTTP JSON-API connector with
token-bucket rate limiting covers live sources. Assembly compiles one
cleaned ContentRecord per thread from the post body, the top-scoring
comments, and any fetched linked pages.
"""

from __future__ import annotations

import json
import logging
import threading
import time as time_mod
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple
from urllib.parse import urlsplit

from .inference.backends import thread_pool
from .model import ContentRecord, InvariantError, ensure_utc, from_json_dict, to_json_dict, utc_from_iso
from .remote import JsonEndpoint, RemoteError, bearer_headers
from .textclean import clean_text

logger = logging.getLogger(__name__)

DEFAULT_TOP_K_COMMENTS = 20
COMMENT_CHAR_CAP = 2_000
RECORD_CHAR_CAP = 60_000


class ConnectorError(IOError):
    """Connector-level I/O failure; retryable unless stated otherwise."""

    def __init__(self, message: str, retryable: bool = True):
        self.retryable = retryable
        super().__init__(message)


class EmptyRecordError(ValueError):
    """Assembly produced a record with no usable text."""


@dataclass(frozen=True)
class FilterConfig:
    """Which posts are worth a content record."""

    search_terms: tuple = ()
    communities: tuple = ()
    min_engagement: int = 0
    require_outbound_link: bool = False

    def __post_init__(self):
        object.__setattr__(self, "search_terms", tuple(self.search_terms))
        object.__setattr__(self, "communities", tuple(self.communities))
        if not self.search_terms and not self.communities:
            raise InvariantError("FilterConfig", "search_terms",
                                 "at least one of search_terms/communities must be non-empty")
        if self.min_engagement < 0:
            raise InvariantError("FilterConfig", "min_engagement", "must be >= 0")

    def matches(self, post: "RawPost") -> bool:
        if post.score < self.min_engagement:
            return False
        if self.require_outbound_link and not post.outbound_urls:
            return False
        haystack = f"{post.title}\n{post.body}".lower()
        term_hit = any(t.lower() in haystack for t in self.search_terms)
        community_hit = post.community.lower() in {c.lower() for c in self.communities}
        return term_hit or community_hit

    to_dict = to_json_dict
    from_dict = classmethod(from_json_dict)


@dataclass(frozen=True)
class RawPost:
    """One unprocessed discussion post with its top-level comments.

    Comments are (raw markup, score) pairs so assembly can rank them.
    """

    post_id: str
    community: str
    title: str
    body: str
    score: int
    outbound_urls: tuple
    comments_raw: tuple  # of (text, score)
    created_at: datetime
    url: str = ""

    def __post_init__(self):
        if not self.post_id:
            raise InvariantError("RawPost", "post_id", "must be non-empty")
        object.__setattr__(self, "created_at", ensure_utc(self.created_at, "RawPost", "created_at"))
        object.__setattr__(self, "outbound_urls", tuple(self.outbound_urls))
        comments = []
        for item in self.comments_raw:
            if isinstance(item, str):
                comments.append((item, 0))
            else:
                text, score = item
                comments.append((str(text), int(score)))
        object.__setattr__(self, "comments_raw", tuple(comments))

    @classmethod
    def from_dict(cls, d) -> "RawPost":
        comments = []
        for item in d.get("comments", d.get("comments_raw", ())):
            if isinstance(item, str):
                comments.append((item, 0))
            elif isinstance(item, dict):
                comments.append((item["text"], int(item.get("score", 0))))
            else:
                comments.append((item[0], int(item[1])))
        return cls(
            post_id=str(d["post_id"]),
            community=d.get("community", ""),
            title=d.get("title", ""),
            body=d.get("body", ""),
            score=int(d.get("score", 0)),
            outbound_urls=tuple(d.get("outbound_urls", ())),
            comments_raw=tuple(comments),
            created_at=utc_from_iso(d["created_at"]),
            url=d.get("url", ""),
        )

    def to_dict(self) -> dict:
        return {
            "post_id": self.post_id,
            "community": self.community,
            "title": self.title,
            "body": self.body,
            "score": self.score,
            "outbound_urls": list(self.outbound_urls),
            "comments": [{"text": t, "score": s} for t, s in self.comments_raw],
            "created_at": self.created_at.isoformat().replace("+00:00", "Z"),
            "url": self.url,
        }


@dataclass
class SkipReport:
    """Counts of source items dropped while listing posts."""

    malformed: int = 0


class TokenBucket:
    """Shared rate limiter: ``rate_per_minute`` requests, burstable to
    capacity. Safe to share between concurrent fetch workers."""

    def __init__(self, rate_per_minute: float, capacity: Optional[float] = None,
                 clock: Callable[[], float] = time_mod.monotonic,
                 sleep: Callable[[float], None] = time_mod.sleep):
        if rate_per_minute <= 0:
            raise ValueError("rate_per_minute must be positive")
        self.rate = rate_per_minute / 60.0
        self.capacity = capacity if capacity is not None else max(1.0, rate_per_minute / 60.0)
        self._tokens = self.capacity
        self._clock = clock
        self._sleep = sleep
        self._last = clock()
        self._lock = threading.Lock()

    def acquire(self):
        while True:
            with self._lock:
                now = self._clock()
                self._tokens = min(self.capacity, self._tokens + (now - self._last) * self.rate)
                self._last = now
                if self._tokens >= 1.0:
                    self._tokens -= 1.0
                    return
                wait = (1.0 - self._tokens) / self.rate
            self._sleep(wait)


class FileCorpusConnector:
    """Reads raw posts from a JSONL corpus file. Always reachable."""

    def __init__(self, path):
        self.path = Path(path)
        self.skip_report = SkipReport()

    def list_raw(self) -> Iterable[dict]:
        if not self.path.exists():
            raise ConnectorError(f"corpus file not found: {self.path}", retryable=False)
        with open(self.path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    yield json.loads(line)
                except json.JSONDecodeError as exc:
                    self.skip_report.malformed += 1
                    logger.warning("skipping line %d of %s: invalid JSON (%s)",
                                   lineno, self.path, exc)


class HttpJsonConnector:
    """Generic JSON-API connector: GET an endpoint returning a post array.

    Responses must be a JSON list of post objects (or {"posts": [...]}).
    Requests go through a token-bucket rate limiter and retry with
    exponential backoff before surfacing a retryable ConnectorError.
    The auth token is read from the environment, never from config.
    """

    def __init__(self, base_url: str, auth_token_env: Optional[str] = None,
                 requests_per_minute: float = 60, max_retries: int = 3,
                 backoff_seconds: float = 1.0, timeout: float = 30.0):
        self.max_retries = max_retries
        self.backoff_seconds = backoff_seconds
        self.endpoint = JsonEndpoint(base_url, timeout=timeout,
                                     headers=bearer_headers(auth_token_env))
        self.rate_limiter = TokenBucket(requests_per_minute)
        self.skip_report = SkipReport()

    def list_raw(self) -> Iterable[dict]:
        last_exc: Optional[Exception] = None
        for attempt in range(self.max_retries):
            self.rate_limiter.acquire()
            try:
                payload = self.endpoint.request()
                break
            except RemoteError as exc:
                last_exc = exc
                logger.warning("connector fetch failed (attempt %d/%d): %s",
                               attempt + 1, self.max_retries, exc)
                if attempt + 1 < self.max_retries:  # back off only before another attempt
                    time_mod.sleep(self.backoff_seconds * (2 ** attempt))
        else:
            raise ConnectorError(f"connector unreachable after {self.max_retries} attempts: {last_exc}")
        if isinstance(payload, dict):
            payload = payload.get("posts", [])
        for item in payload:
            yield item


def list_posts(connector, filter: FilterConfig) -> List[RawPost]:
    """Parse and filter the connector's posts.

    Malformed items are skipped and counted in the connector's skip
    report; every returned post satisfies the filter predicate.
    """
    posts = []
    for item in connector.list_raw():
        try:
            post = RawPost.from_dict(item)
        except (KeyError, ValueError, TypeError, AttributeError, InvariantError) as exc:
            connector.skip_report.malformed += 1
            logger.warning("skipping malformed post: %s", exc)
            continue
        if filter.matches(post):
            posts.append(post)
    return posts


class NullFetcher:
    """Fetches nothing; for corpora without linked pages."""

    def fetch(self, url: str) -> str:
        raise ConnectorError(f"page fetching disabled ({url})", retryable=False)


class FilePageFetcher:
    """Serves page bodies from a fixture map {url: path or literal html}."""

    def __init__(self, pages: Dict[str, str], root: Optional[Path] = None):
        self.pages = dict(pages)
        self.root = Path(root) if root else None

    def fetch(self, url: str) -> str:
        if url not in self.pages:
            raise ConnectorError(f"no fixture for {url}", retryable=False)
        ref = self.pages[url]
        if self.root is not None:
            return (self.root / ref).read_text(encoding="utf-8")
        return ref


class HttpPageFetcher:
    """Plain GET fetcher for linked webpages.

    Follows redirects and honours the proxy environment. Only http(s)
    URLs are opened, redirect targets included: the URLs come from posts,
    and ``urlopen``'s default opener would also read ``file:``, ``ftp:``
    and ``data:`` URLs. A page decodes with the charset its
    ``Content-Type`` names, else as UTF-8 with undecodable bytes replaced.
    """

    waits_on_network = True

    def __init__(self, timeout: float = 20.0):
        import urllib.request  # only here, so a run without HTTP pages never loads it

        self.timeout = timeout
        proxies = {scheme: url for scheme, url in urllib.request.getproxies().items()
                   if scheme in ("http", "https")}
        self._opener = urllib.request.OpenerDirector()
        for handler in (urllib.request.ProxyHandler(proxies), urllib.request.HTTPHandler(),
                        urllib.request.HTTPSHandler(), urllib.request.HTTPRedirectHandler(),
                        urllib.request.HTTPDefaultErrorHandler(),
                        urllib.request.HTTPErrorProcessor()):
            self._opener.add_handler(handler)

    def fetch(self, url: str) -> str:
        import urllib.error

        if urlsplit(url).scheme not in ("http", "https"):
            raise ValueError(f"not an http(s) URL: {url!r}")
        try:
            resp = self._opener.open(url, timeout=self.timeout)
        except urllib.error.HTTPError as exc:
            exc.close()  # an error status or a refused redirect holds the open response
            raise
        with resp:
            body = resp.read()
            charset = resp.headers.get_content_charset() or "utf-8"
        try:
            return body.decode(charset, errors="replace")
        except LookupError:  # a charset Python does not know
            return body.decode("utf-8", errors="replace")


def fetch_linked_pages(post: RawPost, fetcher, max_pages: int) -> List[Tuple[str, str]]:
    """Fetch up to max_pages of the post's outbound links.

    Fetches run on a ``thread_pool("page", fetcher)``, so they overlap
    only when the fetcher waits on the network, but results keep the
    listed order. Per-page failures are logged and the page omitted;
    never fatal.
    """
    if max_pages < 0:
        raise ValueError("max_pages must be >= 0")

    def fetch_one(url):
        try:
            return url, fetcher.fetch(url)
        except Exception as exc:
            logger.warning("failed to fetch %s: %s", url, exc)
            return None

    with thread_pool("page", fetcher) as pool:
        results = list(pool.map(fetch_one, post.outbound_urls[:max_pages]))
    return [r for r in results if r is not None]


def assemble_content_record(
    post: RawPost,
    pages: Sequence[Tuple[str, str]] = (),
    top_k_comments: int = DEFAULT_TOP_K_COMMENTS,
) -> ContentRecord:
    """Compile one cleaned ContentRecord for a discussion thread.

    Keeps the top_k highest-score comments (ties broken by original
    order), each capped at 2,000 chars, within an overall record budget
    of 60,000 chars spent body-first, then comments, then linked texts.
    The body and comments are cleaned as markdown, linked pages as HTML.
    Deterministic given its inputs: fetched_at is the post's created_at.

    Raises EmptyRecordError when nothing survives cleaning.
    """
    budget = RECORD_CHAR_CAP
    body = clean_text(post.body, "markdown", max_chars=budget)
    budget -= len(body)

    ranked = sorted(
        enumerate(post.comments_raw), key=lambda item: (-item[1][1], item[0])
    )[:top_k_comments]
    ranked.sort(key=lambda item: item[0])  # keep thread order in the record
    comments = []
    for _, (text, _score) in ranked:
        if budget <= 0:
            break
        cleaned = clean_text(text, "markdown", max_chars=min(COMMENT_CHAR_CAP, budget))
        if cleaned:
            comments.append(cleaned)
            budget -= len(cleaned)

    linked = []
    for url, html in pages:
        if budget <= 0:
            break
        cleaned = clean_text(html, "html", max_chars=budget)
        if cleaned:
            linked.append((url, cleaned))
            budget -= len(cleaned)

    title = clean_text(post.title, "plain", max_chars=500)
    if not (body or comments or any(t for _, t in linked)):
        raise EmptyRecordError(f"post {post.post_id}: no usable text after cleaning")

    return ContentRecord(
        record_id=f"rec-{post.post_id}",
        source="forum_thread",
        url=post.url or f"post://{post.post_id}",
        created_at=post.created_at,
        fetched_at=post.created_at,
        title=title,
        body_text=body,
        comments=tuple(comments),
        engagement=post.score,
        linked_texts=tuple(linked),
    )
