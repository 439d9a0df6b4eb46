"""JSON over keep-alive HTTP for the remote services.

One ``JsonEndpoint`` serves one URL: the LLM, embedder and retriever
clients and the HTTP connector each own one. It keeps its connections
open between requests in a lock-guarded idle stack. A request takes an
idle connection, or opens a new one when none is idle, and gives it back
once the body has been read, unless the server said it would close it.
So an endpoint holds at most one connection per caller in flight, and no
connection is tied to a thread.

A server queues the connections it has not yet accepted in a short listen
backlog and drops the SYN of one more, which the client resends only
after a second. So at most ``MAX_OPENING_CONNECTIONS`` connections to one
address, across all endpoints, wait for their first status line; a
request that finds no idle connection beyond that waits for one of them
to answer, and then reuses it or opens the next.

A server may close a connection while it sits idle. A request on a reused
connection that fails before a status line arrives is therefore sent
once more on a new connection.

Any 2xx status carries an answer. Redirects are not followed: the
services are configured by URL, and a 3xx status is an error.

``HTTP(S)_PROXY`` and ``NO_PROXY`` are read once, when the endpoint is
built; HTTPS goes through a proxy in a CONNECT tunnel. TLS uses the
system's default trust store. Credentials are never read from
``~/.netrc``; callers pass the headers that carry them.
"""

from __future__ import annotations

import base64
import http.client
import json
import os
import ssl
import threading
from typing import Dict, Optional, Tuple
from urllib.parse import unquote, urlencode, urlsplit
from urllib.request import getproxies, proxy_bypass

# per-endpoint request counts and the most requests it had in flight at
# once, reported per service in run_report.json
COUNTS = ("requests", "connections", "reconnects", "timeouts", "max_inflight")

# how a server's close of an idle keep-alive connection shows up on its
# next request (http.client.RemoteDisconnected is a ConnectionResetError)
STALE_CONNECTION = (ConnectionResetError, BrokenPipeError)

# Python's socketserver listens with a backlog of 5, so it holds 6
# connections it has not accepted yet. On 2 cores, a burst of 8 new
# connections to it stalled about one remote_services benchmark round in
# 15 for a second; with 4, none of 30 rounds stalled.
MAX_OPENING_CONNECTIONS = 4


class _Openings:
    """The connections to one address that await their first status line,
    and the idle stacks of the endpoints there, guarded by one condition."""

    def __init__(self):
        self.changed = threading.Condition()
        self.pending = 0


_openings: Dict[Tuple[str, int], _Openings] = {}
_openings_lock = threading.Lock()


class RemoteError(Exception):
    """A request got no usable answer: no connection, a status outside 2xx
    or a body that is not JSON."""


class RemoteTimeout(RemoteError):
    """The server did not answer within the endpoint's timeout."""


class JsonEndpoint:
    """GET or POST JSON to one http(s) URL over reused connections."""

    def __init__(self, url: str, timeout: float, headers: Optional[Dict[str, str]] = None):
        parts = urlsplit(url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError(f"not an http(s) URL: {url!r}")
        self.timeout = timeout
        self._headers = {"User-Agent": "eventcast", **(headers or {})}
        self._path = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        self._tls_context = ssl.create_default_context() if parts.scheme == "https" else None
        self._address: Tuple[str, int] = (parts.hostname,
                                          parts.port or (443 if self._tls_context else 80))
        self._tunnel: Optional[Tuple[str, int, Dict[str, str]]] = None
        proxy = getproxies().get(parts.scheme)
        if proxy and not proxy_bypass(parts.netloc.rpartition("@")[2]):
            via = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
            auth = {}
            if via.username:
                user_pass = f"{unquote(via.username)}:{unquote(via.password or '')}"
                auth["Proxy-Authorization"] = \
                    "Basic " + base64.b64encode(user_pass.encode("utf-8")).decode("ascii")
            if self._tls_context:
                self._tunnel = (*self._address, auth)
            else:  # a plain-HTTP proxy takes the absolute URL
                self._path = f"http://{parts.netloc}{self._path}"
                self._headers.update(auth)
            self._address = (via.hostname, via.port or 80)
        with _openings_lock:
            self._openings = _openings.setdefault(self._address, _Openings())
        self._idle: list = []  # guarded by self._openings.changed
        self._counts = dict.fromkeys(COUNTS, 0)
        self._inflight = 0
        self._lock = threading.Lock()

    def request(self, body=None, params: Optional[dict] = None):
        """POST ``body`` as JSON (GET when it is None) and return the decoded answer.

        ``params`` are appended to the URL as a query string. Raises
        RemoteTimeout after a socket timeout and RemoteError on a failed
        connection, a status outside 2xx or a body that is not JSON.
        Redirects are not followed: a 3xx status is a RemoteError.
        """
        path = self._path
        if params:
            path += ("&" if "?" in path else "?") + urlencode(params)
        headers = dict(self._headers)
        data = None
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        with self._lock:
            self._counts["requests"] += 1
            self._inflight += 1
            self._counts["max_inflight"] = max(self._counts["max_inflight"], self._inflight)
        try:
            status, raw = self._exchange("GET" if data is None else "POST", path, data, headers)
        except TimeoutError as exc:
            self._count("timeouts")
            raise RemoteTimeout(f"no response within {self.timeout}s") from exc
        except (OSError, http.client.HTTPException) as exc:
            raise RemoteError(f"request failed: {exc}") from exc
        finally:
            with self._lock:
                self._inflight -= 1
        if not 200 <= status < 300:
            raise RemoteError(f"backend returned HTTP {status}: {_preview(raw)}")
        try:
            return json.loads(raw)
        except ValueError as exc:
            raise RemoteError(f"non-JSON response: {_preview(raw)}") from exc

    def counts(self) -> Dict[str, int]:
        """Requests sent, connections opened, stale connections replaced,
        timeouts, and the most requests in flight at once."""
        with self._lock:
            return dict(self._counts)

    def close(self) -> None:
        """Close the idle connections; a later request opens new ones."""
        with self._openings.changed:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def _count(self, key: str) -> None:
        with self._lock:
            self._counts[key] += 1

    def _exchange(self, method: str, path: str, data: Optional[bytes],
                  headers: Dict[str, str]) -> Tuple[int, bytes]:
        conn = self._checkout(reuse=True)
        if conn is None:
            conn, response = self._open_and_send(method, path, data, headers)
        else:
            try:
                response = _send(conn, method, path, data, headers)
            except STALE_CONNECTION:
                self._count("reconnects")
                self._checkout(reuse=False)
                conn, response = self._open_and_send(method, path, data, headers)
        try:
            raw = response.read()
        except BaseException:
            conn.close()
            raise
        if response.will_close:
            conn.close()
        else:
            with self._openings.changed:
                self._idle.append(conn)
                self._openings.changed.notify_all()
        return response.status, raw

    def _checkout(self, reuse: bool) -> Optional[http.client.HTTPConnection]:
        """An idle connection when ``reuse`` and one is there; otherwise None,
        once this request may open a connection, which it must then do
        through ``_open_and_send``."""
        openings = self._openings
        with openings.changed:
            while not (reuse and self._idle) and openings.pending >= MAX_OPENING_CONNECTIONS:
                openings.changed.wait()
            if reuse and self._idle:
                return self._idle.pop()
            openings.pending += 1
            return None

    def _open_and_send(self, method: str, path: str, data: Optional[bytes],
                       headers: Dict[str, str]):
        """Send on a new connection; returns it with the response, whose
        status line has arrived."""
        try:
            conn = self._connect()
            return conn, _send(conn, method, path, data, headers)
        finally:
            with self._openings.changed:
                self._openings.pending -= 1
                self._openings.changed.notify_all()

    def _connect(self) -> http.client.HTTPConnection:
        host, port = self._address
        if self._tls_context is not None:
            conn = http.client.HTTPSConnection(host, port, timeout=self.timeout,
                                               context=self._tls_context)
        else:
            conn = http.client.HTTPConnection(host, port, timeout=self.timeout)
        if self._tunnel is not None:
            tunnel_host, tunnel_port, tunnel_headers = self._tunnel
            conn.set_tunnel(tunnel_host, tunnel_port, headers=tunnel_headers)
        try:
            conn.connect()
        except BaseException:
            conn.close()
            raise
        self._count("connections")
        return conn


def _send(conn: http.client.HTTPConnection, method: str, path: str, data: Optional[bytes],
          headers: Dict[str, str]) -> http.client.HTTPResponse:
    """Send one request and read the status line and headers of its
    answer; ``conn`` is closed if either fails."""
    try:
        conn.request(method, path, body=data, headers=headers)
        return conn.getresponse()
    except BaseException:
        conn.close()
        raise


def bearer_headers(token_env: Optional[str]) -> Dict[str, str]:
    """An Authorization header with the token in environment variable
    ``token_env``, or none when it is unset or empty."""
    token = os.environ.get(token_env, "") if token_env else ""
    return {"Authorization": f"Bearer {token}"} if token else {}


def _preview(raw: bytes) -> str:
    return raw.decode("utf-8", errors="replace")[:200]
