"""Keep-alive JSON POSTs on the standard library, for `HttpProvider`.

A `KeepAliveSession` posts to one URL with one timeout. Its route, its
fixed headers and, for https, its TLS context are worked out once, when it
is made. `post` sends one JSON body and returns the reply read in full.
Idle connections are handed to the next post, so no more are open than
posts have been in flight at once. A kept connection that polls readable
while idle was closed by the server; it is reopened before sending. A post
that fails on the wire is never re-sent here: its connection is closed and
dropped, and the error goes to the caller, whose retry policy decides.

The proxy comes from the environment, read once by `urllib.request.getproxies`
and `proxy_bypass` (`http_proxy`, `https_proxy`, `all_proxy`, `no_proxy`). The
proxy is spoken to in plain HTTP: an http endpoint is sent the absolute URL,
an https one is tunnelled with CONNECT. Credentials in the proxy URL are
sent as `Proxy-Authorization: Basic`. TLS is verified against
`ssl.create_default_context()`: the system trust store, or `SSL_CERT_FILE`.

Importing this module loads `http.client`, `ssl` and `urllib.request`, about
30 ms, so `pillm.providers` imports it only when an `HttpProvider` is built.
"""

from __future__ import annotations

import base64
import select
import ssl
import threading
import urllib.request
from dataclasses import dataclass
from email.message import Message
from http.client import HTTPConnection, HTTPException, HTTPSConnection
from json import dumps, loads
from urllib.parse import unquote, urlsplit

from . import __version__

# A post that raises one of these failed on the wire; the caller may send it again.
NETWORK_ERRORS = (OSError, HTTPException)

_HEADERS = {"Content-Type": "application/json", "User-Agent": f"pillm/{__version__}"}


@dataclass(frozen=True)
class Response:
    """A reply, read in full."""

    status_code: int
    headers: Message
    content: bytes

    @property
    def text(self) -> str:
        return self.content.decode("utf-8", errors="replace")

    def json(self):
        return loads(self.content)


def proxy_for(url: str) -> tuple[str, int, dict[str, str]] | None:
    """The environment's proxy for `url` as (host, port, headers), or None to go direct.

    Raises `ValueError` for a proxy URL that is not plain `http://`.
    """
    parts = urlsplit(url)
    proxies = urllib.request.getproxies()
    proxy = proxies.get(parts.scheme) or proxies.get("all")
    if not proxy or urllib.request.proxy_bypass(parts.hostname or ""):
        return None
    where = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
    if where.scheme != "http" or not where.hostname:
        raise ValueError(f"proxy {proxy!r} for {parts.scheme} is not an http:// proxy URL")
    headers = {}
    if where.username is not None:
        secret = f"{unquote(where.username)}:{unquote(where.password or '')}"
        headers["Proxy-Authorization"] = "Basic " + base64.b64encode(secret.encode()).decode()
    return where.hostname, where.port or 80, headers


def _readable(sock) -> bool:
    """True when an idle socket polls readable: its peer has closed it, or sent unasked bytes."""
    if hasattr(select, "poll"):
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])


class KeepAliveSession:
    """POSTs JSON to one URL over connections kept alive between calls; safe to share between threads.

    `timeout` bounds the connect and each read, in seconds. Raises
    `ValueError` when the environment's proxy for `url` is not plain `http://`.
    """

    def __init__(self, url: str, timeout: float) -> None:
        parts = urlsplit(url)
        https = parts.scheme == "https"
        host, port = parts.hostname or "", parts.port or (443 if https else 80)
        proxy = proxy_for(url)
        # The socket goes to the proxy when there is one, else to the origin.
        peer_host, peer_port, proxy_headers = proxy or (host, port, {})
        self._peer = (peer_host, peer_port)
        self._timeout = timeout
        self._target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        self._headers = dict(_HEADERS)
        self._tls = ssl.create_default_context() if https else None  # ~30 ms: loads the trust store
        self._tunnel = (host, port, proxy_headers) if https and proxy else None
        if proxy and not https:
            self._target = f"http://{parts.netloc.rpartition('@')[2]}{self._target}"
            self._headers.update(proxy_headers)
        self._lock = threading.Lock()
        self._idle: list[HTTPConnection] = []

    def post(self, json: object, headers: dict[str, str]) -> Response:
        """POST `json` with `headers` added to the session's own."""
        with self._lock:
            conn = self._idle.pop() if self._idle else self._open()
        if conn.sock is not None and _readable(conn.sock):
            conn.close()  # the next request connects again
        body = dumps(json, allow_nan=False).encode()
        try:
            conn.request("POST", self._target, body, {**self._headers, **headers})
            reply = conn.getresponse()
            content = reply.read()
        except NETWORK_ERRORS:
            conn.close()
            raise
        with self._lock:
            self._idle.append(conn)
        return Response(reply.status, reply.headers, content)

    def close(self) -> None:
        """Close the idle connections; a post in flight keeps its own until it returns."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def _open(self) -> HTTPConnection:
        """A new, not yet connected connection to the peer."""
        if self._tls is None:
            return HTTPConnection(*self._peer, timeout=self._timeout)
        conn = HTTPSConnection(*self._peer, timeout=self._timeout, context=self._tls)
        if self._tunnel is not None:
            conn.set_tunnel(*self._tunnel)
        return conn
