"""Keep-alive JSON POSTs on the standard library, for `HttpProvider`.

`KeepAliveSession.post` sends one JSON body and returns the reply read in
full. Idle connections are kept per origin (scheme, host and port) and
handed to the next post, so no more are open than posts have been in flight
at once. A kept connection that polls readable while idle was closed by the
server; it is reopened before sending. A post that fails on the wire is
never re-sent here: its connection is closed and dropped, and the error
goes to the caller, whose retry policy decides.

Proxies come from the environment, read by `urllib.request.getproxies` and
`proxy_bypass` (`http_proxy`, `https_proxy`, `all_proxy`, `no_proxy`). The
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
from urllib.parse import SplitResult, unquote, urlsplit

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


@dataclass(frozen=True)
class _Pooled:
    """A kept connection and what each request on it adds to the endpoint's path."""

    conn: HTTPConnection
    prefix: str  # the absolute form's scheme and host, for a plain proxy
    headers: dict[str, str]


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
    """POSTs JSON over connections kept alive between calls; safe to share between threads."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._idle: dict[tuple[str, str], list[_Pooled]] = {}
        self._tls: ssl.SSLContext | None = None

    def post(self, url: str, json: object, headers: dict[str, str], timeout: float) -> Response:
        """POST `json` to `url`; `timeout` bounds the connect and each read, in seconds."""
        parts = urlsplit(url)
        origin = (parts.scheme, parts.netloc)
        with self._lock:
            idle = self._idle.get(origin)
            pooled = idle.pop() if idle else None
        pooled = pooled or self._open(parts)
        conn = pooled.conn
        if conn.timeout != timeout or (conn.sock is not None and _readable(conn.sock)):
            conn.close()  # the next request connects again, with this timeout
            conn.timeout = timeout
        target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        body = dumps(json, allow_nan=False).encode()
        try:
            conn.request("POST", pooled.prefix + target, body, {**_HEADERS, **pooled.headers, **headers})
            reply = conn.getresponse()
            content = reply.read()
        except NETWORK_ERRORS:
            conn.close()
            raise
        with self._lock:
            self._idle.setdefault(origin, []).append(pooled)
        return Response(reply.status, reply.headers, content)

    def close(self) -> None:
        """Close the idle connections; a post in flight keeps its own until it returns."""
        with self._lock:
            pooled = [p for idle in self._idle.values() for p in idle]
            self._idle.clear()
        for p in pooled:
            p.conn.close()

    def _open(self, parts: SplitResult) -> _Pooled:
        """A new, not yet connected connection to `parts`' origin."""
        https = parts.scheme == "https"
        host, port = parts.hostname or "", parts.port or (443 if https else 80)
        proxy = proxy_for(parts.geturl())
        # The socket goes to the proxy when there is one, else to the origin.
        peer_host, peer_port, proxy_headers = proxy or (host, port, {})
        if not https:
            prefix = f"http://{parts.netloc.rpartition('@')[2]}" if proxy else ""
            return _Pooled(HTTPConnection(peer_host, peer_port), prefix, proxy_headers)
        conn = HTTPSConnection(peer_host, peer_port, context=self._context())
        if proxy:
            conn.set_tunnel(host, port, proxy_headers)
        return _Pooled(conn, "", {})

    def _context(self) -> ssl.SSLContext:
        # Made on the first https connection: loading the trust store takes ~40 ms.
        with self._lock:
            if self._tls is None:
                self._tls = ssl.create_default_context()
            return self._tls
