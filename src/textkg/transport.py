"""The one place textkg opens network connections: a small HTTP/1.1 client on ``socket`` and ``ssl``.

Every HTTP status comes back from ``request`` as a ``Response``; only failures
to get one raise. As in Python 3.11's urllib, a 301, 302, 303, 307 or 308 reply
to a GET or HEAD and a 301, 302 or 303 reply to a POST are followed with a bare
GET, and a redirect out of http and https, a fifth visit to one URL or an
eleventh URL comes back as its own status; ``Authorization`` and ``X-Api-Key``
are not sent on to another origin (scheme, host and port). A request is one
``sendall`` of the bytes ``http.client`` sends, and a reply is read as it reads
one. Connections are kept alive in a process-wide pool, one per concurrent
request to an origin; a request on a pooled connection that the server has since
closed is retried once on a new one. TLS verifies against the system trust store.
``*_PROXY`` is read at the first request and ``NO_PROXY`` checked against each
origin; an https request tunnels with CONNECT, which alone carries the proxy's
credentials.
"""

from __future__ import annotations

import atexit
import base64
import functools
import json
import os
import re
import socket
import string
import sys
import threading
from collections.abc import Callable
from dataclasses import dataclass
from urllib.parse import SplitResult, quote, unquote, urlencode, urljoin, urlparse, urlsplit, urlunparse, urlunsplit

from . import __version__
from .errors import TextkgError

USER_AGENT = f"textkg/{__version__}"
SCHEMES = ("http", "https")
CREDENTIAL_HEADERS = ("Authorization", "X-Api-Key")
_MAX_VISITS, _MAX_REDIRECTS = 4, 10  # urllib's limits: redirects to one URL, distinct URLs
_MAX_LINE, _MAX_HEADERS = 65536, 100  # http.client's limits on a reply's lines and header lines
# what http.client refuses to send: a header name, a header value, a request target
_legal_name = re.compile(rb"[^:\s][^:\r\n]*").fullmatch
_illegal_value = re.compile(rb"\n(?![ \t])|\r(?![ \t\n])").search
_illegal_target = re.compile("[\x00-\x20\x7f]").search


class TransportError(TextkgError):
    """No response: refused connection, DNS failure, protocol error, bad URL."""


class TransportTimeoutError(TransportError):
    """The server did not answer within the timeout."""


class Headers(dict):
    """A reply's header values (ISO-8859-1) by lower-cased name; ``[]`` and ``get`` take any case."""

    def __getitem__(self, name: str) -> str:
        return super().__getitem__(name.lower())

    def get(self, name: str, default: str | None = None) -> str | None:
        return super().get(name.lower(), default)


@dataclass(frozen=True)
class Response:
    status: int
    headers: Headers
    body: bytes

    @property
    def text(self) -> str:
        return self.body.decode("utf-8", errors="replace")


def _origin(url: str) -> tuple[str, str | None, int | None]:
    parts = urlsplit(url)
    return parts.scheme, parts.hostname, parts.port


@functools.cache
def _proxies() -> tuple[dict[str, str], Callable[[str], bool] | None]:
    """The proxy table and urllib's bypass check, read once. urllib.request loads http.client, email and
    ssl, so it is imported only where it can find a proxy: a *_proxy variable is set, or on macOS and Windows."""
    if sys.platform not in ("darwin", "win32") and not any(name.lower().endswith("_proxy") for name in os.environ):
        return {}, None
    import urllib.request

    return urllib.request.getproxies(), urllib.request.proxy_bypass


def _route(parts: SplitResult) -> tuple[str, str, str | None, str, dict[str, str]]:
    """How to send a request for the URL split into parts: the connection's
    scheme (https: under TLS), the host to connect to, the host to tunnel to
    (or None), the request target, and the headers meant for the proxy."""
    if not parts.netloc:
        raise ValueError("no host given")
    scheme, host, tunnel, proxy_headers = parts.scheme, parts.netloc, None, {}
    target = urlunsplit(("", "", parts.path or "/", parts.query, ""))
    proxies, bypass = _proxies()
    proxy = proxies.get(scheme)
    if proxy is not None and not bypass(parts.netloc):
        proxy = urlsplit(proxy if "://" in proxy else f"//{proxy}")
        host = unquote(proxy.netloc.rpartition("@")[2])
        if proxy.username and proxy.password:
            credentials = f"{unquote(proxy.username)}:{unquote(proxy.password)}".encode()
            proxy_headers["Proxy-Authorization"] = "Basic " + base64.b64encode(credentials).decode("ascii")
        if scheme == "https":
            tunnel = parts.netloc
        else:  # the proxy's own scheme, and the absolute URL
            scheme, target = proxy.scheme or scheme, urlunsplit(parts._replace(fragment=""))
            if scheme not in SCHEMES:
                raise ValueError(f"unknown proxy scheme {scheme!r}")
    return scheme, host, tunnel, target, proxy_headers


def _request_bytes(method: str, target: str, netloc: str, default: int, body: bytes | None, headers: dict) -> bytes:
    """The request as http.client writes it, with the Host of netloc, or of an absolute
    target, without the default port; ValueError where http.client refuses to send it."""
    host = netloc.rpartition("@")[2].removesuffix(f":{default}")
    if target.startswith("http"):  # a proxy's absolute target names the origin as written
        host = urlsplit(target).netloc
    if _illegal_target(target):
        raise ValueError(f"control character or space in {target!r}")
    fields = {"Host": host if host.isascii() else host.encode("idna").decode("ascii"), "Accept-Encoding": "identity"}
    if body is not None or method in ("POST", "PUT", "PATCH"):
        fields["Content-Length"] = str(len(body or b""))
    lines = [f"{method} {target} HTTP/1.1".encode("ascii")]
    for key, value in [*((k, v) for k, v in fields.items() if k not in headers), *headers.items()]:
        key, value = key.encode("ascii"), value.encode("latin-1")
        if not _legal_name(key) or _illegal_value(value):
            raise ValueError(f"invalid header {key!r}: {value!r}")
        lines.append(b"%s: %s" % (key, value))
    return b"\r\n".join([*lines, b"", body or b""])


def _wrap_tls(sock: socket.socket, server_hostname: str) -> socket.socket:
    """sock under TLS with a fresh default context, as HTTPSConnection makes one: SNI, ALPN http/1.1."""
    import ssl  # here, so a plain-http run never loads it

    context = ssl.create_default_context()
    context.set_alpn_protocols(["http/1.1"])
    return context.wrap_socket(sock, server_hostname=server_hostname)


class _Connection:
    """A socket to host, through a CONNECT tunnel to tunnel if given and under TLS for https,
    and the buffered reader of its replies. A reply that breaks HTTP/1.x raises ValueError."""

    def __init__(self, scheme: str, host: str, tunnel: str | None, proxy_headers: dict, timeout: float):
        address, server = urlsplit(f"//{host}"), urlsplit(f"//{tunnel or host}")
        port = 443 if scheme == "https" else 80
        self.sock = socket.create_connection((address.hostname, address.port or port), timeout)
        try:
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if tunnel:  # sent as http.client sends it; only the CONNECT carries proxy_headers
                lines = [b"CONNECT %s:%d HTTP/1.0" % (server.hostname.encode("ascii"), server.port or port)]
                lines += [f"{key}: {value}".encode("latin-1") for key, value in proxy_headers.items()]
                self.sock.sendall(b"\r\n".join([*lines, b"", b""]))
                with self.sock.makefile("rb") as self.rfile:
                    if (status := self.head()[0]) != 200:
                        raise OSError(f"Tunnel connection failed: {status}")
            if scheme == "https":
                self.sock = _wrap_tls(self.sock, server.hostname)
            self.rfile = self.sock.makefile("rb")
        except BaseException:
            self.sock.close()
            raise

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()

    def line(self) -> bytes:
        if len(line := self.rfile.readline(_MAX_LINE + 1)) > _MAX_LINE:
            raise ValueError(f"got a line longer than {_MAX_LINE} bytes")
        return line

    def exactly(self, size: int) -> bytes:
        if len(data := self.rfile.read(size)) < size:
            raise ValueError(f"IncompleteRead({len(data)} bytes read, {size - len(data)} more expected)")
        return data

    def fields(self) -> Headers:
        fields = Headers()
        for _ in range(_MAX_HEADERS + 1):
            if (line := self.line()) in (b"\r\n", b"\n", b""):
                return fields
            key, colon, value = line.decode("iso-8859-1").partition(":")
            if colon:
                fields.setdefault(key.strip().lower(), value.strip(" \t\r\n"))
        raise ValueError(f"got more than {_MAX_HEADERS} headers")

    def head(self) -> tuple[int, Headers, bool]:
        """The status and headers of the next reply after any 100 Continue, and whether it is HTTP/1.0."""
        while True:
            if not (line := self.line()):
                raise ConnectionResetError("Remote end closed connection without response")
            version, status, *_ = [*line.split(None, 2), b"", b""]
            if not version.startswith(b"HTTP/1.") or len(status) != 3 or not status.isdigit() or status < b"100":
                raise ValueError(f"bad status line {line!r}")
            headers = self.fields()
            if status != b"100":
                return int(status), headers, version == b"HTTP/1.0"

    def body(self, method: str, status: int, headers: Headers, http10: bool) -> tuple[bytes, bool]:
        """The reply's body, and whether the connection can carry another request."""
        if method == "HEAD" or status < 200 or status in (204, 304):
            return b"", False  # bytes a server sent anyway would be read as the next status line
        connection = headers.get("connection", "").lower()
        keep = "keep-alive" in connection if http10 else "close" not in connection
        if headers.get("transfer-encoding", "").lower() == "chunked":
            chunks = []
            while size := int(self.line().partition(b";")[0], 16):  # the size without its extension
                chunks.append(self.exactly(size + 2)[:-2])
            self.fields()  # the trailer
            return b"".join(chunks), keep
        if (length := headers.get("content-length", "")).isascii() and length.isdigit():
            return self.exactly(int(length)), keep
        return self.rfile.read(), False  # delimited by the end of the connection


_idle: dict[tuple, list[_Connection]] = {}
_idle_lock = threading.Lock()
# how a pooled connection that the server closed while idle fails before any reply
_STALE = (ConnectionResetError, BrokenPipeError, ConnectionAbortedError)


def _exchange(route: tuple, method: str, body: bytes | None, headers: dict[str, str], timeout: float) -> Response:
    """One request and its whole reply, on a connection pooled unless the reply
    ends it. The pool key (scheme, host, tunnel) keeps proxied and direct traffic apart."""
    scheme, host, tunnel, target, proxy_headers = route
    if proxy_headers and tunnel is None:
        headers = {**headers, **proxy_headers}
    message = _request_bytes(method, target, tunnel or host, 443 if scheme == "https" else 80, body, headers)
    key = (scheme, host, tunnel)
    with _idle_lock:
        conn = _idle[key].pop() if _idle.get(key) else None
    while True:
        reused = conn is not None
        if reused:
            conn.sock.settimeout(timeout)
        else:
            conn = _Connection(scheme, host, tunnel, proxy_headers, timeout)
        head = None
        try:
            conn.sock.sendall(message)
            # http.server sends headers and body in two writes without
            # TCP_NODELAY, so on a kept-alive connection its Nagle waits for
            # our delayed ACK (40 ms). The flag does not persist: set it now.
            if hasattr(socket, "TCP_QUICKACK"):
                conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
            head = conn.head()
            reply, keep = conn.body(method, *head)
            break
        except BaseException as exc:
            conn.close()
            if not (reused and head is None and isinstance(exc, _STALE)):
                raise
            conn = None  # the server closed it while idle: retry once, on a new connection
    if keep:
        with _idle_lock:
            _idle.setdefault(key, []).append(conn)
    else:
        conn.close()
    return Response(head[0], head[1], reply)


@atexit.register
def close_idle() -> None:
    """Close every pooled idle connection."""
    with _idle_lock:
        connections = [conn for pooled in _idle.values() for conn in pooled]
        _idle.clear()
    for conn in connections:
        conn.close()


def _redirect(response: Response, method: str, url: str) -> str | None:
    """The URL that response redirects a method request for url to, or None
    when urllib's rules keep the response as the answer."""
    location = response.headers.get("Location", response.headers.get("URI"))
    followed = (301, 302, 303, 307, 308) if method in ("GET", "HEAD") else (301, 302, 303) if method == "POST" else ()
    if location is None or response.status not in followed:
        return None
    parts = urlparse(location)
    if parts.scheme not in ("http", "https", ""):
        return None
    if not parts.path and parts.netloc:
        parts = parts._replace(path="/")
    # header values are decoded as ISO-8859-1: quote the original bytes
    return urljoin(url, quote(urlunparse(parts), encoding="iso-8859-1", safe=string.punctuation))


def request(
    method: str,
    url: str,
    *,
    params: dict[str, str] | None = None,
    json_body: object = None,
    headers: dict[str, str] | None = None,
    timeout: float,
) -> Response:
    """Send one request and return its status, headers and body.

    ``params`` are appended to the URL's query string; ``json_body`` is sent
    as ``json.dumps(json_body)`` with ``Content-Type: application/json``.
    Raises TransportTimeoutError when no answer arrives within ``timeout``
    seconds and TransportError for any other failure to get a response,
    including a URL whose scheme is not http or https.
    """
    sent = {name.title(): value for name, value in {"User-Agent": USER_AGENT, **(headers or {})}.items()}
    body = None
    if json_body is not None:
        body = json.dumps(json_body).encode("utf-8")
        sent["Content-Type"] = "application/json"
    try:
        parts = urlsplit(url)
        if parts.scheme not in SCHEMES:
            raise TransportError(f"refusing URL {url!r}: scheme must be http or https")
        if params:
            query = "&".join(filter(None, (parts.query, urlencode(params))))
            url = urlunsplit(parts._replace(query=query))
        hop_method, hop_url, visits = method, url, {}
        while True:
            response = _exchange(_route(urlsplit(hop_url)), hop_method, body, sent, timeout)
            target = _redirect(response, hop_method, hop_url)
            if target is None or visits.get(target, 0) >= _MAX_VISITS or len(visits) >= _MAX_REDIRECTS:
                return response
            visits[target] = visits.get(target, 0) + 1
            if _origin(target) != _origin(hop_url):
                for name in CREDENTIAL_HEADERS:
                    sent.pop(name, None)
            sent.pop("Content-Type", None)
            hop_method, hop_url, body = "GET", target, None
    except (OSError, ValueError) as exc:
        if isinstance(exc, TimeoutError):
            raise TransportTimeoutError(f"{method} {url}: no response within {timeout}s") from exc
        raise TransportError(f"{method} {url}: {exc}") from exc


def get_json(url: str, *, params: dict[str, str], headers: dict[str, str] | None = None, timeout: float) -> object:
    """url's body decoded as JSON, from a GET; like ``request``, but TransportError("HTTP <status>")
    for a status of 400 or more and TransportError("non-JSON response: ...") for a body that is not JSON."""
    response = request("GET", url, params=params, headers=headers, timeout=timeout)
    if response.status >= 400:
        raise TransportError(f"HTTP {response.status}")
    try:
        return json.loads(response.body)
    except ValueError as exc:
        raise TransportError(f"non-JSON response: {exc}") from exc
