"""The one place textkg opens network connections: a small stdlib HTTP client.

Every HTTP status comes back from ``request`` as a ``Response``; only failures
to get one raise. As in Python 3.11's urllib, a 301, 302, 303, 307 or 308 reply
to a GET or HEAD and a 301, 302 or 303 reply to a POST are followed with a bare
GET, and a redirect out of http and https, a fifth visit to one URL or an
eleventh URL comes back as its own status; ``Authorization`` and ``X-Api-Key``
are not sent on to another origin (scheme, host and port). Connections are kept
alive in a process-wide pool, one per concurrent request to an origin, and a
request on a pooled connection that the server has since closed is retried once
on a new one. TLS verifies against the system trust store (``SSL_CERT_FILE`` and
``SSL_CERT_DIR`` are honoured). ``*_PROXY`` is read at the first request and
``NO_PROXY`` checked against each origin; an https request tunnels with CONNECT,
and only the CONNECT carries the proxy's ``user:pass@`` credentials.
"""

from __future__ import annotations

import atexit
import base64
import functools
import http.client
import json
import socket
import string
import threading
import urllib.request
from dataclasses import dataclass
from email.message import Message
from urllib.parse import SplitResult, quote, unquote, urlencode, urljoin, urlparse, urlsplit, urlunparse, urlunsplit

from . import __version__
from .errors import TextkgError

USER_AGENT = f"textkg/{__version__}"
SCHEMES = ("http", "https")
CREDENTIAL_HEADERS = ("Authorization", "X-Api-Key")
_MAX_VISITS, _MAX_REDIRECTS = 4, 10  # urllib's limits: redirects to one URL, distinct URLs


class TransportError(TextkgError):
    """No response: refused connection, DNS failure, protocol error, bad URL."""


class TransportTimeoutError(TransportError):
    """The server did not answer within the timeout."""


@dataclass(frozen=True)
class Response:
    status: int
    headers: Message
    body: bytes

    @property
    def text(self) -> str:
        return self.body.decode("utf-8", errors="replace")


def _origin(url: str) -> tuple[str, str | None, int | None]:
    parts = urlsplit(url)
    return parts.scheme, parts.hostname, parts.port


# read once: scanning the environment costs about as much as a loopback request
_proxies = functools.cache(urllib.request.getproxies)


def _route(parts: SplitResult) -> tuple[type, str, str | None, str, dict[str, str]]:
    """How to send a request for the URL split into parts: the connection
    class, the host to connect to, the host to tunnel to (or None), the
    request target, and the headers meant for the proxy."""
    if not parts.netloc:
        raise ValueError("no host given")
    scheme, host, tunnel, proxy_headers = parts.scheme, parts.netloc, None, {}
    target = urlunsplit(("", "", parts.path or "/", parts.query, ""))
    proxy = _proxies().get(scheme)
    if proxy is not None and not urllib.request.proxy_bypass(parts.netloc):
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
    http_class = http.client.HTTPSConnection if scheme == "https" else http.client.HTTPConnection
    return http_class, host, tunnel, target, proxy_headers


_idle: dict[tuple, list[http.client.HTTPConnection]] = {}
_idle_lock = threading.Lock()
# how a pooled connection that the server closed while idle fails before any reply
_STALE = (http.client.RemoteDisconnected, ConnectionResetError, BrokenPipeError, ConnectionAbortedError)


def _exchange(route: tuple, method: str, body: bytes | None, headers: dict[str, str], timeout: float) -> Response:
    """One request and its whole reply, on a connection pooled unless the server closes
    it. The pool key (class, host, tunnel) keeps proxied and direct traffic apart."""
    http_class, host, tunnel, target, proxy_headers = route
    if proxy_headers and tunnel is None:
        headers = {**headers, **proxy_headers}
    key = (http_class, host, tunnel)
    with _idle_lock:
        conn = _idle[key].pop() if _idle.get(key) else None
    while True:
        reused = conn is not None
        if reused:
            conn.sock.settimeout(timeout)
        else:
            conn = http_class(host, timeout=timeout)
            if tunnel:
                conn.set_tunnel(tunnel, headers=proxy_headers)  # the proxy's credentials go to the proxy only
        response = None
        try:
            conn.request(method, target, body, headers)
            # http.server sends headers and body in two writes without
            # TCP_NODELAY, so on a kept-alive connection its Nagle waits for
            # our delayed ACK (40 ms). The flag does not persist: set it now.
            if hasattr(socket, "TCP_QUICKACK"):
                conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
            response = conn.getresponse()
            with response:
                reply = response.read()
            break
        except BaseException as exc:
            conn.close()
            if not (reused and response is None and isinstance(exc, _STALE)):
                raise
            conn = None  # the server closed it while idle: retry once, on a new connection
    # after a reply with no body by protocol, bytes a server sent anyway would be read as the next status line
    if response.will_close or method == "HEAD" or response.status < 200 or response.status in (204, 304):
        conn.close()
    else:
        with _idle_lock:
            _idle.setdefault(key, []).append(conn)
    return Response(response.status, response.headers, reply)


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
    # http.client decodes header values as ISO-8859-1: quote the original bytes
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
    except (OSError, http.client.HTTPException, ValueError) as exc:
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
