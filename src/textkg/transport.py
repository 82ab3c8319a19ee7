"""The one place textkg opens network connections: a small stdlib HTTP client.

Every HTTP status comes back from ``request`` as a ``Response``; only failures
to get one raise. Redirects are followed, but ``Authorization`` and ``X-Api-Key`` are
not sent on to another origin (scheme, host and port). Connections are kept
alive in a process-wide pool, one per concurrent request to an origin; a request
on a pooled connection that the server has since closed is retried once on a
new one, and on Linux ``TCP_QUICKACK`` is set while a reply is awaited. TLS
verifies against the system trust store (``SSL_CERT_FILE`` and
``SSL_CERT_DIR`` are honoured), and ``*_PROXY`` / ``NO_PROXY`` apply as set
when the process makes its first request.
"""

from __future__ import annotations

import atexit
import functools
import http.client
import io
import json
import socket
import threading
import urllib.error
import urllib.request
import urllib.response
from dataclasses import dataclass
from email.message import Message
from urllib.parse import urlencode, urlsplit, urlunsplit

from . import __version__
from .errors import TextkgError

USER_AGENT = f"textkg/{__version__}"
SCHEMES = ("http", "https")
CREDENTIAL_HEADERS = ("authorization", "x-api-key")


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


class _RedirectHandler(urllib.request.HTTPRedirectHandler):
    """Follows redirects, dropping credentials when the origin changes.

    The stock handler copies every header to the new request, so a redirect
    to another host, port or scheme would hand it the API key.
    """

    def redirect_request(self, req, fp, code, msg, headers, newurl):
        new = super().redirect_request(req, fp, code, msg, headers, newurl)
        if new is not None and _origin(new.full_url) != _origin(req.full_url):
            for name in [name for name in new.headers if name.lower() in CREDENTIAL_HEADERS]:
                new.remove_header(name)
        return new


def _origin(url: str) -> tuple[str, str | None, int | None]:
    parts = urlsplit(url)
    return parts.scheme.lower(), parts.hostname, parts.port


_idle: dict[tuple, list[http.client.HTTPConnection]] = {}
_idle_lock = threading.Lock()
# how a pooled connection that the server closed while idle fails before any reply
_STALE = (http.client.RemoteDisconnected, ConnectionResetError, BrokenPipeError, ConnectionAbortedError)


class _KeepAliveHandler(urllib.request.AbstractHTTPHandler):
    """urllib's HTTP(S) handlers without ``Connection: close``.

    The body is read whole and the connection pooled unless the server closes
    it. The pool key (class, host, tunnel) keeps proxied and direct traffic apart.
    """

    http_request = https_request = urllib.request.AbstractHTTPHandler.do_request_

    def http_open(self, req):
        return self._open(http.client.HTTPConnection, req)

    def https_open(self, req):
        return self._open(http.client.HTTPSConnection, req)

    def _open(self, http_class, req):
        headers = dict(req.unredirected_hdrs)
        headers.update({k: v for k, v in req.headers.items() if k not in headers})
        headers = {name.title(): value for name, value in headers.items()}
        tunnel_headers = {}  # the proxy's credentials go to the proxy only
        if req._tunnel_host and "Proxy-Authorization" in headers:
            tunnel_headers["Proxy-Authorization"] = headers.pop("Proxy-Authorization")
        key = (http_class, req.host, req._tunnel_host)
        with _idle_lock:
            conn = _idle[key].pop() if _idle.get(key) else None
        while True:
            reused = conn is not None
            if reused:
                conn.sock.settimeout(req.timeout)
            else:
                conn = http_class(req.host, timeout=req.timeout)
                if req._tunnel_host:
                    conn.set_tunnel(req._tunnel_host, headers=tunnel_headers)
            response = None
            try:
                conn.request(req.get_method(), req.selector, req.data, headers,
                             encode_chunked=req.has_header("Transfer-encoding"))
                # http.server sends headers and body in two writes without
                # TCP_NODELAY, so on a kept-alive connection its Nagle waits for
                # our delayed ACK (40 ms). The flag does not persist: set it now.
                if hasattr(socket, "TCP_QUICKACK"):
                    conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
                response = conn.getresponse()
                with response:
                    body = response.read()
                break
            except BaseException as exc:
                conn.close()
                if not (reused and response is None and isinstance(exc, _STALE)):
                    raise
                conn = None  # the server closed it while idle: retry once, on a new connection
        if not response.will_close:
            with _idle_lock:
                _idle.setdefault(key, []).append(conn)
        reply = urllib.response.addinfourl(io.BytesIO(body), response.headers, req.get_full_url(), response.status)
        reply.msg = response.reason
        return reply


@atexit.register
def close_idle() -> None:
    """Close every pooled idle connection."""
    with _idle_lock:
        connections = [conn for pooled in _idle.values() for conn in pooled]
        _idle.clear()
    for conn in connections:
        conn.close()


@functools.cache
def _opener() -> urllib.request.OpenerDirector:
    # built once: reading the proxy environment and registering handlers
    # cost about 0.5 ms, as much as a loopback request. No file:, ftp: or
    # data: handlers, so a redirect cannot leave HTTP(S).
    opener = urllib.request.OpenerDirector()
    for handler in (
        urllib.request.ProxyHandler(),
        _KeepAliveHandler(),
        _RedirectHandler(),
        urllib.request.HTTPDefaultErrorHandler(),
        urllib.request.HTTPErrorProcessor(),
    ):
        opener.add_handler(handler)
    return opener


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
    parts = urlsplit(url)
    if parts.scheme.lower() not in SCHEMES:
        raise TransportError(f"refusing URL {url!r}: scheme must be http or https")
    if params:
        query = "&".join(filter(None, (parts.query, urlencode(params))))
        url = urlunsplit(parts._replace(query=query))
    all_headers = {"User-Agent": USER_AGENT, **(headers or {})}
    data = None
    if json_body is not None:
        data = json.dumps(json_body).encode("utf-8")
        all_headers["Content-Type"] = "application/json"

    try:
        outgoing = urllib.request.Request(url, data=data, headers=all_headers, method=method)
        try:
            response = _opener().open(outgoing, timeout=timeout)
        except urllib.error.HTTPError as error:
            response = error  # a 4xx/5xx reply, body included
        try:
            return Response(response.status, response.headers, response.read())
        finally:
            response.close()
    except (OSError, http.client.HTTPException, ValueError) as exc:
        if isinstance(exc, TimeoutError):  # _KeepAliveHandler raises it unwrapped
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
