"""The one place textkg opens network connections: a small stdlib HTTP client.

Every HTTP status comes back from ``request`` as a ``Response``; only failures
to get one raise. Redirects are followed, but ``Authorization`` and ``X-Api-Key`` are
not sent on to another origin (scheme, host and port). Each request opens its own connection and closes it with the
response. TLS verifies against the system trust store (``SSL_CERT_FILE``
and ``SSL_CERT_DIR`` are honoured), and ``*_PROXY`` / ``NO_PROXY`` apply as
set when the process makes its first request.
"""

from __future__ import annotations

import functools
import http.client
import json
import urllib.error
import urllib.request
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


@functools.cache
def _opener() -> urllib.request.OpenerDirector:
    # built once: reading the proxy environment and registering handlers
    # cost about 0.5 ms, as much as a loopback request. No file:, ftp: or
    # data: handlers, so a redirect cannot leave HTTP(S).
    opener = urllib.request.OpenerDirector()
    for handler in (
        urllib.request.ProxyHandler(),
        urllib.request.HTTPHandler(),
        urllib.request.HTTPSHandler(),
        _RedirectHandler(),
        urllib.request.HTTPDefaultErrorHandler(),
        urllib.request.HTTPErrorProcessor(),
    ):
        opener.add_handler(handler)
    return opener


def _is_timeout(exc: BaseException) -> bool:
    reason = exc.reason if isinstance(exc, urllib.error.URLError) else exc
    return isinstance(reason, TimeoutError)


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
        if _is_timeout(exc):
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
