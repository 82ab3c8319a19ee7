"""The stdlib HTTP transport: statuses, failures, refused schemes, bytes sent."""

from __future__ import annotations

import http.client
import json
import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

import textkg
from textkg import __version__, transport


def test_json_response(server):
    server.script = [(200, json.dumps({"ok": True}))]
    response = transport.request("GET", server.url, timeout=5)
    assert response.status == 200
    assert json.loads(response.body) == {"ok": True}
    assert response.headers["Content-Type"] == "application/json"


@pytest.mark.parametrize("status", [404, 429, 500, 503])
def test_error_statuses_returned_not_raised(server, status):
    server.script = [(status, "busy", {"Retry-After": "3"})]
    response = transport.request("POST", server.url, json_body={}, timeout=5)
    assert response.status == status
    assert response.body == b"busy"
    assert response.text == "busy"
    assert response.headers["Retry-After"] == "3"


def test_every_response_closed(server, monkeypatch):
    # hold every response open so only an explicit close() can close it
    opened, closed = [], []
    original_begin = http.client.HTTPResponse.begin
    original_close = http.client.HTTPResponse.close

    def begin(self):
        opened.append(self)
        original_begin(self)

    def close(self):
        closed.append(self)
        original_close(self)

    monkeypatch.setattr(http.client.HTTPResponse, "begin", begin)
    monkeypatch.setattr(http.client.HTTPResponse, "close", close)
    server.script = [(200, "{}"), (500, "boom")]
    transport.request("GET", server.url, timeout=5)
    transport.request("GET", server.url, timeout=5)
    assert len(opened) == 2
    assert all(any(response is seen for seen in closed) for response in opened)


def test_read_timeout(server):
    server.script = [(200, "{}", {}, 1.0)]
    with pytest.raises(transport.TransportTimeoutError):
        transport.request("GET", server.url, timeout=0.2)


def test_refused_port():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    with pytest.raises(transport.TransportError) as info:
        transport.request("GET", f"http://127.0.0.1:{port}/", timeout=5)
    assert not isinstance(info.value, transport.TransportTimeoutError)


@pytest.mark.parametrize("scheme", ["file", "FILE", "ftp", "data"])
def test_non_http_scheme_rejected_before_opening(tmp_path, monkeypatch, scheme):
    secret = tmp_path / "secret.json"
    secret.write_text('{"secret": true}', encoding="utf-8")

    def never(*args, **kwargs):
        raise AssertionError("an opener was used")

    monkeypatch.setattr(transport, "_opener", never)
    with pytest.raises(transport.TransportError, match="scheme must be http or https"):
        transport.request("GET", f"{scheme}://{secret}", timeout=5)


def test_request_bytes_and_headers(server):
    payload = {"model": "m", "messages": [{"content": "café ✓"}], "temperature": 0.5}
    transport.request(
        "POST", server.url, json_body=payload, headers={"Authorization": "Bearer k"}, timeout=5
    )
    sent = server.requests[0]
    assert sent["method"] == "POST"
    assert sent["body"] == json.dumps(payload).encode("utf-8")
    assert sent["headers"]["Content-Type"] == "application/json"
    assert sent["headers"]["User-Agent"] == f"textkg/{__version__}"
    assert sent["headers"]["Authorization"] == "Bearer k"


@pytest.mark.parametrize("method", ["GET", "POST"])
def test_redirect_to_other_origin_drops_credentials(server, other_server, method):
    server.script = [(302, "", {"Location": f"{other_server.url}/next"})]
    other_server.script = [(200, '{"ok": true}')]
    credentials = {"Authorization": "Bearer k", "X-Api-Key": "n"}
    response = transport.request(
        method, server.url, json_body={} if method == "POST" else None, headers=credentials, timeout=5
    )
    assert response.status == 200
    assert server.requests[0]["headers"]["Authorization"] == "Bearer k"
    assert server.requests[0]["headers"]["X-Api-Key"] == "n"
    followed = other_server.requests[0]
    assert followed["path"] == "/v1/next"
    assert "Authorization" not in followed["headers"]
    assert "X-Api-Key" not in followed["headers"]
    assert followed["headers"]["User-Agent"] == f"textkg/{__version__}"


def test_redirect_within_origin_keeps_credentials(server):
    server.script = [(302, "", {"Location": "/v1/next"}), (200, "{}")]
    response = transport.request("GET", server.url, headers={"Authorization": "Bearer k"}, timeout=5)
    assert response.status == 200
    assert [sent["path"] for sent in server.requests] == ["/v1", "/v1/next"]
    assert server.requests[1]["headers"]["Authorization"] == "Bearer k"


def test_params_join_existing_query(server):
    transport.request("GET", f"{server.url}?a=1", params={"query": "green bonds", "n": "5"}, timeout=5)
    sent = server.requests[0]
    assert sent["params"] == {"a": ["1"], "query": ["green bonds"], "n": ["5"]}
    assert sent["body"] == b""
    assert "Content-Type" not in sent["headers"]


def test_import_loads_no_third_party_http_client():
    code = "import sys, textkg; print(sorted({'requests', 'urllib3'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(textkg.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    assert result.stdout.strip() == "[]"
