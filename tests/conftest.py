from __future__ import annotations

import datetime as dt
import json
import shutil
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

import pytest

from textkg.corpus import Article
from textkg.extraction import BackendConfig, Provenance, Triplet, _fixture_file

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail a test that leaves a non-daemon thread it started still running."""
    before = set(threading.enumerate())
    yield
    left = [thread for thread in threading.enumerate() if thread not in before and not thread.daemon]
    assert not left, f"threads still running after the test: {left}"


@pytest.fixture(autouse=True)
def no_pooled_connection_left():
    """Close transport's idle connections after each test, so no test reuses
    a connection to a server that an earlier test started."""
    yield
    transport = sys.modules.get("textkg.transport")  # imported by the first request only
    if transport is not None:
        transport.close_idle()


@pytest.fixture()
def data_copy(tmp_path: Path) -> Path:
    """Copy of tests/data in a scratch directory, so pipeline runs that write
    run_dir/cache files relative to the config never touch the repo."""
    target = tmp_path / "data"
    shutil.copytree(DATA_DIR, target)
    return target


@pytest.fixture()
def article() -> Article:
    return Article(
        id="a1",
        title="Soluna soaks up surplus renewable power",
        body="Soluna soaks up excess energy in Kentucky to keep turbines spinning.",
        source_domain="greenreport.example",
        published_at=dt.date(2023, 2, 20),
        language="en",
    )


def fixture_path(config: BackendConfig, input_text: str) -> Path:
    """The replay fixture file that answers input_text under config."""
    return Path(_fixture_file(config, input_text))


def make_triplet(subject: str, predicate: str, obj: str, article_id: str = "a1") -> Triplet:
    return Triplet(subject, predicate, obj, Provenance(article_id, 0, "test-backend"))


def serialize_seq2seq_output(triplets: list[Triplet]) -> str:
    """Render triplets back into marker-grammar text.

    Round-trips through parse_seq2seq_output for fields that are non-empty,
    whitespace-normalized, and free of marker substrings.
    """
    return " ".join(f"<triplet> {t.subject} <subj> {t.predicate} <obj> {t.object}" for t in triplets)


class RecordingHandler(BaseHTTPRequestHandler):
    """Records every request and answers from server.script.

    Script entries are (status, body[, headers[, delay_seconds]]); an empty
    script answers 200 "{}". A Content-Length header in the script overrides
    the body's length, and a reply shorter than it ends the connection.
    server.connections counts accepted connections. This handler speaks
    HTTP/1.0, so the server closes every connection after one reply.
    """

    def setup(self):
        with self.server.lock:
            self.server.connections += 1
        self.timeout = self.server.idle_timeout
        super().setup()

    def _handle(self):
        length = int(self.headers.get("Content-Length", 0))
        body = self.rfile.read(length)
        try:
            parsed = json.loads(body) if body else None
        except ValueError:
            parsed = None
        url = urlsplit(self.path)
        self.server.requests.append(
            {
                "method": self.command,
                "target": self.path,
                "path": url.path,
                "params": parse_qs(url.query),
                "headers": dict(self.headers),
                "body": body,
                "json": parsed,
            }
        )
        status, payload, *extra = self.server.script.pop(0) if self.server.script else (200, "{}")
        if len(extra) > 1:
            time.sleep(extra[1])
        data = payload.encode("utf-8")
        headers = {"Content-Type": "application/json", "Content-Length": str(len(data)), **(extra[0] if extra else {})}
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        if int(headers["Content-Length"]) > len(data):
            self.close_connection = True
        try:
            self.wfile.write(data)
        except (BrokenPipeError, ConnectionResetError):
            pass  # the client stopped waiting (timeout tests)

    do_GET = do_POST = do_HEAD = _handle  # a HEAD reply carries the body too, as a broken one would

    def log_message(self, *args):
        pass


class KeepAliveRecordingHandler(RecordingHandler):
    """RecordingHandler over HTTP/1.1: a connection stays open for the next
    request until the client closes it, a reply says ``Connection: close``, or
    it has been idle for server.idle_timeout seconds."""

    protocol_version = "HTTP/1.1"

    def do_CONNECT(self):
        """Open a tunnel to self.path as a proxy would, then answer the
        requests that arrive through it as the origin."""
        self.server.requests.append({"method": "CONNECT", "path": self.path, "headers": dict(self.headers)})
        self.send_response(200)
        self.end_headers()
        self.close_connection = False  # http.client sends CONNECT as HTTP/1.0


@pytest.fixture()
def server():
    """Loopback HTTP server with a scripted RecordingHandler; url ends in /v1."""
    yield from _serve(RecordingHandler)


@pytest.fixture()
def other_server():
    """A second, independent ``server``, for requests that cross origins."""
    yield from _serve(RecordingHandler)


@pytest.fixture()
def keepalive_server():
    """``server`` with connections kept alive (KeepAliveRecordingHandler)."""
    yield from _serve(KeepAliveRecordingHandler)


@pytest.fixture()
def other_keepalive_server():
    """A second, independent ``keepalive_server``."""
    yield from _serve(KeepAliveRecordingHandler)


def _serve(handler):
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    httpd.requests = []
    httpd.script = []
    httpd.connections = 0
    httpd.idle_timeout = None
    httpd.lock = threading.Lock()
    thread = threading.Thread(target=httpd.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    httpd.url = f"http://127.0.0.1:{httpd.server_port}/v1"
    yield httpd
    httpd.shutdown()
    httpd.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


NEWS_PAYLOAD = json.dumps(
    {
        "articles": [
            {
                "url": "https://greenreport.example/soluna",
                "title": "Soluna soaks up excess energy",
                "content": "Soluna announced a plan in Kentucky.",
                "publishedAt": "2023-02-20T08:00:00Z",
                "source": {"name": "greenreport"},
            },
            {
                "url": "https://greenreport.example/soluna",
                "title": "duplicate url, dropped",
                "content": "x",
                "publishedAt": "2023-02-21T08:00:00Z",
            },
            {
                "url": "https://cafejournal.example/starbucks",
                "title": "No usable date",
                "content": "x",
                "publishedAt": "soonish",
            },
            {
                "title": "No url either",
                "description": "Body taken from the description field.",
                "publishedAt": "2023-02-22",
                "source": {"name": "wire"},
            },
        ]
    }
)
