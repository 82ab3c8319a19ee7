"""Loopback backend for the triples-live workload.

A stdlib HTTP server that answers chat completions from replay fixtures,
keyed by ``request_fingerprint`` of the message, and entity lookups from a
lookup table, each after a fixed service delay. It counts accepted
connections, requests by kind, non-200 replies and service time; GET
``/__stats`` returns the counters, and its own requests are not counted.

    python3 perfbench/loopback.py --fixtures DIR --lookup FILE

prints ``port <n>`` once it listens on 127.0.0.1 and serves until it is
terminated.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

from textkg.extraction import request_fingerprint

CHAT_PATH = "/v1/chat/completions"
LOOKUP_PATH = "/lookup"
STATS_PATH = "/__stats"
CHAT_DELAY_S = 0.010
LOOKUP_DELAY_S = 0.001


class Counters:
    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.values = {
            "connections": 0,
            "chat_requests": 0,
            "lookup_requests": 0,
            "non_200": 0,
            "chat_service_s": 0.0,
            "lookup_service_s": 0.0,
        }

    def add(self, **amounts) -> None:
        with self.lock:
            for key, amount in amounts.items():
                self.values[key] += amount

    def snapshot(self) -> dict:
        with self.lock:
            return dict(self.values)


def _normalize(surface: str) -> str:
    return " ".join(surface.split()).casefold()


def make_server(
    fixtures: dict[str, str],
    lookup: dict[str, object],
    chat_delay: float,
    lookup_delay: float,
) -> ThreadingHTTPServer:
    counters = Counters()

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def setup(self) -> None:
            super().setup()
            self.counted = False

        def log_message(self, format, *args) -> None:
            pass

        def _reply(self, status: int, payload: object) -> None:
            body = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            self.wfile.flush()

        def _count_connection(self) -> None:
            if not self.counted:
                self.counted = True
                counters.add(connections=1)

        def do_POST(self) -> None:
            started = time.perf_counter()
            self._count_connection()
            length = int(self.headers.get("Content-Length") or 0)
            raw = self.rfile.read(length)
            if urlsplit(self.path).path != CHAT_PATH:
                self._reply(404, {"error": "unknown path"})
                counters.add(non_200=1)
                return
            status, payload = 400, {"error": "bad request"}
            try:
                request = json.loads(raw)
                prompt = request["messages"][0]["content"]
                key = request_fingerprint(prompt, request["model"], request["temperature"])
            except (ValueError, LookupError, TypeError):
                key = None
            if key is not None:
                text = fixtures.get(key)
                if text is None:
                    status, payload = 404, {"error": f"no fixture for {key}"}
                else:
                    status = 200
                    payload = {"choices": [{"message": {"role": "assistant", "content": text}}]}
            time.sleep(chat_delay)
            self._reply(status, payload)
            counters.add(
                chat_requests=1,
                non_200=int(status != 200),
                chat_service_s=time.perf_counter() - started,
            )

        def do_GET(self) -> None:
            started = time.perf_counter()
            url = urlsplit(self.path)
            if url.path == STATS_PATH:
                self._reply(200, counters.snapshot())
                return
            self._count_connection()
            if url.path != LOOKUP_PATH:
                self._reply(404, {"error": "unknown path"})
                counters.add(non_200=1)
                return
            query = parse_qs(url.query).get("query", [""])[0]
            time.sleep(lookup_delay)
            self._reply(200, lookup.get(_normalize(query), {"results": []}))
            counters.add(lookup_requests=1, lookup_service_s=time.perf_counter() - started)

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    return server


def load_fixtures(directory: Path) -> dict[str, str]:
    return {path.stem: path.read_text(encoding="utf-8") for path in directory.glob("*.txt")}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fixtures", type=Path, required=True)
    parser.add_argument("--lookup", type=Path, required=True)
    args = parser.parse_args(argv)
    server = make_server(
        load_fixtures(args.fixtures),
        json.loads(args.lookup.read_text(encoding="utf-8")),
        CHAT_DELAY_S,
        LOOKUP_DELAY_S,
    )
    signal.signal(signal.SIGTERM, lambda *_: threading.Thread(target=server.shutdown).start())
    print(f"port {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
