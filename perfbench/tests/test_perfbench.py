"""Tests of the benchmark's own machinery:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import hashlib
import json
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import workloads
from loopback import make_server
from run import CALIBRATION_REFERENCE_S, artifact_digests, host_speed, normalized_times
from spans import END, NAME, PARENT, SIZE, START, self_times
from summary import latency, percentile, tail_percentile
from textkg.extraction import request_fingerprint


def _tree_digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            digest.update(path.relative_to(directory).as_posix().encode() + path.read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("workload", ["ontology-repair", "triples-live"])
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    first = workloads.generate(workload, 7, tmp_path / "a")
    second = workloads.generate(workload, 7, tmp_path / "b")
    other = workloads.generate(workload, 8, tmp_path / "c")
    assert first == second
    assert _tree_digest(tmp_path / "a") == _tree_digest(tmp_path / "b")
    assert _tree_digest(tmp_path / "a") != _tree_digest(tmp_path / "c")
    assert first["articles"] == workloads.WORKLOADS[workload][1]


def test_ontology_generator_seeds_repairs_and_failures(tmp_path):
    expected = workloads.generate("ontology-repair", 3, tmp_path)["stages"]["ontology"]
    assert 0.2 < expected["repair_attempts"] / expected["documents"] < 0.5
    assert expected["documents"] - expected["valid_documents"] == len(expected["invalid_article_ids"]) > 0


@pytest.mark.parametrize(
    ("count", "expected"),
    [(0, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected


def test_percentile_is_nearest_rank_and_latency_falls_back_to_max():
    values = [float(v) for v in range(100, 0, -1)]
    assert percentile(values, 50.0) == 50.0
    assert percentile(values, 90.0) == 90.0
    assert latency(values) == (50.0, 90.0)
    assert latency([3.0, 1.0, 2.0]) == (2.0, 3.0)
    assert latency([]) == (0.0, 0.0)


def _span(name, start, end, parent):
    row = [None] * 6
    row[NAME], row[START], row[END], row[PARENT], row[SIZE] = name, start, end, parent, 0
    return row


def test_self_time_is_duration_minus_children_without_concurrency():
    rows = [
        _span("pipeline", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("b", 2.0, 3.0, 1),
        _span("c", 5.0, 9.0, 0),
        _span("d", 9.0, 9.0, 0),
    ]
    assert self_times(rows) == pytest.approx([3.0, 2.0, 1.0, 4.0, 0.0])
    assert sum(self_times(rows)) == pytest.approx(10.0)


def test_self_time_shares_concurrent_time_and_adds_up_to_wall():
    # two pool threads under the root, overlapping on [2, 5]
    rows = [
        _span("pipeline", 0.0, 10.0, -1),
        _span("x", 1.0, 5.0, 0),
        _span("y", 2.0, 6.0, 0),
        _span("y.child", 3.0, 4.0, 2),
    ]
    own = self_times(rows)
    assert own == pytest.approx([5.0, 1.0 + 3 * 0.5, 0.5 + 0.5 + 1.0, 0.5])
    assert sum(own) == pytest.approx(10.0)


@pytest.fixture()
def server():
    prompt = "extract this"
    fixtures = {request_fingerprint(prompt, "m", 0.0): "A | b | C\n"}
    lookup = {"acme": {"results": [{"uri": "http://x/Acme", "label": "Acme"}]}}
    httpd = make_server(fixtures, lookup, chat_delay=0.0, lookup_delay=0.0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{httpd.server_address[1]}", prompt
    httpd.shutdown()
    httpd.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def _get(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=5) as response:
        return json.loads(response.read())


def _chat(base: str, prompt: str) -> dict:
    body = json.dumps({"model": "m", "temperature": 0.0, "messages": [{"role": "user", "content": prompt}]})
    request = urllib.request.Request(f"{base}/v1/chat/completions", data=body.encode(), method="POST")
    with urllib.request.urlopen(request, timeout=5) as response:
        return json.loads(response.read())


def test_loopback_answers_from_fixtures_and_counts(server):
    base, prompt = server
    assert _chat(base, prompt)["choices"][0]["message"]["content"] == "A | b | C\n"
    with pytest.raises(urllib.error.HTTPError) as missing:
        _chat(base, "no fixture for this")
    assert missing.value.code == 404
    missing.value.close()
    assert _get(f"{base}/lookup?query=%20ACME&maxResults=5")["results"][0]["uri"] == "http://x/Acme"
    assert _get(f"{base}/lookup?query=nobody")["results"] == []

    counters = _get(f"{base}/__stats")
    assert _get(f"{base}/__stats")["connections"] == counters["connections"] == 4
    assert counters["chat_requests"] == 2
    assert counters["lookup_requests"] == 2
    assert counters["non_200"] == 1
    assert counters["chat_service_s"] > 0 and counters["lookup_service_s"] > 0


def test_artifact_digests_ignore_loopback_port_and_config_hash(tmp_path):
    digests = []
    for port, config_hash in ((1111, "aa"), (2222, "bb")):
        run_dir = tmp_path / str(port)
        (run_dir / "ontologies").mkdir(parents=True)
        (run_dir / "kb.json").write_text(f'{{"link_config": "source=http://127.0.0.1:{port}/lookup"}}')
        (run_dir / "manifest.json").write_text(json.dumps({"config_hash": config_hash, "mode": "triples"}))
        (run_dir / "ontologies" / "a.ttl").write_text("x")
        digests.append(artifact_digests(run_dir, f"http://127.0.0.1:{port}"))
    assert digests[0] == digests[1]
    assert sorted(digests[0][0]) == ["kb.json", "manifest.json", "ontologies/a.ttl"]


def test_normalization_scales_cpu_time_and_leaves_waiting_alone():
    slow = host_speed([CALIBRATION_REFERENCE_S * 1.5, CALIBRATION_REFERENCE_S * 2.5])
    assert slow == pytest.approx(0.5)
    # a CPU-bound run on a host at half speed takes half the time on the reference host
    assert normalized_times(4.0, 4.0, slow) == pytest.approx((2.0, 2.0))
    # only the CPU share of a run that mostly waits is scaled
    assert normalized_times(10.0, 2.0, slow) == pytest.approx((9.0, 1.0))
    assert normalized_times(3.0, 5.0, 2.0) == pytest.approx((6.0, 10.0))
