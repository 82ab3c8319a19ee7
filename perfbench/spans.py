"""Tracing textkg from outside: spans around its public functions.

``Tracer.install`` replaces module attributes with wrappers that record a
span (name, start, end, parent, article id, input bytes) per call. Spans stay
in memory and are written out once, when the run ends. The parent stack is
thread-local because ``extract_article`` runs in a thread pool; a span that
starts on a thread with an empty stack is a child of the innermost span open
on the thread that installed the tracer.

``self_times`` splits the root span's wall time among spans: at every instant
the time goes to the spans that are open and have no open child, shared
equally when several threads are busy at once. Without concurrency this is
each span's duration minus its children's; with it, self times still add up
to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from pathlib import Path

from summary import latency

# (module, attribute, span name). Stage calls are wrapped where the pipeline
# looks them up; helpers are wrapped in the module whose code calls them.
WRAPPED = (
    ("textkg.pipeline", "run_pipeline", "pipeline"),
    ("textkg.pipeline", "load_corpus", "corpus.load"),
    ("textkg.pipeline", "chunk", "chunking.chunk"),
    ("textkg.extraction", "chunk", "chunking.chunk"),
    ("textkg.pipeline", "extract_article", "extraction.extract_article"),
    ("textkg.pipeline", "generate", "extraction.generate"),
    ("textkg.extraction", "generate", "extraction.generate"),
    ("textkg.extraction", "parse_chat_triples", "extraction.parse"),
    ("textkg.extraction", "parse_seq2seq_output", "extraction.parse"),
    ("textkg.pipeline", "canonicalize", "linking.canonicalize"),
    ("textkg.linking", "FileLookupClient.lookup", "linking.lookup"),
    ("textkg.linking", "LookupClient.lookup", "linking.lookup"),
    ("textkg.pipeline", "add_triples", "kgstore.add_triples"),
    ("textkg.pipeline", "merge", "kgstore.merge"),
    ("textkg.pipeline", "save_kb", "kgstore.save_kb"),
    ("textkg.pipeline", "repair_until_valid", "rdf.repair"),
    ("textkg.rdf", "parse_turtle", "rdf.parse"),
    ("textkg.rdf", "validate_owl", "rdf.validate"),
    ("textkg.pipeline", "serialize_turtle", "rdf.serialize"),
    ("textkg.pipeline", "ontology_to_kb", "rdf.to_kb"),
    ("textkg.pipeline", "evaluate", "quality.evaluate"),
    ("textkg.pipeline", "export_graph", "export.render"),
)

# span name -> per-layer metric holding its self time
SELF_METRICS = {
    "pipeline": "pipeline.self_s",
    "corpus.load": "corpus.load_s",
    "chunking.chunk": "chunking.chunk_s",
    "extraction.extract_article": "extraction.self_s",
    "extraction.generate": "extraction.generate_s",
    "extraction.parse": "extraction.parse_s",
    "linking.canonicalize": "linking.canonicalize_s",
    "linking.lookup": "linking.lookup_s",
    "kgstore.add_triples": "kgstore.add_triples_s",
    "kgstore.merge": "kgstore.merge_s",
    "kgstore.save_kb": "kgstore.save_kb_s",
    "rdf.repair": "rdf.repair_s",
    "rdf.parse": "rdf.parse_s",
    "rdf.validate": "rdf.validate_s",
    "rdf.serialize": "rdf.serialize_s",
    "rdf.to_kb": "rdf.to_kb_s",
    "quality.evaluate": "quality.evaluate_s",
    "export.render": "export.render_s",
}

# span fields
NAME, START, END, PARENT, ARTICLE, SIZE = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._root_stack: list[list] = []

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self) -> None:
        self._root_stack = self._stack()
        for module_name, attribute, name in WRAPPED:
            owner = importlib.import_module(module_name)
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf, None)
            if original is None:
                print(f"perfbench: {module_name}.{attribute} not found, not traced", file=sys.stderr)
                continue
            setattr(owner, leaf, self._wrap(original, name))

    def _wrap(self, function, name: str):
        sized = name == "rdf.parse"
        per_article = name == "extraction.extract_article"

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._root_stack[-1] if self._root_stack else None)
            article = args[0].id if per_article else (parent[ARTICLE] if parent else None)
            size = len(args[0].encode("utf-8")) if sized else 0
            span = [name, 0.0, 0.0, parent, article, size]
            self.spans.append(span)
            stack.append(span)
            span[START] = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()

        return traced

    def dump(self, path: Path) -> None:
        index = {id(span): position for position, span in enumerate(self.spans)}
        rows = [
            [s[NAME], s[START], s[END], -1 if s[PARENT] is None else index[id(s[PARENT])], s[ARTICLE], s[SIZE]]
            for s in self.spans
        ]
        Path(path).write_text(json.dumps(rows), encoding="utf-8")


def self_times(spans: list[list]) -> list[float]:
    """Self time of every span (rows as written by Tracer.dump).

    Sweeps span boundaries in time order. Between two boundaries the elapsed
    time is shared equally by the frontier: open spans with no open child.
    """
    depth = []
    for row in spans:
        parent = row[PARENT]
        depth.append(0 if parent < 0 else depth[parent] + 1)
    events = []
    for position, row in enumerate(spans):
        if row[END] <= row[START]:
            continue  # an empty span owns no time
        # at equal times: ends before starts, children end first, parents start first
        events.append((row[START], 1, depth[position], position))
        events.append((row[END], 0, -depth[position], position))
    events.sort()

    result = [0.0] * len(spans)
    open_children = [0] * len(spans)
    opened: set[int] = set()
    frontier: set[int] = set()
    previous = None
    for moment, is_start, _, position in events:
        if frontier and moment > previous:
            share = (moment - previous) / len(frontier)
            for member in frontier:
                result[member] += share
        previous = moment
        parent = spans[position][PARENT]
        parent_open = parent >= 0 and parent in opened
        if is_start:
            opened.add(position)
            frontier.add(position)
            if parent_open:
                open_children[parent] += 1
                frontier.discard(parent)
        else:
            opened.discard(position)
            frontier.discard(position)
            if parent_open:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    frontier.add(parent)
    return result


def layer_metrics(rows: list[list], manifest: dict, workers: int, server: dict | None) -> dict:
    """Per-layer metrics of one traced run.

    ``server`` holds the loopback server's counters for the run, or None
    when the workload makes no HTTP requests. Raises ValueError when the
    self times do not add up to the traced wall time.
    """
    if not rows or rows[0][NAME] != "pipeline":
        raise ValueError("the first span must be the run_pipeline call")
    wall = rows[0][END] - rows[0][START]
    own = self_times(rows)
    if abs(sum(own) - wall) > 1e-6 * wall + 1e-9:
        raise ValueError(f"self times add up to {sum(own)!r}, traced wall time is {wall!r}")

    metrics = dict.fromkeys(SELF_METRICS.values(), 0.0)
    named: dict[str, list[list]] = {}
    for row, seconds in zip(rows, own):
        metrics[SELF_METRICS[row[NAME]]] += seconds
        named.setdefault(row[NAME], []).append(row)

    def durations(name: str) -> list[float]:
        return [row[END] - row[START] for row in named.get(name, [])]

    stages = manifest["stages"]
    metrics["chunking.calls_per_article"] = len(named.get("chunking.chunk", [])) / stages["corpus"]["articles"]

    generate = durations("extraction.generate")
    metrics["extraction.generate_calls"] = len(generate)
    p50, tail = latency(generate)
    metrics["extraction.generate_p50_ms"] = p50 * 1e3
    metrics["extraction.generate_tail_ms"] = tail * 1e3

    extract = named.get("extraction.extract_article", [])
    phase = 0.0
    if extract:
        phase = max(row[END] for row in extract) - min(row[START] for row in extract)
        metrics["extraction.worker_busy_ratio"] = sum(durations("extraction.extract_article")) / (workers * phase)
    else:
        metrics["extraction.worker_busy_ratio"] = 0.0
    counts = stages.get("extract")
    segments = counts["triplets_parsed"] + counts["segments_skipped"] if counts else 0
    metrics["extraction.useful_segment_ratio"] = counts["triplets_parsed"] / segments if segments else 0.0

    lookups = durations("linking.lookup")
    metrics["linking.lookup_calls"] = len(lookups)
    p50, tail = latency(lookups)
    metrics["linking.lookup_p50_ms"] = p50 * 1e3
    metrics["linking.lookup_tail_ms"] = tail * 1e3

    metrics["kgstore.merge_calls"] = len(named.get("kgstore.merge", []))

    parse_time = sum(durations("rdf.parse"))
    parsed_bytes = sum(row[SIZE] for row in named.get("rdf.parse", []))
    metrics["rdf.parse_mb_per_s"] = parsed_bytes / parse_time / 1e6 if parse_time else 0.0
    ontology = stages.get("ontology")
    documents = ontology["documents"] if ontology else 0
    metrics["rdf.generations_per_doc"] = (documents + ontology["repair_attempts"]) / documents if documents else 0.0
    metrics["rdf.valid_doc_ratio"] = ontology["valid_documents"] / documents if documents else 0.0

    http = dict.fromkeys(("http.requests_per_connection", "http.backend_concurrency", "http.client_overhead_ms"), 0.0)
    if server and server["connections"]:
        requests = server["chat_requests"] + server["lookup_requests"]
        http["http.requests_per_connection"] = requests / server["connections"]
        if phase:
            http["http.backend_concurrency"] = server["chat_service_s"] / phase
        if generate and server["chat_requests"]:
            service_ms = server["chat_service_s"] / server["chat_requests"] * 1e3
            http["http.client_overhead_ms"] = sum(generate) / len(generate) * 1e3 - service_ms
    metrics.update(http)
    metrics["trace.wall_s"] = wall
    return metrics
