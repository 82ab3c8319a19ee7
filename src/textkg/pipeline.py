"""End-to-end pipeline: one JSON config in, a directory of artifacts out.

Every stage writes its output to a file in the run directory, so any stage
can be re-run or inspected on its own, and a failed run keeps its partial
artifacts. Two runs from the same config and fixtures produce byte-identical
artifacts; the manifest records the config hash and per-stage counts and
deliberately contains no timestamps.
"""

from __future__ import annotations

import datetime as dt
import functools
import hashlib
import json
import logging
import os
import re
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import closing, contextmanager
from dataclasses import MISSING, asdict, dataclass, field, fields
from json.encoder import encode_basestring, encode_basestring_ascii
from pathlib import Path
from typing import get_args, get_type_hints

from .chunking import TokenBatch, chunk
from .corpus import Article, ArticleMeta, filter_by_date, load_corpus
from .errors import ConfigError, TextkgError
from .export import FORMATS, ExportOptions, export_graph
from .extraction import (
    BackendConfig,
    ParseReport,
    RateLimiter,
    Triplet,
    build_prompt,
    extract_article,
    generate,
)
from .kgstore import KnowledgeBase, _scalar, add_triples, replacing, row_encoder, save_kb, stats, write_json
from .linking import FileLookupClient, LinkCache, Linker, LookupClient, canonicalize
from .quality import QualityConfig, evaluate, render_report, save_report
from .rdf import OntologyDoc, ontology_to_kb, repair_until_valid, serialize_turtle

logger = logging.getLogger(__name__)

MODES = ("triples", "ontology")


class StageError(TextkgError):
    """A pipeline stage failed; the message names the stage."""

    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage '{stage}' failed: {cause}")


@dataclass(frozen=True)
class LinkingSettings:
    endpoint: str | None = None
    fixture_file: str | None = None
    cache_path: str | None = None
    match: str = "exact"
    on_error: str = "fallback"

    def identity(self) -> str:
        source = self.endpoint or self.fixture_file or "offline"
        return f"match={self.match};source={source}"


@dataclass(frozen=True)
class ExportSettings(ExportOptions):
    formats: tuple[str, ...] = FORMATS


@dataclass
class PipelineConfig:
    mode: str
    corpus: str
    run_dir: str
    backend_id: str
    backends: dict[str, BackendConfig]
    base_dir: Path
    config_hash: str
    batch_size: int = 256
    workers: int = 1
    rate_limit_per_second: float | None = None
    on_batch_error: str = "fail"
    date_from: dt.date | None = None
    date_to: dt.date | None = None
    linking: LinkingSettings = field(default_factory=LinkingSettings)
    quality: QualityConfig = field(default_factory=QualityConfig)
    export: ExportSettings = field(default_factory=ExportSettings)
    max_repair_attempts: int = 3

    def __post_init__(self):
        _require(self.mode in MODES, f"config key 'mode': must be one of {', '.join(MODES)}")
        for key in ("corpus", "run_dir"):
            _require(getattr(self, key), f"config key '{key}': required string")
        _require(
            self.backend_id in self.backends,
            f"config key 'backend_id': {self.backend_id!r} is not in the backends table",
        )
        _require(
            self.mode != "triples" or self.backend.grammar != "ontology",
            f"config key 'backend_id': backend {self.backend_id!r} answers in ontology Turtle,"
            " which triples mode cannot parse",
        )
        _require(self.linking.match in ("exact", "prefix"), "config key 'linking.match': exact or prefix")
        _require(
            self.linking.on_error in ("fallback", "abort"), "config key 'linking.on_error': fallback or abort"
        )
        _require(
            not (self.linking.endpoint and self.linking.fixture_file),
            "config key 'linking': endpoint and fixture_file are exclusive, set at most one",
        )
        _require(
            self.export.formats and set(self.export.formats) <= set(FORMATS),
            f"config key 'export.formats': list drawn from {', '.join(FORMATS)}",
        )
        _require(self.batch_size > 0, "config key 'batch_size': positive integer")
        _require(self.workers >= 1, "config key 'workers': integer >= 1")
        _require(
            self.rate_limit_per_second is None or self.rate_limit_per_second > 0,
            "config key 'rate_limit_per_second': positive number or null",
        )
        for index, backend in enumerate(self.backends.values()):
            _require(
                backend.kind != "seq2seq_tokens" or backend.max_input_tokens >= self.batch_size,
                f"config key 'backends[{index}]': max_input_tokens {backend.max_input_tokens} is below"
                f" batch_size {self.batch_size}, so every full batch would exceed it",
            )
        _require(self.on_batch_error in ("fail", "skip"), "config key 'on_batch_error': fail or skip")
        _require(
            self.mode != "ontology" or self.on_batch_error != "skip",
            "config key 'on_batch_error': skip is not supported in ontology mode",
        )
        _require(self.max_repair_attempts >= 1, "config key 'max_repair_attempts': integer >= 1")
        _require(
            self.date_from is None or self.date_to is None or self.date_from <= self.date_to,
            f"config keys 'date_from'/'date_to': empty date window, {self.date_from} is after {self.date_to}",
        )

    @property
    def backend(self) -> BackendConfig:
        return self.backends[self.backend_id]

    def resolve(self, path: str) -> Path:
        # joining an absolute path yields that path unchanged
        return self.base_dir / path


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


# each field annotation in use: (description, JSON type, conversion)
_JSON_TYPES = {
    str: ("a string", str, str),
    int: ("an integer", int, int),
    float: ("a number", (int, float), lambda number: number),
    dt.date: ("an ISO date string", str, dt.date.fromisoformat),
    tuple[str, ...]: ("a list of strings", list, tuple),
}


def _typed(value: object, hint: object, key: str) -> object:
    """value checked against a field annotation from _JSON_TYPES, or one of
    them ``| None``: a list becomes a tuple, an ISO string a date, and a JSON
    true or false is not a number."""
    optional = type(None) in get_args(hint)
    if optional and value is None:
        return None
    expected, json_type, convert = _JSON_TYPES[get_args(hint)[0] if optional else hint]
    _require(
        isinstance(value, json_type)
        and not isinstance(value, bool)
        and (json_type is not list or all(isinstance(item, str) for item in value)),
        f"config key '{key}': expected {expected}{' or null' if optional else ''},"
        f" got {json.dumps(value)}",
    )
    try:
        return convert(value)
    except ValueError as exc:
        raise ConfigError(f"config key '{key}': {exc}") from exc


# each annotation string is compiled once per class, not once per load
_field_types = functools.cache(get_type_hints)


def _section(cls, raw: object, name: str, skip: tuple[str, ...] = (), **build: Callable) -> dict:
    """The keyword arguments for dataclass cls held by the config object raw,
    found at config key name ("" for the root). raw's keys must be fields of
    cls other than skip, and every field without a default must be present.
    Each value is checked by _typed against its field's annotation, except
    that build[key] makes a nested section from its raw value."""
    context = f"config key '{name}'" if name else "config"
    _require(isinstance(raw, dict), f"{context}: must be an object")
    declared = [f for f in fields(cls) if f.name not in skip]
    unknown = sorted(set(raw) - {f.name for f in declared})
    _require(not unknown, f"{context}: unknown key(s) {', '.join(unknown)}")
    hints = _field_types(cls)
    values = {}
    for declared_field in declared:
        key = declared_field.name
        label = f"{name}.{key}" if name else key
        if key in raw:
            values[key] = build[key](raw[key]) if key in build else _typed(raw[key], hints[key], label)
        elif declared_field.default is MISSING and declared_field.default_factory is MISSING:
            raise ConfigError(f"config key '{label}': required")
    return values


def _build(cls, values: dict, name: str):
    """cls(**values); a ValueError, OSError or ConfigError it raises names
    the config key name."""
    try:
        return cls(**values)
    except (ValueError, OSError, ConfigError) as exc:
        raise ConfigError(f"config key '{name}': {exc}") from exc


def _backends(raw: object, base_dir: Path) -> dict[str, BackendConfig]:
    _require(isinstance(raw, list) and raw, "config key 'backends': required non-empty list")
    backends: dict[str, BackendConfig] = {}
    for index, entry in enumerate(raw):
        name = f"backends[{index}]"
        values = _section(BackendConfig, entry, name)
        if values.get("fixtures_dir"):
            values["fixtures_dir"] = str(base_dir / values["fixtures_dir"])
        backend = _build(BackendConfig, values, name)
        _require(backend.backend_id not in backends, f"config key '{name}': duplicate backend_id")
        backends[backend.backend_id] = backend
    return backends


def _quality(raw: object, base_dir: Path) -> QualityConfig:
    values = _section(QualityConfig, raw, "quality", skip=("domain_lexicon",))
    if values.get("domain_lexicon_file"):
        values["domain_lexicon_file"] = str(base_dir / values["domain_lexicon_file"])
    return _build(QualityConfig, values, "quality")


def _read_config_file(path: Path) -> tuple[bytes, dict]:
    try:
        raw_bytes = path.read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = json.loads(raw_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    _require(isinstance(data, dict), "config root must be a JSON object")
    return raw_bytes, data


def load_quality_config(path: str | Path) -> QualityConfig:
    """Read a file holding only the pipeline config's `quality` section.

    A relative `domain_lexicon_file` resolves against the file's directory.
    """
    path = Path(path)
    _, data = _read_config_file(path)
    return _quality(data, path.parent.resolve())


def load_config(path: str | Path, **overrides) -> PipelineConfig:
    """Read, validate, and resolve the single pipeline config file.

    Relative paths inside the file are resolved against the file's own
    directory, so a config can travel with its fixtures. Keys, defaults and
    types are those of the fields of PipelineConfig and its sections.
    overrides replace top-level field values before the config is
    validated, as the CLI's --backend and --mode do.
    """
    path = Path(path)
    raw_bytes, data = _read_config_file(path)
    base_dir = path.parent.resolve()
    return PipelineConfig(
        **_section(
            PipelineConfig,
            data,
            "",
            skip=("base_dir", "config_hash"),
            backends=lambda raw: _backends(raw, base_dir),
            linking=lambda raw: LinkingSettings(**_section(LinkingSettings, raw, "linking")),
            quality=lambda raw: _quality(raw, base_dir),
            export=lambda raw: _build(ExportSettings, _section(ExportSettings, raw, "export"), "export"),
        )
        | overrides,
        base_dir=base_dir,
        config_hash=hashlib.sha256(raw_bytes).hexdigest(),
    )


# the rows of batches.jsonl (exactly a batch's fields) and of generations.jsonl
# in each mode, laid out as json.dumps(row, ensure_ascii=False, sort_keys=True)
_BATCH_ROW = '{"article_id": %s, "batch_index": %d, "text": %s, "token_end": %d, "token_start": %d}\n'
_GENERATION_ROW = '{"article_id": %s, "batch_index": %s, "output": %s}\n'
_ATTEMPT_ROW = '{"article_id": %s, "attempt": %d, "output": %s}\n'


def _json_str(text: str) -> str:
    """json.dumps(text, ensure_ascii=False), through the faster C ASCII encoder for
    ASCII text without DEL, the one ASCII character that only that encoder escapes."""
    return encode_basestring_ascii(text) if text.isascii() and "\x7f" not in text else encode_basestring(text)


def _batch_lines(batches: list[TokenBatch]) -> Iterator[str]:
    """json.dumps(vars(batch), ensure_ascii=False, sort_keys=True) plus a
    newline for each batch, filled into one template."""
    for b in batches:
        yield _BATCH_ROW % (_json_str(b.article_id), b.batch_index, _json_str(b.text), b.token_end, b.token_start)


def _open_lines(path: Path | None, whole: bool = False):
    """A text handle that writes rows to path (through ``replacing`` if whole), or discards them if path is None."""
    if whole and path is not None:
        return replacing(path)
    return open(os.devnull if path is None else path, "w", encoding="utf-8")


def _safe_name(article_id: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "_", article_id)


# calls per worker that _map_articles keeps submitted and not yet consumed: a
# slow article at the head blocks new submissions, so the window must hold
# enough short articles to keep the other workers busy meanwhile
_WINDOW_PER_WORKER = 8


def _map_articles(config: PipelineConfig, function: Callable, articles: Iterable, on_ready=None) -> Iterator:
    """function over every article, yielded lazily in corpus order. With
    `workers` threads, at most _WINDOW_PER_WORKER * workers calls are
    submitted and not yet consumed, so finished results cannot pile up, and
    the first exception cancels the calls not yet started. on_ready, if
    given, is called on the consuming thread with each result, in corpus
    order, before it is yielded and once it and every result before it have
    finished."""
    if config.workers == 1:
        yield from map(function, articles)
        return
    window = _WINDOW_PER_WORKER * config.workers
    pending = deque()
    given = 0  # how many results at the front of pending on_ready has been called with

    def take():
        nonlocal given
        wait((pending[0],))  # no result behind the head can be given before it
        while on_ready and given < len(pending) and pending[given].done() and not pending[given].exception():
            on_ready(pending[given].result())
            given += 1
        given = max(given - 1, 0)
        return pending.popleft().result()

    with ThreadPoolExecutor(max_workers=config.workers) as pool:
        try:
            for article in articles:
                if len(pending) == window:
                    yield take()
                pending.append(pool.submit(function, article))
            while pending:
                yield take()
        finally:
            for future in pending:
                future.cancel()


def _rate_limiter(config: PipelineConfig) -> RateLimiter | None:
    return RateLimiter(config.rate_limit_per_second) if config.rate_limit_per_second else None


def make_completer(config: PipelineConfig) -> Callable[[str], str]:
    """prompt -> generation on the configured backend, spaced by the config's
    rate limit."""
    backend = config.backend
    limiter = _rate_limiter(config)

    def complete(prompt: str) -> str:
        return generate(backend, prompt, limiter=limiter)

    return complete


@contextmanager
def _stage(name: str) -> Iterator[None]:
    """A TextkgError raised in the block fails stage name, unless a stage
    inside the block has already claimed it."""
    try:
        yield
    except StageError:
        raise
    except TextkgError as exc:
        raise StageError(name, exc) from exc


# Stages. Each one returns its manifest counts (after its result, when it has
# one). run_pipeline drives them; the CLI subcommands call them directly.


def read_corpus(
    config: PipelineConfig, counts: dict | None = None, metadata: list[ArticleMeta] | None = None
) -> Iterator[Article]:
    """The articles inside the date window, read one at a time in corpus
    order. Each one read is counted into counts and its metadata appended to
    metadata, if given; a bad line fails the corpus stage when it is reached.
    A read without counts is a check that logs no empty body, so that a run
    reading its corpus twice logs each one once."""
    quiet = counts is None
    counts = {} if quiet else counts
    counts.update(articles=0, empty_bodies=0)
    with _stage("corpus"):
        corpus = load_corpus(config.resolve(config.corpus), quiet=quiet)
        for article in filter_by_date(corpus, config.date_from, config.date_to):
            counts["articles"] += 1
            counts["empty_bodies"] += not article.body.strip()
            if metadata is not None:
                metadata.append(ArticleMeta(article.id, article.source_domain, article.published_at))
            yield article


def chunk_stage(articles: Iterable[Article], batch_size: int, path: Path) -> dict:
    """Write one row per token batch of every article through ``replacing``,
    so a failure leaves path as it was."""
    count = 0
    with replacing(path) as handle:
        for article in articles:
            batches = chunk(article, batch_size=batch_size)
            count += len(batches)
            handle.writelines(_batch_lines(batches))
    return {"batches": count}


class LinkStage:
    """The link stage, fed one article's triplets at a time on one thread;
    each feed is canonicalized as one call over all the triplets fed so far
    would be. With `workers` above 1 and a lookup endpoint, lookups run on a
    pool of that many threads that lasts until close, where linker.prefetch
    starts them before their feed; otherwise they run on the feeding thread."""

    def __init__(self, config: PipelineConfig):
        settings = config.linking
        client = None
        if settings.fixture_file:
            client = FileLookupClient(config.resolve(settings.fixture_file))
        elif settings.endpoint:
            client = LookupClient(settings.endpoint)
        self.cache_path = config.resolve(settings.cache_path) if settings.cache_path else None
        self.cache = LinkCache.load(self.cache_path) if self.cache_path else None
        workers = config.workers if settings.endpoint else 1  # only an HTTP lookup waits
        self.linker = Linker(client, self.cache, match=settings.match, on_error=settings.on_error, workers=workers)
        self.kb = KnowledgeBase(link_config=settings.identity())

    def fold(self, triplets: list[Triplet]) -> None:
        add_triples(self.kb, canonicalize(triplets, linker=self.linker)[0])

    def close(self) -> None:
        """Cancel the lookups not started and wait for the rest."""
        self.linker.close()

    def finish(self) -> tuple[KnowledgeBase, dict]:
        """Save the link cache and give the KB its entity links."""
        if self.cache is not None:
            self.cache.save(self.cache_path)
        # every label in the table is the subject or object of a linked triplet
        links = {label: e.canonical_iri for label, e in self.linker.table.items() if e.canonical_iri}
        self.kb.entity_links.update(links)
        return self.kb, {"entities": len(self.linker.table), "linked": len(links)}


def _article_stage(config: PipelineConfig, articles: Iterable, work: Callable, fold: Callable, paths, on_ready=None):
    """The per-article loop of both modes. On up to `workers` threads, each
    article is chunked once and run through work(article, batches), which
    returns its generation rows, triple rows and fold arguments. As each one
    completes, in corpus order, its rows are written to paths (triples,
    generations, batches; an ontology run's batches whole) and fold called."""

    def one(article: Article) -> tuple:
        batches = chunk(article, batch_size=config.batch_size)
        return batches, *work(article, batches)

    triples_path, generations_path, batches_path = paths
    count = 0
    with (
        _open_lines(batches_path, whole=config.mode == "ontology") as batch_rows,
        _open_lines(generations_path) as generations,
        _open_lines(triples_path) as triples,
        closing(_map_articles(config, one, articles, on_ready)) as results,
    ):
        for batches, rows, triple_rows, item in results:
            count += len(batches)
            batch_rows.writelines(_batch_lines(batches))
            generations.writelines(rows)
            triples.writelines(triple_rows)
            fold(*item)
    return {"batches": count}


def extract_stage(
    config: PipelineConfig,
    articles: Iterable[Article],
    triples_path: Path,
    generations_path: Path | None = None,
    batches_path: Path | None = None,
    link: LinkStage | None = None,
) -> tuple[dict, dict]:
    """Chunk every article and extract its triplets with the configured
    backend. As each article completes, in corpus order, write its batch,
    generation and triple rows and, given link, fold its triplets in, their
    lookups made on the link stage's pool. Returns the chunk and extract
    stages' counts."""
    backend = config.backend
    limiter = _rate_limiter(config)
    encode = row_encoder()
    total_report = ParseReport()

    def work(article: Article, batches: list[TokenBatch]) -> tuple:
        rows: list[str] = []

        def on_generation(batch_index: int | None, output: str) -> None:
            rows.append(_GENERATION_ROW % (_json_str(article.id), _scalar(batch_index), _json_str(output)))

        triplets, parse_report = extract_article(
            article,
            backend,
            batches=batches,
            batch_size=config.batch_size,
            on_batch_error=config.on_batch_error,
            limiter=limiter,
            on_generation=on_generation,
        )
        # lazily: encode keeps a cache, so only the writing thread may call it
        triple_rows = (encode((s, p, o), [source] if source else []) + "\n" for s, p, o, source in triplets)
        return rows, triple_rows, (triplets, parse_report)

    def fold(triplets: list[Triplet], parse_report: ParseReport) -> None:
        total_report.extend(parse_report)
        if link is not None:
            with _stage("link"):
                link.fold(triplets)

    # each article's lookups start once it and the articles before it are extracted
    prefetch = None if link is None else lambda result: link.linker.prefetch(result[-1][0])
    counts = _article_stage(config, articles, work, fold, (triples_path, generations_path, batches_path), prefetch)
    return counts, {
        "triplets_parsed": total_report.triplets_emitted,
        "segments_skipped": total_report.segments_skipped,
        "failed_batches": len(total_report.failed_batches),
    }


def ontology_stage(
    config: PipelineConfig,
    articles: Iterable[Article],
    ontology_dir: Path,
    triples_path: Path | None = None,
    generations_path: Path | None = None,
    batches_path: Path | None = None,
) -> tuple[KnowledgeBase, dict, dict]:
    """Generate, validate and repair one ontology per article, writing
    `<article>.ttl` (valid ones) and `<article>.report.json` into
    ontology_dir and the article's rows as each article completes, in corpus
    order, and fold the valid ones into one KB. Article ids that share a file
    name are refused before any generation, by a first pass over the ids.
    Returns the KB and the chunk and ontology stages' counts."""
    owners: dict[str, str] = {}
    for article_id in (article.id for article in read_corpus(config)):
        name = _safe_name(article_id)
        if owners.setdefault(name, article_id) != article_id:
            raise TextkgError(
                f"article ids {owners[name]!r} and {article_id!r} both map to ontology file name {name!r}"
            )
    complete = make_completer(config)
    encode = row_encoder()
    kb = KnowledgeBase()
    counts = {"documents": 0, "valid_documents": 0, "repair_attempts": 0, "invalid_article_ids": []}

    def work(article: Article, batches: list[TokenBatch]) -> tuple:
        if not batches:  # an empty body: nothing to generate from
            return (), (), (article.id, None, [], None)
        doc, attempts = repair_until_valid(build_prompt(article.body, "ontology"), complete, config.max_repair_attempts)
        rows = [
            _ATTEMPT_ROW % (_json_str(article.id), attempt_index, _json_str(attempt.output))
            for attempt_index, attempt in enumerate(attempts)
        ]
        if doc is None:
            return rows, (), (article.id, doc, attempts, None)
        article_kb = ontology_to_kb(doc, source_id=article.id, backend_id=config.backend_id)
        triple_rows = (encode(*item) + "\n" for item in sorted(article_kb.triples.items()))
        return rows, triple_rows, (article.id, doc, attempts, article_kb)

    def fold(article_id: str, doc: OntologyDoc | None, attempts: list, article_kb: KnowledgeBase | None) -> None:
        if not attempts:
            return
        counts["documents"] += 1
        counts["repair_attempts"] += len(attempts) - 1
        name = _safe_name(article_id)
        write_json(
            ontology_dir / f"{name}.report.json",
            {
                "article_id": article_id,
                "valid": doc is not None,
                "repair_attempts": len(attempts) - 1,
                "attempts": [asdict(attempt.report) for attempt in attempts],
            },
        )
        if doc is None:
            counts["invalid_article_ids"].append(article_id)
            logger.warning("article %s: no valid ontology after %d attempt(s)", article_id, len(attempts))
            return
        counts["valid_documents"] += 1
        (ontology_dir / f"{name}.ttl").write_text(serialize_turtle(doc), encoding="utf-8")
        kb.update(article_kb)

    ontology_dir.mkdir(parents=True, exist_ok=True)
    return kb, _article_stage(config, articles, work, fold, (triples_path, generations_path, batches_path)), counts


def kb_stage(kb: KnowledgeBase, path: Path) -> dict:
    """Save the KB and count its structure."""
    kb_stats = stats(kb)
    save_kb(kb, path)
    return {
        "entities": kb_stats.entity_count,
        "predicates": kb_stats.predicate_count,
        "triples": kb_stats.triple_count,
        "isolated_entities": kb_stats.isolated_entity_count,
    }


def quality_stage(
    kb: KnowledgeBase, articles: list[Article] | list[ArticleMeta], quality: QualityConfig, run_dir: Path
) -> dict:
    """Score the KB and write quality.json and quality.txt."""
    report = evaluate(kb, articles, quality)
    save_report(report, run_dir / "quality.json")
    (run_dir / "quality.txt").write_text(render_report(report), encoding="utf-8")
    return {"principles": len(report.principles), "warnings": len(report.warnings)}


def export_stage(kb: KnowledgeBase, settings: ExportSettings, run_dir: Path) -> dict:
    """Render the KB into export.<format> for every configured format."""
    for format_name in settings.formats:
        text = export_graph(kb, format_name, settings)
        (run_dir / f"export.{format_name}").write_text(text, encoding="utf-8")
    return {"formats": list(settings.formats)}


def run_pipeline(config_path: str | Path) -> dict:
    """Run every stage for the configured mode; returns the manifest."""
    config = load_config(config_path)
    run_dir = config.resolve(config.run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    # a failed rerun must not leave the last run's manifest beside its partial artifacts
    manifest_path = run_dir / "manifest.json"
    manifest_path.unlink(missing_ok=True)
    stages: dict = {}

    def run(stage: str, function: Callable, *args):
        with _stage(stage):
            return function(*args)

    rows = (run_dir / "triples.jsonl", run_dir / "generations.jsonl", run_dir / "batches.jsonl")
    metadata: list[ArticleMeta] = []
    corpus = read_corpus(config, stages.setdefault("corpus", {}), metadata)
    # one pass: each article is read, chunked, extracted and folded into the KB
    # in corpus order, so that only the KB, the linker's tables and the
    # articles' metadata outlive the loop (ontology mode first reads the ids)
    if config.mode == "triples":
        with closing(run("link", LinkStage, config)) as link:
            stages["chunk"], stages["extract"] = run("extract", extract_stage, config, corpus, *rows, link)
            kb, stages["link"] = run("link", link.finish)
    else:
        ontology_dir = run_dir / "ontologies"
        kb, stages["chunk"], stages["ontology"] = run("ontology", ontology_stage, config, corpus, ontology_dir, *rows)
    stages["kb"] = run("kb", kb_stage, kb, run_dir / "kb.json")
    stages["quality"] = run("quality", quality_stage, kb, metadata, config.quality, run_dir)
    stages["export"] = run("export", export_stage, kb, config.export, run_dir)

    manifest = {"config_hash": config.config_hash, "mode": config.mode, "stages": stages}
    write_json(manifest_path, manifest)
    return manifest
