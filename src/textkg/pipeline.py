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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, field, fields
from json.encoder import encode_basestring
from pathlib import Path
from typing import get_args, get_type_hints

from .chunking import TokenBatch, chunk
from .corpus import Article, filter_by_date, load_corpus
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
from .kgstore import KnowledgeBase, _scalar, add_triples, row_encoder, save_kb, stats, write_json
from .linking import FileLookupClient, LinkCache, LookupClient, canonicalize
from .quality import QualityConfig, evaluate, render_report, save_report
from .rdf import ontology_to_kb, repair_until_valid, serialize_turtle

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


def _json_line(row: dict) -> str:
    """json.dumps(row, ensure_ascii=False, sort_keys=True) plus a newline,
    for a row whose values are strings, numbers, booleans or None."""
    return "{" + ", ".join([f"{encode_basestring(k)}: {_scalar(v)}" for k, v in sorted(row.items())]) + "}\n"


def _open_lines(path: Path | None):
    """A text handle that writes rows to path, or discards them if path is None."""
    return open(os.devnull if path is None else path, "w", encoding="utf-8")


def _safe_name(article_id: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "_", article_id)


# calls per worker that _map_articles keeps submitted and not yet consumed: a
# slow article at the head blocks new submissions, so the window must hold
# enough short articles to keep the other workers busy meanwhile
_WINDOW_PER_WORKER = 8


def _map_articles(config: PipelineConfig, function: Callable, *iterables: Iterable) -> Iterator:
    """function over every article, yielded lazily in corpus order; the
    iterables are per-article arguments, as for map. With `workers` threads,
    at most _WINDOW_PER_WORKER * workers calls are submitted and not yet
    consumed, so finished results cannot pile up, and the first exception
    cancels the calls not yet started."""
    if config.workers == 1:
        yield from map(function, *iterables)
        return
    window = _WINDOW_PER_WORKER * config.workers
    pending = deque()
    with ThreadPoolExecutor(max_workers=config.workers) as pool:
        try:
            for arguments in zip(*iterables):
                if len(pending) == window:
                    yield pending.popleft().result()
                pending.append(pool.submit(function, *arguments))
            while pending:
                yield pending.popleft().result()
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


# Stages. Each one returns its manifest counts (after its result, when it has
# one). run_pipeline drives them; the CLI subcommands call them directly.


def corpus_stage(config: PipelineConfig) -> tuple[list[Article], dict]:
    """Load the corpus and keep the articles inside the date window."""
    articles = filter_by_date(
        load_corpus(config.resolve(config.corpus)), config.date_from, config.date_to
    )
    empty_bodies = sum(1 for article in articles if article.word_count == 0)
    return articles, {"articles": len(articles), "empty_bodies": empty_bodies}


def chunk_stage(
    articles: list[Article], batch_size: int, path: Path
) -> tuple[list[list[TokenBatch]], dict]:
    """Write one row per token batch of every article; return each
    article's batches, in corpus order, for extraction to reuse."""
    batches = [chunk(article, batch_size=batch_size) for article in articles]
    with _open_lines(path) as handle:
        # a row holds exactly the batch's fields
        handle.writelines(_json_line(vars(batch)) for article_batches in batches for batch in article_batches)
    return batches, {"batches": sum(map(len, batches))}


def extract_stage(
    config: PipelineConfig,
    articles: list[Article],
    triples_path: Path,
    generations_path: Path | None = None,
    batches: list[list[TokenBatch]] | None = None,
) -> tuple[list[Triplet], dict]:
    """Extract triplets from every article with the configured backend,
    writing each article's triple and generation rows as it completes, in
    corpus order. batches, when given, are chunk_stage's batches of every
    article."""
    backend = config.backend
    limiter = _rate_limiter(config)

    def extract_one(
        article: Article, article_batches: list[TokenBatch] | None
    ) -> tuple[list[Triplet], ParseReport, list[dict]]:
        rows: list[dict] = []

        def on_generation(batch_index: int | None, output: str) -> None:
            rows.append(
                {"article_id": article.id, "batch_index": batch_index, "output": output}
            )

        triplets, parse_report = extract_article(
            article,
            backend,
            batches=article_batches,
            batch_size=config.batch_size,
            on_batch_error=config.on_batch_error,
            limiter=limiter,
            on_generation=on_generation,
        )
        return triplets, parse_report, rows

    all_triplets: list[Triplet] = []
    total_report = ParseReport()
    encode = row_encoder()
    per_article = batches if batches is not None else [None] * len(articles)
    results = _map_articles(config, extract_one, articles, per_article)
    with _open_lines(triples_path) as triples, _open_lines(generations_path) as generations:
        for triplets, parse_report, rows in results:
            all_triplets.extend(triplets)
            total_report.extend(parse_report)
            generations.writelines(map(_json_line, rows))
            triples.writelines(
                encode((t.subject, t.predicate, t.object), [t.provenance] if t.provenance else []) + "\n"
                for t in triplets
            )
    return all_triplets, {
        "triplets_parsed": total_report.triplets_emitted,
        "segments_skipped": total_report.segments_skipped,
        "failed_batches": len(total_report.failed_batches),
    }


def link_stage(config: PipelineConfig, triplets: list[Triplet]) -> tuple[KnowledgeBase, dict]:
    """Canonicalize entity mentions and fold the triplets into a KB."""
    settings = config.linking
    client = None
    if settings.fixture_file:
        client = FileLookupClient(config.resolve(settings.fixture_file))
    elif settings.endpoint:
        client = LookupClient(settings.endpoint)
    cache_path = config.resolve(settings.cache_path) if settings.cache_path else None
    cache = LinkCache.load(cache_path) if cache_path else None
    linked, table = canonicalize(
        triplets,
        client,
        cache,
        match=settings.match,
        on_error=settings.on_error,
        workers=config.workers,
    )
    if cache is not None:
        cache.save(cache_path)
    # every label in the table is the subject or object of a linked triplet
    kb = add_triples(KnowledgeBase(link_config=settings.identity()), linked)
    for label, entity in table.items():
        if entity.canonical_iri is not None:
            kb.entity_links[label] = entity.canonical_iri
    return kb, {
        "entities": len(table),
        "linked": sum(1 for entity in table.values() if entity.canonical_iri),
    }


def ontology_stage(
    config: PipelineConfig,
    articles: list[Article],
    ontology_dir: Path,
    triples_path: Path | None = None,
    generations_path: Path | None = None,
) -> tuple[KnowledgeBase, dict]:
    """Generate, validate and repair one ontology per article, writing
    `<article>.ttl` (valid ones) and `<article>.report.json` into
    ontology_dir and the article's triple and generation rows as each
    article completes, in corpus order, and fold the valid ones into one KB.
    Article ids that share a file name are refused before any generation."""
    owners: dict[str, str] = {}
    for article in articles:
        name = _safe_name(article.id)
        if owners.setdefault(name, article.id) != article.id:
            raise TextkgError(
                f"article ids {owners[name]!r} and {article.id!r} both map to ontology file name {name!r}"
            )
    complete = make_completer(config)

    def ontology_one(article: Article):
        if not article.body.split():
            return None, []
        prompt = build_prompt(article.body, "ontology")
        return repair_until_valid(prompt, complete, config.max_repair_attempts)

    ontology_dir.mkdir(parents=True, exist_ok=True)
    results = _map_articles(config, ontology_one, articles)
    encode = row_encoder()
    kb = KnowledgeBase()
    documents = 0
    repair_attempts = 0
    invalid_ids: list[str] = []
    with _open_lines(triples_path) as triples, _open_lines(generations_path) as generations:
        for article, (doc, attempts) in zip(articles, results):
            if not attempts:
                continue
            documents += 1
            repair_attempts += len(attempts) - 1
            name = _safe_name(article.id)
            generations.writelines(
                _json_line({"article_id": article.id, "attempt": attempt_index, "output": attempt.output})
                for attempt_index, attempt in enumerate(attempts)
            )
            write_json(
                ontology_dir / f"{name}.report.json",
                {
                    "article_id": article.id,
                    "valid": doc is not None,
                    "repair_attempts": len(attempts) - 1,
                    "attempts": [attempt.report.to_dict() for attempt in attempts],
                },
            )
            if doc is None:
                invalid_ids.append(article.id)
                logger.warning(
                    "article %s: no valid ontology after %d attempt(s)", article.id, len(attempts)
                )
                continue
            (ontology_dir / f"{name}.ttl").write_text(serialize_turtle(doc), encoding="utf-8")
            article_kb = ontology_to_kb(doc, source_id=article.id, backend_id=config.backend_id)
            triples.writelines(encode(*item) + "\n" for item in sorted(article_kb.triples.items()))
            kb.update(article_kb)
    return kb, {
        "documents": documents,
        "valid_documents": documents - len(invalid_ids),
        "repair_attempts": repair_attempts,
        "invalid_article_ids": invalid_ids,
    }


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
    kb: KnowledgeBase, articles: list[Article], quality: QualityConfig, run_dir: Path
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
        try:
            return function(*args)
        except TextkgError as exc:
            raise StageError(stage, exc) from exc

    articles, stages["corpus"] = run("corpus", corpus_stage, config)
    batches, stages["chunk"] = run(
        "chunk", chunk_stage, articles, config.batch_size, run_dir / "batches.jsonl"
    )
    triples_path = run_dir / "triples.jsonl"
    generations_path = run_dir / "generations.jsonl"
    # only extraction reads the batches and only linking the triplets; drop each once used
    if config.mode == "triples":
        triplets, stages["extract"] = run(
            "extract", extract_stage, config, articles, triples_path, generations_path, batches
        )
        del batches
        kb, stages["link"] = run("link", link_stage, config, triplets)
        del triplets
    else:
        del batches
        kb, stages["ontology"] = run(
            "ontology",
            ontology_stage,
            config,
            articles,
            run_dir / "ontologies",
            triples_path,
            generations_path,
        )
    stages["kb"] = run("kb", kb_stage, kb, run_dir / "kb.json")
    stages["quality"] = run("quality", quality_stage, kb, articles, config.quality, run_dir)
    stages["export"] = run("export", export_stage, kb, config.export, run_dir)

    manifest = {"config_hash": config.config_hash, "mode": config.mode, "stages": stages}
    write_json(manifest_path, manifest)
    return manifest
