"""End-to-end pipeline: one JSON config in, a directory of artifacts out.

Every stage writes its output to a file in the run directory, so any stage
can be re-run or inspected on its own, and a failed run keeps its partial
artifacts. Two runs from the same config and fixtures produce byte-identical
artifacts; the manifest records the config hash and per-stage counts and
deliberately contains no timestamps.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import json
import logging
import re
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from .chunking import chunk, whitespace_tokenize
from .corpus import Article, corpus_report, filter_by_date, load_corpus
from .errors import ConfigError, TextkgError
from .export import ExportOptions, export_graph
from .extraction import (
    BackendConfig,
    ParseReport,
    RateLimiter,
    Triplet,
    build_prompt,
    extract_article,
    generate,
)
# merge is unused here but stays importable from this module, where the
# benchmark tracer (perfbench/spans.py) wraps it
from .kgstore import KnowledgeBase, add_triples, merge, save_kb, stats, triple_row  # noqa: F401
from .linking import FileLookupClient, LinkCache, LookupClient, canonicalize
from .quality import QualityConfig, evaluate, load_lexicon, render_report, save_report
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
class ExportSettings:
    formats: tuple[str, ...] = ("dot", "graphml", "json")
    max_nodes: int | None = 150
    seed_entity: str | None = None
    radius: int = 2

    def options(self) -> ExportOptions:
        return ExportOptions(
            max_nodes=self.max_nodes, seed_entity=self.seed_entity, radius=self.radius
        )


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

    @property
    def backend(self) -> BackendConfig:
        return self.backends[self.backend_id]

    def resolve(self, path: str) -> Path:
        # joining an absolute path yields that path unchanged
        return self.base_dir / path


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _check_keys(data: dict, allowed: set[str], context: str) -> None:
    unknown = sorted(set(data) - allowed)
    _require(not unknown, f"{context}: unknown key(s) {', '.join(unknown)}")


_TOP_KEYS = {
    "mode",
    "corpus",
    "run_dir",
    "backend_id",
    "backends",
    "batch_size",
    "workers",
    "rate_limit_per_second",
    "on_batch_error",
    "date_from",
    "date_to",
    "linking",
    "quality",
    "export",
    "max_repair_attempts",
}
_BACKEND_KEYS = {
    "backend_id",
    "kind",
    "endpoint",
    "model_name",
    "temperature",
    "max_input_tokens",
    "request_timeout",
    "max_retries",
    "fixtures_dir",
    "replay_mode",
}
_LINKING_KEYS = {"endpoint", "fixture_file", "cache_path", "match", "on_error"}
_QUALITY_KEYS = {"conciseness_max_tokens", "functional_predicates", "domain_lexicon_file"}
_EXPORT_KEYS = {"formats", "max_nodes", "seed_entity", "radius"}


def _parse_date(value: object, key: str) -> dt.date | None:
    if value is None:
        return None
    try:
        return dt.date.fromisoformat(str(value))
    except ValueError as exc:
        raise ConfigError(f"config key '{key}': {exc}") from exc


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


def _parse_quality(raw: object, base_dir: Path, context: str) -> QualityConfig:
    _require(isinstance(raw, dict), f"{context}: must be an object")
    _check_keys(raw, _QUALITY_KEYS, context)
    lexicon_file = raw.get("domain_lexicon_file")
    try:
        quality_kwargs = {
            "conciseness_max_tokens": raw.get("conciseness_max_tokens", 4),
            "functional_predicates": tuple(raw.get("functional_predicates", ())),
        }
        if lexicon_file:
            quality_kwargs["domain_lexicon"] = load_lexicon(base_dir / lexicon_file)
        return QualityConfig(**quality_kwargs)
    except (TypeError, ValueError, OSError) as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def load_quality_config(path: str | Path) -> QualityConfig:
    """Read a file holding only the pipeline config's `quality` section.

    A relative `domain_lexicon_file` resolves against the file's directory.
    """
    path = Path(path)
    _, data = _read_config_file(path)
    return _parse_quality(data, path.parent.resolve(), f"quality config {path}")


def load_config(path: str | Path) -> PipelineConfig:
    """Read, validate, and resolve the single pipeline config file.

    Relative paths inside the file are resolved against the file's own
    directory, so a config can travel with its fixtures.
    """
    path = Path(path)
    raw_bytes, data = _read_config_file(path)
    _check_keys(data, _TOP_KEYS, "config")

    mode = data.get("mode")
    _require(mode in MODES, f"config key 'mode': must be one of {', '.join(MODES)}")
    for key in ("corpus", "run_dir", "backend_id"):
        _require(isinstance(data.get(key), str) and data[key], f"config key '{key}': required string")

    backends_raw = data.get("backends")
    _require(
        isinstance(backends_raw, list) and backends_raw,
        "config key 'backends': required non-empty list",
    )
    base_dir = path.parent.resolve()
    backends: dict[str, BackendConfig] = {}
    for index, entry in enumerate(backends_raw):
        context = f"config key 'backends[{index}]'"
        _require(isinstance(entry, dict), f"{context}: must be an object")
        _check_keys(entry, _BACKEND_KEYS, context)
        entry = dict(entry)
        fixtures_dir = entry.get("fixtures_dir")
        if isinstance(fixtures_dir, str) and fixtures_dir:
            entry["fixtures_dir"] = str(base_dir / fixtures_dir)
        try:
            backend = BackendConfig(**entry)
        except (TypeError, ConfigError) as exc:
            raise ConfigError(f"{context}: {exc}") from exc
        _require(backend.backend_id not in backends, f"{context}: duplicate backend_id")
        backends[backend.backend_id] = backend
    _require(
        data["backend_id"] in backends,
        f"config key 'backend_id': {data['backend_id']!r} is not in the backends table",
    )

    linking_raw = data.get("linking", {})
    _require(isinstance(linking_raw, dict), "config key 'linking': must be an object")
    _check_keys(linking_raw, _LINKING_KEYS, "config key 'linking'")
    linking = LinkingSettings(
        endpoint=linking_raw.get("endpoint"),
        fixture_file=linking_raw.get("fixture_file"),
        cache_path=linking_raw.get("cache_path"),
        match=linking_raw.get("match", "exact"),
        on_error=linking_raw.get("on_error", "fallback"),
    )
    _require(linking.match in ("exact", "prefix"), "config key 'linking.match': exact or prefix")
    _require(
        linking.on_error in ("fallback", "abort"),
        "config key 'linking.on_error': fallback or abort",
    )

    quality = _parse_quality(data.get("quality", {}), base_dir, "config key 'quality'")

    export_raw = data.get("export", {})
    _require(isinstance(export_raw, dict), "config key 'export': must be an object")
    _check_keys(export_raw, _EXPORT_KEYS, "config key 'export'")
    formats = tuple(export_raw.get("formats", ("dot", "graphml", "json")))
    _require(
        all(f in ("dot", "graphml", "json") for f in formats) and formats,
        "config key 'export.formats': list drawn from dot, graphml, json",
    )
    try:
        export = ExportSettings(
            formats=formats,
            max_nodes=export_raw.get("max_nodes", 150),
            seed_entity=export_raw.get("seed_entity"),
            radius=export_raw.get("radius", 2),
        )
        export.options()
    except ValueError as exc:
        raise ConfigError(f"config key 'export': {exc}") from exc

    batch_size = data.get("batch_size", 256)
    _require(isinstance(batch_size, int) and batch_size > 0, "config key 'batch_size': positive integer")
    workers = data.get("workers", 1)
    _require(isinstance(workers, int) and workers >= 1, "config key 'workers': integer >= 1")
    rate = data.get("rate_limit_per_second")
    _require(
        rate is None or (isinstance(rate, (int, float)) and rate > 0),
        "config key 'rate_limit_per_second': positive number or null",
    )
    on_batch_error = data.get("on_batch_error", "fail")
    _require(on_batch_error in ("fail", "skip"), "config key 'on_batch_error': fail or skip")
    max_repair_attempts = data.get("max_repair_attempts", 3)
    _require(
        isinstance(max_repair_attempts, int) and max_repair_attempts >= 1,
        "config key 'max_repair_attempts': integer >= 1",
    )
    date_from = _parse_date(data.get("date_from"), "date_from")
    date_to = _parse_date(data.get("date_to"), "date_to")
    _require(
        date_from is None or date_to is None or date_from <= date_to,
        f"config keys 'date_from'/'date_to': empty date window, {date_from} is after {date_to}",
    )

    return PipelineConfig(
        mode=mode,
        corpus=data["corpus"],
        run_dir=data["run_dir"],
        backend_id=data["backend_id"],
        backends=backends,
        base_dir=base_dir,
        config_hash=hashlib.sha256(raw_bytes).hexdigest(),
        batch_size=batch_size,
        workers=workers,
        rate_limit_per_second=rate,
        on_batch_error=on_batch_error,
        date_from=date_from,
        date_to=date_to,
        linking=linking,
        quality=quality,
        export=export,
        max_repair_attempts=max_repair_attempts,
    )


def _write_jsonl(path: Path, rows: list[dict]) -> None:
    with path.open("w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, ensure_ascii=False, sort_keys=True))
            handle.write("\n")


def _write_json(path: Path, payload: dict) -> None:
    with path.open("w", encoding="utf-8") as handle:
        json.dump(payload, handle, ensure_ascii=False, indent=2, sort_keys=True)
        handle.write("\n")


def _safe_name(article_id: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "_", article_id)


def _map_articles(config: PipelineConfig, function: Callable, articles: list[Article]) -> list:
    """function over every article in corpus order, on `workers` threads."""
    if config.workers > 1:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            return list(pool.map(function, articles))
    return [function(article) for article in articles]


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
    report = corpus_report(articles)
    return articles, {"articles": report.article_count, "empty_bodies": len(report.empty_body_ids)}


def chunk_stage(articles: list[Article], batch_size: int, path: Path) -> dict:
    """Write one row per token batch of every article."""
    rows = [
        {
            "article_id": batch.article_id,
            "batch_index": batch.batch_index,
            "token_start": batch.token_start,
            "token_end": batch.token_end,
            "text": batch.text,
        }
        for article in articles
        for batch in chunk(article, whitespace_tokenize, batch_size)
    ]
    _write_jsonl(path, rows)
    return {"batches": len(rows)}


def extract_stage(
    config: PipelineConfig,
    articles: list[Article],
    triples_path: Path,
    generations_path: Path | None = None,
) -> tuple[list[Triplet], dict]:
    """Extract triplets from every article with the configured backend."""
    backend = config.backend
    limiter = _rate_limiter(config)

    def extract_one(article: Article) -> tuple[list[Triplet], ParseReport, list[dict]]:
        rows: list[dict] = []

        def on_generation(batch_index: int | None, output: str) -> None:
            rows.append(
                {"article_id": article.id, "batch_index": batch_index, "output": output}
            )

        triplets, parse_report = extract_article(
            article,
            backend,
            whitespace_tokenize,
            batch_size=config.batch_size,
            on_batch_error=config.on_batch_error,
            limiter=limiter,
            on_generation=on_generation,
        )
        return triplets, parse_report, rows

    all_triplets: list[Triplet] = []
    total_report = ParseReport()
    generation_rows: list[dict] = []
    for triplets, parse_report, rows in _map_articles(config, extract_one, articles):
        all_triplets.extend(triplets)
        total_report.extend(parse_report)
        generation_rows.extend(rows)
    if generations_path is not None:
        _write_jsonl(generations_path, generation_rows)
    _write_jsonl(
        triples_path,
        [
            triple_row((t.subject, t.predicate, t.object), [t.provenance] if t.provenance else [])
            for t in all_triplets
        ],
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
    kb = add_triples(KnowledgeBase(link_config=settings.identity()), linked)
    for label, entity in table.items():
        kb.add_entity(label)
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
    ontology_dir, and flatten the valid ones into one KB."""
    complete = make_completer(config)

    def ontology_one(article: Article):
        if not article.body.split():
            return None, []
        prompt = build_prompt(article.body, "ontology")
        return repair_until_valid(prompt, complete, config.max_repair_attempts)

    ontology_dir.mkdir(parents=True, exist_ok=True)
    results = _map_articles(config, ontology_one, articles)
    generation_rows: list[dict] = []
    triple_rows: list[dict] = []
    kb = KnowledgeBase()
    documents = 0
    repair_attempts = 0
    invalid_ids: list[str] = []
    for article, (doc, attempts) in zip(articles, results):
        if not attempts:
            continue
        documents += 1
        repair_attempts += len(attempts) - 1
        name = _safe_name(article.id)
        for attempt_index, attempt in enumerate(attempts):
            generation_rows.append(
                {"article_id": article.id, "attempt": attempt_index, "output": attempt.output}
            )
        _write_json(
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
        triple_rows.extend(triple_row(*item) for item in sorted(article_kb.triples.items()))
        kb.update(article_kb)
    if generations_path is not None:
        _write_jsonl(generations_path, generation_rows)
    if triples_path is not None:
        _write_jsonl(triples_path, triple_rows)
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
        text = export_graph(kb, format_name, settings.options())
        (run_dir / f"export.{format_name}").write_text(text, encoding="utf-8")
    return {"formats": list(settings.formats)}


def run_pipeline(config_path: str | Path) -> dict:
    """Run every stage for the configured mode; returns the manifest."""
    config = load_config(config_path)
    run_dir = config.resolve(config.run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    stages: dict = {}

    def run(stage: str, function: Callable, *args):
        try:
            return function(*args)
        except TextkgError as exc:
            raise StageError(stage, exc) from exc

    articles, stages["corpus"] = run("corpus", corpus_stage, config)
    stages["chunk"] = run(
        "chunk", chunk_stage, articles, config.batch_size, run_dir / "batches.jsonl"
    )
    triples_path = run_dir / "triples.jsonl"
    generations_path = run_dir / "generations.jsonl"
    if config.mode == "triples":
        triplets, stages["extract"] = run(
            "extract", extract_stage, config, articles, triples_path, generations_path
        )
        kb, stages["link"] = run("link", link_stage, config, triplets)
    else:
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
    _write_json(run_dir / "manifest.json", manifest)
    return manifest
