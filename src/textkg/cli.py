"""Command-line entry point.

Exit codes: 0 success, 1 stage failure, 2 configuration error. API keys are
read from the environment only, never from flags or files.
"""

from __future__ import annotations

import argparse
import datetime as dt
import json
import logging
import os
import sys
from pathlib import Path

from . import __version__
from .chunking import chunk, whitespace_tokenize
from .corpus import fetch_articles, load_corpus, write_corpus
from .errors import ConfigError, TextkgError
from .export import ExportOptions, export_graph
from .extraction import RateLimiter, build_prompt, extract_article, generate
from .kgstore import load_kb, merge, save_kb, stats, top_relations
from .linking import LinkCache, canonicalize
from .pipeline import load_config, make_lookup_client, run_pipeline
from .quality import (
    QualityConfig,
    evaluate,
    load_lexicon,
    render_report,
    save_report,
)
from .rdf import (
    build_repair_prompt,
    ontology_to_kb,
    repair_until_valid,
    serialize_turtle,
    validate_text,
)

logger = logging.getLogger(__name__)

NEWS_API_KEY_ENV = "TEXTKG_NEWS_API_KEY"


def _parse_iso_date(value: str) -> dt.date:
    try:
        return dt.date.fromisoformat(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _add_config_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="pipeline config JSON file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="textkg", description="Turn article text into a validated knowledge graph."
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    commands = parser.add_subparsers(dest="command", required=True)

    fetch = commands.add_parser(
        "fetch",
        help="download articles from a news endpoint"
        f" (API key read from ${NEWS_API_KEY_ENV} when set)",
    )
    fetch.add_argument("--endpoint", required=True, help="News-API-compatible base URL")
    fetch.add_argument("--query", required=True)
    fetch.add_argument("--from", dest="date_from", required=True, type=_parse_iso_date)
    fetch.add_argument("--to", dest="date_to", required=True, type=_parse_iso_date)
    fetch.add_argument("--language", default="en")
    fetch.add_argument("--page-size", type=int, default=100)
    fetch.add_argument("-o", "--output", required=True)

    chunk_cmd = commands.add_parser("chunk", help="split corpus articles into token batches")
    chunk_cmd.add_argument("corpus")
    chunk_cmd.add_argument("--batch-size", type=int, default=256)
    chunk_cmd.add_argument("-o", "--output", required=True)

    extract = commands.add_parser("extract", help="run a backend over the corpus")
    _add_config_argument(extract)
    extract.add_argument("--backend", required=True, help="backend_id from the config table")
    extract.add_argument("--mode", choices=("triples", "ontology"), default="triples")
    extract.add_argument("--on-batch-error", choices=("fail", "skip"), default=None)
    extract.add_argument("-o", "--output", required=True, help="triples file, or a directory in ontology mode")

    link = commands.add_parser("link", help="canonicalize a triples file into a KB")
    link.add_argument("triples")
    _add_config_argument(link)
    link.add_argument("-o", "--output", required=True)

    merge_cmd = commands.add_parser("merge", help="merge two KB files")
    merge_cmd.add_argument("kb_a")
    merge_cmd.add_argument("kb_b")
    merge_cmd.add_argument("-o", "--output", required=True)

    validate = commands.add_parser("validate", help="validate a Turtle file")
    validate.add_argument("file")

    ttl2kb = commands.add_parser("ttl2kb", help="convert a valid Turtle file to a KB")
    ttl2kb.add_argument("file")
    ttl2kb.add_argument("--source-id", default=None, help="provenance article id (default: file stem)")
    ttl2kb.add_argument("--backend-id", default="ontology")
    ttl2kb.add_argument("-o", "--output", required=True)

    repair = commands.add_parser("repair", help="repair an invalid Turtle file via a backend")
    repair.add_argument("file")
    _add_config_argument(repair)
    repair.add_argument("--backend", required=True)
    repair.add_argument("--max-attempts", type=int, default=3)
    repair.add_argument("-o", "--output", required=True)

    eval_cmd = commands.add_parser("eval", help="score a KB against the quality principles")
    eval_cmd.add_argument("kb")
    eval_cmd.add_argument("--corpus", required=True)
    eval_cmd.add_argument("--config", default=None, help="quality config JSON file")
    eval_cmd.add_argument("-o", "--output", default=None, help="write the JSON report here")
    eval_cmd.add_argument("--text", action="store_true", help="print the plain-text report")

    stats_cmd = commands.add_parser("stats", help="print KB structure counts")
    stats_cmd.add_argument("kb")

    top = commands.add_parser("top-relations", help="print the most frequent predicates")
    top.add_argument("kb")
    top.add_argument("-k", type=int, default=10)

    export = commands.add_parser("export", help="render a KB to a graph format")
    export.add_argument("kb")
    export.add_argument("--format", required=True, choices=("dot", "graphml", "json"))
    export.add_argument("--max-nodes", type=int, default=150)
    export.add_argument("--seed", default=None)
    export.add_argument("--radius", type=int, default=2)
    export.add_argument("-o", "--output", default=None, help="default: stdout")

    pipeline = commands.add_parser("pipeline", help="run the full pipeline from a config file")
    _add_config_argument(pipeline)

    return parser


def _cmd_fetch(args) -> int:
    articles = fetch_articles(
        args.endpoint,
        query=args.query,
        date_from=args.date_from,
        date_to=args.date_to,
        language=args.language,
        api_key=os.environ.get(NEWS_API_KEY_ENV),
        page_size=args.page_size,
    )
    write_corpus(articles, args.output)
    print(f"wrote {len(articles)} articles to {args.output}")
    return 0


def _cmd_chunk(args) -> int:
    articles = load_corpus(args.corpus)
    count = 0
    with Path(args.output).open("w", encoding="utf-8") as handle:
        for article in articles:
            for batch in chunk(article, whitespace_tokenize, args.batch_size):
                row = {
                    "article_id": batch.article_id,
                    "batch_index": batch.batch_index,
                    "token_start": batch.token_start,
                    "token_end": batch.token_end,
                    "text": batch.text,
                }
                handle.write(json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n")
                count += 1
    print(f"wrote {count} batches to {args.output}")
    return 0


def _triplet_rows(triplets) -> list[dict]:
    rows = []
    for t in triplets:
        provenance = []
        if t.provenance is not None:
            provenance.append(
                {
                    "article_id": t.provenance.article_id,
                    "batch_index": t.provenance.batch_index,
                    "backend_id": t.provenance.backend_id,
                }
            )
        rows.append(
            {"subject": t.subject, "predicate": t.predicate, "object": t.object, "provenance": provenance}
        )
    return rows


def _cmd_extract(args) -> int:
    config = load_config(args.config)
    if args.backend not in config.backends:
        raise ConfigError(f"backend {args.backend!r} is not in the config's backends table")
    backend = config.backends[args.backend]
    articles = load_corpus(config.resolve(config.corpus))
    limiter = RateLimiter(config.rate_limit_per_second) if config.rate_limit_per_second else None
    on_batch_error = args.on_batch_error or config.on_batch_error

    if args.mode == "triples":
        rows: list[dict] = []
        emitted = skipped = 0
        for article in articles:
            triplets, report = extract_article(
                article,
                backend,
                whitespace_tokenize,
                batch_size=config.batch_size,
                on_batch_error=on_batch_error,
                limiter=limiter,
            )
            rows.extend(_triplet_rows(triplets))
            emitted += report.triplets_emitted
            skipped += report.segments_skipped
        with Path(args.output).open("w", encoding="utf-8") as handle:
            for row in rows:
                handle.write(json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n")
        print(f"wrote {emitted} triplets to {args.output} ({skipped} segments skipped)")
        return 0

    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    invalid = 0
    for article in articles:
        if not article.body.split():
            continue
        output = generate(backend, build_prompt(article.body, "ontology"), limiter=limiter)
        doc, report = validate_text(output)
        name = "".join(c if c.isalnum() or c in "._-" else "_" for c in article.id)
        (out_dir / f"{name}.ttl").write_text(output, encoding="utf-8")
        with (out_dir / f"{name}.report.json").open("w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, ensure_ascii=False, indent=2, sort_keys=True)
            handle.write("\n")
        if not report.ok:
            invalid += 1
    print(f"wrote ontologies to {out_dir} ({invalid} invalid; see repair)")
    return 0


def _load_triples_file(path: str):
    from .extraction import Provenance, Triplet

    triplets = []
    with Path(path).open(encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            row = json.loads(line)
            provenance_list = row.get("provenance") or [None]
            for provenance in provenance_list:
                triplets.append(
                    Triplet(
                        row["subject"],
                        row["predicate"],
                        row["object"],
                        Provenance(
                            provenance["article_id"],
                            provenance.get("batch_index"),
                            provenance["backend_id"],
                        )
                        if provenance
                        else None,
                    )
                )
    return triplets


def _cmd_link(args) -> int:
    config = load_config(args.config)
    triplets = _load_triples_file(args.triples)
    client = make_lookup_client(config.linking, config.resolve)
    cache = (
        LinkCache.load(config.resolve(config.linking.cache_path))
        if config.linking.cache_path
        else None
    )
    linked, table = canonicalize(
        triplets,
        client,
        cache,
        match=config.linking.match,
        on_error=config.linking.on_error,
        workers=config.workers,
    )
    if cache is not None and config.linking.cache_path:
        cache.save(config.resolve(config.linking.cache_path))
    from .kgstore import KnowledgeBase, add_triples

    kb = add_triples(KnowledgeBase(link_config=config.linking.identity()), linked)
    for label, entity in table.items():
        kb.add_entity(label)
        if entity.canonical_iri is not None:
            kb.entity_links[label] = entity.canonical_iri
    save_kb(kb, args.output)
    linked_count = sum(1 for entity in table.values() if entity.canonical_iri)
    print(f"wrote KB to {args.output} ({len(table)} entities, {linked_count} linked)")
    return 0


def _cmd_merge(args) -> int:
    result = merge(load_kb(args.kb_a), load_kb(args.kb_b))
    save_kb(result, args.output)
    kb_stats = stats(result)
    print(
        f"wrote merged KB to {args.output} "
        f"({kb_stats.entity_count} entities, {kb_stats.triple_count} triples)"
    )
    return 0


def _cmd_validate(args) -> int:
    text = Path(args.file).read_text(encoding="utf-8")
    doc, report = validate_text(text)
    for issue in report.errors:
        location = f" ({issue.location})" if issue.location else ""
        print(f"error: [{issue.code}]{location} {issue.message}")
    for issue in report.warnings:
        location = f" ({issue.location})" if issue.location else ""
        print(f"warning: [{issue.code}]{location} {issue.message}")
    if report.ok:
        print(f"{args.file}: valid ({len(report.warnings)} warning(s))")
        return 0
    print(f"{args.file}: invalid ({len(report.errors)} error(s))")
    return 1


def _cmd_ttl2kb(args) -> int:
    text = Path(args.file).read_text(encoding="utf-8")
    doc, report = validate_text(text)
    if doc is None or not report.ok:
        for issue in report.errors:
            print(f"error: [{issue.code}] {issue.message}", file=sys.stderr)
        raise TextkgError(f"{args.file} is not a valid ontology; run validate or repair first")
    source_id = args.source_id if args.source_id is not None else Path(args.file).stem
    kb = ontology_to_kb(doc, source_id=source_id, backend_id=args.backend_id)
    save_kb(kb, args.output)
    kb_stats = stats(kb)
    print(f"wrote KB to {args.output} ({kb_stats.triple_count} triples)")
    return 0


def _cmd_repair(args) -> int:
    config = load_config(args.config)
    if args.backend not in config.backends:
        raise ConfigError(f"backend {args.backend!r} is not in the config's backends table")
    backend = config.backends[args.backend]
    text = Path(args.file).read_text(encoding="utf-8")
    doc, report = validate_text(text)
    if report.ok and doc is not None:
        Path(args.output).write_text(serialize_turtle(doc), encoding="utf-8")
        print(f"{args.file} is already valid; wrote normalized copy to {args.output}")
        return 0
    doc, attempts = repair_until_valid(
        build_repair_prompt(text, report),
        lambda prompt: generate(backend, prompt),
        args.max_attempts,
    )
    if doc is None:
        raise TextkgError(f"still invalid after {len(attempts)} repair attempt(s)")
    Path(args.output).write_text(serialize_turtle(doc), encoding="utf-8")
    print(f"repaired after {len(attempts)} attempt(s); wrote {args.output}")
    return 0


def _cmd_eval(args) -> int:
    kb = load_kb(args.kb)
    articles = load_corpus(args.corpus)
    if args.config:
        with Path(args.config).open(encoding="utf-8") as handle:
            raw = json.load(handle)
        kwargs = {
            "conciseness_max_tokens": raw.get("conciseness_max_tokens", 4),
            "functional_predicates": tuple(raw.get("functional_predicates", ())),
        }
        if raw.get("domain_lexicon_file"):
            kwargs["domain_lexicon"] = load_lexicon(raw["domain_lexicon_file"])
        try:
            config = QualityConfig(**kwargs)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"quality config: {exc}") from exc
    else:
        config = QualityConfig()
    report = evaluate(kb, articles, config)
    if args.output:
        save_report(report, args.output)
        print(f"wrote quality report to {args.output}")
    if args.text or not args.output:
        print(render_report(report), end="")
    return 0


def _cmd_stats(args) -> int:
    kb_stats = stats(load_kb(args.kb))
    print(f"entities: {kb_stats.entity_count}")
    print(f"predicates: {kb_stats.predicate_count}")
    print(f"triples: {kb_stats.triple_count}")
    print(f"isolated entities: {kb_stats.isolated_entity_count}")
    return 0


def _cmd_top_relations(args) -> int:
    for predicate, frequency in top_relations(load_kb(args.kb), args.k):
        print(f"{predicate}\t{frequency}")
    return 0


def _cmd_export(args) -> int:
    kb = load_kb(args.kb)
    options = ExportOptions(max_nodes=args.max_nodes, seed_entity=args.seed, radius=args.radius)
    text = export_graph(kb, args.format, options)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {args.format} export to {args.output}")
    else:
        print(text, end="")
    return 0


def _cmd_pipeline(args) -> int:
    manifest = run_pipeline(args.config)
    counts = manifest["stages"].get("kb", {})
    print(
        f"pipeline finished: {counts.get('entities', 0)} entities, "
        f"{counts.get('triples', 0)} triples (mode {manifest['mode']})"
    )
    return 0


_HANDLERS = {
    "fetch": _cmd_fetch,
    "chunk": _cmd_chunk,
    "extract": _cmd_extract,
    "link": _cmd_link,
    "merge": _cmd_merge,
    "validate": _cmd_validate,
    "ttl2kb": _cmd_ttl2kb,
    "repair": _cmd_repair,
    "eval": _cmd_eval,
    "stats": _cmd_stats,
    "top-relations": _cmd_top_relations,
    "export": _cmd_export,
    "pipeline": _cmd_pipeline,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return _HANDLERS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TextkgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
