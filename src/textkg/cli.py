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
from contextlib import closing
from pathlib import Path

from . import __version__
from .corpus import fetch_articles, load_corpus, write_corpus
from .errors import ConfigError, TextkgError
from .export import FORMATS, ExportOptions, export_graph
from .extraction import Triplet
from .kgstore import load_kb, merge, row_triplets, stats, top_relations
from .pipeline import (
    MODES,
    LinkStage,
    PipelineConfig,
    chunk_stage,
    extract_stage,
    kb_stage,
    load_config,
    load_quality_config,
    make_completer,
    ontology_stage,
    read_corpus,
    run_pipeline,
)
from .quality import QualityConfig, evaluate, render_report, save_report
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


def _int_at_least(minimum: int):
    def parse(value: str) -> int:
        try:
            number = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer: {value!r}")
        if number < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {number}")
        return number

    return parse


_positive_int = _int_at_least(1)


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
    fetch.add_argument("--page-size", type=_positive_int, default=100)
    fetch.add_argument("-o", "--output", required=True)

    chunk_cmd = commands.add_parser("chunk", help="split corpus articles into token batches")
    chunk_cmd.add_argument("corpus")
    chunk_cmd.add_argument("--batch-size", type=_positive_int, default=PipelineConfig.batch_size)
    chunk_cmd.add_argument("-o", "--output", required=True)

    extract = commands.add_parser("extract", help="run a backend over the corpus")
    _add_config_argument(extract)
    extract.add_argument("--backend", required=True, help="backend_id from the config table")
    extract.add_argument("--mode", choices=MODES, default=MODES[0])
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
    repair.add_argument("--max-attempts", type=_positive_int, default=PipelineConfig.max_repair_attempts)
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
    top.add_argument("-k", type=_positive_int, default=10)

    export = commands.add_parser("export", help="render a KB to a graph format")
    export.add_argument("kb")
    export.add_argument("--format", required=True, choices=FORMATS)
    export.add_argument("--max-nodes", type=_positive_int, default=ExportOptions.max_nodes)
    export.add_argument("--seed", default=None)
    export.add_argument("--radius", type=_int_at_least(0), default=ExportOptions.radius)
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
    counts = chunk_stage(load_corpus(args.corpus), args.batch_size, Path(args.output))
    print(f"wrote {counts['batches']} batches to {args.output}")
    return 0


def _cmd_extract(args) -> int:
    # the flags are checked with the file, so --mode ontology refuses "skip" and
    # --mode triples refuses a backend that answers in Turtle
    flags = {"on_batch_error": args.on_batch_error} if args.on_batch_error else {}
    config = load_config(args.config, backend_id=args.backend, mode=args.mode, **flags)
    articles = read_corpus(config, {}, [])
    if args.mode == "triples":
        _, counts = extract_stage(config, articles, Path(args.output))
        print(
            f"wrote {counts['triplets_parsed']} triplets to {args.output}"
            f" ({counts['segments_skipped']} segments skipped)"
        )
        return 0
    _, counts = ontology_stage(config, list(articles), Path(args.output))
    print(
        f"wrote {counts['documents']} ontologies to {args.output}"
        f" ({counts['valid_documents']} valid, {counts['repair_attempts']} repair attempt(s))"
    )
    return 0


def _load_triples_file(path: str) -> list[Triplet]:
    triplets = []
    with Path(path).open("rb") as handle:
        for number, line in enumerate(handle, 1):
            try:  # decoded here, so a line that is not UTF-8 is named by its number
                text = line.decode("utf-8")
                if text.strip():
                    triplets.extend(row_triplets(json.loads(text)))
            except UnicodeDecodeError as exc:  # its repr holds the whole line
                raise TextkgError(f"{path}, line {number}: not UTF-8: {exc}") from exc
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                raise TextkgError(f"{path}, line {number}: not a triple row: {exc!r}") from exc
    return triplets


def _cmd_link(args) -> int:
    config = load_config(args.config)
    with closing(LinkStage(config)) as link:
        link.fold(_load_triples_file(args.triples))
        kb, counts = link.finish()
    kb_stage(kb, Path(args.output))
    print(f"wrote KB to {args.output} ({counts['entities']} entities, {counts['linked']} linked)")
    return 0


def _cmd_merge(args) -> int:
    counts = kb_stage(merge(load_kb(args.kb_a), load_kb(args.kb_b)), Path(args.output))
    print(
        f"wrote merged KB to {args.output} "
        f"({counts['entities']} entities, {counts['triples']} triples)"
    )
    return 0


def _read_turtle(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise TextkgError(f"{path} is not UTF-8 text: {exc}") from exc


def _cmd_validate(args) -> int:
    text = _read_turtle(args.file)
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
    text = _read_turtle(args.file)
    doc, report = validate_text(text)
    if doc is None or not report.ok:
        for issue in report.errors:
            print(f"error: [{issue.code}] {issue.message}", file=sys.stderr)
        raise TextkgError(f"{args.file} is not a valid ontology; run validate or repair first")
    source_id = args.source_id if args.source_id is not None else Path(args.file).stem
    kb = ontology_to_kb(doc, source_id=source_id, backend_id=args.backend_id)
    counts = kb_stage(kb, Path(args.output))
    print(f"wrote KB to {args.output} ({counts['triples']} triples)")
    return 0


def _cmd_repair(args) -> int:
    # repair runs the ontology repair loop and fails on a backend error
    config = load_config(args.config, backend_id=args.backend, mode="ontology", on_batch_error="fail")
    text = _read_turtle(args.file)
    doc, report = validate_text(text)
    if report.ok and doc is not None:
        Path(args.output).write_text(serialize_turtle(doc), encoding="utf-8")
        print(f"{args.file} is already valid; wrote normalized copy to {args.output}")
        return 0
    doc, attempts = repair_until_valid(
        build_repair_prompt(text, report), make_completer(config), args.max_attempts
    )
    if doc is None:
        raise TextkgError(f"still invalid after {len(attempts)} repair attempt(s)")
    Path(args.output).write_text(serialize_turtle(doc), encoding="utf-8")
    print(f"repaired after {len(attempts)} attempt(s); wrote {args.output}")
    return 0


def _cmd_eval(args) -> int:
    config = load_quality_config(args.config) if args.config else QualityConfig()
    report = evaluate(load_kb(args.kb), load_corpus(args.corpus), config)
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
