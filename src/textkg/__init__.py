"""Pipeline toolkit that turns raw article text into a validated, scored
knowledge graph: corpus ingestion, token batching, triplet extraction,
entity linking, a deduplicated triple store, a Turtle-subset ontology
toolchain with a repair loop, quality scoring, and graph exports."""

# set before the submodule imports: transport reads it for its User-Agent
__version__ = "0.1.0"

from .chunking import TokenBatch, chunk
from .corpus import Article, filter_by_date, load_corpus, write_corpus
from .errors import ConfigError, ConfigMismatchError, TextkgError
from .export import ExportOptions, export_graph
from .extraction import (
    BackendConfig,
    ParseReport,
    Provenance,
    Triplet,
    build_prompt,
    extract_article,
    generate,
    parse_chat_triples,
    parse_seq2seq_output,
    request_fingerprint,
)
from .kgstore import (
    KBStats,
    KnowledgeBase,
    add_triples,
    comparison_table,
    load_kb,
    merge,
    save_kb,
    stats,
    top_relations,
)
from .linking import LinkCache, LinkedEntity, canonicalize, link_entity, normalize_surface
from .pipeline import load_config, run_pipeline
from .quality import QualityConfig, QualityReport, evaluate
from .rdf import (
    Literal,
    OntologyDoc,
    ValidationReport,
    build_repair_prompt,
    ontology_to_kb,
    parse_turtle,
    repair_until_valid,
    serialize_turtle,
    validate_owl,
)

__all__ = [
    "Article",
    "BackendConfig",
    "ConfigError",
    "ConfigMismatchError",
    "ExportOptions",
    "KBStats",
    "KnowledgeBase",
    "LinkCache",
    "LinkedEntity",
    "Literal",
    "OntologyDoc",
    "ParseReport",
    "Provenance",
    "QualityConfig",
    "QualityReport",
    "TextkgError",
    "TokenBatch",
    "Triplet",
    "ValidationReport",
    "add_triples",
    "build_prompt",
    "build_repair_prompt",
    "canonicalize",
    "chunk",
    "comparison_table",
    "evaluate",
    "export_graph",
    "extract_article",
    "filter_by_date",
    "generate",
    "link_entity",
    "load_config",
    "load_corpus",
    "load_kb",
    "merge",
    "normalize_surface",
    "ontology_to_kb",
    "parse_chat_triples",
    "parse_seq2seq_output",
    "parse_turtle",
    "repair_until_valid",
    "request_fingerprint",
    "run_pipeline",
    "save_kb",
    "serialize_turtle",
    "stats",
    "top_relations",
    "validate_owl",
    "write_corpus",
]
