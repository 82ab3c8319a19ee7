"""Scores a knowledge base against 18 quality principles.

Each principle is classified as computed (a formula over the KB), metadata
(read off the artifacts), or manual (needs human judgment; reported with a
note). Formulas are this toolkit's operationalization of prose principles
and are versioned in the report so future revisions can coexist. All ratios
use the convention 0/0 := 0 so reports stay total on empty inputs.
"""

from __future__ import annotations

import json
import re
from collections import defaultdict
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field
from importlib import resources
from pathlib import Path

from .corpus import Article, ArticleMeta
from .kgstore import KnowledgeBase, neighbours, reach, write_json

FORMULA_VERSION = "1"


def load_default_lexicon() -> tuple[str, ...]:
    text = resources.files("textkg").joinpath("data/sustainability_lexicon.txt").read_text("utf-8")
    return _parse_lexicon(text)


def load_lexicon(path: str | Path) -> tuple[str, ...]:
    return _parse_lexicon(Path(path).read_text(encoding="utf-8"))


def _parse_lexicon(text: str) -> tuple[str, ...]:
    terms = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            terms.append(line.casefold())
    return tuple(terms)


@dataclass(frozen=True)
class QualityConfig:
    """Knobs for the computed principles.

    conciseness_max_tokens: a triple field longer than this many whitespace
    tokens counts as phrase-like. functional_predicates: predicates allowed
    at most one object per subject; more is a contradiction. domain_lexicon:
    terms whose presence in a label marks it domain-relevant.
    domain_lexicon_file: when set, domain_lexicon is read from this file.
    """

    conciseness_max_tokens: int = 4
    functional_predicates: tuple[str, ...] = ()
    domain_lexicon: tuple[str, ...] = field(default_factory=load_default_lexicon)
    domain_lexicon_file: str | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.domain_lexicon_file:
            object.__setattr__(self, "domain_lexicon", load_lexicon(self.domain_lexicon_file))
        if self.conciseness_max_tokens < 1:
            raise ValueError("conciseness_max_tokens must be positive")
        if not self.domain_lexicon:
            raise ValueError("domain_lexicon must be non-empty")
        object.__setattr__(self, "functional_predicates", tuple(self.functional_predicates))
        object.__setattr__(self, "domain_lexicon", tuple(self.domain_lexicon))

    def to_dict(self) -> dict:
        return {
            "conciseness_max_tokens": self.conciseness_max_tokens,
            "functional_predicates": list(self.functional_predicates),
            "domain_lexicon": list(self.domain_lexicon),
        }


@dataclass(frozen=True)
class PrincipleEntry:
    number: int
    title: str
    status: str  # computed | metadata | manual
    metric: str | None
    value: object
    note: str


@dataclass
class QualityReport:
    version: str
    config: dict
    metrics: dict
    principles: list[PrincipleEntry]
    warnings: list[str] = field(default_factory=list)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _connectivity(kb: KnowledgeBase) -> tuple[float, float]:
    """The isolated entity ratio and the largest component fraction. The
    adjacency lives only in this call: left alive while the report is built,
    it raises the peak RSS of a triples-replay run by about 1 MB."""
    adjacency = neighbours(kb)
    isolated_count = len(kb.entities) - len(adjacency)
    # an isolated entity is a component of one
    largest_component = 1 if isolated_count else 0
    seen: set[str] = set()
    for entity in adjacency:
        if entity not in seen:
            component = reach(adjacency, entity)
            seen |= component
            largest_component = max(largest_component, len(component))
    return _ratio(isolated_count, len(kb.entities)), _ratio(largest_component, len(kb.entities))


def _compute_metrics(
    kb: KnowledgeBase, corpus_meta: Iterable[Article] | Iterable[ArticleMeta], config: QualityConfig
) -> tuple[dict, list[str]]:
    warnings: list[str] = []
    # each distinct label is judged once; every triple's labels are among the KB's entities and predicates
    phrases = {label for label in (*kb.entities, *kb.predicates) if len(label.split()) > config.conciseness_max_tokens}
    total_instances = violating_fields = 0
    for (subject, predicate, obj), provenance_list in kb.triples.items():
        multiplicity = len(provenance_list) or 1  # hand-built KBs may carry no provenance; count those triples once
        total_instances += multiplicity
        violating_fields += multiplicity * ((subject in phrases) + (predicate in phrases) + (obj in phrases))
    conciseness_violation_ratio = _ratio(violating_fields, 3 * total_instances)
    duplicate_ratio = _ratio(total_instances - len(kb.triples), total_instances)

    entity_count = len(kb.entities)
    isolated_entity_ratio, largest_component_fraction = _connectivity(kb)
    mean_degree = _ratio(2 * len(kb.triples), entity_count)

    linked_entity_ratio = _ratio(
        sum(1 for entity in kb.entities if entity in kb.entity_links), entity_count
    )

    functional = set(config.functional_predicates)
    objects_by_pair: dict[tuple[str, str], set[str]] = defaultdict(set)
    for subject, predicate, obj in kb.triples:
        if predicate in functional:
            objects_by_pair[(subject, predicate)].add(obj)
    contradiction_count = sum(1 for objects in objects_by_pair.values() if len(objects) > 1)

    articles_by_id = {article.id: article for article in corpus_meta}
    referenced_ids = {p.article_id for provenance_list in kb.triples.values() for p in provenance_list}
    missing = sorted(article_id for article_id in referenced_ids if article_id not in articles_by_id)
    for article_id in missing:
        warnings.append(f"provenance references article {article_id!r} missing from corpus metadata")
    known = [articles_by_id[article_id] for article_id in sorted(referenced_ids) if article_id in articles_by_id]
    distinct_source_domains = len({article.source_domain for article in known})
    if known:
        dates = [article.published_at for article in known]
        date_range = {"from": min(dates).isoformat(), "to": max(dates).isoformat()}
    else:
        date_range = None

    lexicon = re.compile("|".join(map(re.escape, config.domain_lexicon)))
    labels = list(kb.entities) + list(kb.predicates)
    relevant = sum(1 for label in labels if lexicon.search(label.casefold()))
    domain_relevance_ratio = _ratio(relevant, len(labels))

    metrics = {
        "conciseness_violation_ratio": conciseness_violation_ratio,
        "duplicate_ratio": duplicate_ratio,
        "isolated_entity_ratio": isolated_entity_ratio,
        "mean_degree": mean_degree,
        "largest_component_fraction": largest_component_fraction,
        "linked_entity_ratio": linked_entity_ratio,
        "predicate_diversity": len(kb.predicates),
        "contradiction_count": contradiction_count,
        "distinct_source_domains": distinct_source_domains,
        "date_range": date_range,
        "domain_relevance_ratio": domain_relevance_ratio,
        "structured_format": True,
    }
    return metrics, warnings


def evaluate(
    kb: KnowledgeBase, corpus_meta: Iterable[Article] | Iterable[ArticleMeta], config: QualityConfig | None = None
) -> QualityReport:
    """Produce the full 18-principle report for one KB."""
    config = config if config is not None else QualityConfig()
    metrics, warnings = _compute_metrics(kb, corpus_meta, config)

    def computed(number: int, title: str, metric: str, note: str) -> PrincipleEntry:
        return PrincipleEntry(number, title, "computed", metric, metrics[metric], note)

    def manual(number: int, title: str, note: str) -> PrincipleEntry:
        return PrincipleEntry(number, title, "manual", None, None, note)

    def metadata(number: int, title: str, value: object, note: str) -> PrincipleEntry:
        return PrincipleEntry(number, title, "metadata", None, value, note)

    principles = [
        computed(
            1,
            "concise triple fields",
            "conciseness_violation_ratio",
            "fraction of subject/predicate/object fields, weighted by pre-dedup"
            " multiplicity, longer than the token threshold",
        ),
        manual(2, "entity context coverage", "whether surrounding context survived extraction needs human review"),
        computed(
            3,
            "no redundant triples",
            "duplicate_ratio",
            "share of pre-dedup triple occurrences that were exact duplicates,"
            " from provenance multiplicities",
        ),
        metadata(
            4,
            "supports dynamic updates",
            "merge-based",
            "the store supports incremental merge of new article batches",
        ),
        computed(
            5,
            "dense entity connectivity",
            "mean_degree",
            "undirected mean degree; see also largest_component_fraction and"
            " isolated_entity_ratio in the metrics block",
        ),
        computed(
            6,
            "relation variety across entity types",
            "predicate_diversity",
            "count of distinct predicates in the store",
        ),
        computed(
            7,
            "multi-field data sources",
            "distinct_source_domains",
            "distinct source domains among articles referenced by provenance",
        ),
        computed(
            8,
            "varied data types and resources",
            "distinct_source_domains",
            "same measurement as principle 7; variety of resource types needs"
            " more than one source domain",
        ),
        computed(
            9,
            "synonym and ambiguity resolution",
            "linked_entity_ratio",
            "fraction of entities resolved to a canonical IRI",
        ),
        computed(
            10,
            "structured machine-readable triples",
            "structured_format",
            "satisfied by construction: the store only holds structured triples",
        ),
        metadata(
            11,
            "scalability with graph size",
            {"entities": len(kb.entities), "triples": len(kb.triples)},
            "current size reported; scaling behavior is an operational concern",
        ),
        manual(12, "entity attribute coverage", "whether attributes were missed needs a human pass over sources"),
        manual(13, "public availability", "a licensing and publication decision, not a KB computation"),
        manual(14, "authoritative source", "authority of the underlying publishers needs human judgment"),
        manual(15, "concentrated scope", "topical concentration needs human review; see principle 17 for a proxy"),
        computed(
            16,
            "no contradictory triples",
            "contradiction_count",
            "subjects holding two or more distinct objects under a functional predicate",
        ),
        computed(
            17,
            "domain relevance",
            "domain_relevance_ratio",
            "fraction of entity and predicate labels containing a lexicon term",
        ),
        computed(
            18,
            "freshness of sources",
            "date_range",
            "publication window of the articles referenced by provenance",
        ),
    ]
    return QualityReport(
        version=FORMULA_VERSION,
        config=config.to_dict(),
        metrics=metrics,
        principles=principles,
        warnings=warnings,
    )


def render_report(report: QualityReport) -> str:
    """Plain-text rendering: metrics block, then one line per principle."""
    lines = [f"quality report (formula version {report.version})", "", "metrics:"]
    for name in sorted(report.metrics):
        lines.append(f"  {name}: {json.dumps(report.metrics[name])}")
    lines += ["", "principles:"]
    for entry in report.principles:
        value = "" if entry.value is None else f" = {json.dumps(entry.value)}"
        metric = f" [{entry.metric}]" if entry.metric else ""
        lines.append(f"  {entry.number:2d}. {entry.title} ({entry.status}){metric}{value}")
        lines.append(f"      {entry.note}")
    if report.warnings:
        lines += ["", "warnings:"]
        lines.extend(f"  {warning}" for warning in report.warnings)
    return "\n".join(lines) + "\n"


def save_report(report: QualityReport, path: str | Path) -> None:
    write_json(path, asdict(report))

