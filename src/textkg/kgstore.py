"""Deduplicated triple store with provenance, stats, and merging.

A knowledge base is three sets: entity labels (zero-degree entities are
allowed), predicate labels, and (subject, predicate, object) triples. Exact
duplicates are stored once; their provenance records accumulate, so the
original multiplicity stays recoverable for quality scoring. Each triple's
provenance is an insertion-ordered dict used as a set, so adding a record
costs the same however many the triple already has.
"""

from __future__ import annotations

import json
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field
from json.encoder import encode_basestring
from pathlib import Path

from .errors import ConfigMismatchError, TextkgError
from .extraction import Provenance, Triplet

Key = tuple[str, str, str]
# provenance records in first-seen order; the values are unused
ProvenanceSet = dict[Provenance, None]


@dataclass
class KnowledgeBase:
    """In-memory KB. link_config identifies the linking setup that produced it;
    merging KBs built under different linking setups is refused.
    entity_links maps linked entity labels to their canonical IRIs."""

    entities: set[str] = field(default_factory=set)
    predicates: set[str] = field(default_factory=set)
    triples: dict[Key, ProvenanceSet] = field(default_factory=dict)
    link_config: str | None = None
    entity_links: dict[str, str] = field(default_factory=dict)

    def add_entity(self, label: str) -> None:
        if not label:
            raise ValueError("entity label must be non-empty")
        self.entities.add(label)

    def add_triple(self, triplet: Triplet) -> None:
        key = (triplet.subject, triplet.predicate, triplet.object)
        provenance = self.triples.setdefault(key, {})
        if triplet.provenance is not None:
            provenance[triplet.provenance] = None
        self.entities.add(triplet.subject)
        self.entities.add(triplet.object)
        self.predicates.add(triplet.predicate)

    def copy(self) -> KnowledgeBase:
        return KnowledgeBase(
            entities=set(self.entities),
            predicates=set(self.predicates),
            triples={key: dict(value) for key, value in self.triples.items()},
            link_config=self.link_config,
            entity_links=dict(self.entity_links),
        )

    def update(self, other: KnowledgeBase) -> None:
        """Set-union other into this KB in place, in time proportional to
        other. Shared triples union their provenance, keeping this KB's
        records first; the first IRI seen for an entity label wins; a KB
        without a link_config adopts other's."""
        if (
            self.link_config is not None
            and other.link_config is not None
            and self.link_config != other.link_config
        ):
            raise ConfigMismatchError(
                f"cannot merge KBs linked under different configurations: "
                f"{self.link_config!r} vs {other.link_config!r}"
            )
        if self.link_config is None:
            self.link_config = other.link_config
        self.entities.update(other.entities)
        self.predicates.update(other.predicates)
        for label, iri in other.entity_links.items():
            self.entity_links.setdefault(label, iri)
        for key, provenance in other.triples.items():
            mine = self.triples.get(key)
            if mine is None:
                self.triples[key] = dict(provenance)
            else:
                mine.update(provenance)

    def to_dict(self) -> dict:
        return {
            "link_config": self.link_config,
            "entities": sorted(self.entities),
            "predicates": sorted(self.predicates),
            "entity_links": dict(sorted(self.entity_links.items())),
            "triples": [triple_row(key, value) for key, value in sorted(self.triples.items())],
        }

    @classmethod
    def from_dict(cls, data: dict) -> KnowledgeBase:
        kb = cls(link_config=data.get("link_config"))
        for label in data.get("entities", []):
            kb.add_entity(label)
        kb.predicates.update(data.get("predicates", []))
        kb.entity_links.update(data.get("entity_links", {}))
        for item in data.get("triples", []):
            key = (item["subject"], item["predicate"], item["object"])
            kb.triples[key] = dict.fromkeys(
                provenance_from_row(p) for p in item.get("provenance", [])
            )
            kb.entities.add(key[0])
            kb.entities.add(key[2])
            kb.predicates.add(key[1])
        return kb


def triple_row(key: Key, provenance: Iterable[Provenance]) -> dict:
    """A triple and its provenance as one row of kb.json or triples.jsonl."""
    subject, predicate, obj = key
    return {
        "subject": subject,
        "predicate": predicate,
        "object": obj,
        "provenance": [
            {"article_id": p.article_id, "batch_index": p.batch_index, "backend_id": p.backend_id}
            for p in provenance
        ],
    }


def provenance_from_row(row: dict) -> Provenance:
    """Inverse of one provenance entry of triple_row."""
    return Provenance(row["article_id"], row.get("batch_index"), row["backend_id"])


@dataclass(frozen=True)
class KBStats:
    entity_count: int
    predicate_count: int
    triple_count: int
    isolated_entity_count: int


def add_triples(kb: KnowledgeBase, triplets: list[Triplet]) -> KnowledgeBase:
    """Return a new KB with the triplets folded in (input KB untouched)."""
    result = kb.copy()
    for triplet in triplets:
        result.add_triple(triplet)
    return result


def stats(kb: KnowledgeBase) -> KBStats:
    connected = set()
    for subject, _, obj in kb.triples:
        connected.add(subject)
        connected.add(obj)
    return KBStats(
        entity_count=len(kb.entities),
        predicate_count=len(kb.predicates),
        triple_count=len(kb.triples),
        isolated_entity_count=len(kb.entities - connected),
    )


def top_relations(kb: KnowledgeBase, k: int) -> list[tuple[str, int]]:
    """Top-k predicates by triple frequency, ties broken lexicographically."""
    if k < 1:
        raise ValueError("k must be at least 1")
    counts = Counter(predicate for (_, predicate, _) in kb.triples)
    return sorted(counts.items(), key=lambda item: (-item[1], item[0]))[:k]


def merge(kb1: KnowledgeBase, kb2: KnowledgeBase) -> KnowledgeBase:
    """Set-union two KBs into a new one (inputs untouched); see update."""
    result = kb1.copy()
    result.update(kb2)
    return result


def _scalar(value: object) -> str:
    return encode_basestring(value) if isinstance(value, str) else json.dumps(value)


def _block(opening: str, closing: str, items: list[str], indent: str) -> str:
    """Encoded items as one JSON array or object, laid out as json.dumps
    lays it out with indent=2 when the block opens at this indent."""
    if not items:
        return opening + closing
    inner = "\n" + indent + "  "
    return opening + inner + ("," + inner).join(items) + "\n" + indent + closing


def save_kb(kb: KnowledgeBase, path: str | Path) -> None:
    """Write the KB as canonically ordered JSON so files are diffable.

    The bytes are those of json.dumps(kb.to_dict(), ensure_ascii=False,
    indent=2, sort_keys=True) plus a newline, but the triples are encoded
    and written one row at a time, so the document is never held whole.
    Keys are written in sorted order by construction.
    """
    encoded: dict[Provenance, str] = {}

    def provenance_entry(p: Provenance) -> str:
        text = encoded.get(p)
        if text is None:
            fields = [
                f'"article_id": {_scalar(p.article_id)}',
                f'"backend_id": {_scalar(p.backend_id)}',
                f'"batch_index": {_scalar(p.batch_index)}',
            ]
            text = encoded[p] = _block("{", "}", fields, " " * 8)
        return text

    def triple_entry(key: Key, provenance: ProvenanceSet) -> str:
        subject, predicate, obj = key
        entries = [provenance_entry(p) for p in provenance]
        fields = [
            f'"object": {_scalar(obj)}',
            f'"predicate": {_scalar(predicate)}',
            f'"provenance": {_block("[", "]", entries, " " * 6)}',
            f'"subject": {_scalar(subject)}',
        ]
        return _block("{", "}", fields, " " * 4)

    links = [f"{_scalar(label)}: {_scalar(iri)}" for label, iri in sorted(kb.entity_links.items())]
    head = (
        '{\n  "entities": '
        + _block("[", "]", [_scalar(label) for label in sorted(kb.entities)], "  ")
        + ',\n  "entity_links": '
        + _block("{", "}", links, "  ")
        + ',\n  "link_config": '
        + _scalar(kb.link_config)
        + ',\n  "predicates": '
        + _block("[", "]", [_scalar(label) for label in sorted(kb.predicates)], "  ")
        + ',\n  "triples": '
    )
    with Path(path).open("w", encoding="utf-8") as handle:
        handle.write(head)
        if not kb.triples:
            handle.write("[]\n}\n")
            return
        separator = "[\n    "
        for key, provenance in sorted(kb.triples.items()):
            handle.write(separator)
            handle.write(triple_entry(key, provenance))
            separator = ",\n    "
        handle.write("\n  ]\n}\n")


def load_kb(path: str | Path) -> KnowledgeBase:
    """Read a KB written by save_kb; a malformed file is a TextkgError."""
    with Path(path).open(encoding="utf-8") as handle:
        try:
            return KnowledgeBase.from_dict(json.load(handle))
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise TextkgError(f"{path} is not a KB file: {exc!r}") from exc


def comparison_table(named_kbs: list[tuple[str, KnowledgeBase]]) -> str:
    """Render a side-by-side structure table: algorithm, entities, relations, triples."""
    rows = [("Algorithm", "Entities", "Relations", "Triples")]
    for name, kb in named_kbs:
        kb_stats = stats(kb)
        rows.append(
            (name, str(kb_stats.entity_count), str(kb_stats.predicate_count), str(kb_stats.triple_count))
        )
    widths = [max(len(row[i]) for row in rows) for i in range(4)]
    lines = []
    for index, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
        if index == 0:
            lines.append("  ".join("-" * widths[i] for i in range(4)))
    return "\n".join(lines) + "\n"
