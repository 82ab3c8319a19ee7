"""Deduplicated triple store with provenance, stats, and merging.

A knowledge base is three sets: entity labels (zero-degree entities are
allowed), predicate labels, and (subject, predicate, object) triples. Exact
duplicates are stored once; their provenance records accumulate, so the
original multiplicity stays recoverable for quality scoring. Each triple's
provenance is an insertion-ordered dict used as a set, so adding a record
costs the same however many the triple already has. add_triple (one fact)
and update (a whole KB) are the only writers of a KB's triples.
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from json.encoder import encode_basestring
from pathlib import Path
from typing import TextIO

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
        subject, predicate, obj, source = triplet
        provenance = self.triples.setdefault((subject, predicate, obj), {})
        if source is not None:
            provenance[source] = None
        self.entities.add(subject)
        self.entities.add(obj)
        self.predicates.add(predicate)

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
        for row in data.get("triples", []):
            for triplet in row_triplets(row):
                kb.add_triple(triplet)
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


def row_triplets(row: dict) -> list[Triplet]:
    """Inverse of triple_row: one triplet per provenance entry, or one
    without provenance when the row has none. A blank field is a ValueError."""
    key = (row["subject"], row["predicate"], row["object"])
    return [
        Triplet(*key, Provenance(p["article_id"], p.get("batch_index"), p["backend_id"]))
        for p in row.get("provenance") or ()
    ] or [Triplet(*key)]


@dataclass(frozen=True)
class KBStats:
    entity_count: int
    predicate_count: int
    triple_count: int
    isolated_entity_count: int


def add_triples(kb: KnowledgeBase, triplets: list[Triplet]) -> KnowledgeBase:
    """Fold the triplets into kb in place and return it."""
    for triplet in triplets:
        kb.add_triple(triplet)
    return kb


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


def neighbours(kb: KnowledgeBase) -> dict[str, set[str]]:
    """The undirected view of the KB: every entity that occurs in a triple,
    mapped to the entities it shares a triple with (itself, for a self-loop).
    An isolated entity has no entry."""
    adjacency: dict[str, set[str]] = {}
    for subject, _, obj in kb.triples:
        adjacency.setdefault(subject, set()).add(obj)
        adjacency.setdefault(obj, set()).add(subject)
    return adjacency


def reach(adjacency: dict[str, set[str]], start: str, radius: int | None = None) -> set[str]:
    """The entities at most radius hops from start, start included, walked
    breadth-first one hop at a time; the whole component when radius is None."""
    reached = {start}
    frontier = [start]
    hops = 0
    while frontier and hops != radius:
        hops += 1
        next_frontier = []
        for entity in frontier:
            for neighbour in adjacency.get(entity, ()):
                if neighbour not in reached:
                    reached.add(neighbour)
                    next_frontier.append(neighbour)
        frontier = next_frontier
    return reached


def top_relations(kb: KnowledgeBase, k: int) -> list[tuple[str, int]]:
    """Top-k predicates by triple frequency, ties broken lexicographically."""
    if k < 1:
        raise ValueError("k must be at least 1")
    counts = Counter(predicate for (_, predicate, _) in kb.triples)
    return sorted(counts.items(), key=lambda item: (-item[1], item[0]))[:k]


def merge(kb1: KnowledgeBase, kb2: KnowledgeBase) -> KnowledgeBase:
    """Set-union two KBs into a new one (inputs untouched): an empty KB
    updated with kb1 and then kb2."""
    result = KnowledgeBase()
    result.update(kb1)
    result.update(kb2)
    return result


def _scalar(value: object) -> str:
    if isinstance(value, str):
        return encode_basestring(value)
    if type(value) is float and math.isfinite(value):
        return float.__repr__(value)
    return "null" if value is None else int.__repr__(value) if type(value) is int else json.dumps(value)


def _block(opening: str, closing: str, items: list[str], indent: str | None) -> str:
    """Encoded items as one JSON array or object, laid out as json.dumps
    lays it out with indent=2 when the block opens at this indent, or with
    its default ", " separators when indent is None."""
    if not items:
        return opening + closing
    if indent is None:
        return opening + ", ".join(items) + closing
    inner = "\n" + indent + "  "
    return opening + inner + ("," + inner).join(items) + "\n" + indent + closing


def row_encoder(indent: str | None = None) -> Callable[[Key, Iterable[Provenance]], str]:
    """An encoder of (key, provenance) into the text of
    json.dumps(triple_row(key, provenance), ensure_ascii=False, sort_keys=True),
    or into its indent=2 layout for a row that opens at ``indent``.

    Each row and each provenance entry fills one template. The encoder keeps
    the text of every distinct entry, so an entry shared by rows is encoded once.
    """
    inner = None if indent is None else indent + "  "
    # % templates of a row and of a provenance entry, filled with encoded values
    row = _block("{", "}", ['"object": %s', '"predicate": %s', '"provenance": %s', '"subject": %s'], indent)
    entry = _block("{", "}", ['"article_id": %s', '"backend_id": %s', '"batch_index": %s'], inner and inner + "  ")
    # the text that opens, separates and closes a non-empty provenance list
    opening, separator, closing = _block("[", "]", ["%s", "%s"], inner).split("%s")
    encoded: dict[Provenance, str] = {}

    def encode(key: Key, provenance: Iterable[Provenance]) -> str:
        entries = []
        for p in provenance:
            text = encoded.get(p)
            if text is None:
                text = encoded[p] = entry % (_scalar(p.article_id), _scalar(p.backend_id), _scalar(p.batch_index))
            entries.append(text)
        subject, predicate, obj = key
        entries_text = opening + separator.join(entries) + closing if entries else "[]"
        return row % (encode_basestring(obj), encode_basestring(predicate), entries_text, encode_basestring(subject))

    return encode


@contextmanager
def replacing(path: Path) -> Iterator[TextIO]:
    """A text handle on a temp file beside ``path`` that is renamed over
    ``path`` when the block completes, so ``path`` is either complete or left
    as it was; on failure the temp file is removed."""
    temp = path.with_name(path.name + ".tmp")
    try:
        with temp.open("w", encoding="utf-8") as handle:
            yield handle
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, payload: object) -> None:
    """Write payload as indented, key-sorted JSON plus a newline, in one
    write through ``replacing``."""
    with replacing(Path(path)) as handle:
        handle.write(json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True) + "\n")


def save_kb(kb: KnowledgeBase, path: str | Path) -> None:
    """Write the KB as canonically ordered JSON so files are diffable.

    The bytes are those of json.dumps(kb.to_dict(), ensure_ascii=False,
    indent=2, sort_keys=True) plus a newline, but the triples are encoded
    and written one row at a time, so the document is never held whole.
    Keys are written in sorted order by construction. The file is written
    through ``replacing``, so a failed save leaves ``path`` as it was.
    """
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
    with replacing(Path(path)) as handle:
        handle.write(head)
        if not kb.triples:
            handle.write("[]\n}\n")
            return
        encode = row_encoder("    ")
        separator = "[\n    "
        for key in sorted(kb.triples):  # keys alone: a str-first tuple compares fast, and no pairs are made
            handle.write(separator)
            handle.write(encode(key, kb.triples[key]))
            separator = ",\n    "
        handle.write("\n  ]\n}\n")


def load_kb(path: str | Path) -> KnowledgeBase:
    """Read a KB written by save_kb; a malformed file is a TextkgError."""
    raw = Path(path).read_bytes()
    try:
        return KnowledgeBase.from_dict(json.loads(raw.decode("utf-8")))
    except UnicodeDecodeError as exc:  # its repr holds the whole file
        raise TextkgError(f"{path} is not a KB file: {exc}") from exc
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
