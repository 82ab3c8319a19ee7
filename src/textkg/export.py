"""Graph exports: DOT, GraphML, and a plain JSON node/edge form.

Entities become nodes, triples become edges labeled by predicate. Node kind
distinguishes concepts (objects of "instanceOf" triples) from instances
(their subjects) from plain entities, mirroring how ontology drawings shade
classes and individuals differently. Output ordering is fully deterministic.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass

from .errors import TextkgError
from .kgstore import Key, KnowledgeBase, _block, _scalar, neighbours, reach

FORMATS = ("dot", "graphml", "json")
INSTANCE_OF = "instanceOf"
# the characters XML 1.0 cannot carry, not even as a character reference
_NOT_XML = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\ufffe\uffff]")


class UnknownSeedEntityError(TextkgError):
    pass


class UnsupportedFormatError(TextkgError):
    pass


@dataclass(frozen=True)
class ExportOptions:
    """Subgraph selection: breadth-first from seed_entity out to radius when a
    seed is given, otherwise the max_nodes highest-degree entities."""

    max_nodes: int | None = 150
    seed_entity: str | None = None
    radius: int = 2

    def __post_init__(self):
        if self.max_nodes is not None and self.max_nodes < 1:
            raise ValueError("max_nodes must be positive")
        if self.radius < 0:
            raise ValueError("radius must be nonnegative")


def _subgraph(kb: KnowledgeBase, options: ExportOptions) -> tuple[list[tuple[str, str]], list[Key]]:
    """The selected entities in label order, each with its kind, and the
    triples with both ends selected, sorted."""
    if options.seed_entity is not None:
        if options.seed_entity not in kb.entities:
            raise UnknownSeedEntityError(f"seed entity {options.seed_entity!r} is not in the KB")
        kept = reach(neighbours(kb), options.seed_entity, options.radius)
    elif options.max_nodes is None or len(kb.entities) <= options.max_nodes:
        kept = kb.entities
    else:  # the most triple endpoints (a self-loop counts twice), ties broken by label
        degree = Counter(subject for subject, _, _ in kb.triples)
        degree.update(obj for _, _, obj in kb.triples)
        # by label, then stably by degree: no key tuple per entity
        kept = set(sorted(sorted(kb.entities), key=degree.__getitem__, reverse=True)[: options.max_nodes])
    typings = [(subject, obj) for subject, predicate, obj in kb.triples if predicate == INSTANCE_OF]
    concepts = {obj for _, obj in typings}
    instances = {subject for subject, _ in typings}
    # concept wins when an entity is both typed and used as a type
    nodes = [
        (label, "concept" if label in concepts else "instance" if label in instances else "plain")
        for label in sorted(kept)
    ]
    edges = sorted(triple for triple in kb.triples if triple[0] in kept and triple[2] in kept)
    return nodes, edges


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n") + '"'


def _render_dot(nodes: list[tuple[str, str]], edges: list[tuple[str, str, str]]) -> str:
    lines = ["digraph knowledge_graph {"]
    for label, kind in nodes:
        lines.append(f"  {_dot_quote(label)} [kind={_dot_quote(kind)}];")
    for subject, predicate, obj in edges:
        lines.append(f"  {_dot_quote(subject)} -> {_dot_quote(obj)} [label={_dot_quote(predicate)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _escape(text: str) -> str:
    """text as GraphML character data; U+FFFD stands for each character XML 1.0 forbids."""
    return _NOT_XML.sub("\ufffd", text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;"))


def _render_graphml(nodes: list[tuple[str, str]], edges: list[tuple[str, str, str]]) -> str:
    node_ids = {label: f"n{index}" for index, (label, _) in enumerate(nodes)}
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
        '  <key id="d0" for="node" attr.name="label" attr.type="string"/>',
        '  <key id="d1" for="node" attr.name="kind" attr.type="string"/>',
        '  <key id="d2" for="edge" attr.name="predicate" attr.type="string"/>',
        '  <graph id="G" edgedefault="directed">',
    ]
    for label, kind in nodes:
        lines.append(f'    <node id="{node_ids[label]}">')
        lines.append(f'      <data key="d0">{_escape(label)}</data>')
        lines.append(f'      <data key="d1">{kind}</data>')
        lines.append("    </node>")
    for index, (subject, predicate, obj) in enumerate(edges):
        lines.append(f'    <edge id="e{index}" source="{node_ids[subject]}" target="{node_ids[obj]}">')
        lines.append(f'      <data key="d2">{_escape(predicate)}</data>')
        lines.append("    </edge>")
    lines += ["  </graph>", "</graphml>"]
    return "\n".join(lines) + "\n"


def _render_json(nodes: list[tuple[str, str]], edges: list[tuple[str, str, str]]) -> str:
    """The bytes of json.dumps({"nodes": [{"id", "kind"}], "edges": [{"source",
    "predicate", "target"}]}, ensure_ascii=False, indent=2, sort_keys=True)
    plus a newline, encoded one node or edge at a time."""
    node_items = [
        _block("{", "}", [f'"id": {_scalar(label)}', f'"kind": {_scalar(kind)}'], "    ")
        for label, kind in nodes
    ]
    edge_items = [
        _block("{", "}", [f'"predicate": {_scalar(p)}', f'"source": {_scalar(s)}', f'"target": {_scalar(o)}'], "    ")
        for s, p, o in edges
    ]
    fields = [
        f'"edges": {_block("[", "]", edge_items, "  ")}',
        f'"nodes": {_block("[", "]", node_items, "  ")}',
    ]
    return _block("{", "}", fields, "") + "\n"


def export_graph(kb: KnowledgeBase, format: str, options: ExportOptions | None = None) -> str:
    """Render the KB (or a selected subgraph) in the requested format.

    Every selected entity becomes one node; every triple with both endpoints
    selected becomes one edge, so parallel predicates between the same pair
    stay distinct edges.
    """
    if format not in FORMATS:
        raise UnsupportedFormatError(f"unsupported format {format!r}; choose one of {', '.join(FORMATS)}")
    options = options if options is not None else ExportOptions()
    nodes, edges = _subgraph(kb, options)
    if format == "dot":
        return _render_dot(nodes, edges)
    if format == "graphml":
        return _render_graphml(nodes, edges)
    return _render_json(nodes, edges)
