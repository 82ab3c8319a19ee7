"""Graph exports: DOT, GraphML, and a plain JSON node/edge form.

Entities become nodes, triples become edges labeled by predicate. Node kind
distinguishes concepts (objects of "instanceOf" triples) from instances
(their subjects) from plain entities, mirroring how ontology drawings shade
classes and individuals differently. Output ordering is fully deterministic.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from xml.sax.saxutils import escape, quoteattr

from .errors import TextkgError
from .kgstore import KnowledgeBase, _block, _scalar

FORMATS = ("dot", "graphml", "json")
INSTANCE_OF = "instanceOf"


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


def _node_kinds(kb: KnowledgeBase) -> dict[str, str]:
    kinds = {entity: "plain" for entity in kb.entities}
    for subject, predicate, _ in kb.triples:
        if predicate == INSTANCE_OF and kinds.get(subject) == "plain":
            kinds[subject] = "instance"
    # concept wins when an entity is both typed and used as a type
    for _, predicate, obj in kb.triples:
        if predicate == INSTANCE_OF and obj in kinds:
            kinds[obj] = "concept"
    return kinds


def _select_nodes(kb: KnowledgeBase, options: ExportOptions) -> set[str]:
    if options.seed_entity is not None:
        if options.seed_entity not in kb.entities:
            raise UnknownSeedEntityError(f"seed entity {options.seed_entity!r} is not in the KB")
        neighbors: dict[str, set[str]] = {}
        for subject, _, obj in kb.triples:
            neighbors.setdefault(subject, set()).add(obj)
            neighbors.setdefault(obj, set()).add(subject)
        selected = {options.seed_entity}
        frontier = deque([(options.seed_entity, 0)])
        while frontier:
            current, depth = frontier.popleft()
            if depth == options.radius:
                continue
            for neighbor in neighbors.get(current, ()):
                if neighbor not in selected:
                    selected.add(neighbor)
                    frontier.append((neighbor, depth + 1))
        return selected
    if options.max_nodes is None or len(kb.entities) <= options.max_nodes:
        return set(kb.entities)
    degree = Counter()
    for subject, _, obj in kb.triples:
        degree[subject] += 1
        degree[obj] += 1
    ranked = sorted(kb.entities, key=lambda entity: (-degree[entity], entity))
    return set(ranked[: options.max_nodes])


def _selected_edges(kb: KnowledgeBase, nodes: set[str]) -> list[tuple[str, str, str]]:
    return sorted(
        (subject, predicate, obj)
        for subject, predicate, obj in kb.triples
        if subject in nodes and obj in nodes
    )


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
        lines.append(f'      <data key="d0">{escape(label)}</data>')
        lines.append(f'      <data key="d1">{escape(kind)}</data>')
        lines.append("    </node>")
    for index, (subject, predicate, obj) in enumerate(edges):
        lines.append(
            f'    <edge id="e{index}" source={quoteattr(node_ids[subject])} '
            f"target={quoteattr(node_ids[obj])}>"
        )
        lines.append(f'      <data key="d2">{escape(predicate)}</data>')
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
    kinds = _node_kinds(kb)
    selected = _select_nodes(kb, options)
    nodes = [(label, kinds[label]) for label in sorted(selected)]
    edges = _selected_edges(kb, selected)
    if format == "dot":
        return _render_dot(nodes, edges)
    if format == "graphml":
        return _render_graphml(nodes, edges)
    return _render_json(nodes, edges)
