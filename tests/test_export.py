from __future__ import annotations

import json
import re
import xml.etree.ElementTree as ET

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from textkg.export import (
    ExportOptions,
    UnknownSeedEntityError,
    UnsupportedFormatError,
    _render_json,
    export_graph,
)
from textkg.extraction import Triplet
from textkg.kgstore import KnowledgeBase, add_triples
from textkg.rdf import ontology_to_kb, parse_turtle

_DOT_NODE = re.compile(r'^\s+"((?:[^"\\]|\\.)*)" \[kind="((?:[^"\\]|\\.)*)"\];$')
_DOT_EDGE = re.compile(
    r'^\s+"((?:[^"\\]|\\.)*)" -> "((?:[^"\\]|\\.)*)" \[label="((?:[^"\\]|\\.)*)"\];$'
)


def _unescape_dot(text: str) -> str:
    return re.sub(r"\\(.)", lambda m: "\n" if m.group(1) == "n" else m.group(1), text)


def read_dot(text: str) -> tuple[dict[str, str], list[tuple[str, str, str]]]:
    """Minimal reader for the exporter's own DOT dialect."""
    lines = text.splitlines()
    assert lines[0] == "digraph knowledge_graph {"
    assert lines[-1] == "}"
    nodes: dict[str, str] = {}
    edges: list[tuple[str, str, str]] = []
    for line in lines[1:-1]:
        node = _DOT_NODE.match(line)
        if node:
            nodes[_unescape_dot(node.group(1))] = _unescape_dot(node.group(2))
            continue
        edge = _DOT_EDGE.match(line)
        assert edge, f"unparseable line: {line!r}"
        edges.append(tuple(_unescape_dot(edge.group(i)) for i in (1, 3, 2)))
    return nodes, edges


def read_graphml(text: str) -> tuple[dict[str, str], list[tuple[str, str, str]]]:
    ns = {"g": "http://graphml.graphdrawing.org/xmlns"}
    root = ET.fromstring(text)
    graph = root.find("g:graph", ns)
    labels: dict[str, str] = {}
    kinds: dict[str, str] = {}
    for node in graph.findall("g:node", ns):
        data = {d.get("key"): d.text or "" for d in node.findall("g:data", ns)}
        labels[node.get("id")] = data["d0"]
        kinds[data["d0"]] = data["d1"]
    edges = []
    for edge in graph.findall("g:edge", ns):
        data = {d.get("key"): d.text or "" for d in edge.findall("g:data", ns)}
        edges.append((labels[edge.get("source")], data["d2"], labels[edge.get("target")]))
    return kinds, edges


def sample_kb() -> KnowledgeBase:
    kb = add_triples(
        KnowledgeBase(),
        [
            Triplet("Soluna", "instanceOf", "Organizations"),
            Triplet("Soluna", "utilizes", "Excess Energy"),
            Triplet("Excess Energy", "instanceOf", "Practices"),
        ],
    )
    kb.add_entity("Bystander")
    return kb


EXPECTED_KINDS = {
    "Soluna": "instance",
    "Excess Energy": "instance",
    "Organizations": "concept",
    "Practices": "concept",
    "Bystander": "plain",
}
EXPECTED_EDGES = [
    ("Excess Energy", "instanceOf", "Practices"),
    ("Soluna", "instanceOf", "Organizations"),
    ("Soluna", "utilizes", "Excess Energy"),
]


class TestDot:
    def test_nodes_edges_and_kinds(self):
        nodes, edges = read_dot(export_graph(sample_kb(), "dot"))
        assert nodes == EXPECTED_KINDS
        assert sorted(edges) == EXPECTED_EDGES

    def test_quoting(self):
        kb = add_triples(KnowledgeBase(), [Triplet('He said "hi"', 'rel\\new', "B\nC")])
        nodes, edges = read_dot(export_graph(kb, "dot"))
        assert 'He said "hi"' in nodes
        assert edges == [('He said "hi"', "rel\\new", "B\nC")]

    def test_deterministic(self):
        assert export_graph(sample_kb(), "dot") == export_graph(sample_kb(), "dot")


class TestGraphml:
    def test_nodes_edges_and_kinds(self):
        kinds, edges = read_graphml(export_graph(sample_kb(), "graphml"))
        assert kinds == EXPECTED_KINDS
        assert sorted(edges) == EXPECTED_EDGES

    def test_xml_escaping(self):
        kb = add_triples(KnowledgeBase(), [Triplet("A & B", "<rel>", 'quote"')])
        kinds, edges = read_graphml(export_graph(kb, "graphml"))
        assert "A & B" in kinds
        assert edges == [("A & B", "<rel>", 'quote"')]

    def test_well_formed_xml(self):
        ET.fromstring(export_graph(sample_kb(), "graphml"))

    def test_control_character_becomes_replacement_character(self):
        # the Turtle reader keeps \x01, which XML 1.0 cannot carry even as a reference
        doc = parse_turtle('@prefix ex: <http://e/> .\nex:A a owl:Class ; rdfs:label "Acme\x01Corp" .\nex:b a ex:A .\n')
        kinds, _ = read_graphml(export_graph(ontology_to_kb(doc, source_id="x"), "graphml"))
        assert kinds["Acme\ufffdCorp"] == "concept"


# any text a triplet accepts, control characters included
field_text = st.text().filter(str.strip)


@given(triples=st.lists(st.tuples(field_text, field_text, field_text), max_size=4))
@example(triples=[("Acme\x01Corp", "a\x00b", "\ufffe\uffff\x0b\x0c")])
@settings(max_examples=200, deadline=None)
def test_graphml_is_well_formed_for_any_label(triples):
    kb = add_triples(KnowledgeBase(), [Triplet(*triple) for triple in triples])
    graph = ET.fromstring(export_graph(kb, "graphml", ExportOptions(max_nodes=None)))[-1]
    assert len(graph) == len(kb.entities) + len(kb.triples)


class TestJson:
    def test_structure(self):
        data = json.loads(export_graph(sample_kb(), "json"))
        assert {node["id"]: node["kind"] for node in data["nodes"]} == EXPECTED_KINDS
        assert [
            (edge["source"], edge["predicate"], edge["target"]) for edge in data["edges"]
        ] == EXPECTED_EDGES

    def test_parallel_edges_kept(self):
        kb = add_triples(
            KnowledgeBase(),
            [Triplet("A", "likes", "B"), Triplet("A", "loathes", "B")],
        )
        data = json.loads(export_graph(kb, "json"))
        assert len(data["edges"]) == 2


# quotes, backslashes, control characters, U+2028, non-ASCII and astral text
json_text = st.text(
    st.sampled_from(list('ab"\\/\x00\x1f\n\u2028é😀')) | st.characters(exclude_categories=("Cs",)),
    max_size=5,
)


@given(
    nodes=st.lists(st.tuples(json_text, st.sampled_from(["plain", "instance", "concept"])), max_size=4),
    edges=st.lists(st.tuples(json_text, json_text, json_text), max_size=4),
)
@example(nodes=[], edges=[])
@settings(max_examples=200, deadline=None)
def test_json_render_writes_the_reference_bytes(nodes, edges):
    document = {
        "nodes": [{"id": label, "kind": kind} for label, kind in nodes],
        "edges": [{"source": s, "predicate": p, "target": o} for s, p, o in edges],
    }
    reference = json.dumps(document, ensure_ascii=False, indent=2, sort_keys=True) + "\n"
    assert _render_json(nodes, edges) == reference


class TestNodeKinds:
    def test_concept_wins_over_instance(self):
        # Mid is both an instance (of Top) and a concept (type of Low)
        kb = add_triples(
            KnowledgeBase(),
            [Triplet("Mid", "instanceOf", "Top"), Triplet("Low", "instanceOf", "Mid")],
        )
        data = json.loads(export_graph(kb, "json"))
        kinds = {node["id"]: node["kind"] for node in data["nodes"]}
        assert kinds == {"Top": "concept", "Mid": "concept", "Low": "instance"}


class TestSelection:
    def chain_kb(self, length: int) -> KnowledgeBase:
        return add_triples(
            KnowledgeBase(),
            [Triplet(f"N{i}", "next", f"N{i + 1}") for i in range(length)],
        )

    def test_seed_bfs_radius(self):
        kb = self.chain_kb(6)
        data = json.loads(
            export_graph(kb, "json", ExportOptions(seed_entity="N3", radius=2))
        )
        ids = {node["id"] for node in data["nodes"]}
        assert ids == {"N1", "N2", "N3", "N4", "N5"}
        # only edges with both ends selected survive
        sources = {(e["source"], e["target"]) for e in data["edges"]}
        assert sources == {("N1", "N2"), ("N2", "N3"), ("N3", "N4"), ("N4", "N5")}

    def test_seed_radius_zero(self):
        kb = self.chain_kb(3)
        data = json.loads(export_graph(kb, "json", ExportOptions(seed_entity="N1", radius=0)))
        assert [node["id"] for node in data["nodes"]] == ["N1"]
        assert data["edges"] == []

    def test_unknown_seed(self):
        with pytest.raises(UnknownSeedEntityError):
            export_graph(self.chain_kb(2), "json", ExportOptions(seed_entity="Mars"))

    def test_degree_truncation(self):
        # hub has degree 5, spokes degree 1
        kb = add_triples(
            KnowledgeBase(),
            [Triplet("Hub", "links", f"S{i}") for i in range(5)],
        )
        data = json.loads(export_graph(kb, "json", ExportOptions(max_nodes=3)))
        ids = [node["id"] for node in data["nodes"]]
        assert ids == ["Hub", "S0", "S1"]  # hub first, then lexicographic ties

    def test_all_nodes_when_under_limit(self):
        kb = self.chain_kb(3)
        data = json.loads(export_graph(kb, "json", ExportOptions(max_nodes=150)))
        assert len(data["nodes"]) == 4

    def test_max_nodes_none_means_everything(self):
        kb = self.chain_kb(200)
        data = json.loads(export_graph(kb, "json", ExportOptions(max_nodes=None)))
        assert len(data["nodes"]) == 201

    def test_options_validation(self):
        with pytest.raises(ValueError):
            ExportOptions(max_nodes=0)
        with pytest.raises(ValueError):
            ExportOptions(radius=-1)


class TestFormatDispatch:
    def test_unsupported_format(self):
        with pytest.raises(UnsupportedFormatError):
            export_graph(KnowledgeBase(), "svg")
