"""The one undirected view of a KB (kgstore.neighbours and kgstore.reach)
against the separate walks that quality and export used to keep, which stay
here as the oracle."""

from __future__ import annotations

from collections import Counter, defaultdict, deque

from hypothesis import given, settings
from hypothesis import strategies as st

from textkg.export import ExportOptions, _subgraph
from textkg.extraction import Triplet
from textkg.kgstore import KnowledgeBase, neighbours, reach, stats
from textkg.quality import _ratio, evaluate


def oracle_seed_walk(kb: KnowledgeBase, seed: str, radius: int) -> set[str]:
    """The export seed selection: a deque BFS out to radius hops."""
    neighbors: dict[str, set[str]] = {}
    for subject, _, obj in kb.triples:
        neighbors.setdefault(subject, set()).add(obj)
        neighbors.setdefault(obj, set()).add(subject)
    selected = {seed}
    frontier = deque([(seed, 0)])
    while frontier:
        current, depth = frontier.popleft()
        if depth == radius:
            continue
        for neighbor in neighbors.get(current, ()):
            if neighbor not in selected:
                selected.add(neighbor)
                frontier.append((neighbor, depth + 1))
    return selected


def oracle_component_sizes(kb: KnowledgeBase) -> list[int]:
    """The quality component sizes: isolated entities are singletons."""
    neighbors: dict[str, set[str]] = defaultdict(set)
    for subject, _, obj in kb.triples:
        if subject != obj:
            neighbors[subject].add(obj)
            neighbors[obj].add(subject)
    sizes = []
    seen: set[str] = set()
    for entity in kb.entities:
        if entity in seen:
            continue
        size = 0
        queue = deque([entity])
        seen.add(entity)
        while queue:
            current = queue.popleft()
            size += 1
            for neighbor in neighbors[current]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    queue.append(neighbor)
        sizes.append(size)
    return sizes


def oracle_top_degree(kb: KnowledgeBase, max_nodes: int) -> set[str]:
    """The export degree ranking: a full sort on (-endpoints, label)."""
    degree = Counter()
    for subject, _, obj in kb.triples:
        degree[subject] += 1
        degree[obj] += 1
    return set(sorted(kb.entities, key=lambda entity: (-degree[entity], entity))[:max_nodes])


def oracle_node_kinds(kb: KnowledgeBase) -> dict[str, str]:
    """The export node kinds in two passes: instances, then concepts."""
    kinds = {entity: "plain" for entity in kb.entities}
    for subject, predicate, _ in kb.triples:
        if predicate == "instanceOf" and kinds.get(subject) == "plain":
            kinds[subject] = "instance"
    for _, predicate, obj in kb.triples:
        if predicate == "instanceOf" and obj in kinds:
            kinds[obj] = "concept"
    return kinds


# few labels, so self-loops, parallel predicates and shared endpoints are common
names = st.sampled_from("abcdefgh")
triples = st.lists(st.tuples(names, st.sampled_from(["r", "s", "instanceOf"]), names), max_size=12)


@st.composite
def kbs(draw) -> KnowledgeBase:
    kb = KnowledgeBase()
    for subject, predicate, obj in draw(triples):
        kb.add_triple(Triplet(subject, predicate, obj))
    for label in draw(st.lists(names, max_size=4)):
        kb.add_entity(label)
    return kb


@given(kb=kbs(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_reach_matches_seed_walk(kb, data):
    # draws seeds off the KB too: reach must return {start} for them
    seed = data.draw(names, label="seed")
    radius = data.draw(st.none() | st.integers(0, 3), label="radius")
    adjacency = neighbours(kb)
    expected = oracle_seed_walk(kb, seed, len(kb.entities) if radius is None else radius)
    assert reach(adjacency, seed, radius) == expected
    if seed in kb.entities and radius is not None:
        nodes, _ = _subgraph(kb, ExportOptions(seed_entity=seed, radius=radius))
        assert {label for label, _ in nodes} == expected


@given(kb=kbs())
@settings(max_examples=300, deadline=None)
def test_neighbours_is_the_undirected_view(kb):
    adjacency = neighbours(kb)
    assert set(adjacency) == {label for subject, _, obj in kb.triples for label in (subject, obj)}
    for subject, _, obj in kb.triples:
        assert obj in adjacency[subject] and subject in adjacency[obj]
    assert len(kb.entities) - len(adjacency) == stats(kb).isolated_entity_count


@given(kb=kbs())
@settings(max_examples=300, deadline=None)
def test_connectivity_metrics_match_oracle(kb):
    metrics = evaluate(kb, []).metrics
    sizes = oracle_component_sizes(kb)
    entity_count = len(kb.entities)
    assert metrics["isolated_entity_ratio"] == _ratio(stats(kb).isolated_entity_count, entity_count)
    assert metrics["largest_component_fraction"] == _ratio(max(sizes) if sizes else 0, entity_count)


@given(kb=kbs())
@settings(max_examples=300, deadline=None)
def test_node_kinds_match_two_pass_oracle(kb):
    nodes, _ = _subgraph(kb, ExportOptions(max_nodes=None))
    assert dict(nodes) == oracle_node_kinds(kb)


@given(kb=kbs(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_subgraph_keeps_top_degree_nodes_with_their_kinds(kb, data):
    max_nodes = data.draw(st.integers(1, len(kb.entities) + 1), label="max_nodes")
    nodes, edges = _subgraph(kb, ExportOptions(max_nodes=max_nodes))
    kept = oracle_top_degree(kb, max_nodes)
    kinds = oracle_node_kinds(kb)
    assert nodes == [(label, kinds[label]) for label in sorted(kept)]
    assert edges == sorted(triple for triple in kb.triples if triple[0] in kept and triple[2] in kept)
