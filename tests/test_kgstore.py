from __future__ import annotations

import copy
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from textkg import kgstore
from textkg.errors import ConfigMismatchError, TextkgError
from textkg.extraction import Provenance, Triplet
from textkg.kgstore import (
    KnowledgeBase,
    add_triples,
    comparison_table,
    load_kb,
    merge,
    row_encoder,
    save_kb,
    stats,
    top_relations,
    triple_row,
)

P1 = Provenance("a1", 0, "b1")
P2 = Provenance("a2", None, "b1")


def test_add_triple_deduplicates_and_unions_provenance():
    kb = KnowledgeBase()
    kb.add_triple(Triplet("A", "r", "B", P1))
    kb.add_triple(Triplet("A", "r", "B", P2))
    kb.add_triple(Triplet("A", "r", "B", P1))
    assert len(kb.triples) == 1
    assert list(kb.triples[("A", "r", "B")]) == [P1, P2]
    assert kb.entities == {"A", "B"}
    assert kb.predicates == {"r"}


def test_add_entity_validates():
    kb = KnowledgeBase()
    with pytest.raises(ValueError):
        kb.add_entity("")


def test_add_triples_folds_in_place():
    kb = KnowledgeBase()
    assert add_triples(kb, [Triplet("A", "r", "B", P1), Triplet("A", "r", "B", P2)]) is kb
    assert list(kb.triples[("A", "r", "B")]) == [P1, P2]


def test_stats_counts_isolated_entities():
    kb = add_triples(KnowledgeBase(), [Triplet("A", "r", "B", P1)])
    kb.add_entity("Lonely")
    result = stats(kb)
    assert result.entity_count == 3
    assert result.triple_count == 1
    assert result.isolated_entity_count == 1


def test_top_relations_order_and_ties():
    kb = add_triples(
        KnowledgeBase(),
        [
            Triplet("A", "r2", "B"),
            Triplet("C", "r2", "D"),
            Triplet("E", "r1", "F"),
            Triplet("G", "r3", "H"),
        ],
    )
    assert top_relations(kb, 2) == [("r2", 2), ("r1", 1)]
    assert top_relations(kb, 10) == [("r2", 2), ("r1", 1), ("r3", 1)]
    with pytest.raises(ValueError):
        top_relations(kb, 0)


class TestMerge:
    def test_provenance_union(self):
        kb1 = add_triples(KnowledgeBase(), [Triplet("A", "r", "B", P1)])
        kb2 = add_triples(KnowledgeBase(), [Triplet("A", "r", "B", P2)])
        merged = merge(kb1, kb2)
        assert list(merged.triples[("A", "r", "B")]) == [P1, P2]

    def test_link_config_mismatch_refused(self):
        kb1 = KnowledgeBase(link_config="match=exact;source=x")
        kb2 = KnowledgeBase(link_config="match=prefix;source=x")
        with pytest.raises(ConfigMismatchError):
            merge(kb1, kb2)

    def test_link_config_none_is_compatible(self):
        kb1 = KnowledgeBase(link_config="match=exact;source=x")
        kb2 = KnowledgeBase()
        assert merge(kb1, kb2).link_config == "match=exact;source=x"
        assert merge(kb2, kb1).link_config == "match=exact;source=x"

    def test_entity_links_first_wins(self):
        kb1 = KnowledgeBase(entity_links={"Soluna": "http://e/1"})
        kb2 = KnowledgeBase(entity_links={"Soluna": "http://e/2", "Kentucky": "http://e/K"})
        merged = merge(kb1, kb2)
        assert merged.entity_links == {"Soluna": "http://e/1", "Kentucky": "http://e/K"}

    def test_inputs_untouched(self):
        kb1 = add_triples(KnowledgeBase(), [Triplet("A", "r", "B", P1)])
        kb2 = add_triples(KnowledgeBase(), [Triplet("C", "r", "D", P2)])
        merge(kb1, kb2)
        assert len(kb1.triples) == 1
        assert len(kb2.triples) == 1


labels = st.sampled_from(["A", "B", "C", "D", "E"])
predicates = st.sampled_from(["r1", "r2"])
provenances = st.sampled_from([P1, P2, None])
triplet_strategy = st.builds(Triplet, labels, predicates, labels, provenances)
triplet_lists = st.lists(triplet_strategy, max_size=12)


def kb_key(kb: KnowledgeBase):
    return (
        kb.entities,
        kb.predicates,
        {key: frozenset(value) for key, value in kb.triples.items()},
        kb.entity_links,
    )


@given(triplet_lists, triplet_lists)
@settings(max_examples=200, deadline=None)
def test_merge_commutes_up_to_provenance_order(a, b):
    kb_a = add_triples(KnowledgeBase(), a)
    kb_b = add_triples(KnowledgeBase(), b)
    assert kb_key(merge(kb_a, kb_b)) == kb_key(merge(kb_b, kb_a))


@given(triplet_lists, triplet_lists, triplet_lists)
@settings(max_examples=100, deadline=None)
def test_merge_associative(a, b, c):
    kbs = [add_triples(KnowledgeBase(), t) for t in (a, b, c)]
    left = merge(merge(kbs[0], kbs[1]), kbs[2])
    right = merge(kbs[0], merge(kbs[1], kbs[2]))
    assert kb_key(left) == kb_key(right)


@given(triplet_lists)
@settings(max_examples=100, deadline=None)
def test_merge_idempotent(a):
    kb = add_triples(KnowledgeBase(), a)
    assert kb_key(merge(kb, kb)) == kb_key(kb)


@given(triplet_lists)
@settings(max_examples=100, deadline=None)
def test_triple_count_law(a):
    kb = add_triples(KnowledgeBase(), a)
    distinct = {(t.subject, t.predicate, t.object) for t in a}
    assert len(kb.triples) == len(distinct)


@given(a=triplet_lists)
@settings(max_examples=100, deadline=None)
def test_save_load_roundtrip(tmp_path_factory, a):
    kb = add_triples(KnowledgeBase(link_config="match=exact;source=t"), a)
    kb.entity_links["A"] = "http://e/A"
    path = tmp_path_factory.mktemp("kb") / "kb.json"
    save_kb(kb, path)
    loaded = load_kb(path)
    assert loaded.entities == kb.entities
    assert loaded.predicates == kb.predicates
    assert loaded.link_config == kb.link_config
    assert loaded.entity_links == kb.entity_links
    assert {k: list(v) for k, v in loaded.triples.items()} == {
        k: list(v) for k, v in kb.triples.items()
    }


@pytest.mark.parametrize("field", ["subject", "predicate", "object"])
def test_load_kb_refuses_a_blank_triple_field(tmp_path, field):
    # no writer can produce such a row: add_triple refuses a blank field
    row = triple_row(("A", "r", "B"), [P1]) | {field: " "}
    path = tmp_path / "kb.json"
    path.write_text(json.dumps({"entities": ["A", "B"], "predicates": ["r"], "triples": [row]}), encoding="utf-8")
    with pytest.raises(TextkgError, match=f"is not a KB file.*triplet {field} must be non-empty"):
        load_kb(path)


def kb_exact(kb: KnowledgeBase):
    """Everything save_kb writes, provenance order included."""
    return (
        kb.entities,
        kb.predicates,
        {key: list(value) for key, value in kb.triples.items()},
        kb.entity_links,
        kb.link_config,
    )


entity_link_maps = st.dictionaries(labels, st.sampled_from(["http://e/1", "http://e/2"]), max_size=3)


@given(st.lists(st.tuples(triplet_lists, entity_link_maps, st.sampled_from([None, "cfg"])), max_size=5))
@settings(max_examples=100, deadline=None)
def test_update_fold_equals_chained_merge(parts):
    kbs = []
    for triplets, links, link_config in parts:
        kb = add_triples(KnowledgeBase(link_config=link_config), triplets)
        kb.entity_links.update(links)
        kbs.append(kb)
    before = [copy.deepcopy(kb_exact(kb)) for kb in kbs]
    chained = KnowledgeBase()
    folded = KnowledgeBase()
    for kb in kbs:
        chained = merge(chained, kb)
        folded.update(kb)
    assert kb_exact(folded) == kb_exact(chained)
    # the fold must not share provenance sets with its inputs
    for provenance in folded.triples.values():
        provenance[Provenance("z", 9, "z")] = None
    assert [kb_exact(kb) for kb in kbs] == before


# every character class kb.json has to escape or pass through: quotes,
# backslashes, control characters, non-ASCII and astral code points (lone
# surrogates cannot be written as UTF-8 at all)
json_text = st.text(
    st.sampled_from(list('ab"\\/\x00\x1f\x7f\n\t\u2028éß€😀'))
    | st.characters(exclude_categories=("Cs",)),
    max_size=6,
)
provenance_records = st.builds(
    Provenance, json_text, st.none() | st.integers(-3, 10**12), json_text
)


@given(
    entities=st.sets(json_text, max_size=5),
    predicates=st.sets(json_text, max_size=3),
    triples=st.dictionaries(
        st.tuples(json_text, json_text, json_text),
        st.lists(provenance_records, max_size=3).map(dict.fromkeys),
        max_size=5,
    ),
    link_config=st.none() | json_text,
    entity_links=st.dictionaries(json_text, json_text, max_size=3),
)
@settings(max_examples=200, deadline=None)
def test_save_kb_writes_the_reference_json_bytes(
    tmp_path_factory, entities, predicates, triples, link_config, entity_links
):
    kb = KnowledgeBase(entities, predicates, triples, link_config, entity_links)
    path = tmp_path_factory.mktemp("kb") / "kb.json"
    save_kb(kb, path)
    reference = json.dumps(kb.to_dict(), ensure_ascii=False, indent=2, sort_keys=True) + "\n"
    assert path.read_bytes() == reference.encode("utf-8")


triple_keys = st.tuples(json_text, json_text, json_text)


@given(st.lists(st.tuples(triple_keys, st.lists(provenance_records, max_size=3)), max_size=4))
@example([(('"\\\x00\n', "\u2028", "😀"), []), (("a", "b", "c"), [P1, P2, P1])])
@settings(max_examples=200, deadline=None)
def test_row_encoder_writes_the_reference_rows(rows):
    compact, indented = row_encoder(), row_encoder("")
    # the second pass reads every provenance entry back from the encoders' caches
    for key, provenance in rows * 2:
        row = triple_row(key, provenance)
        assert compact(key, provenance) == json.dumps(row, ensure_ascii=False, sort_keys=True)
        assert indented(key, provenance) == json.dumps(
            row, ensure_ascii=False, indent=2, sort_keys=True
        )


def test_failed_save_kb_leaves_the_earlier_file(tmp_path, monkeypatch):
    path = tmp_path / "kb.json"
    save_kb(KnowledgeBase(entities={"old"}), path)
    before = path.read_bytes()
    real_encoder = kgstore.row_encoder

    def encoder_failing_on_second_row(indent=None):
        encode = real_encoder(indent)
        rows = []

        def encode_or_fail(key, provenance):
            if rows:
                raise OSError("disk full")
            rows.append(key)
            return encode(key, provenance)

        return encode_or_fail

    monkeypatch.setattr(kgstore, "row_encoder", encoder_failing_on_second_row)
    kb = add_triples(KnowledgeBase(), [Triplet("A", "r", "B", P1), Triplet("C", "r", "D", P2)])
    with pytest.raises(OSError, match="disk full"):
        save_kb(kb, path)
    assert path.read_bytes() == before
    assert [child.name for child in tmp_path.iterdir()] == ["kb.json"]


def test_comparison_table_shape():
    kb1 = add_triples(KnowledgeBase(), [Triplet("A", "r", "B"), Triplet("C", "s", "D")])
    kb2 = add_triples(KnowledgeBase(), [Triplet("A", "r", "B")])
    table = comparison_table([("seq2seq", kb1), ("chat", kb2)])
    lines = table.splitlines()
    assert lines[0].split() == ["Algorithm", "Entities", "Relations", "Triples"]
    assert set(lines[1]) <= {"-", " "}
    assert lines[2].split() == ["seq2seq", "4", "2", "2"]
    assert lines[3].split() == ["chat", "2", "1", "1"]
    assert table.endswith("\n")
