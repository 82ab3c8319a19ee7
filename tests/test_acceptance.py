"""Acceptance gate: one test per shipping criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion. Tolerances are stated inline; every numeric check is exact
(integer-ratio) unless a runtime bound is involved. The whole file is
hermetic: no network, deterministic RNG seeds, replay backend only.
"""

from __future__ import annotations

import datetime as dt
import math
import random
import time
from pathlib import Path

from textkg.chunking import chunk
from textkg.corpus import Article
from textkg.extraction import Provenance, Triplet, parse_seq2seq_output
from textkg.kgstore import KnowledgeBase, comparison_table, load_kb, merge
from textkg.linking import FileLookupClient, canonicalize, normalize_surface
from textkg.pipeline import run_pipeline
from textkg.quality import evaluate
from textkg.rdf import ontology_to_kb, parse_turtle, serialize_turtle, validate_text

from .conftest import DATA_DIR, GOLDEN_DIR, serialize_seq2seq_output
from .test_quality import build_quality_fixture


def field_text(rng: random.Random) -> str:
    alphabet = "abcdefgh XYZ 0123 éüñ-_.,"
    while True:
        raw = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 14)))
        cleaned = " ".join(raw.split())
        if cleaned:
            return cleaned


def test_marker_parser_round_trip_fuzz_and_accounting():
    """Round-trip on 250 generated outputs, 10k-string fuzz without crashes,
    and exact malformed-segment accounting on 20 hand-built cases, in < 5 s."""
    started = time.monotonic()
    rng = random.Random(20230)

    for _ in range(250):
        triplets = [
            Triplet(field_text(rng), field_text(rng), field_text(rng))
            for _ in range(rng.randint(1, 6))
        ]
        text = serialize_seq2seq_output(triplets)
        parsed, report = parse_seq2seq_output(text)
        assert [(t.subject, t.predicate, t.object) for t in parsed] == [
            (t.subject, t.predicate, t.object) for t in triplets
        ]
        assert report.triplets_emitted == len(triplets)
        assert report.segments_skipped == 0

    pieces = [
        "<triplet>", "<subj>", "<obj>", "<s>", "</s>", "<pad>",
        "word", " ", "|", "\n", "é", "<", ">", "a b",
    ]
    for _ in range(10_000):
        text = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 40)))
        parsed, report = parse_seq2seq_output(text)  # must never raise
        assert report.triplets_emitted == len(parsed)
        assert report.segments_skipped == len(report.skip_reasons)

    cases = [
        ("", 0, 0),
        ("   ", 0, 0),
        ("<s><pad></s>", 0, 0),
        ("hello world", 0, 1),
        ("<triplet> A <subj> r <obj> B", 1, 0),
        ("junk <triplet> A <subj> r <obj> B", 1, 1),
        ("<triplet> A <obj> B", 0, 1),
        ("<triplet> A <subj> r", 0, 1),
        ("<triplet> A <subj> r <subj> x <obj> B", 0, 1),
        ("<triplet> A <subj> r <obj> B <obj> C", 0, 1),
        ("<triplet> A <obj> B <subj> r", 0, 1),
        ("<triplet> <subj> r <obj> B", 0, 1),
        ("<triplet> A <subj> <obj> B", 0, 1),
        ("<triplet> A <subj> r <obj>", 0, 1),
        ("<triplet> A <subj> r <obj> B <triplet> C <subj> s <obj> D", 2, 0),
        ("<triplet> A <subj> r <obj> B <triplet> bad <triplet> C <subj> s <obj> D", 2, 1),
        ("<triplet><subj><obj>", 0, 1),
        ("<s> <triplet> A<s><subj> r </s><obj> B <pad>", 1, 0),
        ("<triplet> A <subj> r <obj> B <triplet>", 1, 1),
        ("lead <triplet> A <subj> r <obj> B <triplet> C <subj> s <triplet> D <subj> t <obj> E", 2, 2),
    ]
    assert len(cases) == 20
    for text, want_emitted, want_skipped in cases:
        parsed, report = parse_seq2seq_output(text)
        assert (report.triplets_emitted, report.segments_skipped) == (
            want_emitted,
            want_skipped,
        ), f"accounting mismatch for {text!r}"
        assert len(parsed) == want_emitted

    assert time.monotonic() - started < 5.0


def test_chunking_batch_count_and_reassembly():
    """1000 random token counts: batch count = ceil(N/256), token slices
    reassemble the article exactly, in < 5 s."""
    started = time.monotonic()
    rng = random.Random(77)
    for _ in range(1000):
        n = rng.randint(0, 1500)
        tokens = [f"t{i}" for i in range(n)]
        article = Article(
            id="doc",
            title="",
            body=" ".join(tokens),
            source_domain="x.example",
            published_at=dt.date(2023, 1, 1),
            language="en",
        )
        batches = chunk(article, 256)
        assert len(batches) == math.ceil(n / 256)
        rebuilt: list[str] = []
        for batch in batches:
            piece = tokens[batch.token_start : batch.token_end]
            assert batch.text == " ".join(piece)
            rebuilt.extend(piece)
        assert rebuilt == tokens
    assert time.monotonic() - started < 5.0


def test_linking_merge_idempotence_and_offline_fallback():
    """Same-IRI mentions collapse to one entity, canonicalize is idempotent,
    and with no client the rewrite degrades to pure normalization with the
    count/idempotence invariants intact."""
    client = FileLookupClient(DATA_DIR / "lookup_fixture.json")
    triplets = [
        Triplet("Soluna", "utilizes", "Excess  Energy"),
        Triplet("SOLUNA", "operates in", "Kentucky"),
        Triplet(" soluna ", "partners with", "Seattle"),
        Triplet("Mystery Co", "adopts", "Resource Sharing"),
    ]

    linked, table = canonicalize(triplets, client, None)
    assert len(linked) == len(triplets)
    subjects = {t.subject for t in linked[:3]}
    assert subjects == {"Soluna"}, "same-IRI mentions must merge to one label"
    assert table["Soluna"].canonical_iri == "http://dbpedia.org/resource/Soluna"
    assert table["mystery co"].canonical_iri is None

    again, _ = canonicalize(linked, client, None)
    assert [(t.subject, t.predicate, t.object) for t in again] == [
        (t.subject, t.predicate, t.object) for t in linked
    ], "canonicalize must be idempotent"

    offline, offline_table = canonicalize(triplets, None, None)
    assert len(offline) == len(triplets)
    for triplet in offline:
        assert triplet.subject == normalize_surface(triplet.subject)
        assert triplet.predicate == normalize_surface(triplet.predicate)
        assert triplet.object == normalize_surface(triplet.object)
    assert all(entity.canonical_iri is None for entity in offline_table.values())
    assert {t.subject for t in offline[:3]} == {"soluna"}
    offline_again, _ = canonicalize(offline, None, None)
    assert [(t.subject, t.predicate, t.object) for t in offline_again] == [
        (t.subject, t.predicate, t.object) for t in offline
    ]


def random_kb(rng: random.Random) -> KnowledgeBase:
    labels = ["A", "B", "C", "D", "E"]
    predicates = ["r1", "r2"]
    stamps = [
        None,
        Provenance("a1", 0, "b1"),
        Provenance("a2", 1, "b2"),
        Provenance("a1", None, "b3"),
    ]
    kb = KnowledgeBase()
    for _ in range(rng.randint(0, 12)):
        kb.add_triple(
            Triplet(rng.choice(labels), rng.choice(predicates), rng.choice(labels), rng.choice(stamps))
        )
    for _ in range(rng.randint(0, 3)):
        kb.add_entity(rng.choice(labels))
    return kb


def kb_key(kb: KnowledgeBase):
    return (
        set(kb.entities),
        set(kb.predicates),
        {key: frozenset(stamps) for key, stamps in kb.triples.items()},
        dict(kb.entity_links),
    )


def test_kb_merge_laws_and_provenance_union():
    """Merge is commutative/associative (up to provenance order) and
    idempotent over 100 random pairs and 100 random triples of KBs; the
    dedup provenance-union law holds exactly."""
    rng = random.Random(4)
    for _ in range(100):
        a, b = random_kb(rng), random_kb(rng)
        assert kb_key(merge(a, b)) == kb_key(merge(b, a))
        assert kb_key(merge(a, a)) == kb_key(a)
    for _ in range(100):
        a, b, c = random_kb(rng), random_kb(rng), random_kb(rng)
        assert kb_key(merge(merge(a, b), c)) == kb_key(merge(a, merge(b, c)))

    p1 = Provenance("a1", 0, "seq2seq")
    p2 = Provenance("a2", 3, "chat")
    left = KnowledgeBase()
    left.add_triple(Triplet("S", "r", "O", p1))
    right = KnowledgeBase()
    right.add_triple(Triplet("S", "r", "O", p2))
    right.add_triple(Triplet("S", "r", "O", p1))  # shared stamp must not double
    merged = merge(left, right)
    assert list(merged.triples[("S", "r", "O")]) == [p1, p2]


def random_ontology_text(rng: random.Random) -> str:
    lines = ["@prefix ex: <http://example.org/kg#> ."]
    classes = [f"C{i}" for i in range(rng.randint(1, 3))]
    properties = [f"p{i}" for i in range(rng.randint(0, 2))]
    individuals = [f"I{i}" for i in range(rng.randint(0, 4))]
    for name in classes:
        lines.append(f"ex:{name} a owl:Class .")
    for name in properties:
        lines.append(f"ex:{name} a owl:ObjectProperty .")
    for name in individuals:
        lines.append(f"ex:{name} a ex:{rng.choice(classes)} .")
        if rng.random() < 0.5:
            label = rng.choice(['Plain name', 'quote " inside', "back\\slash", "line\nbreak"])
            escaped = label.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
            lines.append(f'ex:{name} rdfs:label "{escaped}" .')
    if properties and individuals:
        for _ in range(rng.randint(0, 4)):
            lines.append(
                f"ex:{rng.choice(individuals)} ex:{rng.choice(properties)} ex:{rng.choice(individuals)} ."
            )
    return "\n".join(lines) + "\n"


def test_turtle_fixed_point_defect_injection_and_example_fixtures():
    """Serialize/parse reaches a fixed point on 100 generated documents; the
    validator reports exactly k seeded errors for k in 1..5; the
    ontology-to-KB triple-count law is exact; the two example documents yield
    their expected triples verbatim."""
    rng = random.Random(99)
    for _ in range(100):
        doc = parse_turtle(random_ontology_text(rng))
        assert not hasattr(doc, "errors"), "generated text must parse"
        first = serialize_turtle(doc)
        reparsed = parse_turtle(first)
        assert serialize_turtle(reparsed) == first, "serialize/parse must be a fixed point"
        assert reparsed.classes == doc.classes
        assert reparsed.object_properties == doc.object_properties
        assert reparsed.individuals == doc.individuals
        assert reparsed.class_assertions == doc.class_assertions
        assert reparsed.property_assertions == doc.property_assertions
        assert reparsed.labels == doc.labels

        # triple-count law: one KB triple per distinct labeled assertion
        kb = ontology_to_kb(doc, source_id="gen")
        labels = {iri: doc.labels.get(iri) or iri.rsplit("#", 1)[-1] for iri in (doc.classes | doc.individuals)}
        expected = {
            (labels[ind], "instanceOf", labels[cls]) for ind, cls in doc.class_assertions
        } | {
            (labels[s], p.rsplit("#", 1)[-1], labels[o]) for s, p, o in doc.property_assertions
        }
        assert set(kb.triples) == expected
        assert len(kb.triples) == len(expected)

    base = ["@prefix ex: <http://example.org/kg#> .", "ex:C a owl:Class .", "ex:I a ex:C ."]
    declarations = [f"ex:p{i} a owl:ObjectProperty ." for i in range(5)]
    uses = [f"ex:I ex:p{i} ex:I ." for i in range(5)]
    for k in range(1, 6):
        text = "\n".join(base + declarations[k:] + uses) + "\n"
        doc, report = validate_text(text)
        assert len(report.errors) == k, f"expected exactly {k} seeded errors"
        assert {issue.code for issue in report.errors} == {"UndeclaredProperty"}

    soluna = ontology_to_kb(
        parse_turtle((DATA_DIR / "soluna.ttl").read_text(encoding="utf-8")), source_id="a1"
    )
    assert ("Soluna", "utilizes", "Excess Energy") in soluna.triples
    starbucks = ontology_to_kb(
        parse_turtle((DATA_DIR / "starbucks.ttl").read_text(encoding="utf-8")), source_id="a2"
    )
    assert ("Starbucks", "hasPractice", "ResourceSharing") in starbucks.triples


def test_quality_hand_computed_fixture_exact():
    """The hand-audited KB (20 triple occurrences, 25% duplicates, 25%
    isolated entities) reproduces every metric exactly (tolerance 0) and all
    18 principles appear in the report."""
    kb, corpus_meta, config = build_quality_fixture()
    report = evaluate(kb, corpus_meta, config)
    metrics = report.metrics
    assert metrics["duplicate_ratio"] == 0.25
    assert metrics["conciseness_violation_ratio"] == 0.10
    assert metrics["isolated_entity_ratio"] == 0.25
    assert metrics["mean_degree"] == 30 / 28
    assert metrics["largest_component_fraction"] == 7 / 28
    assert metrics["linked_entity_ratio"] == 0.25
    assert metrics["predicate_diversity"] == 13
    assert metrics["contradiction_count"] == 1
    assert metrics["distinct_source_domains"] == 2
    assert metrics["date_range"] == {"from": "2023-02-20", "to": "2023-03-15"}
    assert metrics["domain_relevance_ratio"] == 8 / 41
    assert metrics["structured_format"] is True
    assert [entry.number for entry in report.principles] == list(range(1, 19))
    assert report.warnings == []


def snapshot(run_dir: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(run_dir)): path.read_bytes()
        for path in sorted(run_dir.rglob("*"))
        if path.is_file()
    }


def test_end_to_end_replay_runs_byte_identical_and_match_goldens(data_copy):
    """Both pipeline modes on the 5-article corpus with the replay backend:
    artifacts byte-identical across two runs and equal to the audited golden
    files, hermetically, in < 60 s."""
    started = time.monotonic()
    for config_name, run_name, golden_name in [
        ("pipeline_triples.json", "run_triples", "triples"),
        ("pipeline_ontology.json", "run_ontology", "ontology"),
    ]:
        run_pipeline(data_copy / config_name)
        first = snapshot(data_copy / run_name)
        run_pipeline(data_copy / config_name)
        second = snapshot(data_copy / run_name)
        assert first == second, f"{run_name}: two runs must be byte-identical"
        golden = snapshot(GOLDEN_DIR / golden_name)
        assert sorted(first) == sorted(golden)
        for name in golden:
            assert first[name] == golden[name], f"{run_name}/{name} differs from golden"
    assert time.monotonic() - started < 60.0


def test_report_format_parity_two_fixture_kbs():
    """A stats table in the documented shape (Algorithm / Entities /
    Relations / Triples) renders from two fixture KBs."""
    chat_kb = load_kb(GOLDEN_DIR / "triples" / "kb.json")
    ontology_kb = load_kb(GOLDEN_DIR / "ontology" / "kb.json")
    table = comparison_table([("chat-triples", chat_kb), ("llm-ontology", ontology_kb)])
    lines = table.splitlines()
    assert lines[0].split() == ["Algorithm", "Entities", "Relations", "Triples"]
    assert set(lines[1]) <= {"-", " "}
    assert lines[2].split() == ["chat-triples", "18", "13", "13"]
    assert lines[3].split() == ["llm-ontology", "16", "7", "17"]
    assert table.endswith("\n")
