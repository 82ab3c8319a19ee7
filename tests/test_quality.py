from __future__ import annotations

import datetime as dt
import json
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from textkg.corpus import Article
from textkg.extraction import Provenance, Triplet
from textkg.kgstore import KnowledgeBase
from textkg.quality import (
    FORMULA_VERSION,
    QualityConfig,
    evaluate,
    load_default_lexicon,
    load_lexicon,
    render_report,
    save_report,
)


def _meta(article_id: str, domain: str, day: int) -> Article:
    return Article(
        id=article_id,
        title=f"t-{article_id}",
        body="some body text",
        source_domain=domain,
        published_at=dt.date(2023, 2, day) if day <= 28 else dt.date(2023, 3, day - 28),
        language="en",
    )


def build_quality_fixture() -> tuple[KnowledgeBase, list[Article], QualityConfig]:
    """Hand-audited KB: 20 triple occurrences, 15 distinct triples (25%
    duplicates), 28 entities of which 7 are isolated (25%), 6 multiplicity-
    weighted phrase-length violations out of 60 fields (10%), one
    contradiction under the functional predicate `industry`."""

    def prov(article_id: str, batch: int) -> Provenance:
        return Provenance(article_id, batch, "fx")

    kb = KnowledgeBase()
    rows: list[tuple[str, str, str, list[Provenance]]] = [
        # multiplicity 3: its 5-token object counts 3 times
        ("Soluna", "utilizes", "really long excess energy practice",
         [prov("a1", 0), prov("a1", 1), prov("a2", 0)]),
        ("Soluna", "industry", "Energy", [prov("a1", 2)]),
        # second object for (Soluna, industry): the one contradiction
        ("Soluna", "industry", "Mining", [prov("a2", 1)]),
        ("Samsung", "industry", "Electronics", [prov("a2", 2), prov("a3", 0)]),
        ("Samsung", "invests in", "Solar Energy", [prov("a2", 3)]),
        ("Starbucks", "adopts", "Resource Sharing", [prov("a1", 3), prov("a3", 1)]),
        ("Starbucks", "located in", "Seattle", [prov("a1", 4)]),
        ("Resource Sharing", "lowers", "Waste", [prov("a1", 5)]),
        ("GreenCo", "installs", "Solar Panels", [prov("a3", 2), prov("a3", 3)]),
        ("GreenCo", "partners with", "CleanGrid", [prov("a3", 4)]),
        ("EcoBank", "funds", "Reforestation", [prov("a3", 5)]),
        ("EcoBank", "issues", "Green Bonds", [prov("a3", 6)]),
        # 6-token subject and 6-token object: two violations
        ("a very long subject phrase here", "relates to", "a very long object phrase here",
         [prov("a1", 6)]),
        # 6-token predicate: one violation
        ("Kentucky", "hosts wind and solar farms cheaply", "Wind Farms", [prov("a2", 4)]),
        ("Waste", "handled by", "GreenCo", [prov("a3", 7)]),
    ]
    for subject, predicate, obj, provenances in rows:
        for provenance in provenances:
            kb.add_triple(Triplet(subject, predicate, obj, provenance))
    for index in range(1, 8):
        kb.add_entity(f"Standalone {index}")
    for label in ("Soluna", "Samsung", "Starbucks", "Seattle", "Kentucky", "GreenCo", "EcoBank"):
        kb.entity_links[label] = f"http://dbpedia.org/resource/{label.replace(' ', '_')}"

    corpus_meta = [
        _meta("a1", "greenreport.example", 20),
        _meta("a2", "technews.example", 29),  # 2023-03-01
        _meta("a3", "greenreport.example", 43),  # 2023-03-15
    ]
    config = QualityConfig(
        conciseness_max_tokens=4,
        functional_predicates=("industry",),
        domain_lexicon=("solar", "green", "energy", "waste", "recycl"),
    )
    return kb, corpus_meta, config


class TestHandComputedFixture:
    def metrics(self) -> dict:
        kb, corpus_meta, config = build_quality_fixture()
        return evaluate(kb, corpus_meta, config).metrics

    def test_duplicate_ratio(self):
        assert self.metrics()["duplicate_ratio"] == 0.25  # (20 - 15) / 20

    def test_conciseness_violation_ratio(self):
        assert self.metrics()["conciseness_violation_ratio"] == 0.10  # 6 / 60

    def test_isolated_entity_ratio(self):
        assert self.metrics()["isolated_entity_ratio"] == 0.25  # 7 / 28

    def test_mean_degree(self):
        assert self.metrics()["mean_degree"] == 30 / 28  # 2 * 15 / 28

    def test_largest_component_fraction(self):
        # Starbucks-ResourceSharing-Waste-GreenCo-SolarPanels-CleanGrid-Seattle
        assert self.metrics()["largest_component_fraction"] == 7 / 28

    def test_linked_entity_ratio(self):
        assert self.metrics()["linked_entity_ratio"] == 0.25  # 7 / 28

    def test_predicate_diversity(self):
        assert self.metrics()["predicate_diversity"] == 13

    def test_contradiction_count(self):
        assert self.metrics()["contradiction_count"] == 1

    def test_distinct_source_domains(self):
        assert self.metrics()["distinct_source_domains"] == 2

    def test_date_range(self):
        assert self.metrics()["date_range"] == {"from": "2023-02-20", "to": "2023-03-15"}

    def test_domain_relevance_ratio(self):
        # entities: Energy, Solar Energy, Solar Panels, Green Bonds, GreenCo,
        # Waste, "really long excess energy practice" = 7
        # predicates: "hosts wind and solar farms cheaply" = 1
        assert self.metrics()["domain_relevance_ratio"] == 8 / 41

    def test_structured_format(self):
        assert self.metrics()["structured_format"] is True

    def test_no_warnings(self):
        kb, corpus_meta, config = build_quality_fixture()
        assert evaluate(kb, corpus_meta, config).warnings == []


class TestPrinciples:
    def test_all_18_present_once(self):
        kb, corpus_meta, config = build_quality_fixture()
        report = evaluate(kb, corpus_meta, config)
        assert [entry.number for entry in report.principles] == list(range(1, 19))

    def test_status_classification(self):
        kb, corpus_meta, config = build_quality_fixture()
        by_number = {e.number: e for e in evaluate(kb, corpus_meta, config).principles}
        computed = {1, 3, 5, 6, 7, 8, 9, 10, 16, 17, 18}
        metadata = {4, 11}
        manual = {2, 12, 13, 14, 15}
        assert {n for n, e in by_number.items() if e.status == "computed"} == computed
        assert {n for n, e in by_number.items() if e.status == "metadata"} == metadata
        assert {n for n, e in by_number.items() if e.status == "manual"} == manual

    def test_computed_entries_carry_metric_values(self):
        kb, corpus_meta, config = build_quality_fixture()
        report = evaluate(kb, corpus_meta, config)
        for entry in report.principles:
            if entry.status == "computed":
                assert entry.metric in report.metrics
                assert entry.value == report.metrics[entry.metric]
            if entry.status == "manual":
                assert entry.value is None
                assert entry.note

    def test_scalability_metadata_reports_counts(self):
        kb, corpus_meta, config = build_quality_fixture()
        by_number = {e.number: e for e in evaluate(kb, corpus_meta, config).principles}
        assert by_number[11].value == {"entities": 28, "triples": 15}


class TestEdgeCases:
    def test_empty_kb_all_ratios_zero(self):
        report = evaluate(KnowledgeBase(), [])
        assert report.metrics["duplicate_ratio"] == 0.0
        assert report.metrics["conciseness_violation_ratio"] == 0.0
        assert report.metrics["isolated_entity_ratio"] == 0.0
        assert report.metrics["mean_degree"] == 0.0
        assert report.metrics["largest_component_fraction"] == 0.0
        assert report.metrics["date_range"] is None
        assert len(report.principles) == 18

    def test_missing_article_reference_warns(self):
        kb = KnowledgeBase()
        kb.add_triple(Triplet("A", "r", "B", Provenance("ghost", 0, "b")))
        report = evaluate(kb, [])
        assert any("ghost" in warning for warning in report.warnings)
        assert report.metrics["distinct_source_domains"] == 0

    def test_render_report_ends_with_the_warnings_block(self):
        kb = KnowledgeBase()
        kb.add_triple(Triplet("A", "r", "B", Provenance("ghost", 0, "b")))
        text = render_report(evaluate(kb, []))
        assert text.endswith(
            "\n\nwarnings:\n  provenance references article 'ghost' missing from corpus metadata\n"
        )

    def test_self_loop_not_an_edge_for_components(self):
        kb = KnowledgeBase()
        kb.add_triple(Triplet("A", "r", "A"))
        kb.add_triple(Triplet("B", "r", "C"))
        report = evaluate(kb, [])
        # components: {A}, {B, C}
        assert report.metrics["largest_component_fraction"] == 2 / 3

    def test_triples_without_provenance_count_once(self):
        kb = KnowledgeBase()
        kb.add_triple(Triplet("A", "r", "B"))
        report = evaluate(kb, [])
        assert report.metrics["duplicate_ratio"] == 0.0


# regex metacharacters, a character that casefolds to two, and upper case
lexicon_text = st.text(alphabet="ab.*+?()[]|\\^$ ßA", min_size=1, max_size=4)


@given(
    entities=st.sets(lexicon_text.filter(str.strip), min_size=1, max_size=6),
    predicates=st.sets(lexicon_text, max_size=3),
    lexicon=st.lists(lexicon_text, min_size=1, max_size=4),
)
@settings(max_examples=300, deadline=None)
def test_domain_relevance_counts_labels_that_contain_a_term(entities, predicates, lexicon):
    kb = KnowledgeBase(entities=set(entities), predicates=set(predicates))
    ratio = evaluate(kb, [], QualityConfig(domain_lexicon=tuple(lexicon))).metrics["domain_relevance_ratio"]
    labels = list(kb.entities) + list(kb.predicates)
    relevant = sum(1 for label in labels if any(term in label.casefold() for term in lexicon))
    assert ratio == relevant / len(labels)


class TestConfig:
    def test_default_lexicon_loads(self):
        lexicon = load_default_lexicon()
        assert "sustainab" in lexicon
        assert all(term == term.casefold() for term in lexicon)

    def test_load_lexicon_skips_comments(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("# heading\nSolar\n\nwind\n", encoding="utf-8")
        assert load_lexicon(path) == ("solar", "wind")

    def test_validation(self):
        with pytest.raises(ValueError):
            QualityConfig(conciseness_max_tokens=0)
        with pytest.raises(ValueError):
            QualityConfig(domain_lexicon=())


class TestCompareAndSerialization:
    def test_save_load_roundtrip(self, tmp_path):
        kb, corpus_meta, config = build_quality_fixture()
        report = evaluate(kb, corpus_meta, config)
        path = tmp_path / "q.json"
        save_report(report, path)
        with path.open(encoding="utf-8") as handle:
            loaded = json.load(handle)
        assert loaded["version"] == FORMULA_VERSION
        assert loaded == asdict(report)

    def test_render_report_lists_everything(self):
        kb, corpus_meta, config = build_quality_fixture()
        text = render_report(evaluate(kb, corpus_meta, config))
        assert "duplicate_ratio: 0.25" in text
        for number in range(1, 19):
            assert f"{number:2d}. " in text
