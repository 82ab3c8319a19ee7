from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from textkg import rdf
from textkg.rdf import (
    DEFAULT_PREFIXES,
    OWL_NS,
    RDFS_NS,
    InvalidDocError,
    Literal,
    NoErrorsError,
    OntologyDoc,
    ValidationReport,
    build_repair_prompt,
    local_name,
    ontology_to_kb,
    parse_turtle,
    repair_until_valid,
    serialize_turtle,
    validate_owl,
    validate_text,
)

from .conftest import DATA_DIR

EX = "http://example.org/kg#"
HEADER = f"@prefix ex: <{EX}> .\n"


def parse_ok(text: str) -> OntologyDoc:
    result = parse_turtle(text)
    assert isinstance(result, OntologyDoc), getattr(result, "errors", result)
    return result


class TestLocalName:
    def test_separators(self):
        assert local_name("http://example.org/kg#Soluna") == "Soluna"
        assert local_name("http://example.org/kg/Soluna") == "Soluna"
        assert local_name("urn:x:Soluna") == "Soluna"
        assert local_name("bare") == "bare"


class TestParser:
    def test_prefix_and_pname(self):
        doc = parse_ok(HEADER + "ex:Org a owl:Class .")
        assert doc.prefixes["ex"] == EX
        assert doc.classes == {EX + "Org"}

    def test_full_iri_subject(self):
        doc = parse_ok(f"<{EX}Org> a owl:Class .")
        assert doc.classes == {EX + "Org"}

    def test_a_keyword_is_rdf_type(self):
        doc = parse_ok(HEADER + "ex:Org a owl:Class .\nex:S rdf:type ex:Org .")
        assert doc.class_assertions == {(EX + "S", EX + "Org")}
        assert doc.individuals == {EX + "S"}

    def test_predicate_list_semicolons(self):
        doc = parse_ok(
            HEADER + 'ex:S a ex:Org ; ex:likes ex:T ; rdfs:label "Ess" .'
        )
        assert (EX + "S", EX + "Org") in doc.class_assertions
        assert (EX + "S", EX + "likes", EX + "T") in doc.property_assertions
        assert doc.labels[EX + "S"] == "Ess"

    def test_object_list_commas(self):
        doc = parse_ok(HEADER + "ex:S ex:likes ex:T , ex:U .")
        assert doc.property_assertions == {
            (EX + "S", EX + "likes", EX + "T"),
            (EX + "S", EX + "likes", EX + "U"),
        }

    def test_trailing_semicolon_tolerated(self):
        doc = parse_ok(HEADER + "ex:S ex:likes ex:T ; .")
        assert len(doc.property_assertions) == 1

    def test_comments_ignored(self):
        doc = parse_ok("# a comment\n" + HEADER + "ex:S ex:p ex:O . # trailing\n")
        assert len(doc.property_assertions) == 1

    def test_string_literal_with_lang(self):
        doc = parse_ok(HEADER + 'ex:S ex:motto "go green"@en .')
        assert (EX + "S", EX + "motto", Literal("go green", "en")) in doc.property_assertions

    def test_string_escapes(self):
        doc = parse_ok(HEADER + r'ex:S ex:says "line1\nline\"2\"\ttabbed\\" .')
        ((_, _, literal),) = doc.property_assertions
        assert literal.text == 'line1\nline"2"\ttabbed\\'

    def test_first_label_wins(self):
        doc = parse_ok(HEADER + 'ex:S rdfs:label "first" .\nex:S rdfs:label "second" .')
        assert doc.labels[EX + "S"] == "first"

    def test_named_individual_typing(self):
        doc = parse_ok(HEADER + "ex:S a owl:NamedIndividual .")
        assert doc.individuals == {EX + "S"}
        assert doc.class_assertions == set()

    def test_ontology_header_dropped(self):
        doc = parse_ok(HEADER + "ex:doc a owl:Ontology .")
        assert doc.individuals == set()
        assert doc.class_assertions == set()

    def test_rdfs_class_counts_as_class(self):
        doc = parse_ok(HEADER + "ex:Org a rdfs:Class .")
        assert doc.classes == {EX + "Org"}

    def test_annotation_property_is_data_property(self):
        doc = parse_ok(HEADER + "ex:note a owl:AnnotationProperty .")
        assert doc.data_properties == {EX + "note"}

    def test_default_prefixes_always_available(self):
        doc = parse_ok("<http://e/S> a owl:Class .")
        assert doc.classes == {"http://e/S"}
        assert set(DEFAULT_PREFIXES) <= set(doc.prefixes)


class TestParseErrors:
    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("ex:S ex:p [ ex:q ex:O ] .", "blank nodes"),
            ("_:b0 ex:p ex:O .", "blank nodes"),
            ("ex:S ex:p ( ex:O ) .", "collections"),
            ('ex:S ex:p """multi""" .', "multiline"),
            ('ex:S ex:p "x"^^xsd:string .', "typed literals"),
            ("ex:S ex:p 42 .", "numeric literals"),
            ("ex:S ex:p -7 .", "numeric literals"),
            ("@base <http://e/> .", "@base"),
            ("@prefiks ex: <http://e/> .", "unknown directive"),
            ('ex:S ex:p "bad \\q escape" .', "escape"),
            ("ex:S ex:p <http://e/unterminated", "unterminated IRI"),
            ('ex:S ex:p "unterminated .', "unterminated string"),
            ("ex:S ex:p ex:O ,, .", "expected an object"),
            ("ex:S .", "expected a predicate"),
        ],
    )
    def test_subset_violations_are_located_errors(self, text, fragment):
        result = parse_turtle(HEADER + text)
        assert isinstance(result, ValidationReport)
        (error,) = result.errors
        assert error.code == "ParseError"
        assert fragment in error.message
        assert "line" in error.location and "column" in error.location

    def test_error_location_points_at_offense(self):
        result = parse_turtle(HEADER + "ex:S ex:p 42 .")
        (error,) = result.errors
        assert error.location == "line 2, column 11"

    # Every abort path of the tokenizer and the parser, with its exact text.
    # Repair prompts embed these strings, so replay fixture keys depend on them.
    @pytest.mark.parametrize(
        "text, message, location",
        [
            pytest.param("ex:S ex:p [ ex:q ex:O ] .", "blank nodes are not supported", "2:11", id="open-bracket"),
            pytest.param("ex:S ex:p ] .", "blank nodes are not supported", "2:11", id="close-bracket"),
            pytest.param("_:b0 ex:p ex:O .", "blank nodes are not supported", "2:1", id="blank-node-label"),
            pytest.param("ex:S ex:p ( ex:O ) .", "collections are not supported", "2:11", id="open-paren"),
            pytest.param("ex:S ex:p ) .", "collections are not supported", "2:11", id="close-paren"),
            pytest.param('ex:S ex:p """multi""" .', "multiline literals are not supported", "2:11", id="long-string"),
            pytest.param('ex:S ex:p "x"^^xsd:string .', "typed literals are not supported", "2:14", id="typed"),
            pytest.param("ex:S ex:p 42 .", "numeric literals are not supported", "2:11", id="integer"),
            pytest.param("ex:S ex:p -7 .", "numeric literals are not supported", "2:11", id="minus-number"),
            pytest.param("ex:S ex:p +7 .", "numeric literals are not supported", "2:11", id="plus-number"),
            pytest.param("ex:S ex:p ² .", "numeric literals are not supported", "2:11", id="unicode-digit"),
            pytest.param("@prefix²", "numeric literals are not supported", "2:8", id="prefix-then-digit"),
            pytest.param("@base <http://e/> .", "@base is not supported", "2:1", id="base"),
            pytest.param("@prefiks ex: <http://e/> .", "unknown directive '@prefiks'", "2:1", id="misspelt-directive"),
            pytest.param("@prefixes ex: <http://e/> .", "unknown directive '@prefixes'", "2:1", id="longer-directive"),
            pytest.param("@prefixé ex: <http://e/> .", "unknown directive '@prefixé'", "2:1", id="non-ascii-directive"),
            pytest.param("@ ex:p .", "unknown directive '@'", "2:1", id="bare-at"),
            pytest.param('ex:S ex:p "x"@en@fr .', "unknown directive '@fr'", "2:17", id="second-language-tag"),
            pytest.param('ex:S ex:p "bad \\q escape" .', "unsupported escape '\\q'", "2:16", id="unsupported-escape"),
            pytest.param('ex:S ex:p "dangling \\', "dangling escape at end of input", "2:21", id="dangling-escape"),
            pytest.param('ex:S ex:p "x"@ .', "empty language tag", "2:15", id="empty-language-tag"),
            pytest.param('ex:S ex:p "x"@', "empty language tag", "2:15", id="empty-language-tag-at-end"),
            pytest.param('ex:S ex:p "x"@en^^ .', "unexpected character '^'", "2:17", id="typed-after-language"),
            pytest.param("ex:S ex:p <http://e/unterminated", "unterminated IRI reference", "2:11", id="iri-at-end"),
            pytest.param("ex:S ex:p <http://e/\n> .", "unterminated IRI reference", "2:11", id="iri-newline"),
            pytest.param('ex:S ex:p "unterminated .', "unterminated string literal", "2:11", id="string-at-end"),
            pytest.param('ex:S ex:p "line\nbreak" .', "unterminated string literal", "2:11", id="string-newline"),
            pytest.param("ex:S ex:p ex:O ; bogus .", "unexpected word 'bogus'", "2:18", id="word"),
            pytest.param("ex:S ex:p _x .", "unexpected word '_x'", "2:11", id="underscore-word"),
            pytest.param("ex:S ex:p ex:O ! .", "unexpected character '!'", "2:16", id="character"),
            pytest.param("ex:S ex:p é .", "unexpected character 'é'", "2:11", id="non-ascii-letter"),
            pytest.param("ex:S ex:p ex:O - .", "unexpected character '-'", "2:16", id="lone-minus"),
            pytest.param("ex:S ex:p ex:O ,, .", "expected an object, found ','", "2:17", id="double-comma"),
            pytest.param("ex:S .", "expected a predicate, found '.'", "2:6", id="no-predicate"),
            pytest.param("ex:S ex:p ex:O ; ; .", "expected a predicate, found ';'", "2:18", id="double-semicolon"),
            pytest.param(". ex:S", "expected a subject IRI, found '.'", "2:1", id="no-subject"),
            pytest.param('"lit" ex:p ex:O .', "expected a subject IRI, found a string literal", "2:1", id="literal-subject"),
            pytest.param("a ex:p ex:O .", "expected a subject IRI, found 'a'", "2:1", id="a-subject"),
            pytest.param("ex:S a .", "expected an object, found '.'", "2:8", id="no-object"),
            pytest.param("ex:S ex:p a .", "expected an object, found 'a'", "2:11", id="a-object"),
            pytest.param("ex:S ex:p ex:O", "expected ';', ',' or '.', found end of input", "2:15", id="no-dot"),
            # a comment that runs to the end of input leaves the position at its '#'
            pytest.param(
                "ex:S ex:p ex:O # trailing",
                "expected ';', ',' or '.', found end of input",
                "2:16",
                id="no-dot-trailing-comment",
            ),
            pytest.param("ex:S ex:p ex:O ex:T .", "expected ';', ',' or '.', found 'ex:T'", "2:16", id="two-objects"),
            pytest.param(
                "ex:S ex:p <http://e/o> <http://e/x> .",
                "expected ';', ',' or '.', found 'http://e/x'",
                "2:24",
                id="two-iri-objects",
            ),
            pytest.param("ex:S ex:p @prefix .", "expected an object, found '@prefix'", "2:11", id="prefix-object"),
            pytest.param("ex:S @prefix ex:O .", "expected a predicate, found '@prefix'", "2:6", id="prefix-predicate"),
            pytest.param("ex:S ex:p ex:O ;", "expected a predicate, found end of input", "2:17", id="semicolon-at-end"),
            pytest.param("@prefix", "expected a prefix name like 'ex:', found end of input", "2:8", id="prefix-at-end"),
            pytest.param(
                "@prefix <http://e/> .",
                "expected a prefix name like 'ex:', found 'http://e/'",
                "2:9",
                id="prefix-without-name",
            ),
            pytest.param(
                "@prefix ex:foo <http://e/> .",
                "prefix declaration must end with ':', got 'ex:foo'",
                "2:9",
                id="prefix-with-local",
            ),
            pytest.param(
                "@prefix ex: ex:foo .", "expected an IRI in angle brackets, found 'ex:foo'", "2:13", id="prefix-pname"
            ),
            pytest.param("@prefix ex: <http://e/>", "expected '.', found end of input", "2:24", id="prefix-no-dot"),
            pytest.param("@prefix ex: <http://e/> ;", "expected '.', found ';'", "2:25", id="prefix-semicolon"),
            pytest.param(
                '@prefix ex: "x" .',
                "expected an IRI in angle brackets, found a string literal",
                "2:13",
                id="prefix-literal",
            ),
            # the whole document is tokenized before parsing, so a token error wins
            pytest.param("ex:S . ex:T ex:p 42 .", "numeric literals are not supported", "2:18", id="token-error-first"),
            pytest.param("# note\n\tex:S ex:p 42 .", "numeric literals are not supported", "3:12", id="tab-and-comment"),
            pytest.param("# a\r\n\r\n  \tex:S ex:p [ .", "blank nodes are not supported", "4:14", id="crlf-lines"),
        ],
    )
    def test_exact_message_and_location(self, text, message, location):
        result = parse_turtle(HEADER + text)
        assert isinstance(result, ValidationReport)
        line, column = location.split(":")
        assert [error.to_dict() for error in result.errors] == [
            {"code": "ParseError", "message": message, "location": f"line {line}, column {column}"}
        ]

    def test_undefined_prefix_locations(self):
        text = HEADER + "ex:S foo:p foo:O .\n# c\n\tex:T ex:q bar:U , foo:V .\n:x ex:p ex:O ."
        result = parse_turtle(text)
        assert [error.to_dict() for error in result.errors] == [
            {
                "code": "UndefinedPrefix",
                "message": "prefix 'foo:' is used but never declared",
                "location": "line 2, column 6",
            },
            {
                "code": "UndefinedPrefix",
                "message": "prefix 'bar:' is used but never declared",
                "location": "line 4, column 12",
            },
            {
                "code": "UndefinedPrefix",
                "message": "prefix ':' is used but never declared",
                "location": "line 5, column 1",
            },
        ]

    def test_undefined_prefix_collected_once_each(self):
        text = HEADER + "ex:S foo:p foo:O .\nex:T bar:q ex:U ."
        result = parse_turtle(text)
        assert isinstance(result, ValidationReport)
        codes = [(e.code, e.message.split("'")[1]) for e in result.errors]
        assert sorted(codes) == [("UndefinedPrefix", "bar:"), ("UndefinedPrefix", "foo:")]

    def test_undefined_prefix_reported_even_with_later_parse_success(self):
        # collection happens across the document, not just the first statement
        result = parse_turtle("foo:S foo:p foo:O .")
        assert isinstance(result, ValidationReport)
        assert len(result.errors) == 1


# (defect, where in it the error is reported, message); each is inserted at a
# token boundary of a valid document, followed by a space. The whole text is
# tokenized before it is parsed, so the document stops matching at the defect.
DEFECTS = [
    ("42", 0, "numeric literals are not supported"),
    ("-7", 0, "numeric literals are not supported"),
    ("[", 0, "blank nodes are not supported"),
    ("_:b0", 0, "blank nodes are not supported"),
    ("(", 0, "collections are not supported"),
    ('"""x"""', 0, "multiline literals are not supported"),
    ('"x"^^xsd:string', 3, "typed literals are not supported"),
    ('"a\\q"', 2, "unsupported escape '\\q'"),
    ('"x"@', 4, "empty language tag"),
    ('"open\n', 0, "unterminated string literal"),
    ("<http://e/open\n", 0, "unterminated IRI reference"),
    ("@base", 0, "@base is not supported"),
    ("@prefixes", 0, "unknown directive '@prefixes'"),
    ("bogus", 0, "unexpected word 'bogus'"),
    ("!", 0, "unexpected character '!'"),
    ("é", 0, "unexpected character 'é'"),
]
STATEMENTS = [
    ["ex:A", "ex:p", "ex:B", "."],
    ["ex:A", "a", "owl:Class", "."],
    ["ex:A", "rdfs:label", '"x \\"y\\""@en-GB', "."],
    ["<http://e/A>", "ex:p", "ex:B", ",", "ex:C", ";", "ex:q", '"z"', ";", "."],
    ["@prefix", "ns:", "<http://e/ns#>", "."],
]
SEPARATORS = [" ", "\t", " \r\t", "\n", "\r\n", " # note\n", "\n\n  "]


@st.composite
def documents_with_one_defect(draw):
    statements = draw(st.lists(st.sampled_from(STATEMENTS), max_size=6))
    tokens = [token for statement in statements for token in statement]
    at = draw(st.integers(0, len(tokens)))
    defect, shift, message = draw(st.sampled_from(DEFECTS))
    text = HEADER
    for index, token in enumerate(tokens + [""]):
        if index == at:
            offset = len(text) + shift
            text += defect + " "
        text += token + draw(st.sampled_from(SEPARATORS))
    return text, offset, message


class TestTokenizerGuards:
    @given(documents_with_one_defect())
    @settings(max_examples=300, deadline=None)
    def test_error_location_is_the_offset_where_matching_stops(self, case):
        text, offset, message = case
        before = text[:offset]
        line, column = before.count("\n") + 1, len(before.split("\n")[-1]) + 1
        result = parse_turtle(text)
        assert isinstance(result, ValidationReport)
        assert [error.to_dict() for error in result.errors] == [
            {"code": "ParseError", "message": message, "location": f"line {line}, column {column}"}
        ]

    # any order of the tokens, however ungrammatical, reads to a result: the
    # parser never runs past the eof token or lets another exception out
    @given(
        st.lists(
            st.sampled_from(sorted({token for statement in STATEMENTS for token in statement}))
            | st.sampled_from([defect for defect, _, _ in DEFECTS]),
            max_size=16,
        ),
        st.lists(st.sampled_from(SEPARATORS), min_size=16, max_size=16),
    )
    @settings(max_examples=500, deadline=None)
    def test_any_token_order_parses_to_a_result(self, tokens, separators):
        text = HEADER + "".join(token + separator for token, separator in zip(tokens, separators))
        assert isinstance(parse_turtle(text), (OntologyDoc, ValidationReport))


SOLUNA_TEXT = (DATA_DIR / "soluna.ttl").read_text(encoding="utf-8")
STARBUCKS_TEXT = (DATA_DIR / "starbucks.ttl").read_text(encoding="utf-8")


class TestSerializer:
    def test_fixed_point(self):
        doc = parse_ok(SOLUNA_TEXT)
        first = serialize_turtle(doc)
        second = serialize_turtle(parse_ok(first))
        assert first == second

    def test_reparse_preserves_content(self):
        doc = parse_ok(SOLUNA_TEXT)
        again = parse_ok(serialize_turtle(doc))
        assert again.classes == doc.classes
        assert again.object_properties == doc.object_properties
        assert again.individuals == doc.individuals
        assert again.class_assertions == doc.class_assertions
        assert again.property_assertions == doc.property_assertions
        assert again.labels == doc.labels

    def test_empty_doc_serializes_to_prefixes_only(self):
        text = serialize_turtle(OntologyDoc())
        lines = [line for line in text.splitlines() if line]
        assert len(lines) == 4
        assert all(line.startswith("@prefix") for line in lines)
        assert parse_ok(text) is not None

    def test_untyped_individual_gets_named_individual(self):
        doc = OntologyDoc(individuals={EX + "Free"}, prefixes={"ex": EX})
        text = serialize_turtle(doc)
        assert "ex:Free a owl:NamedIndividual ." in text
        assert parse_ok(text).individuals == {EX + "Free"}

    def test_rebound_standard_prefix_falls_back_to_full_iri(self):
        doc = OntologyDoc(prefixes={"owl": "http://hijack.example/"}, classes={EX + "C"}, individuals=set())
        doc.prefixes["ex"] = EX
        text = serialize_turtle(doc)
        assert f"<{OWL_NS}Class>" in text

    def test_literal_escaping_round_trip(self):
        doc = OntologyDoc(
            prefixes={"ex": EX},
            property_assertions={(EX + "S", EX + "p", Literal('say "hi"\n\tok\\'))},
        )
        again = parse_ok(serialize_turtle(doc))
        assert again.property_assertions == doc.property_assertions

    def test_language_tag_preserved(self):
        doc = OntologyDoc(
            prefixes={"ex": EX},
            property_assertions={(EX + "S", EX + "p", Literal("vert", "fr"))},
        )
        again = parse_ok(serialize_turtle(doc))
        assert again.property_assertions == doc.property_assertions


names = st.sampled_from(["Alpha", "Beta", "Gamma", "Delta", "Epsilon", "Zeta", "Eta", "Theta"])
label_text = st.text(
    alphabet='abc XYZ"\\\n\t\r\'', min_size=1, max_size=12
)


@st.composite
def ontology_docs(draw):
    classes = {EX + name for name in draw(st.sets(names, max_size=3))}
    properties = {EX + name.lower() for name in draw(st.sets(names, max_size=2))}
    individual_pool = [EX + "i" + name for name in ("One", "Two", "Three", "Four")]
    individuals = set(draw(st.sets(st.sampled_from(individual_pool), max_size=4)))
    class_assertions = set()
    if classes and individuals:
        class_assertions = {
            (ind, draw(st.sampled_from(sorted(classes))))
            for ind in draw(st.sets(st.sampled_from(sorted(individuals)), max_size=3))
        }
    property_assertions = set()
    if properties and individuals:
        for _ in range(draw(st.integers(0, 4))):
            subject = draw(st.sampled_from(sorted(individuals)))
            predicate = draw(st.sampled_from(sorted(properties)))
            if draw(st.booleans()):
                obj: str | Literal = draw(st.sampled_from(sorted(individuals)))
            else:
                obj = Literal(draw(label_text), draw(st.sampled_from([None, "en", "de"])))
            property_assertions.add((subject, predicate, obj))
    labels = {
        iri: draw(label_text)
        for iri in draw(st.sets(st.sampled_from(sorted(individuals | classes) or ["x"]), max_size=2))
        if iri != "x"
    }
    return OntologyDoc(
        prefixes={"ex": EX},
        classes=classes,
        object_properties=properties,
        individuals=individuals,
        class_assertions=class_assertions,
        property_assertions=property_assertions,
        labels=labels,
    )


class TestRoundTripProperty:
    @given(ontology_docs())
    @settings(max_examples=200, deadline=None)
    def test_serialize_parse_fixed_point(self, doc):
        first = serialize_turtle(doc)
        reparsed = parse_turtle(first)
        assert isinstance(reparsed, OntologyDoc)
        assert serialize_turtle(reparsed) == first

    @given(ontology_docs())
    @settings(max_examples=200, deadline=None)
    def test_content_preserved(self, doc):
        again = parse_turtle(serialize_turtle(doc))
        assert isinstance(again, OntologyDoc)
        assert again.classes == doc.classes
        assert again.object_properties == doc.object_properties
        assert again.class_assertions == doc.class_assertions
        assert again.property_assertions == doc.property_assertions
        # labels on label-less docs: every original label survives
        assert again.labels == doc.labels
        assert again.individuals == doc.individuals


class TestCompactOncePerIri:
    @given(ontology_docs())
    @settings(max_examples=100, deadline=None)
    def test_one_compact_call_per_distinct_iri(self, doc):
        expected = serialize_turtle(doc)
        calls = Counter()
        compact = rdf._compact

        def counting(iri, prefixes):
            calls[iri] += 1
            return compact(iri, prefixes)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rdf, "_compact", counting)
            assert serialize_turtle(doc) == expected
        assert calls and max(calls.values()) == 1


class TestValidateOwl:
    def test_clean_document(self):
        doc = parse_ok(SOLUNA_TEXT)
        report = validate_owl(doc)
        assert report.ok
        assert report.warnings == []

    def test_undeclared_property(self):
        doc = parse_ok(HEADER + "ex:S ex:mystery ex:O .")
        report = validate_owl(doc)
        codes = {e.code for e in report.errors}
        assert "UndeclaredProperty" in codes
        assert any("ex:mystery" in e.message for e in report.errors)

    def test_undeclared_class(self):
        doc = parse_ok(HEADER + "ex:S a ex:Ghost .")
        report = validate_owl(doc)
        assert [e.code for e in report.errors] == ["UndeclaredClass"]

    def test_one_error_per_distinct_iri(self):
        text = HEADER + "ex:A ex:p ex:B .\nex:C ex:p ex:D .\nex:E ex:q ex:F ."
        report = validate_owl(parse_ok(text))
        assert [e.code for e in report.errors] == ["UndeclaredProperty"] * 2
        assert [e.location for e in report.errors] == ["ex:p", "ex:q"]

    def test_standard_namespace_exempt(self):
        text = HEADER + (
            "ex:Org a owl:Class .\n"
            "ex:S a ex:Org ;\n"
            "  rdfs:seeAlso ex:T .\n"
            "ex:U a owl:Thing .\n"
        )
        report = validate_owl(parse_ok(text))
        assert report.errors == []

    def test_untyped_individual_warning(self):
        text = HEADER + "ex:p a owl:ObjectProperty .\nex:S ex:p ex:O ."
        report = validate_owl(parse_ok(text))
        assert report.ok
        assert sorted(w.location for w in report.warnings) == ["ex:O", "ex:S"]

    def test_literal_objects_never_warned(self):
        text = HEADER + 'ex:p a owl:ObjectProperty .\nex:S a owl:NamedIndividual ; ex:p "txt" .'
        report = validate_owl(parse_ok(text))
        assert report.warnings == []

    def test_errors_sorted_and_deterministic(self):
        text = HEADER + "ex:S ex:zz ex:O .\nex:S ex:aa ex:O ."
        report = validate_owl(parse_ok(text))
        assert [e.location for e in report.errors] == ["ex:aa", "ex:zz"]


BLANK_TERM_CASES = {
    "empty-iri": ("ex:C a owl:Class .\n<> a ex:C .", [("BlankLabel", "<>")]),
    "whitespace-local-name": (
        f"ex:C a owl:Class .\n<{EX} > a ex:C .", [("BlankLabel", f"<{EX} >")]
    ),
    "blank-labelled-empty-iri": (
        '<> a owl:Class ; rdfs:label " " .\nex:x a <> .', [("BlankLabel", "<>")]
    ),
    "blank-predicate": (
        "<> a owl:ObjectProperty .\nex:a a owl:NamedIndividual ; <> ex:a .", [("BlankLabel", "<>")]
    ),
    "empty-literal": (
        'ex:P a owl:DatatypeProperty .\nex:a a owl:NamedIndividual ; ex:P "" .',
        [("BlankLiteral", "ex:a ex:P")],
    ),
    "whitespace-literal": (
        'ex:P a owl:DatatypeProperty .\nex:a a owl:NamedIndividual ; ex:P " \\t"@en .',
        [("BlankLiteral", "ex:a ex:P")],
    ),
}


class TestBlankTerms:
    @pytest.mark.parametrize("case", sorted(BLANK_TERM_CASES))
    def test_blank_kb_labels_are_errors(self, case):
        text, expected = BLANK_TERM_CASES[case]
        report = validate_owl(parse_ok(HEADER + text))
        assert [(e.code, e.location) for e in report.errors] == expected
        with pytest.raises(InvalidDocError):
            ontology_to_kb(parse_ok(HEADER + text), source_id="a1")

    def test_labelled_blank_iri_is_valid(self):
        doc = parse_ok(HEADER + '<> a owl:Class ; rdfs:label "Thing" .\nex:x a <> .')
        assert validate_owl(doc).ok
        assert ("x", "instanceOf", "Thing") in ontology_to_kb(doc, source_id="a1").triples

    @pytest.mark.parametrize("label", ['""', '" "', '"\\t\\n"@en'])
    def test_blank_label_falls_back_to_local_name(self, label):
        doc = parse_ok(HEADER + f"ex:Org a owl:Class ; rdfs:label {label} .\nex:x a ex:Org .")
        assert validate_owl(doc).ok
        kb = ontology_to_kb(doc, source_id="a1")
        assert ("x", "instanceOf", "Org") in kb.triples
        assert kb.entities == {"x", "Org"}

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["ex:A", "<>", "< >", f"<{EX} >", f"<{EX}B>"]),
                st.sampled_from([None, '""', '" "', '"Alpha"']),
                st.sampled_from([None, '""', '"\\t"', '"x"']),
            ),
            max_size=4,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_validate_flags_exactly_the_docs_that_cannot_convert(self, statements):
        text = HEADER + "ex:C a owl:Class .\nex:p a owl:DatatypeProperty .\n" + "".join(
            f"{term} a ex:C"
            + (f" ; rdfs:label {label}" if label else "")
            + (f" ; ex:p {literal}" if literal else "")
            + " .\n"
            for term, label, literal in statements
        )
        doc, report = validate_text(text)
        assert {e.code for e in report.errors} <= {"BlankLabel", "BlankLiteral"}
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rdf, "validate_owl", lambda _: ValidationReport())
            try:
                ontology_to_kb(doc, source_id="a1")
                converts = True
            except ValueError:
                converts = False
        assert report.ok == converts


class TestDefectInjection:
    def build_valid_text(self, property_count: int) -> tuple[str, list[str]]:
        lines = [HEADER.rstrip(), "ex:Org a owl:Class ."]
        declarations = []
        for index in range(property_count):
            declarations.append(f"ex:prop{index} a owl:ObjectProperty .")
        lines.extend(declarations)
        lines.append("ex:S a ex:Org .")
        lines.append("ex:T a ex:Org .")
        for index in range(property_count):
            lines.append(f"ex:S ex:prop{index} ex:T .")
        return "\n".join(lines) + "\n", declarations

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_removing_k_declarations_yields_k_errors(self, k):
        text, declarations = self.build_valid_text(5)
        assert validate_text(text)[1].ok
        for removed in declarations[:k]:
            text = text.replace(removed + "\n", "")
        _, report = validate_text(text)
        assert len(report.errors) == k
        assert all(e.code == "UndeclaredProperty" for e in report.errors)

    def test_removing_class_declaration(self):
        text, _ = self.build_valid_text(1)
        broken = text.replace("ex:Org a owl:Class .\n", "")
        _, report = validate_text(broken)
        assert [e.code for e in report.errors] == ["UndeclaredClass"]


class TestRepairPrompt:
    def test_requires_errors(self):
        with pytest.raises(NoErrorsError):
            build_repair_prompt("out", ValidationReport())

    def test_numbered_errors_and_previous_output(self):
        _, report = validate_text(HEADER + "ex:S ex:p ex:O .\nex:S ex:q ex:O .")
        prompt = build_repair_prompt("THE PREVIOUS TEXT", report)
        assert "1. [UndeclaredProperty] at ex:p:" in prompt
        assert "2. [UndeclaredProperty] at ex:q:" in prompt
        assert prompt.endswith("Previous output:\nTHE PREVIOUS TEXT")
        assert "RDF Turtle format only" in prompt

    def test_deterministic(self):
        _, report = validate_text(HEADER + "ex:S ex:p ex:O .")
        assert build_repair_prompt("x", report) == build_repair_prompt("x", report)


class TestRepairLoop:
    INVALID = HEADER + "ex:S ex:p ex:O ."
    VALID = HEADER + "ex:p a owl:ObjectProperty .\nex:S a owl:NamedIndividual .\nex:S ex:p ex:S ."

    def scripted(self, outputs: list[str]):
        prompts: list[str] = []

        def complete(prompt: str) -> str:
            prompts.append(prompt)
            return outputs[len(prompts) - 1]

        return complete, prompts

    def test_success_on_first_attempt(self):
        complete, prompts = self.scripted([self.VALID])
        doc, attempts = repair_until_valid("start", complete)
        assert doc is not None
        assert len(attempts) == 1
        assert prompts == ["start"]

    def test_repair_after_failures(self):
        complete, prompts = self.scripted([self.INVALID, "not turtle at all {{{", self.VALID])
        doc, attempts = repair_until_valid("start", complete, max_attempts=3)
        assert doc is not None
        assert len(attempts) == 3
        assert prompts[0] == "start"
        assert "Previous output:\n" + self.INVALID in prompts[1]
        assert "not turtle at all" in prompts[2]
        assert not attempts[0].report.ok
        assert attempts[2].report.ok

    def test_blank_kb_label_is_sent_back_for_repair(self):
        blank = HEADER + 'ex:p a owl:DatatypeProperty .\nex:S a owl:NamedIndividual ; ex:p "" .'
        complete, prompts = self.scripted([blank, self.VALID])
        doc, attempts = repair_until_valid("start", complete, max_attempts=2)
        assert doc is not None
        assert "[BlankLiteral] at ex:S ex:p: ex:S ex:p has a blank literal object" in prompts[1]

    def test_gives_up_after_max_attempts(self):
        complete, prompts = self.scripted([self.INVALID] * 2)
        doc, attempts = repair_until_valid("start", complete, max_attempts=2)
        assert doc is None
        assert len(attempts) == 2
        assert len(prompts) == 2

    def test_max_attempts_validation(self):
        with pytest.raises(ValueError):
            repair_until_valid("p", lambda _: "", max_attempts=0)


class TestOntologyToKb:
    def test_soluna_fixture_triples(self):
        doc = parse_ok(SOLUNA_TEXT)
        kb = ontology_to_kb(doc, source_id="a1", backend_id="onto")
        assert set(kb.triples) == {
            ("Soluna", "instanceOf", "Organizations"),
            ("Excess Energy", "instanceOf", "Practices"),
            ("Soluna", "utilizes", "Excess Energy"),
        }
        provenance = list(kb.triples[("Soluna", "utilizes", "Excess Energy")])
        assert len(provenance) == 1
        assert provenance[0].article_id == "a1"
        assert provenance[0].batch_index is None
        assert provenance[0].backend_id == "onto"
        assert "Organizations" in kb.entities
        assert "Excess Energy" in kb.entities

    def test_starbucks_fixture_triples(self):
        kb = ontology_to_kb(parse_ok(STARBUCKS_TEXT), source_id="a2")
        assert ("Starbucks", "instanceOf", "Organization") in kb.triples
        assert ("Starbucks", "hasPractice", "ResourceSharing") in kb.triples

    def test_invalid_doc_refused(self):
        doc = parse_ok(HEADER + "ex:S ex:p ex:O .")
        with pytest.raises(InvalidDocError):
            ontology_to_kb(doc, source_id="a1")

    def test_literal_objects_become_text(self):
        text = HEADER + (
            "ex:p a owl:DatatypeProperty .\n"
            "ex:S a owl:NamedIndividual .\n"
            'ex:S ex:p "42 tonnes" .'
        )
        kb = ontology_to_kb(parse_ok(text), source_id="a1")
        assert ("S", "p", "42 tonnes") in kb.triples

    def test_label_fallback_to_local_name(self):
        text = HEADER + (
            "ex:Org a owl:Class .\n"
            "ex:NoLabel a ex:Org .\n"
        )
        kb = ontology_to_kb(parse_ok(text), source_id="a1")
        assert ("NoLabel", "instanceOf", "Org") in kb.triples

    def test_each_entity_label_resolved_once(self):
        lines = ["ex:Org a owl:Class .", "ex:links a owl:ObjectProperty .", "ex:Hub a ex:Org ."]
        for index in range(5):
            lines += [f"ex:N{index} a ex:Org .", f"ex:Hub ex:links ex:N{index} .", f"ex:N{index} ex:links ex:Hub ."]
        doc = parse_ok(HEADER + "\n".join(lines))
        expected = ontology_to_kb(doc, source_id="a1")
        calls = Counter()
        resolve = rdf.local_name

        def counting(iri):
            calls[iri] += 1
            return resolve(iri)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rdf, "local_name", counting)
            kb = ontology_to_kb(doc, source_id="a1")
        assert kb == expected
        assert len([key for key in kb.triples if "Hub" in key]) == 11
        assert calls[EX + "Hub"] == 1
        assert max(calls.values()) == 1
