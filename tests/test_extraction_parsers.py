from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from textkg.extraction import (
    _LIST_PREFIX,
    ParseReport,
    Provenance,
    Triplet,
    parse_chat_triples,
    parse_seq2seq_output,
)

from .conftest import serialize_seq2seq_output


class TestSeq2seqParser:
    def test_single_triplet(self):
        triplets, report = parse_seq2seq_output("<triplet> Samsung <subj> industry <obj> electronics")
        assert triplets == [Triplet("Samsung", "industry", "electronics")]
        assert report.triplets_emitted == 1
        assert report.segments_skipped == 0

    def test_multiple_triplets(self):
        text = (
            "<triplet> Samsung <subj> industry <obj> electronics "
            "<triplet> Samsung <subj> founded <obj> 1938"
        )
        triplets, _ = parse_seq2seq_output(text)
        assert [t.object for t in triplets] == ["electronics", "1938"]

    def test_noise_tokens_stripped(self):
        text = "<s><triplet> Samsung <subj> industry<pad> <obj> electronics</s>"
        triplets, report = parse_seq2seq_output(text)
        assert triplets == [Triplet("Samsung", "industry", "electronics")]
        assert report.segments_skipped == 0

    def test_missing_subj_marker_skipped(self):
        triplets, report = parse_seq2seq_output("<triplet> A <obj> B")
        assert triplets == []
        assert report.segments_skipped == 1
        assert "missing <subj>" in report.skip_reasons[0][1]

    def test_obj_before_subj_skipped(self):
        triplets, report = parse_seq2seq_output("<triplet> A <obj> B <subj> C")
        assert triplets == []
        assert report.segments_skipped == 1

    def test_empty_field_skipped(self):
        triplets, report = parse_seq2seq_output("<triplet> A <subj> <obj> C")
        assert triplets == []
        assert report.segments_skipped == 1

    def test_duplicate_marker_skipped(self):
        triplets, report = parse_seq2seq_output("<triplet> A <subj> B <subj> C <obj> D")
        assert triplets == []
        assert report.segments_skipped == 1

    def test_text_before_first_marker_counts_once(self):
        triplets, report = parse_seq2seq_output("noise here <triplet> A <subj> b <obj> C")
        assert len(triplets) == 1
        assert report.segments_skipped == 1
        assert "before the first" in report.skip_reasons[0][1]

    def test_whitespace_before_first_marker_not_counted(self):
        _, report = parse_seq2seq_output("   <triplet> A <subj> b <obj> C")
        assert report.segments_skipped == 0

    def test_no_markers_at_all(self):
        triplets, report = parse_seq2seq_output("just some prose")
        assert triplets == []
        assert report.segments_skipped == 1

    def test_empty_string(self):
        triplets, report = parse_seq2seq_output("")
        assert triplets == []
        assert report.triplets_emitted == 0
        assert report.segments_skipped == 0

    def test_provenance_attached(self):
        prov = Provenance("a1", 2, "b1")
        triplets, _ = parse_seq2seq_output("<triplet> A <subj> b <obj> C", prov)
        assert triplets[0].provenance == prov

    def test_internal_whitespace_collapsed(self):
        triplets, _ = parse_seq2seq_output("<triplet>  New   York <subj> located  in <obj> the   USA ")
        assert triplets == [Triplet("New York", "located in", "the USA")]

    def test_accounting_identity(self):
        text = (
            "junk <triplet> A <subj> b <obj> C <triplet> broken <triplet> D <subj> e <obj> F"
        )
        triplets, report = parse_seq2seq_output(text)
        # 4 segments: head junk, one good, one broken, one good
        assert report.triplets_emitted == len(triplets) == 2
        assert report.segments_skipped == 2
        assert report.triplets_emitted + report.segments_skipped == 4


class TestSeq2seqRoundTrip:
    def test_serialize_format(self):
        triplets = [Triplet("A", "b", "C"), Triplet("D", "e", "F")]
        text = serialize_seq2seq_output(triplets)
        assert text == "<triplet> A <subj> b <obj> C <triplet> D <subj> e <obj> F"

    # field alphabet avoids whitespace runs and marker-like substrings; the
    # round trip is only promised for fields the markers can delimit
    fields = st.text(alphabet="abcdefgh XYZ'", min_size=1, max_size=20).map(
        lambda s: " ".join(s.split())
    ).filter(bool)

    @given(st.lists(st.tuples(fields, fields, fields), min_size=0, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_round_trip(self, rows):
        triplets = [Triplet(s, p, o) for s, p, o in rows]
        parsed, report = parse_seq2seq_output(serialize_seq2seq_output(triplets))
        assert parsed == triplets
        assert report.segments_skipped == 0
        assert report.triplets_emitted == len(triplets)

    @given(st.text(alphabet="abc <subj> <obj> <triplet> <s> </s> <pad>|\n", max_size=400))
    @settings(max_examples=500, deadline=None)
    def test_fuzz_never_crashes_and_accounts(self, text: str):
        triplets, report = parse_seq2seq_output(text)
        assert report.triplets_emitted == len(triplets)
        assert report.segments_skipped == len(report.skip_reasons)
        for triplet in triplets:
            assert triplet.subject and triplet.predicate and triplet.object


class TestChatTriplesParser:
    def test_basic_lines(self):
        text = "Soluna | utilizes | Excess Energy\nSoluna | operates in | Kentucky"
        triplets, report = parse_chat_triples(text)
        assert len(triplets) == 2
        assert triplets[1] == Triplet("Soluna", "operates in", "Kentucky")
        assert report.segments_skipped == 0

    def test_bullets_and_numbering_stripped(self):
        text = "- A | b | C\n* D | e | F\n1. G | h | I\n2) J | k | L\n(3) M | n | O"
        triplets, report = parse_chat_triples(text)
        assert [t.subject for t in triplets] == ["A", "D", "G", "J", "M"]
        assert report.segments_skipped == 0

    def test_preamble_line_ignored_not_skipped(self):
        text = "Here are the extracted relations:\nA | b | C"
        triplets, report = parse_chat_triples(text)
        assert len(triplets) == 1
        assert report.segments_skipped == 0

    def test_prose_without_colon_is_skipped(self):
        triplets, report = parse_chat_triples("this line is junk\nA | b | C")
        assert len(triplets) == 1
        assert report.segments_skipped == 1

    def test_fences_ignored(self):
        text = "```\nA | b | C\n```"
        triplets, report = parse_chat_triples(text)
        assert len(triplets) == 1
        assert report.segments_skipped == 0

    def test_wrong_field_count_skipped(self):
        for bad in ("A | b", "A | b | C | d", "A |  | C"):
            triplets, report = parse_chat_triples(bad)
            assert triplets == []
            assert report.segments_skipped == 1

    def test_blank_lines_ignored(self):
        triplets, report = parse_chat_triples("\n\nA | b | C\n\n")
        assert len(triplets) == 1
        assert report.segments_skipped == 0

    def test_provenance_attached(self):
        prov = Provenance("a9", None, "chat")
        triplets, _ = parse_chat_triples("A | b | C", prov)
        assert triplets[0].provenance == prov

    @given(st.text(alphabet="abc |:\n`-*1.)(", max_size=300))
    @settings(max_examples=500, deadline=None)
    def test_fuzz_accounting(self, text: str):
        triplets, report = parse_chat_triples(text)
        assert report.triplets_emitted == len(triplets)
        assert report.segments_skipped == len(report.skip_reasons)
        for triplet in triplets:
            assert "|" not in triplet.subject
            assert triplet.subject == triplet.subject.strip()


def parse_chat_triples_reference(text: str, provenance: Provenance | None = None):
    """parse_chat_triples as it reads with its list-marker regex run on every
    line and every triplet built through the checking Triplet(...)."""
    report = ParseReport()
    triplets = []
    for raw_line in text.splitlines():
        line = _LIST_PREFIX.sub("", raw_line).strip()
        if not line or not line.strip("`") or ("|" not in line and line.endswith(":")):
            continue
        parts = [part.strip() for part in line.split("|")]
        if len(parts) != 3:
            report._skip(line, f"expected 3 pipe-delimited fields, got {len(parts)}")
        elif not all(parts):
            report._skip(line, "empty field")
        else:
            triplets.append(Triplet(*parts, provenance))
            report.triplets_emitted += 1
    return triplets, report


# a space, an ideographic space (U+3000), an Arabic-Indic digit three (U+0663), the bullets, numbering and fences
chat_line_starts = st.sampled_from([" ", "\u3000", "\u0663", "\t", "•", "(", "-", "*", "`", "|", "1", "12", "a", ""])
chat_line_rests = st.text(alphabet=" \u3000\u0663\u00a0•(-*`|:.)1a", max_size=16)
chat_texts = st.lists(st.tuples(chat_line_starts, chat_line_rests).map("".join), max_size=10).map("\n".join)


@given(chat_texts | st.text(alphabet=" \u3000\u0663•(-*`|:.)1a\n\r\u2028", max_size=200))
@example("\u3000- A | r | B\n\u0663. A | r | B\n(2) A | r | B\n• | r | B\n`A | r | B`\n| A | r\n\u00a0*  A | r |  ")
@settings(max_examples=500, deadline=None)
def test_chat_parser_runs_the_marker_regex_only_where_it_can_match(text):
    provenance = Provenance("a1", None, "chat")
    triplets, report = parse_chat_triples(text, provenance)
    expected, expected_report = parse_chat_triples_reference(text, provenance)
    assert report == expected_report
    assert triplets == expected
    # built without the blank check, each is still the Triplet the checking constructor makes
    assert [(type(t), t.subject, t.predicate, t.object, t.provenance) for t in triplets] == [
        (Triplet, *Triplet(*t)) for t in triplets
    ]


class TestTripletValidation:
    def test_empty_fields_rejected(self):
        for bad in (("", "b", "c"), ("a", " ", "c"), ("a", "b", "")):
            with pytest.raises(ValueError):
                Triplet(*bad)


class TestRecordTypes:
    def test_provenance_is_a_named_tuple_with_the_field_tuple_hash(self):
        prov = Provenance("a1", 3, "chat")
        assert (prov.article_id, prov.batch_index, prov.backend_id) == ("a1", 3, "chat")
        assert repr(prov) == "Provenance(article_id='a1', batch_index=3, backend_id='chat')"
        assert hash(prov) == hash(("a1", 3, "chat"))
        assert hash(Provenance("a1", None, "chat")) == hash(("a1", None, "chat"))
        with pytest.raises(AttributeError):
            prov.article_id = "a2"

    @pytest.mark.parametrize(
        "fields, name",
        [
            (("", "b", "c"), "subject"),
            (("a", " \t", "c"), "predicate"),
            (("a", "b", "\n"), "object"),
            (("", "", ""), "subject"),
            (("a", "", ""), "predicate"),
        ],
    )
    def test_triplet_names_the_first_blank_field(self, fields, name):
        with pytest.raises(ValueError, match=f"^triplet {name} must be non-empty$"):
            Triplet(*fields)

    def test_triplet_is_frozen_and_slotted(self):
        triplet = Triplet("A", "b", "C", Provenance("a1", 0, "chat"))
        with pytest.raises(dataclasses.FrozenInstanceError):
            triplet.subject = "D"
        assert not hasattr(triplet, "__dict__")
        assert triplet == Triplet("A", "b", "C", Provenance("a1", 0, "chat"))
        assert hash(triplet) == hash(Triplet("A", "b", "C", Provenance("a1", 0, "chat")))

    def test_triplet_is_a_named_tuple_with_the_field_tuple_hash(self):
        prov = Provenance("a1", 0, "chat")
        triplet = Triplet("A", "b", "C", prov)
        assert repr(triplet) == (
            "Triplet(subject='A', predicate='b', object='C',"
            " provenance=Provenance(article_id='a1', batch_index=0, backend_id='chat'))"
        )
        assert repr(Triplet("A", "b", "C")) == "Triplet(subject='A', predicate='b', object='C', provenance=None)"
        subject, predicate, obj, provenance = triplet
        assert (subject, predicate, obj, provenance) == ("A", "b", "C", prov)
        assert triplet == ("A", "b", "C", prov)
        assert hash(triplet) == hash(tuple(triplet))
        assert Triplet("A", "b", "C") < Triplet("A", "c", "B")
        with pytest.raises(dataclasses.FrozenInstanceError, match="^cannot delete field 'subject'$"):
            del triplet.subject
        with pytest.raises(dataclasses.FrozenInstanceError):
            triplet.other = "D"

    @pytest.mark.parametrize(
        "rebuild",
        [
            lambda t: Triplet._make(t),
            lambda t: t._replace(),
            copy.copy,
            copy.deepcopy,
            lambda t: pickle.loads(pickle.dumps(t)),
        ],
        ids=["make", "replace", "copy", "deepcopy", "pickle"],
    )
    def test_every_tuple_rebuild_runs_the_blank_check(self, rebuild):
        triplet = Triplet("A", "b", "C", Provenance("a1", None, "chat"))
        assert rebuild(triplet) == triplet and type(rebuild(triplet)) is Triplet
        blank = tuple.__new__(Triplet, ("A", " ", "C", None))  # as if built around the check
        with pytest.raises(ValueError, match="^triplet predicate must be non-empty$"):
            rebuild(blank)

    def test_replace_checks_the_new_fields(self):
        triplet = Triplet("A", "b", "C")
        assert triplet._replace(object="D") == Triplet("A", "b", "D")
        with pytest.raises(ValueError, match="^triplet subject must be non-empty$"):
            triplet._replace(subject=" ")
