from __future__ import annotations

import datetime as dt
import json
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from textkg.corpus import (
    Article,
    DuplicateIdError,
    FetchError,
    InvalidRangeError,
    MalformedRecordError,
    article_to_dict,
    fetch_articles,
    filter_by_date,
    load_corpus,
    write_corpus,
)

from textkg.pipeline import load_config, read_corpus

from .conftest import DATA_DIR, NEWS_PAYLOAD

GOOD_RECORD = {
    "id": "a1",
    "title": "Soluna soaks up surplus power",
    "body": "Soluna soaks up excess energy in Kentucky.",
    "source_domain": "greenreport.example",
    "published_at": "2023-02-20",
    "language": "en",
}


def write_lines(path: Path, lines: list[str]) -> Path:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_article_word_count_derived():
    article = Article(**{**GOOD_RECORD, "published_at": dt.date(2023, 2, 20)})
    assert article.word_count == len(GOOD_RECORD["body"].split())


def test_article_empty_id_rejected():
    with pytest.raises(ValueError):
        Article(**{**GOOD_RECORD, "id": "", "published_at": dt.date(2023, 2, 20)})


def test_load_corpus_roundtrip(tmp_path):
    path = write_lines(tmp_path / "c.jsonl", [json.dumps(GOOD_RECORD)])
    articles = list(load_corpus(path))
    assert len(articles) == 1
    assert articles[0].id == "a1"
    assert articles[0].published_at == dt.date(2023, 2, 20)
    assert articles[0].word_count == 7

    out = tmp_path / "out.jsonl"
    write_corpus(articles, out)
    assert list(load_corpus(out)) == articles


def test_load_corpus_skips_blank_lines(tmp_path):
    path = write_lines(tmp_path / "c.jsonl", [json.dumps(GOOD_RECORD), "", "   "])
    assert len(list(load_corpus(path))) == 1


def test_load_corpus_bad_json_reports_line_number(tmp_path):
    path = write_lines(tmp_path / "c.jsonl", [json.dumps(GOOD_RECORD), "{not json"])
    with pytest.raises(MalformedRecordError) as exc_info:
        list(load_corpus(path))
    assert exc_info.value.line_number == 2


def test_load_corpus_reads_one_line_per_article(tmp_path):
    path = write_lines(tmp_path / "c.jsonl", [json.dumps(GOOD_RECORD), "{not json", json.dumps(GOOD_RECORD)])
    articles = load_corpus(path)
    assert next(articles).id == "a1"
    with pytest.raises(MalformedRecordError, match="line 2"):
        next(articles)


@pytest.mark.parametrize(
    "mutation",
    [
        {"published_at": "02/20/2023"},
        {"published_at": "2023-13-40"},
        {"id": 7},
        {"title": None},
    ],
)
def test_load_corpus_rejects_bad_fields(tmp_path, mutation):
    record = {**GOOD_RECORD, **mutation}
    path = write_lines(tmp_path / "c.jsonl", [json.dumps(record)])
    with pytest.raises(MalformedRecordError):
        list(load_corpus(path))


@pytest.mark.parametrize(
    ("line", "message"),
    [
        (json.dumps(list(GOOD_RECORD.values())), "line 2: record is not a JSON object"),
        (json.dumps({**GOOD_RECORD, "id": ""}), "line 2: empty id"),
        # every missing key is reported before any badly typed one, each in REQUIRED_KEYS order
        (json.dumps({k: v for k, v in GOOD_RECORD.items() if k != "language"} | {"id": 7}),
         "line 2: missing key 'language'"),
        (json.dumps({**GOOD_RECORD, "title": None, "language": 3}), "line 2: field 'title' must be a string"),
    ],
)
def test_load_corpus_names_the_line_and_the_first_fault(tmp_path, line, message):
    path = write_lines(tmp_path / "c.jsonl", [json.dumps({**GOOD_RECORD, "id": "a0"}), line])
    with pytest.raises(MalformedRecordError) as exc_info:
        list(load_corpus(path))
    assert str(exc_info.value) == message


def test_load_corpus_missing_key(tmp_path):
    record = dict(GOOD_RECORD)
    del record["language"]
    path = write_lines(tmp_path / "c.jsonl", [json.dumps(record)])
    with pytest.raises(MalformedRecordError) as exc_info:
        list(load_corpus(path))
    assert "language" in str(exc_info.value)


def test_load_corpus_duplicate_id(tmp_path):
    path = write_lines(tmp_path / "c.jsonl", [json.dumps(GOOD_RECORD)] * 2)
    with pytest.raises(DuplicateIdError) as exc_info:
        list(load_corpus(path))
    assert exc_info.value.article_id == "a1"


def test_load_corpus_empty_body_kept_and_logged(tmp_path, caplog):
    record = {**GOOD_RECORD, "body": "  "}
    path = write_lines(tmp_path / "c.jsonl", [json.dumps(record)])
    with caplog.at_level("WARNING"):
        articles = list(load_corpus(path))
    assert len(articles) == 1
    assert articles[0].word_count == 0
    assert any("a1" in message for message in caplog.messages)


def test_article_to_dict_includes_word_count():
    article = Article(**{**GOOD_RECORD, "published_at": dt.date(2023, 2, 20)})
    as_dict = article_to_dict(article)
    assert as_dict["word_count"] == 7
    assert as_dict["published_at"] == "2023-02-20"


def _article(article_id: str, day: int, body: str = "one two three") -> Article:
    return Article(
        id=article_id,
        title=f"t{article_id}",
        body=body,
        source_domain="d.example",
        published_at=dt.date(2023, 3, day),
        language="en",
    )


def test_corpus_stage_counts_empty_bodies(tmp_path):
    articles = [_article("a1", 1), _article("a2", 9, body=""), _article("a3", 5, body="x y")]
    write_corpus(articles, tmp_path / "corpus.jsonl")
    data = json.loads((DATA_DIR / "pipeline_triples.json").read_text(encoding="utf-8"))
    data["corpus"] = str(tmp_path / "corpus.jsonl")
    (tmp_path / "config.json").write_text(json.dumps(data), encoding="utf-8")
    counts: dict = {}
    loaded = list(read_corpus(load_config(tmp_path / "config.json"), counts, []))
    assert [article.id for article in loaded] == ["a1", "a2", "a3"]
    assert counts == {"articles": 3, "empty_bodies": 1}


TRIPLES_CONFIG = load_config(DATA_DIR / "pipeline_triples.json")
# bodies drawn mostly from whitespace, Unicode's included, so that many are empty
corpus_bodies = st.text(st.sampled_from(" \t\n\r\x0b\x0c\x1c\x85\xa0\u2028\u3000x"), max_size=6) | st.text(max_size=6)


@given(st.lists(corpus_bodies, max_size=8))
@example(["\u2028", "\x1c", "\u3000", "\u3000x"])
@settings(max_examples=200, deadline=None)
def test_read_corpus_counts_the_bodies_with_no_tokens_as_empty(body_list):
    # read_corpus tests a body with strip(), chunk splits it with split(): they must agree
    articles = [_article(f"a{n}", 1, body=body) for n, body in enumerate(body_list)]
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "corpus.jsonl"
        write_corpus(articles, path)
        counts: dict = {}
        loaded = list(read_corpus(replace(TRIPLES_CONFIG, corpus=str(path)), counts, []))
    assert [article.body for article in loaded] == body_list
    assert counts == {"articles": len(body_list), "empty_bodies": sum(not body.split() for body in body_list)}


def test_filter_by_date_inclusive():
    articles = [_article("a1", 1), _article("a2", 5), _article("a3", 9)]
    kept = filter_by_date(articles, dt.date(2023, 3, 1), dt.date(2023, 3, 5))
    assert [a.id for a in kept] == ["a1", "a2"]
    # boundary articles are included on both ends
    kept = filter_by_date(articles, dt.date(2023, 3, 5), dt.date(2023, 3, 9))
    assert [a.id for a in kept] == ["a2", "a3"]


def test_filter_by_date_rejects_inverted_range():
    with pytest.raises(InvalidRangeError):
        filter_by_date([], dt.date(2023, 3, 9), dt.date(2023, 3, 1))


def fetch(server, **overrides):
    kwargs = dict(
        query="green bonds",
        date_from=dt.date(2023, 2, 1),
        date_to=dt.date(2023, 3, 1),
        timeout=5,
    )
    kwargs.update(overrides)
    return fetch_articles(server.url, **kwargs)


class TestFetchArticles:
    def test_query_parameters_and_api_key(self, server):
        server.script = [(200, "{}")]
        assert fetch(server, language="de", page_size=20, api_key="sekrit") == []
        request = server.requests[0]
        assert request["method"] == "GET"
        assert request["params"] == {
            "q": ["green bonds"],
            "from": ["2023-02-01"],
            "to": ["2023-03-01"],
            "language": ["de"],
            "pageSize": ["20"],
        }
        assert request["headers"]["X-Api-Key"] == "sekrit"

    def test_no_api_key_header_without_key(self, server):
        fetch(server)
        assert "X-Api-Key" not in server.requests[0]["headers"]

    def test_dedups_urls_and_skips_bad_dates(self, server, caplog):
        server.script = [(200, NEWS_PAYLOAD)]
        articles = fetch(server)
        assert [a.id for a in articles] == ["https://greenreport.example/soluna", "article-0003"]
        assert articles[0].published_at == dt.date(2023, 2, 20)
        assert articles[0].title == "Soluna soaks up excess energy"
        assert articles[1].source_domain == "wire"
        assert "skipping fetched record 2: bad publishedAt" in caplog.text

    @pytest.mark.parametrize(
        "status, body, message",
        [
            (500, "{}", "HTTP 500"),
            (200, "<html>not json</html>", "non-JSON"),
            (200, "[]", "unexpected response shape"),
            (200, '{"articles": 3}', "unexpected response shape"),
        ],
    )
    def test_bad_responses_raise_fetch_error(self, server, status, body, message):
        server.script = [(status, body)]
        with pytest.raises(FetchError, match=message):
            fetch(server)

    def test_non_http_endpoint_raises_fetch_error(self):
        with pytest.raises(FetchError, match="fetch failed"):
            fetch_articles(
                "file:///etc/passwd",
                query="x",
                date_from=dt.date(2023, 1, 1),
                date_to=dt.date(2023, 1, 2),
            )
