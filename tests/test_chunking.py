from __future__ import annotations

import datetime as dt
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from textkg.chunking import TokenBatch, chunk
from textkg.corpus import Article


def make_article(body: str) -> Article:
    return Article(
        id="a1",
        title="t",
        body=body,
        source_domain="d.example",
        published_at=dt.date(2023, 1, 1),
        language="en",
    )


def test_empty_body_yields_no_batches():
    assert chunk(make_article("")) == []
    assert chunk(make_article("   \n ")) == []


def test_single_batch_boundaries():
    article = make_article("one two three")
    batches = chunk(article, batch_size=256)
    assert batches == [TokenBatch("a1", 0, 0, 3, "one two three")]
    assert batches[0].token_count == 3


def test_exact_multiple_has_no_empty_tail():
    article = make_article(" ".join(f"w{i}" for i in range(512)))
    batches = chunk(article, batch_size=256)
    assert len(batches) == 2
    assert [b.token_count for b in batches] == [256, 256]


def test_batch_size_validation():
    with pytest.raises(ValueError):
        chunk(make_article("a b"), batch_size=0)
    with pytest.raises(ValueError):
        chunk(make_article("a b"), batch_size=-3)


token_texts = st.lists(
    st.text(alphabet="abcdefgh0123", min_size=1, max_size=8), min_size=0, max_size=600
).map(" ".join)


@given(body=token_texts, batch_size=st.integers(min_value=1, max_value=300))
@settings(max_examples=200, deadline=None)
def test_chunk_laws(body: str, batch_size: int):
    article = make_article(body)
    tokens = body.split()
    batches = chunk(article, batch_size=batch_size)

    # batch count is the ceiling of tokens / batch_size
    assert len(batches) == math.ceil(len(tokens) / batch_size)

    rebuilt: list[str] = []
    for index, batch in enumerate(batches):
        assert batch.article_id == "a1"
        assert batch.batch_index == index
        assert batch.token_start == index * batch_size
        assert batch.token_end - batch.token_start == batch.token_count
        assert 0 < batch.token_count <= batch_size
        assert batch.text.split() == tokens[batch.token_start : batch.token_end]
        rebuilt.extend(batch.text.split())

    # concatenating every batch reproduces the token stream exactly
    assert rebuilt == tokens

    # only the final batch may be short
    for batch in batches[:-1]:
        assert batch.token_count == batch_size
