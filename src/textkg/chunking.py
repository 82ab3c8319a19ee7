"""Token batching for articles that exceed the extraction input limit.

Splitting is purely positional over the token stream: batch i covers tokens
[i * batch_size, (i + 1) * batch_size). Joining batch texts with single
spaces therefore reproduces the whitespace-normalized article body.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import Article


@dataclass(frozen=True)
class TokenBatch:
    """A contiguous run of tokens from one article."""

    article_id: str
    batch_index: int
    token_start: int
    token_end: int
    text: str

    @property
    def token_count(self) -> int:
        return self.token_end - self.token_start


def chunk(article: Article, batch_size: int = 256) -> list[TokenBatch]:
    """Split an article body into fixed-size token batches.

    Every batch except possibly the last holds exactly ``batch_size`` tokens;
    the last holds the remainder. An empty body yields no batches.
    """
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    tokens = article.body.split()
    batches: list[TokenBatch] = []
    for start in range(0, len(tokens), batch_size):
        end = min(start + batch_size, len(tokens))
        batches.append(
            TokenBatch(
                article_id=article.id,
                batch_index=len(batches),
                token_start=start,
                token_end=end,
                text=" ".join(tokens[start:end]),
            )
        )
    return batches
