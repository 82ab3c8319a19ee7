"""Article corpus loading, filtering, and serialization.

The corpus file format is UTF-8 newline-delimited JSON, one article object
per line, with required keys ``id``, ``title``, ``body``, ``source_domain``,
``published_at`` (ISO-8601 date) and ``language``. Unknown keys are ignored;
``word_count`` is always derived from the body.
"""

from __future__ import annotations

import datetime as dt
import json
import logging
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NamedTuple
from urllib.parse import urlparse

from .errors import TextkgError

logger = logging.getLogger(__name__)

REQUIRED_KEYS = ("id", "title", "body", "source_domain", "published_at", "language")


class MalformedRecordError(TextkgError):
    """A corpus line could not be turned into an Article."""

    def __init__(self, line_number: int, cause: str):
        self.line_number = line_number
        self.cause = cause
        super().__init__(f"line {line_number}: {cause}")


class DuplicateIdError(TextkgError):
    def __init__(self, article_id: str):
        self.article_id = article_id
        super().__init__(f"duplicate article id: {article_id!r}")


class InvalidRangeError(TextkgError):
    pass


class FetchError(TextkgError):
    """The news endpoint could not be reached or returned an unusable payload."""


@dataclass(frozen=True)
class Article:
    """One source document. Immutable after load; safe to share across threads."""

    id: str
    title: str
    body: str
    source_domain: str
    published_at: dt.date
    language: str

    def __post_init__(self):
        if not self.id:
            raise ValueError("article id must be non-empty")

    @property
    def word_count(self) -> int:
        """Whitespace tokens in the body; derived, never trusted from input."""
        return len(self.body.split())


class ArticleMeta(NamedTuple):
    """What the quality stage reads of an article."""

    id: str
    source_domain: str
    published_at: dt.date


def _parse_record(record: object, line_number: int) -> Article:
    if not isinstance(record, dict):
        raise MalformedRecordError(line_number, "record is not a JSON object")
    for key in REQUIRED_KEYS:
        if key not in record:
            raise MalformedRecordError(line_number, f"missing key {key!r}")
    for key in REQUIRED_KEYS:
        if not isinstance(record[key], str):
            raise MalformedRecordError(line_number, f"field {key!r} must be a string")
    try:
        published = dt.date.fromisoformat(record["published_at"])
    except ValueError as exc:
        raise MalformedRecordError(line_number, f"bad published_at: {exc}") from exc
    if not record["id"]:
        raise MalformedRecordError(line_number, "empty id")
    return Article(
        id=record["id"],
        title=record["title"],
        body=record["body"],
        source_domain=record["source_domain"],
        published_at=published,
        language=record["language"],
    )


def load_corpus(path: str | Path) -> Iterator[Article]:
    """The articles of a newline-delimited JSON corpus file, in file order.

    One line is read per article yielded, so a bad line raises only when the
    iterator reaches it. Duplicate ids are rejected, blank lines are skipped.
    Articles with an empty body are accepted (chunking will emit no batches
    for them) but logged as a warning.
    """
    seen: set[str] = set()
    with Path(path).open("rb") as handle:
        for line_number, line in enumerate(handle, start=1):
            try:  # decoded here, so a line that is not UTF-8 is named like one that is not JSON
                text = line.decode("utf-8")
                if not text.strip():
                    continue
                record = json.loads(text)
            except ValueError as exc:
                raise MalformedRecordError(line_number, f"invalid JSON: {exc}") from exc
            article = _parse_record(record, line_number)
            if article.id in seen:
                raise DuplicateIdError(article.id)
            seen.add(article.id)
            if not article.body.strip():
                logger.warning("article %s has an empty body", article.id)
            yield article


def article_to_dict(article: Article) -> dict:
    return asdict(article) | {"published_at": article.published_at.isoformat(), "word_count": article.word_count}


def write_corpus(articles: list[Article], path: str | Path) -> None:
    """Serialize articles to the corpus file format (round-trips with load)."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        for article in articles:
            handle.write(json.dumps(article_to_dict(article), ensure_ascii=False))
            handle.write("\n")


def filter_by_date(
    articles: Iterable[Article], date_from: dt.date | None, date_to: dt.date | None
) -> Iterator[Article]:
    """The articles with date_from <= published_at <= date_to, lazily and in
    order. A bound that is None leaves that side of the window open."""
    if date_from and date_to and date_from > date_to:
        raise InvalidRangeError(f"empty date window: {date_from} > {date_to}")
    return (
        a
        for a in articles
        if (date_from is None or date_from <= a.published_at)
        and (date_to is None or a.published_at <= date_to)
    )


def fetch_articles(
    base_url: str,
    *,
    query: str,
    date_from: dt.date,
    date_to: dt.date,
    language: str = "en",
    api_key: str | None = None,
    page_size: int = 100,
    timeout: float = 30.0,
) -> list[Article]:
    """Fetch articles from a News-API-compatible endpoint.

    Thin optional client: nothing else in the pipeline needs the network.
    The query string is passed through verbatim. Records without a usable
    publication date are skipped with a warning.
    """
    from . import transport  # here, so a run that sends no request never loads the network stack
    params = {
        "q": query,
        "from": date_from.isoformat(),
        "to": date_to.isoformat(),
        "language": language,
        "pageSize": str(page_size),
    }
    headers = {"X-Api-Key": api_key} if api_key else {}
    try:
        payload = transport.get_json(base_url, params=params, headers=headers, timeout=timeout)
    except transport.TransportError as exc:
        raise FetchError(f"fetch failed: {exc}") from exc
    records = payload.get("articles", []) if isinstance(payload, dict) else None
    if not isinstance(records, list):
        raise FetchError("unexpected response shape: no 'articles' list")

    articles: list[Article] = []
    seen: set[str] = set()
    for index, item in enumerate(records):
        if not isinstance(item, dict):
            continue
        published_raw = str(item.get("publishedAt") or "")[:10]
        try:
            published = dt.date.fromisoformat(published_raw)
        except ValueError:
            logger.warning("skipping fetched record %d: bad publishedAt", index)
            continue
        url = str(item.get("url") or "")
        article_id = url or f"article-{index:04d}"
        if article_id in seen:
            continue
        seen.add(article_id)
        source = item.get("source") or {}
        domain = urlparse(url).netloc or str(source.get("name") or "unknown")
        articles.append(
            Article(
                id=article_id,
                title=str(item.get("title") or ""),
                body=str(item.get("content") or item.get("description") or ""),
                source_domain=domain,
                published_at=published,
                language=language,
            )
        )
    return articles
