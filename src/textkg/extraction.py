"""Triplet extraction: prompt construction, backend clients, output parsers.

Two generation styles are supported. A seq2seq backend emits marker-grammar
text (``<triplet> subject <subj> predicate <obj> object`` repeated); a chat
backend answers a prompt with one ``subject | predicate | object`` line per
relation. A replay backend substitutes stored fixture files for live calls,
keyed by a content hash of the full request, so runs are hermetic and any
prompt drift surfaces as a missing fixture rather than a silent change.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import json
import logging
import math
import os
import re
import threading
import time
from dataclasses import FrozenInstanceError, dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple

from .chunking import TokenBatch, chunk
from .corpus import Article
from .errors import ConfigError, TextkgError

if TYPE_CHECKING:
    from . import transport

logger = logging.getLogger(__name__)

API_KEY_ENV = "TEXTKG_API_KEY"
BACKEND_KINDS = ("seq2seq_tokens", "chat_triples", "chat_ontology", "replay")
REPLAY_MODES = ("seq2seq", "triples", "ontology")
# what each non-replay kind's completions are written in; a replay backend's is its replay_mode
_KIND_GRAMMARS = {"seq2seq_tokens": "seq2seq", "chat_triples": "triples", "chat_ontology": "ontology"}
RETRY_BACKOFF_SECONDS = 0.5
# a 429/503 asking for a longer wait than this fails instead of stalling the run
MAX_RETRY_AFTER_SECONDS = 60

# patchable in tests so retry paths run without real delays
_sleep = time.sleep

_NOISE_TOKENS = ("<s>", "</s>", "<pad>")
_LIST_PREFIX = re.compile(r"^\s*(?:[-*•]+|\(?\d+[.)])\s+")


class BackendError(TextkgError):
    """Base class for generation failures."""


class RequestTimeoutError(BackendError):
    pass


class HttpError(BackendError):
    def __init__(self, status: int | None, excerpt: str):
        self.status = status
        self.excerpt = excerpt
        super().__init__(f"HTTP {status}: {excerpt}" if status else f"request failed: {excerpt}")


class TokenLimitExceededError(BackendError):
    def __init__(self, token_count: int, limit: int):
        self.token_count = token_count
        self.limit = limit
        super().__init__(f"input is {token_count} tokens, limit is {limit}")


class MissingFixtureError(BackendError):
    def __init__(self, fingerprint: str, path: Path):
        self.fingerprint = fingerprint
        self.path = path
        super().__init__(f"no replay fixture for request {fingerprint} (expected {path})")


class EmptyArticleError(TextkgError):
    pass


class Provenance(NamedTuple):
    """Where a triplet came from. batch_index is None for whole-article calls.
    A named tuple, so hashing and equality run in C."""

    article_id: str
    batch_index: int | None
    backend_id: str


class _TripletFields(NamedTuple):
    subject: str
    predicate: str
    object: str
    provenance: Provenance | None = None


class Triplet(_TripletFields):
    """One fact and where it came from. A named tuple: it unpacks, and equals, hashes and orders as
    the plain tuple of its fields. A blank subject, predicate or object and any assignment are refused."""

    __slots__ = ()

    def __new__(cls, subject: str, predicate: str, object: str, provenance: Provenance | None = None):
        if not (subject.strip() and predicate.strip() and object.strip()):
            name = next(name for name, text in zip(cls._fields, (subject, predicate, object)) if not text.strip())
            raise ValueError(f"triplet {name} must be non-empty")
        return tuple.__new__(cls, (subject, predicate, object, provenance))

    @classmethod
    def _make(cls, iterable) -> Triplet:  # namedtuple's own skips __new__, and _replace calls it
        return cls(*iterable)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


@dataclass(frozen=True)
class BackendConfig:
    backend_id: str
    kind: str
    endpoint: str | None = None
    model_name: str = ""
    temperature: float = 0.0
    max_input_tokens: int = 512
    request_timeout: float = 30.0
    max_retries: int = 2
    fixtures_dir: str | None = None
    replay_mode: str = "seq2seq"

    def __post_init__(self):
        if not self.backend_id:
            raise ConfigError("backend_id must be non-empty")
        if self.kind not in BACKEND_KINDS:
            raise ConfigError(f"unknown backend kind {self.kind!r}")
        if not 0 <= self.temperature <= 2:
            raise ConfigError(f"temperature must be in [0, 2], got {self.temperature}")
        if self.max_input_tokens <= 0:
            raise ConfigError("max_input_tokens must be positive")
        if self.request_timeout <= 0:
            raise ConfigError("request_timeout must be positive")
        if self.max_retries < 0:
            raise ConfigError("max_retries must be nonnegative")
        if self.kind == "replay":
            if not self.fixtures_dir:
                raise ConfigError("replay backend requires fixtures_dir")
            if self.replay_mode not in REPLAY_MODES:
                raise ConfigError(f"unknown replay_mode {self.replay_mode!r}")
        elif not self.endpoint:
            raise ConfigError(f"backend {self.backend_id!r} requires an endpoint")

    @property
    def grammar(self) -> str:
        """What the backend's completions are written in: "seq2seq", "triples" or "ontology"."""
        return self.replay_mode if self.kind == "replay" else _KIND_GRAMMARS[self.kind]


@dataclass
class ParseReport:
    """Accounting for one parse (or one article's worth of parses).

    Every segment the parser encounters either becomes a triplet or lands in
    segments_skipped with a reason, so triplets_emitted + segments_skipped
    equals the segment count. Batches whose generation call failed under the
    skip policy are listed in failed_batches and contribute no segments; a
    failed whole-article call is listed as None, like its provenance.
    """

    triplets_emitted: int = 0
    segments_skipped: int = 0
    skip_reasons: list[tuple[str, str]] = field(default_factory=list)
    failed_batches: list[int | None] = field(default_factory=list)

    def _skip(self, segment: str, reason: str) -> None:
        self.segments_skipped += 1
        self.skip_reasons.append((_excerpt(segment), reason))

    def extend(self, other: ParseReport) -> None:
        self.triplets_emitted += other.triplets_emitted
        self.segments_skipped += other.segments_skipped
        self.skip_reasons.extend(other.skip_reasons)
        self.failed_batches.extend(other.failed_batches)


def _excerpt(text: str, limit: int = 60) -> str:
    text = " ".join(text.split())
    return text if len(text) <= limit else text[: limit - 3] + "..."


def _clean_field(text: str) -> str:
    return " ".join(text.split())


def parse_seq2seq_output(text: str, provenance: Provenance | None = None) -> tuple[list[Triplet], ParseReport]:
    """Parse marker-grammar generation text into triplets.

    ``<triplet>`` opens a segment, ``<subj>`` separates subject from
    predicate, ``<obj>`` separates predicate from object; the object runs to
    the next ``<triplet>`` or end of text. Decoder noise tokens (``<s>``,
    ``</s>``, ``<pad>``) are ignored. Malformed segments are skipped, never
    fatal, and recorded with a reason.
    """
    report = ParseReport()
    triplets: list[Triplet] = []
    cleaned = text
    for token in _NOISE_TOKENS:
        cleaned = cleaned.replace(token, " ")
    head, *segments = cleaned.split("<triplet>")
    if head.strip():
        report._skip(head, "text before the first <triplet> marker")
    for segment in segments:
        subj_split = segment.split("<subj>")
        if len(subj_split) != 2:
            reason = "missing <subj>" if len(subj_split) == 1 else "more than one <subj>"
            report._skip(segment, reason)
            continue
        if "<obj>" in subj_split[0]:
            report._skip(segment, "<obj> appears before <subj>")
            continue
        obj_split = subj_split[1].split("<obj>")
        if len(obj_split) != 2:
            reason = "missing <obj>" if len(obj_split) == 1 else "more than one <obj>"
            report._skip(segment, reason)
            continue
        subject = _clean_field(subj_split[0])
        predicate = _clean_field(obj_split[0])
        obj = _clean_field(obj_split[1])
        if not (subject and predicate and obj):
            report._skip(segment, "empty field after trimming")
            continue
        triplets.append(Triplet(subject, predicate, obj, provenance))
        report.triplets_emitted += 1
    return triplets, report


def parse_chat_triples(text: str, provenance: Provenance | None = None) -> tuple[list[Triplet], ParseReport]:
    """Parse pipe-delimited chat output, one triple per line.

    List markers (bullets, numbering) are stripped. Blank lines, bare code
    fences, and prose lead-ins (no pipe, ending with a colon) are not
    segments; any other line must match ``subject | predicate | object`` or
    it is skipped and recorded.
    """
    report = ParseReport()
    triplets: list[Triplet] = []
    for line in text.splitlines():
        # only a line opening with a bullet, "(", whitespace or a digit (the regex's \s and \d) can hold a marker
        if line[:1] in "-*•(" or line[:1].isspace() or line[:1].isdecimal():
            line = _LIST_PREFIX.sub("", line)
        line = line.strip()
        if not line:
            continue
        if not line.strip("`"):  # a bare code fence
            continue
        if "|" not in line and line.endswith(":"):
            continue
        parts = [part.strip() for part in line.split("|")]
        if len(parts) != 3:
            report._skip(line, f"expected 3 pipe-delimited fields, got {len(parts)}")
            continue
        if not all(parts):
            report._skip(line, "empty field")
            continue
        triplets.append(tuple.__new__(Triplet, (*parts, provenance)))  # every part was just stripped and checked
        report.triplets_emitted += 1
    return triplets, report


_TRIPLES_INSTRUCTIONS = (
    "Extract relations connected to sustainability from the article below.\n"
    "Return each relation on its own line in exactly this format:\n"
    "subject | predicate | object\n"
    "Output only these lines, with no commentary.\n"
)

_ONTOLOGY_INSTRUCTIONS = (
    "Read the article below and explicitly generate an OWL ontology describing\n"
    "the sustainability efforts it reports. Start from these concepts: organizations, actions, practices, policies.\n"
    "You may create additional classes and properties where the article supports\n"
    "them. Declare every class and property you use, give each individual a type,\n"
    "and relate individuals to each other with object properties.\n"
    "Return the ontology in RDF Turtle format only.\n"
)


def build_prompt(article_text: str, mode: str) -> str:
    """Build the deterministic extraction prompt for one article or batch."""
    if not article_text.strip():
        raise EmptyArticleError("cannot build a prompt for empty article text")
    if mode == "triples":
        instructions = _TRIPLES_INSTRUCTIONS
    elif mode == "ontology":
        instructions = _ONTOLOGY_INSTRUCTIONS
    else:
        raise ValueError(f"unknown prompt mode {mode!r}")
    return f"{instructions}\nArticle:\n{article_text}"


def request_fingerprint(prompt: str, model_name: str, temperature: float) -> str:
    """Stable content hash identifying one generation request: the SHA-256 hex digest of
    json.dumps({"input": prompt, "model": model_name, "temperature": float(temperature)}, sort_keys=True,
    separators=(",", ":")), pure ASCII through its default escapes, filled into one template here."""
    payload = '{"input":%s,"model":%s,"temperature":%s}' % (
        encode_basestring_ascii(prompt), encode_basestring_ascii(model_name), json.dumps(float(temperature))
    )
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def _fixture_file(config: BackendConfig, input_text: str) -> str:
    """The replay fixture file answering input_text, as a string: building a
    Path costs a replay read a third of its time."""
    fingerprint = request_fingerprint(input_text, config.model_name, config.temperature)
    return os.path.join(config.fixtures_dir or "", f"{fingerprint}.txt")


class RateLimiter:
    """Thread-safe requests-per-second gate shared by workers on one endpoint."""

    def __init__(self, rate_per_second: float):
        if rate_per_second <= 0:
            raise ValueError("rate_per_second must be positive")
        self._interval = 1.0 / rate_per_second
        self._lock = threading.Lock()
        self._next_at = 0.0

    def acquire(self) -> None:
        with self._lock:
            now = time.monotonic()
            wait = self._next_at - now
            self._next_at = max(self._next_at, now) + self._interval
        if wait > 0:
            _sleep(wait)


def _retry_after_seconds(response: transport.Response) -> int:
    """Retry-After of a 429/503 reply in whole seconds, else 0.

    The header is either a delay in seconds or an HTTP date, which counts
    from now, rounded up; a date in the past or an unreadable value is 0.
    """
    if response.status not in (429, 503):
        return 0
    value = (response.headers.get("Retry-After") or "").strip()
    if value.isascii() and value.isdigit():
        return int(value)
    import email.utils  # only a live backend's reply gets here
    try:
        when = email.utils.parsedate_to_datetime(value)
    except (ValueError, OverflowError):
        return 0
    if when.tzinfo is None:  # a "-0000" zone parses naive; HTTP dates are UTC
        when = when.replace(tzinfo=dt.timezone.utc)
    return max(0, math.ceil((when - dt.datetime.now(dt.timezone.utc)).total_seconds()))


def _post_with_retry(
    config: BackendConfig, payload: dict, headers: dict, limiter: RateLimiter | None
) -> transport.Response:
    from . import transport  # here, so a run that sends no request never loads the network stack
    last_error: BackendError | None = None
    retry_after = 0
    for attempt in range(config.max_retries + 1):
        if attempt:
            _sleep(max(RETRY_BACKOFF_SECONDS * 2 ** (attempt - 1), retry_after))
        if limiter is not None:
            limiter.acquire()
        retry_after = 0
        try:
            response = transport.request(
                "POST",
                config.endpoint,
                json_body=payload,
                headers=headers,
                timeout=config.request_timeout,
            )
        except transport.TransportTimeoutError:
            last_error = RequestTimeoutError(
                f"{config.backend_id}: no response within {config.request_timeout}s"
            )
            logger.warning("attempt %d timed out (%s)", attempt + 1, config.backend_id)
            continue
        except transport.TransportError as exc:
            last_error = HttpError(None, _excerpt(str(exc), 200))
            logger.warning("attempt %d failed (%s): %s", attempt + 1, config.backend_id, exc)
            continue
        if response.status == 429 or response.status >= 500:
            last_error = HttpError(response.status, _excerpt(response.text, 200))
            retry_after = _retry_after_seconds(response)
            logger.warning(
                "attempt %d got HTTP %d (%s)", attempt + 1, response.status, config.backend_id
            )
            if retry_after > MAX_RETRY_AFTER_SECONDS:
                logger.warning(
                    "Retry-After %ds exceeds %ds, giving up (%s)",
                    retry_after, MAX_RETRY_AFTER_SECONDS, config.backend_id,
                )
                raise last_error
            continue
        if response.status >= 400:
            raise HttpError(response.status, _excerpt(response.text, 200))
        return response
    assert last_error is not None
    raise last_error


def generate(
    config: BackendConfig,
    input_text: str,
    *,
    limiter: RateLimiter | None = None,
) -> str:
    """Run one generation request and return the raw completion text.

    Transient failures (timeouts, connection errors, HTTP 429/5xx) are
    retried with exponential backoff up to max_retries; other HTTP errors
    surface immediately. The replay kind reads `<request hash>.txt` from
    fixtures_dir instead of calling anything.
    """
    if config.kind == "replay":
        path = _fixture_file(config, input_text)
        try:  # one binary read, decoded with the newlines text mode would translate
            with open(path, "rb", buffering=0) as handle:
                return handle.read().decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        except (FileNotFoundError, IsADirectoryError) as exc:
            raise MissingFixtureError(Path(path).stem, Path(path)) from exc
        except UnicodeDecodeError as exc:
            raise BackendError(f"replay fixture {path} is not UTF-8: {exc}") from exc

    if config.kind == "seq2seq_tokens":
        token_count = len(input_text.split())
        if token_count > config.max_input_tokens:
            raise TokenLimitExceededError(token_count, config.max_input_tokens)
        payload: dict = {"inputs": input_text}
    else:
        payload = {
            "model": config.model_name,
            "temperature": config.temperature,
            "messages": [{"role": "user", "content": input_text}],
        }

    headers = {}
    api_key = os.environ.get(API_KEY_ENV)
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"

    response = _post_with_retry(config, payload, headers, limiter)
    try:
        data = json.loads(response.body)
        if config.kind == "seq2seq_tokens":
            if isinstance(data, list):
                data = data[0]
            return str(data["generated_text"])
        return str(data["choices"][0]["message"]["content"])
    except (ValueError, LookupError, TypeError) as exc:
        raise HttpError(
            response.status, f"unexpected response shape: {_excerpt(response.text, 160)}"
        ) from exc


def extract_article(
    article: Article,
    config: BackendConfig,
    *,
    batches: list[TokenBatch] | None = None,
    batch_size: int = 256,
    on_batch_error: str = "fail",
    limiter: RateLimiter | None = None,
    on_generation: Callable[[int | None, str], None] | None = None,
) -> tuple[list[Triplet], ParseReport]:
    """Extract triplets from one article through the configured backend.

    Seq2seq backends receive raw batch text; chat backends receive the
    triples prompt, built over the whole article when it fits the backend's
    input limit and over batch_size-token batches otherwise. batches are the
    article's chunk(article, batch_size=batch_size), made here when not
    given; whether the article is empty and whether it fits are read from
    them. Output order is batch order, then within-batch order. on_batch_error
    selects what a failed generation does: "fail" (default) re-raises, "skip"
    records the batch in the report and moves on. on_generation, when given,
    observes each raw completion as (batch_index, text).
    """
    mode = config.grammar
    if mode == "ontology":
        raise ConfigError(f"extract_article cannot parse the ontology output of backend {config.backend_id!r}")
    if on_batch_error not in ("fail", "skip"):
        raise ValueError(f"on_batch_error must be 'fail' or 'skip', got {on_batch_error!r}")

    report = ParseReport()
    triplets: list[Triplet] = []
    if batches is None:
        batches = chunk(article, batch_size=batch_size)
    if not batches:
        return triplets, report

    units: list[tuple[int | None, str]]
    if mode == "triples" and batches[-1].token_end <= config.max_input_tokens:
        units = [(None, article.body)]
    else:
        units = [(b.batch_index, b.text) for b in batches]

    for batch_index, text in units:
        request_text = build_prompt(text, "triples") if mode == "triples" else text
        try:
            raw = generate(config, request_text, limiter=limiter)
        except BackendError as exc:
            if on_batch_error == "fail":
                raise
            logger.warning(
                "skipping batch %s of article %s: %s", batch_index, article.id, exc
            )
            report.failed_batches.append(batch_index)
            report.skip_reasons.append((f"batch {batch_index}", f"generation failed: {exc}"))
            continue
        if on_generation is not None:
            on_generation(batch_index, raw)
        provenance = Provenance(article.id, batch_index, config.backend_id)
        parse = parse_seq2seq_output if mode == "seq2seq" else parse_chat_triples
        batch_triplets, batch_report = parse(raw, provenance)
        triplets.extend(batch_triplets)
        report.extend(batch_report)
    return triplets, report
