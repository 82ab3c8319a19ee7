"""Entity linking against a lookup service, with caching and normalization.

Two mentions denote the same entity iff they resolve to the same canonical
IRI; mentions the service cannot resolve are merged only when their
normalized surfaces are equal. Predicates are never linked, only normalized.
"""

from __future__ import annotations

import functools
import json
import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from . import transport
from .errors import TextkgError
from .extraction import Triplet
from .kgstore import _block, _scalar, replacing

logger = logging.getLogger(__name__)

TTL_SECONDS = 7 * 24 * 3600.0  # how long a cached lookup result, hit or miss, is used
QUERY_PARAM = "query"
MAX_RESULTS = 5
TIMEOUT_SECONDS = 10.0  # per lookup request


class LookupUnavailableError(TextkgError):
    """The lookup service could not be reached or answered unusably."""


def normalize_surface(surface: str) -> str:
    """Trim, collapse internal whitespace, case-fold."""
    return " ".join(surface.split()).casefold()


@dataclass(frozen=True)
class LinkedEntity:
    """Resolution result for one surface form."""

    surface: str
    canonical_iri: str | None
    label: str

    def __post_init__(self):
        if not self.label:
            raise ValueError("label must be non-empty")

    @property
    def status(self) -> str:
        return "unlinked" if self.canonical_iri is None else "linked"


def _read_json(path: str | Path, what: str) -> object:
    """path's JSON value; TextkgError naming the file if unreadable or not UTF-8 JSON."""
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise TextkgError(f"{what} {path} is unreadable: {exc}") from exc


class LinkCache:
    """Lookup results keyed by normalized surface, with expiry.

    A cached entry, positive or negative, suppresses the network call until
    it expires, TTL_SECONDS after its fetch. Entries store the IRI (None for
    negative results), the service label, and the fetch time.
    """

    def __init__(self, entries: dict[str, dict] | None = None):
        self.entries = entries if entries is not None else {}

    def get(self, surface: str, now: float | None = None) -> dict | None:
        key = normalize_surface(surface)
        entry = self.entries.get(key)
        if entry is None:
            return None
        now = time.time() if now is None else now
        if now - entry["fetched_at"] > TTL_SECONDS:
            return None
        return entry

    def put(self, surface: str, iri: str | None, label: str | None, now: float | None = None) -> None:
        key = normalize_surface(surface)
        now = time.time() if now is None else now
        self.entries[key] = {"iri": iri, "label": label, "fetched_at": now}

    @classmethod
    def load(cls, path: str | Path) -> LinkCache:
        """Read a cache file; a missing file is an empty cache.

        Raises TextkgError naming the file when it cannot be read, is not
        UTF-8 JSON, or is not an object of {"iri", "label", "fetched_at"}
        entries.
        """
        path = Path(path)
        if not path.exists():
            return cls()
        entries = _read_json(path, "link cache")
        if not isinstance(entries, dict) or not all(
            isinstance(entry, dict)
            and isinstance(entry.get("fetched_at"), (int, float))
            and all(key in entry and isinstance(entry[key], (str, type(None))) for key in ("iri", "label"))
            for entry in entries.values()
        ):
            raise TextkgError(
                f"link cache {path} must be a JSON object of entries with a string or null"
                " iri and label and a numeric fetched_at"
            )
        return cls(entries)

    def save(self, path: str | Path) -> None:
        """Write the bytes of json.dumps(entries, ensure_ascii=False, indent=2,
        sort_keys=True) plus a newline through ``replacing``. An entry of
        exactly iri, label and fetched_at fills one template; one with other
        keys is encoded by json."""
        entry = _block("{", "}", ['"fetched_at": %s', '"iri": %s', '"label": %s'], "  ")
        items = [
            _scalar(key) + ": " + (
                entry % (_scalar(value["fetched_at"]), _scalar(value["iri"]), _scalar(value["label"]))
                if len(value) == 3
                else json.dumps(value, ensure_ascii=False, indent=2, sort_keys=True).replace("\n", "\n  ")
            )
            for key, value in sorted(self.entries.items())
        ]
        with replacing(Path(path)) as handle:
            handle.write(_block("{", "}", items, "") + "\n")


class LookupClient:
    """HTTP client for a lookup endpoint returning ranked {uri, label} results."""

    def __init__(self, base_url: str):
        self.base_url = base_url

    def lookup(self, query: str) -> list[dict]:
        params = {QUERY_PARAM: query, "maxResults": str(MAX_RESULTS)}
        try:
            response = transport.request(
                "GET", self.base_url, params=params, headers={"Accept": "application/json"}, timeout=TIMEOUT_SECONDS
            )
        except transport.TransportError as exc:
            raise LookupUnavailableError(f"lookup failed: {exc}") from exc
        if response.status >= 400:
            raise LookupUnavailableError(f"lookup failed: HTTP {response.status}")
        try:
            payload = json.loads(response.body)
        except ValueError as exc:
            raise LookupUnavailableError(f"non-JSON lookup response: {exc}") from exc
        return _ranked_results(payload)


class FileLookupClient:
    """Lookup stub backed by a JSON file mapping normalized query → result list.

    Keeps linking fully offline and deterministic for tests and replay runs.
    Raises TextkgError naming a file that is unreadable, not UTF-8 JSON, or not an object.
    """

    def __init__(self, path: str | Path):
        raw = _read_json(path, "lookup fixture")
        if not isinstance(raw, dict):
            raise TextkgError(f"lookup fixture {path} must be a JSON object of query -> results")
        self.table = {normalize_surface(key): _ranked_results(value) for key, value in raw.items()}

    def lookup(self, query: str) -> list[dict]:
        return self.table.get(normalize_surface(query), [])


def _ranked_results(payload: object) -> list[dict]:
    """Normalize a lookup response to a ranked list of {uri, label} dicts."""
    if isinstance(payload, dict):
        payload = payload.get("results") or payload.get("docs") or []
    results = []
    if isinstance(payload, list):
        for item in payload:
            if not isinstance(item, dict):
                continue
            uri = item.get("uri") or item.get("resource")
            label = item.get("label")
            if isinstance(uri, list):
                uri = uri[0] if uri else None
            if isinstance(label, list):
                label = label[0] if label else None
            if uri and label:
                results.append({"uri": str(uri), "label": str(label)})
    return results


def _label_matches(query_normalized: str, result_label: str, match: str) -> bool:
    candidate = normalize_surface(result_label)
    if match == "exact":
        return candidate == query_normalized
    if match == "prefix":
        return candidate.startswith(query_normalized)
    raise ValueError(f"unknown match rule {match!r}")


def link_entity(
    surface: str,
    client,
    cache: LinkCache | None = None,
    *,
    match: str = "exact",
    on_error: str = "fallback",
    now: float | None = None,
) -> LinkedEntity:
    """Resolve one surface form to a canonical IRI, or return it unlinked.

    The top-ranked lookup result is accepted only if its label matches the
    normalized query under the match rule ("exact" equality by default,
    "prefix" to relax). Results, including misses, are cached. A lookup
    outage falls back to unlinked (on_error="fallback") or raises
    (on_error="abort"); outages are never cached as misses.
    """
    if not surface.strip():
        raise ValueError("surface must be non-empty")
    if on_error not in ("fallback", "abort"):
        raise ValueError(f"on_error must be 'fallback' or 'abort', got {on_error!r}")
    normalized = normalize_surface(surface)

    if cache is not None:
        entry = cache.get(normalized, now)
        if entry is not None:
            if entry["iri"]:
                return LinkedEntity(surface, entry["iri"], entry["label"] or normalized)
            return LinkedEntity(surface, None, normalized)

    if client is None:
        return LinkedEntity(surface, None, normalized)

    try:
        results = client.lookup(normalized)
    except LookupUnavailableError:
        if on_error == "abort":
            raise
        logger.warning("lookup unavailable, leaving %r unlinked", surface)
        return LinkedEntity(surface, None, normalized)

    if results:
        top = results[0]
        if _label_matches(normalized, top["label"], match):
            label = " ".join(top["label"].split())
            if cache is not None:
                cache.put(normalized, top["uri"], label, now)
            return LinkedEntity(surface, top["uri"], label)
    if cache is not None:
        cache.put(normalized, None, None, now)
    return LinkedEntity(surface, None, normalized)


class Linker:
    """canonicalize continued over successive lists of triplets: link
    rewrites each list as one canonicalize call over all the lists so far
    would. resolve may run on several threads at once; they share the
    lookups in flight, so each normalized surface is still looked up once."""

    def __init__(self, client=None, cache: LinkCache | None = None, *, match="exact", on_error="fallback", now=None):
        self._lookup = functools.partial(
            link_entity, client=client, cache=cache, match=match, on_error=on_error, now=now
        )
        # normalized surface -> its lookup result, or a lock held while it is looked up
        self._resolved: dict[str, LinkedEntity | threading.Lock] = {}
        self._lock = threading.Lock()
        self._labels: dict[str, str] = {}  # raw subject or object -> canonical label
        self._iri_labels: dict[str, str] = {}  # the first label given to each IRI
        self._predicates: dict[str, str] = {}
        self.table: dict[str, LinkedEntity] = {}  # canonical label -> entity, in first-seen order

    def resolve(self, triplets: list[Triplet], workers: int = 1) -> None:
        """Look up the subjects and objects whose normalized surface is
        neither looked up nor being looked up, on up to workers threads. The
        first lookup that raises cancels the lookups not yet started."""
        todo: dict[str, str] = {}  # normalized -> first surface seen
        for triplet in triplets:
            for surface in (triplet.subject, triplet.object):
                if surface not in self._labels:
                    key = normalize_surface(surface)
                    if key not in self._resolved:
                        todo.setdefault(key, surface)
        if workers > 1 and len(todo) > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                # map cancels the pending lookups once a result it yields raises
                list(pool.map(self._resolve, todo, todo.values()))
        else:
            list(map(self._resolve, todo, todo.values()))

    def _resolve(self, key: str, surface: str) -> LinkedEntity:
        """key's lookup result: the one known, the one another thread is
        making, or else a lookup of surface made here."""
        with self._lock:
            result = self._resolved.get(key)
            if result is None:
                busy = self._resolved[key] = threading.Lock()
                busy.acquire()
        if isinstance(result, LinkedEntity):
            return result
        if result is not None:
            with result:  # released when that lookup ends
                pass
            return self._resolve(key, surface)  # its result, or a lookup here if it raised
        try:
            entity = self._resolved[key] = self._lookup(surface)
        except BaseException:
            with self._lock:
                del self._resolved[key]
            raise
        finally:
            busy.release()
        return entity

    def link(self, triplets: list[Triplet]) -> list[Triplet]:
        """The triplets with canonical subjects and objects and normalized
        predicates; a surface resolve has not looked up is looked up here."""
        labels = self._labels
        for triplet in triplets:
            for surface in (triplet.subject, triplet.object):
                if surface not in labels:
                    labels[surface] = self._label(normalize_surface(surface), surface)
        predicates = self._predicates
        predicates.update((p, normalize_surface(p)) for p in {t.predicate for t in triplets} - predicates.keys())
        return [
            Triplet(labels[t.subject], predicates[t.predicate], labels[t.object], t.provenance)
            for t in triplets
        ]

    def _label(self, key: str, surface: str) -> str:
        """key's canonical label, from its resolved entity; the first surface
        seen for a new label names its table entry."""
        entity = self._resolve(key, surface)
        iri = entity.canonical_iri
        # first label seen for an IRI wins, so co-linked mentions agree
        label = entity.label if iri is None else self._iri_labels.setdefault(iri, entity.label)
        if label not in self.table:
            self.table[label] = LinkedEntity(surface, iri, label)
        return label


def canonicalize(
    triplets: list[Triplet],
    client=None,
    cache: LinkCache | None = None,
    *,
    match: str = "exact",
    on_error: str = "fallback",
    now: float | None = None,
    workers: int = 1,
    linker: Linker | None = None,
) -> tuple[list[Triplet], dict[str, LinkedEntity]]:
    """Rewrite subjects and objects to canonical labels; return the entity table.

    Mentions resolving to the same IRI collapse into one entity under the
    service's label; unresolved mentions collapse by normalized surface.
    Predicates are normalized only. No triple is dropped or duplicated, and
    the operation is idempotent. With no client the rewrite degrades to pure
    normalization.

    Each distinct normalized surface is resolved once, on up to ``workers``
    threads; the result does not depend on ``workers``. The first lookup
    that raises (an outage under on_error="abort") cancels the lookups not
    yet started. linker, when given, continues that Linker's labels and
    lookups in place of a new one over client, cache, match, on_error and
    now, and the table returned is all of its entities so far.
    """
    if linker is None:
        linker = Linker(client, cache, match=match, on_error=on_error, now=now)
    if workers > 1:
        linker.resolve(triplets, workers)
    return linker.link(triplets), linker.table
