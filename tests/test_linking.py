from __future__ import annotations

import json
import random
import sys
import threading
import time
from collections import Counter

import pytest

from textkg.errors import TextkgError
from textkg.extraction import Triplet
from textkg.linking import (
    FileLookupClient,
    LinkCache,
    LinkedEntity,
    LookupClient,
    LookupUnavailableError,
    canonicalize,
    link_entity,
    normalize_surface,
)

from .conftest import DATA_DIR, GOLDEN_DIR

SOLUNA_IRI = "http://dbpedia.org/resource/Soluna"


class FakeClient:
    """Scripted lookup client counting calls."""

    def __init__(self, table: dict[str, list[dict]] | None = None, fail: bool = False):
        self.table = table or {}
        self.fail = fail
        self.calls: list[str] = []

    def lookup(self, query: str) -> list[dict]:
        self.calls.append(query)
        if self.fail:
            raise LookupUnavailableError("scripted outage")
        return self.table.get(query, [])


def test_normalize_surface():
    assert normalize_surface("  Excess   Energy ") == "excess energy"
    assert normalize_surface("SOLUNA") == "soluna"
    assert normalize_surface("a\tb\nc") == "a b c"


def test_linked_entity_validation():
    with pytest.raises(ValueError):
        LinkedEntity("x", None, "x", "linked")
    with pytest.raises(ValueError):
        LinkedEntity("x", "http://e", "x", "unlinked")
    with pytest.raises(ValueError):
        LinkedEntity("x", "http://e", "", "linked")
    with pytest.raises(ValueError):
        LinkedEntity("x", "http://e", "x", "maybe")


class TestLinkEntity:
    def test_exact_match_accepted(self):
        client = FakeClient({"soluna": [{"uri": SOLUNA_IRI, "label": "Soluna"}]})
        entity = link_entity("Soluna", client)
        assert entity == LinkedEntity("Soluna", SOLUNA_IRI, "Soluna", "linked")

    def test_top_result_label_mismatch_rejected(self):
        # service returns a different concept as its top hit
        client = FakeClient({"green bonds": [{"uri": "http://dbpedia.org/resource/Green_bond", "label": "Green bond"}]})
        entity = link_entity("Green Bonds", client)
        assert entity.status == "unlinked"
        assert entity.label == "green bonds"

    def test_prefix_match_relaxation(self):
        client = FakeClient({"kentuck": [{"uri": "http://dbpedia.org/resource/Kentucky", "label": "Kentucky"}]})
        assert link_entity("Kentuck", client).status == "unlinked"
        assert link_entity("Kentuck", client, match="prefix").status == "linked"

    def test_prefix_match_direction(self):
        # candidate label must extend the query, not the other way round
        client = FakeClient({"kentucky usa": [{"uri": "http://e/K", "label": "Kentucky"}]})
        assert link_entity("Kentucky USA", client, match="prefix").status == "unlinked"

    def test_no_results_unlinked(self):
        entity = link_entity("Unknown Thing", FakeClient())
        assert entity.status == "unlinked"
        assert entity.canonical_iri is None

    def test_no_client_degrades_to_normalization(self):
        entity = link_entity("  Excess   Energy ", None)
        assert entity == LinkedEntity("  Excess   Energy ", None, "excess energy", "unlinked")

    def test_empty_surface_rejected(self):
        with pytest.raises(ValueError):
            link_entity("   ", FakeClient())

    def test_positive_cache_hit_skips_client(self):
        client = FakeClient({"soluna": [{"uri": SOLUNA_IRI, "label": "Soluna"}]})
        cache = LinkCache()
        link_entity("Soluna", client, cache, now=0.0)
        entity = link_entity("SOLUNA", client, cache, now=1.0)
        assert entity.status == "linked"
        assert entity.canonical_iri == SOLUNA_IRI
        assert client.calls == ["soluna"]

    def test_negative_cache_hit_skips_client(self):
        client = FakeClient()
        cache = LinkCache()
        link_entity("Mystery", client, cache, now=0.0)
        link_entity("Mystery", client, cache, now=1.0)
        assert client.calls == ["mystery"]

    def test_cache_expiry_refetches(self):
        client = FakeClient()
        cache = LinkCache(ttl_seconds=10.0)
        link_entity("Mystery", client, cache, now=0.0)
        link_entity("Mystery", client, cache, now=11.0)
        assert client.calls == ["mystery", "mystery"]

    def test_outage_fallback_not_cached(self):
        client = FakeClient(fail=True)
        cache = LinkCache()
        entity = link_entity("Soluna", client, cache, now=0.0)
        assert entity.status == "unlinked"
        assert cache.entries == {}
        # the next call tries the service again
        link_entity("Soluna", client, cache, now=1.0)
        assert len(client.calls) == 2

    def test_outage_abort(self):
        with pytest.raises(LookupUnavailableError):
            link_entity("Soluna", FakeClient(fail=True), on_error="abort")

    def test_bad_on_error_rejected(self):
        with pytest.raises(ValueError):
            link_entity("x", None, on_error="retry")


class TestLinkCache:
    def test_roundtrip(self, tmp_path):
        cache = LinkCache()
        cache.put("Soluna", SOLUNA_IRI, "Soluna", now=5.0)
        cache.put("mystery", None, None, now=5.0)
        path = tmp_path / "cache.json"
        cache.save(path)
        loaded = LinkCache.load(path)
        assert loaded.entries == cache.entries
        assert loaded.get("SOLUNA", now=6.0)["iri"] == SOLUNA_IRI

    def test_failed_save_leaves_the_earlier_file(self, tmp_path):
        path = tmp_path / "link_cache.json"
        cache = LinkCache()
        cache.put("Soluna", SOLUNA_IRI, "Soluna", now=5.0)
        cache.save(path)
        before = path.read_bytes()
        # an entry that cannot be encoded fails the save after it has begun
        cache.put("mystery", None, None, now=object())
        with pytest.raises(TypeError):
            cache.save(path)
        assert path.read_bytes() == before
        assert [child.name for child in tmp_path.iterdir()] == ["link_cache.json"]

    def test_load_missing_file_is_empty(self, tmp_path):
        cache = LinkCache.load(tmp_path / "absent.json")
        assert cache.entries == {}

    def test_get_respects_ttl(self):
        cache = LinkCache(ttl_seconds=100.0)
        cache.put("x", "http://e", "X", now=0.0)
        assert cache.get("x", now=100.0) is not None
        assert cache.get("x", now=101.0) is None


class TestFileLookupClient:
    def test_reads_fixture_table(self):
        client = FileLookupClient(DATA_DIR / "lookup_fixture.json")
        results = client.lookup("Soluna")
        assert results[0]["uri"].endswith("/Soluna")
        assert client.lookup("nonexistent thing") == []


class TestLookupClientParsing:
    def test_ranked_results_shapes(self):
        from textkg.linking import _ranked_results

        assert _ranked_results({"results": [{"uri": "u", "label": "l"}]}) == [{"uri": "u", "label": "l"}]
        assert _ranked_results({"docs": [{"resource": ["u"], "label": ["l"]}]}) == [{"uri": "u", "label": "l"}]
        assert _ranked_results([{"uri": "u", "label": "l"}, {"no": "fields"}]) == [{"uri": "u", "label": "l"}]
        assert _ranked_results("garbage") == []
        assert _ranked_results({"results": None}) == []

    def test_http_errors_become_unavailable(self, monkeypatch):
        from textkg import transport

        def boom(*args, **kwargs):
            raise transport.TransportError("refused")

        monkeypatch.setattr(transport, "request", boom)
        client = LookupClient("http://lookup.invalid/api")
        with pytest.raises(LookupUnavailableError):
            client.lookup("soluna")

    def test_ranked_results_from_the_endpoint(self, server):
        results = [{"uri": "http://e/Soluna", "label": "Soluna"}, {"label": "no uri"}]
        server.script = [(200, json.dumps({"results": results}))]
        assert LookupClient(server.url, max_results=3).lookup("soluna") == results[:1]
        request = server.requests[0]
        assert request["method"] == "GET"
        assert request["params"] == {"query": ["soluna"], "maxResults": ["3"]}
        assert request["headers"]["Accept"] == "application/json"

    @pytest.mark.parametrize(
        "status, body, message",
        [(404, "{}", "lookup failed: HTTP 404"), (503, "busy", "lookup failed: HTTP 503"),
         (200, "<html>", "non-JSON lookup response")],
    )
    def test_unusable_answers_become_unavailable(self, server, status, body, message):
        server.script = [(status, body)]
        with pytest.raises(LookupUnavailableError, match=message):
            LookupClient(server.url).lookup("soluna")
        assert len(server.requests) == 1


class TestCanonicalize:
    def fixture_client(self) -> FileLookupClient:
        return FileLookupClient(DATA_DIR / "lookup_fixture.json")

    def test_same_iri_mentions_merge(self):
        triplets = [
            Triplet("Soluna", "utilizes", "Excess Energy"),
            Triplet("SOLUNA", "operates in", "Kentucky"),
            Triplet("soluna ", "founded in", "2018"),
        ]
        rewritten, table = canonicalize(triplets, self.fixture_client())
        subjects = {t.subject for t in rewritten}
        assert subjects == {"Soluna"}
        assert table["Soluna"].canonical_iri == SOLUNA_IRI
        assert len(rewritten) == len(triplets)

    def test_unlinked_mentions_merge_by_normalized_surface(self):
        triplets = [
            Triplet("Excess  Energy", "is", "good"),
            Triplet("excess energy", "is", "cheap"),
        ]
        rewritten, table = canonicalize(triplets, self.fixture_client())
        assert {t.subject for t in rewritten} == {"excess energy"}
        assert table["excess energy"].status == "unlinked"

    def test_predicates_normalized_never_linked(self):
        # "Soluna" as predicate must not resolve to an IRI
        triplets = [Triplet("GreenCo", "Soluna", "Kentucky")]
        rewritten, table = canonicalize(triplets, self.fixture_client())
        assert rewritten[0].predicate == "soluna"
        assert set(table) == {"GreenCo", "Kentucky"}

    def test_idempotent(self):
        triplets = [
            Triplet("Soluna", "utilizes", "Excess Energy"),
            Triplet("Starbucks", "located in", "Seattle"),
        ]
        once, _ = canonicalize(triplets, self.fixture_client())
        twice, _ = canonicalize(once, self.fixture_client())
        assert once == twice

    def test_no_client_pure_normalization(self):
        triplets = [Triplet(" A  B ", "Has  Part", "C")]
        rewritten, table = canonicalize(triplets)
        assert rewritten == [Triplet("a b", "has part", "c")]
        assert table["a b"].status == "unlinked"

    def test_provenance_preserved(self):
        from textkg.extraction import Provenance

        prov = Provenance("a1", 0, "b")
        rewritten, _ = canonicalize([Triplet("Soluna", "x", "y", prov)], self.fixture_client())
        assert rewritten[0].provenance == prov

    def test_outage_fallback_keeps_all_triples(self):
        client = FakeClient(fail=True)
        triplets = [Triplet("Soluna", "utilizes", "Excess Energy")]
        rewritten, table = canonicalize(triplets, client)
        assert len(rewritten) == 1
        assert all(e.status == "unlinked" for e in table.values())

    def test_first_label_wins_for_shared_iri(self):
        # two different surfaces, same IRI, service labels differ by case
        table = {
            "seattle": [{"uri": "http://e/S", "label": "Seattle"}],
            "seattle, wa": [{"uri": "http://e/S", "label": "Seattle, WA"}],
        }

        class PrefixyClient(FakeClient):
            pass

        client = PrefixyClient(table)
        triplets = [
            Triplet("Seattle", "is", "rainy"),
            Triplet("Seattle, WA", "hosts", "Starbucks"),
        ]
        rewritten, entity_table = canonicalize(triplets, client, match="prefix")
        assert {t.subject for t in rewritten} == {"Seattle"}
        assert entity_table["Seattle"].canonical_iri == "http://e/S"


def golden_triplets() -> list[Triplet]:
    rows = (GOLDEN_DIR / "triples" / "triples.jsonl").read_text(encoding="utf-8").splitlines()
    return [Triplet(r["subject"], r["predicate"], r["object"]) for r in map(json.loads, rows)]


def shared_iri_case() -> tuple[list[Triplet], dict[str, list[dict]]]:
    """Many surfaces over few IRIs, each surface's service label differing."""
    rng = random.Random(7)
    surfaces = [f"{name}{suffix}" for name in ("Acme", "Globex", "Initech") for suffix in ("", " Inc", " Corp", " Ltd")]
    surfaces += [f"concept {n}" for n in range(30)]
    table = {
        normalize_surface(s): [{"uri": f"http://e/{s.split()[0]}", "label": s.upper()}]
        for s in surfaces
        if not s.startswith("concept 1")
    }
    triplets = [
        Triplet(rng.choice(surfaces), "p", rng.choice(surfaces).swapcase() if rng.random() < 0.3 else rng.choice(surfaces))
        for _ in range(300)
    ]
    return triplets, table


def reference_canonicalize(triplets, client, match):
    """Reference for canonicalize: normalizes and relabels every field of every
    triplet in turn, subject before object, growing the table as it goes."""
    keys = [(normalize_surface(t.subject), normalize_surface(t.object)) for t in triplets]
    surfaces = {}
    for triplet, (subject_key, object_key) in zip(triplets, keys):
        surfaces.setdefault(subject_key, triplet.subject)
        surfaces.setdefault(object_key, triplet.object)
    resolved = {key: link_entity(surface, client, match=match) for key, surface in surfaces.items()}
    iri_labels, table = {}, {}

    def canonical_label(key):
        entity = resolved[key]
        if entity.canonical_iri is not None:
            label = iri_labels.setdefault(entity.canonical_iri, entity.label)
            table.setdefault(label, LinkedEntity(entity.surface, entity.canonical_iri, label, "linked"))
            return label
        table.setdefault(entity.label, entity)
        return entity.label

    rewritten = [
        Triplet(canonical_label(sk), normalize_surface(t.predicate), canonical_label(ok), t.provenance)
        for t, (sk, ok) in zip(triplets, keys)
    ]
    return rewritten, table


def variants_case() -> tuple[list[Triplet], dict[str, list[dict]]]:
    """Case and whitespace variants of one entity, unlinked variants, and two
    surfaces linked to one IRI whose service labels differ."""
    table = {
        "soluna": [{"uri": SOLUNA_IRI, "label": "Soluna"}],
        "seattle": [{"uri": "http://e/S", "label": "Seattle"}],
        "seattle, wa": [{"uri": "http://e/S", "label": "Seattle, WA"}],
    }
    triplets = [
        Triplet("excess  Energy", "Uses", "SOLUNA"),
        Triplet("Soluna", "operates in", "Seattle, WA"),
        Triplet(" soluna ", "operates  in", "Excess energy"),
        Triplet("Seattle", "Hosts", "soluna"),
        Triplet("Kentucky", "hosts", "seattle, wa"),
    ]
    return triplets, table


@pytest.mark.parametrize("case", [variants_case, shared_iri_case])
@pytest.mark.parametrize("workers", [1, 2])
def test_canonicalize_matches_the_reference(case, workers):
    triplets, table = case()
    rewritten, entities = canonicalize(triplets, FakeClient(table), match="prefix", workers=workers)
    expected, expected_entities = reference_canonicalize(triplets, FakeClient(table), "prefix")
    assert rewritten == expected
    assert list(entities.items()) == list(expected_entities.items())


class CountingCache(LinkCache):
    """LinkCache counting puts per key under a lock."""

    def __init__(self):
        super().__init__()
        self.puts: Counter[str] = Counter()
        self._lock = threading.Lock()

    def put(self, surface, iri, label, now=None):
        with self._lock:
            self.puts[normalize_surface(surface)] += 1
        super().put(surface, iri, label, now)


class SlowFailingClient(FakeClient):
    """Every lookup fails after a delay, like a dead endpoint timing out."""

    def lookup(self, query: str) -> list[dict]:
        self.calls.append(query)
        time.sleep(0.01)
        raise LookupUnavailableError("scripted outage")


class TestConcurrentCanonicalize:
    @pytest.mark.parametrize("case", ["fixture", "shared_iris"])
    def test_workers_do_not_change_result(self, case):
        if case == "fixture":
            triplets, client_for = golden_triplets(), lambda: FileLookupClient(DATA_DIR / "lookup_fixture.json")
            match = "exact"
        else:
            triplets, table = shared_iri_case()
            client_for, match = (lambda: FakeClient(table)), "prefix"
        results = []
        for workers in (1, 4):
            cache = LinkCache()
            rewritten, entities = canonicalize(triplets, client_for(), cache, match=match, now=0.0, workers=workers)
            results.append((rewritten, list(entities.items()), cache.entries))
        assert results[0] == results[1]
        if case == "shared_iris":
            # dozens of linked surfaces collapse onto the Acme, Globex, Initech and concept IRIs
            assert sum(e.canonical_iri is not None for _, e in results[0][1]) == 4

    def test_each_normalized_surface_looked_up_once(self):
        triplets, table = shared_iri_case()
        client = FakeClient(table)
        canonicalize(triplets, client, workers=4)
        expected = {normalize_surface(s) for t in triplets for s in (t.subject, t.object)}
        assert Counter(client.calls) == Counter(expected)

    def test_stress_shared_cache(self):
        triplets = [Triplet(f"Entity {n}", "p", f"Thing {n % 97}") for n in range(600)]
        expected = {normalize_surface(s) for t in triplets for s in (t.subject, t.object)}
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            deadline = time.monotonic() + 2.0
            rounds = 0
            while rounds < 5 and time.monotonic() < deadline:
                cache = CountingCache()
                client = FakeClient()
                rewritten, _ = canonicalize(triplets, client, cache, workers=8)
                assert len(rewritten) == len(triplets)
                assert set(cache.entries) == expected
                assert set(cache.puts.values()) == {1}
                assert sorted(client.calls) == sorted(expected)
                rounds += 1
        finally:
            sys.setswitchinterval(previous)
        assert rounds >= 1

    def test_abort_cancels_pending_lookups(self):
        triplets = [Triplet(f"Entity {n}", "p", f"Thing {n}") for n in range(100)]
        client = SlowFailingClient()
        workers = 4
        with pytest.raises(LookupUnavailableError):
            canonicalize(triplets, client, on_error="abort", workers=workers)
        # the failing lookups, plus at most one more started by each worker
        assert len(client.calls) <= 2 * workers

    def test_fallback_outage_still_resolves_every_surface(self):
        triplets = [Triplet(f"Entity {n}", "p", "Thing") for n in range(20)]
        client = FakeClient(fail=True)
        rewritten, table = canonicalize(triplets, client, workers=4)
        assert len(rewritten) == 20
        assert len(client.calls) == 21
        assert all(e.status == "unlinked" for e in table.values())


class TestLinkCacheCorruption:
    @pytest.mark.parametrize(
        "raw",
        [
            b"{not json",
            b'{"caf\xe9": 1}',
            b"[]",
            b'{"soluna": {"iri": null}}',
            b'{"soluna": 3}',
            b'{"soluna": {"fetched_at": 1700000000}}',
            b'{"soluna": {"iri": 3, "label": null, "fetched_at": 1700000000}}',
            b'{"soluna": {"iri": null, "label": ["x"], "fetched_at": 1700000000}}',
        ],
        ids=[
            "invalid-json",
            "not-utf8",
            "list-root",
            "entry-without-time",
            "non-object-entry",
            "entry-without-iri-or-label",
            "non-string-iri",
            "non-string-label",
        ],
    )
    def test_corrupt_file_is_textkg_error_naming_it(self, tmp_path, raw):
        path = tmp_path / "link_cache.json"
        path.write_bytes(raw)
        with pytest.raises(TextkgError, match="link_cache.json"):
            LinkCache.load(path)
