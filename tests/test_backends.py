from __future__ import annotations

import datetime as dt
import email.utils
import json
from pathlib import Path

import pytest

import textkg.extraction as extraction
from textkg import transport
from textkg.corpus import Article
from textkg.errors import ConfigError
from textkg.extraction import (
    BackendConfig,
    HttpError,
    MissingFixtureError,
    RateLimiter,
    TokenLimitExceededError,
    build_prompt,
    extract_article,
    fixture_path,
    generate,
    request_fingerprint,
)


@pytest.fixture()
def fast_sleep(monkeypatch):
    naps: list[float] = []
    monkeypatch.setattr(extraction, "_sleep", naps.append)
    return naps


def chat_config(url: str, **overrides) -> BackendConfig:
    defaults = dict(
        backend_id="chat",
        kind="chat_triples",
        endpoint=url,
        model_name="m1",
        temperature=0.0,
        max_retries=2,
    )
    defaults.update(overrides)
    return BackendConfig(**defaults)


CHAT_OK = json.dumps({"choices": [{"message": {"content": "A | b | C"}}]})


class TestChatBackend:
    def test_payload_and_response(self, server, monkeypatch):
        monkeypatch.delenv(extraction.API_KEY_ENV, raising=False)
        server.script = [(200, CHAT_OK)]
        out = generate(chat_config(server.url, temperature=0.5), "the prompt")
        assert out == "A | b | C"
        request = server.requests[0]
        assert request["json"] == {
            "model": "m1",
            "temperature": 0.5,
            "messages": [{"role": "user", "content": "the prompt"}],
        }
        assert "Authorization" not in request["headers"]

    def test_api_key_read_from_environment_only(self, server, monkeypatch):
        monkeypatch.setenv(extraction.API_KEY_ENV, "sekrit")
        server.script = [(200, CHAT_OK)]
        generate(chat_config(server.url), "p")
        assert server.requests[0]["headers"]["Authorization"] == "Bearer sekrit"
        # no config field can carry a key
        assert not any("key" in f.lower() for f in BackendConfig.__dataclass_fields__)

    def test_retries_on_429_then_succeeds(self, server, fast_sleep):
        server.script = [(429, "slow down"), (500, "boom"), (200, CHAT_OK)]
        out = generate(chat_config(server.url), "p")
        assert out == "A | b | C"
        assert len(server.requests) == 3
        # exponential backoff: 0.5, then 1.0
        assert fast_sleep == [0.5, 1.0]

    def test_retry_after_honoured_on_429_and_503(self, server, fast_sleep):
        server.script = [
            (429, "slow down", {"Retry-After": "7"}),
            (503, "busy", {"Retry-After": "0"}),
            (500, "boom", {"Retry-After": "9"}),
            (200, CHAT_OK),
        ]
        assert generate(chat_config(server.url, max_retries=3), "p") == "A | b | C"
        # max(backoff, Retry-After); a 500's Retry-After is not a 429/503's
        assert fast_sleep == [7, 1.0, 2.0]

    def test_retry_after_up_to_the_cap_is_slept(self, server, fast_sleep):
        cap = str(extraction.MAX_RETRY_AFTER_SECONDS)
        server.script = [(503, "busy", {"Retry-After": cap}), (200, CHAT_OK)]
        assert generate(chat_config(server.url), "p") == "A | b | C"
        assert fast_sleep == [extraction.MAX_RETRY_AFTER_SECONDS]

    def test_retry_after_over_the_cap_fails_without_sleeping(self, server, fast_sleep):
        too_long = str(extraction.MAX_RETRY_AFTER_SECONDS + 1)
        server.script = [(429, "slow down", {"Retry-After": too_long}), (200, CHAT_OK)]
        with pytest.raises(HttpError) as exc_info:
            generate(chat_config(server.url), "p")
        assert exc_info.value.status == 429
        assert len(server.requests) == 1
        assert fast_sleep == []

    @pytest.mark.parametrize("value", ["-3", "1.5", "soon", "Wed, 45 Oct 2026 07:28:00 GMT"])
    def test_unusable_retry_after_falls_back_to_backoff(self, server, fast_sleep, value):
        server.script = [(429, "slow down", {"Retry-After": value}), (200, CHAT_OK)]
        generate(chat_config(server.url), "p")
        assert fast_sleep == [0.5]

    @staticmethod
    def http_date(seconds_from_now: float) -> str:
        when = dt.datetime.now(dt.timezone.utc) + dt.timedelta(seconds=seconds_from_now)
        return email.utils.format_datetime(when, usegmt=True)

    def test_retry_after_http_date_is_waited_out(self, server, fast_sleep):
        server.script = [(503, "busy", {"Retry-After": self.http_date(30)}), (200, CHAT_OK)]
        assert generate(chat_config(server.url), "p") == "A | b | C"
        # the date drops the fraction of a second, and the reply takes some time
        assert len(fast_sleep) == 1 and 28 <= fast_sleep[0] <= 30

    def test_retry_after_http_date_over_the_cap_fails_without_sleeping(self, server, fast_sleep):
        server.script = [(429, "slow down", {"Retry-After": self.http_date(120)}), (200, CHAT_OK)]
        with pytest.raises(HttpError) as exc_info:
            generate(chat_config(server.url), "p")
        assert exc_info.value.status == 429
        assert len(server.requests) == 1
        assert fast_sleep == []

    @pytest.mark.parametrize("value", ["Wed, 21 Oct 2015 07:28:00 GMT", "Wed, 21 Oct 2015 07:28:00 -0000"])
    def test_retry_after_past_http_date_waits_only_backoff(self, server, fast_sleep, value):
        server.script = [(429, "slow down", {"Retry-After": value}), (200, CHAT_OK)]
        generate(chat_config(server.url), "p")
        assert fast_sleep == [0.5]

    def test_gives_up_after_max_retries(self, server, fast_sleep):
        server.script = [(500, "boom")] * 3
        with pytest.raises(HttpError) as exc_info:
            generate(chat_config(server.url, max_retries=2), "p")
        assert exc_info.value.status == 500
        assert len(server.requests) == 3

    def test_client_error_not_retried(self, server, fast_sleep):
        server.script = [(404, "nope")]
        with pytest.raises(HttpError) as exc_info:
            generate(chat_config(server.url), "p")
        assert exc_info.value.status == 404
        assert len(server.requests) == 1
        assert fast_sleep == []

    def test_timeout_retried_then_surfaces(self, monkeypatch, fast_sleep):
        calls = []

        def fake_request(*args, **kwargs):
            calls.append(kwargs)
            raise transport.TransportTimeoutError("too slow")

        monkeypatch.setattr(transport, "request", fake_request)
        with pytest.raises(extraction.RequestTimeoutError):
            generate(chat_config("http://unused.invalid", max_retries=1), "p")
        assert len(calls) == 2

    def test_malformed_response_shape(self, server):
        server.script = [(200, json.dumps({"surprise": True}))]
        with pytest.raises(HttpError) as exc_info:
            generate(chat_config(server.url), "p")
        assert "unexpected response shape" in str(exc_info.value)


class TestSeq2seqBackend:
    def config(self, url: str, **overrides) -> BackendConfig:
        defaults = dict(backend_id="s2s", kind="seq2seq_tokens", endpoint=url, max_retries=0)
        defaults.update(overrides)
        return BackendConfig(**defaults)

    def test_payload_and_dict_response(self, server):
        server.script = [(200, json.dumps({"generated_text": "<triplet> A <subj> b <obj> C"}))]
        out = generate(self.config(server.url), "some text")
        assert out == "<triplet> A <subj> b <obj> C"
        assert server.requests[0]["json"] == {"inputs": "some text"}

    def test_list_response_accepted(self, server):
        server.script = [(200, json.dumps([{"generated_text": "out"}]))]
        assert generate(self.config(server.url), "x") == "out"

    def test_token_limit_enforced_before_any_call(self, server):
        text = " ".join(["tok"] * 600)
        with pytest.raises(TokenLimitExceededError) as exc_info:
            generate(self.config(server.url, max_input_tokens=512), text)
        assert exc_info.value.token_count == 600
        assert exc_info.value.limit == 512
        assert server.requests == []


class TestReplayBackend:
    def config(self, fixtures_dir, **overrides) -> BackendConfig:
        defaults = dict(
            backend_id="rp",
            kind="replay",
            fixtures_dir=str(fixtures_dir),
            model_name="m1",
            temperature=0.0,
        )
        defaults.update(overrides)
        return BackendConfig(**defaults)

    def test_fixture_identity(self, tmp_path):
        config = self.config(tmp_path)
        path = fixture_path(config, "the input")
        path.write_text("<triplet> A <subj> r <obj> B", encoding="utf-8")
        assert generate(config, "the input") == "<triplet> A <subj> r <obj> B"

    def test_missing_fixture(self, tmp_path):
        with pytest.raises(MissingFixtureError) as exc_info:
            generate(self.config(tmp_path), "absent")
        assert exc_info.value.fingerprint in str(exc_info.value.path)

    def test_fixture_gone_after_existence_check(self, tmp_path, monkeypatch):
        # a fixture removed between a check and the read must still be a
        # BackendError, which on_batch_error "skip" can skip, not an OSError
        monkeypatch.setattr(Path, "is_file", lambda self: True)
        with pytest.raises(MissingFixtureError) as exc_info:
            generate(self.config(tmp_path), "absent")
        assert str(exc_info.value) == (
            f"no replay fixture for request {exc_info.value.fingerprint} (expected {exc_info.value.path})"
        )

    def test_fingerprint_stable_and_float_normalized(self):
        a = request_fingerprint("p", "m", 0)
        b = request_fingerprint("p", "m", 0.0)
        assert a == b == request_fingerprint("p", "m", 0.0)
        assert a != request_fingerprint("p", "m", 0.5)
        assert a != request_fingerprint("p", "other", 0.0)
        assert a != request_fingerprint("q", "m", 0.0)


class TestBackendConfigValidation:
    def test_replay_requires_fixtures_dir(self):
        with pytest.raises(ConfigError):
            BackendConfig(backend_id="x", kind="replay")

    def test_live_requires_endpoint(self):
        with pytest.raises(ConfigError):
            BackendConfig(backend_id="x", kind="chat_triples")

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            BackendConfig(backend_id="x", kind="quantum", endpoint="http://e")

    def test_bad_replay_mode(self):
        with pytest.raises(ConfigError):
            BackendConfig(backend_id="x", kind="replay", fixtures_dir="f", replay_mode="poetry")


class TestRateLimiter:
    def test_spacing(self, fast_sleep):
        limiter = RateLimiter(2.0)
        limiter.acquire()
        limiter.acquire()
        limiter.acquire()
        # first call free; with sleeps suppressed the debt accumulates by one
        # interval (0.5s) per call, minus the tiny real elapsed time
        assert len(fast_sleep) == 2
        assert 0.4 < fast_sleep[0] <= 0.5
        assert 0.9 < fast_sleep[1] <= 1.0

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            RateLimiter(0)


def make_article(body: str, article_id: str = "a1") -> Article:
    return Article(
        id=article_id,
        title="t",
        body=body,
        source_domain="d.example",
        published_at=dt.date(2023, 1, 1),
        language="en",
    )


class TestExtractArticle:
    def seq2seq_replay(self, tmp_path, **overrides) -> BackendConfig:
        defaults = dict(
            backend_id="rp",
            kind="replay",
            fixtures_dir=str(tmp_path),
            replay_mode="seq2seq",
            model_name="m1",
            temperature=0.0,
        )
        defaults.update(overrides)
        return BackendConfig(**defaults)

    def write_fixture(self, config: BackendConfig, request_text: str, response: str) -> None:
        fixture_path(config, request_text).write_text(response, encoding="utf-8")

    def test_empty_body(self, tmp_path):
        triplets, report = extract_article(make_article("   "), self.seq2seq_replay(tmp_path))
        assert triplets == []
        assert report.triplets_emitted == report.segments_skipped == 0

    def test_batched_extraction_with_provenance(self, tmp_path):
        body = " ".join(f"w{i}" for i in range(600))
        article = make_article(body)
        config = self.seq2seq_replay(tmp_path)
        from textkg.chunking import chunk

        batches = chunk(article, batch_size=256)
        assert len(batches) == 3
        for index, batch in enumerate(batches):
            self.write_fixture(config, batch.text, f"<triplet> S{index} <subj> p <obj> O{index}")

        triplets, report = extract_article(article, config, batch_size=256)
        assert [t.subject for t in triplets] == ["S0", "S1", "S2"]
        assert [t.provenance.batch_index for t in triplets] == [0, 1, 2]
        assert all(t.provenance.article_id == "a1" for t in triplets)
        assert all(t.provenance.backend_id == "rp" for t in triplets)
        assert report.triplets_emitted == 3

    def test_skip_policy_records_failed_batch(self, tmp_path):
        body = " ".join(f"w{i}" for i in range(600))
        article = make_article(body)
        config = self.seq2seq_replay(tmp_path)
        from textkg.chunking import chunk

        batches = chunk(article, batch_size=256)
        for batch in (batches[0], batches[2]):
            self.write_fixture(
                config, batch.text, f"<triplet> S{batch.batch_index} <subj> p <obj> O"
            )

        triplets, report = extract_article(
            article, config, batch_size=256, on_batch_error="skip"
        )
        assert [t.provenance.batch_index for t in triplets] == [0, 2]
        assert report.failed_batches == [1]
        assert any("generation failed" in reason for _, reason in report.skip_reasons)

    def test_skip_policy_records_failed_whole_article_as_none(self, tmp_path):
        article = make_article("Soluna soaks up excess energy.")
        config = self.seq2seq_replay(tmp_path, replay_mode="triples")

        triplets, report = extract_article(article, config, on_batch_error="skip")
        assert triplets == []
        assert report.failed_batches == [None]
        assert report.skip_reasons[0][0] == "batch None"

    def test_fail_policy_raises(self, tmp_path):
        article = make_article("one two three")
        with pytest.raises(MissingFixtureError):
            extract_article(article, self.seq2seq_replay(tmp_path))

    def test_triples_mode_whole_article(self, tmp_path):
        article = make_article("Soluna soaks up excess energy.")
        config = self.seq2seq_replay(tmp_path, replay_mode="triples")
        prompt = build_prompt(article.body, "triples")
        self.write_fixture(config, prompt, "Soluna | utilizes | Excess Energy")

        triplets, _ = extract_article(article, config)
        assert len(triplets) == 1
        assert triplets[0].provenance.batch_index is None

    def test_triples_mode_batches_when_over_limit(self, tmp_path):
        body = " ".join(f"w{i}" for i in range(20))
        article = make_article(body)
        config = self.seq2seq_replay(tmp_path, replay_mode="triples", max_input_tokens=8)
        from textkg.chunking import chunk

        for batch in chunk(article, batch_size=8):
            self.write_fixture(
                config, build_prompt(batch.text, "triples"), f"B{batch.batch_index} | has | x"
            )

        triplets, _ = extract_article(article, config, batch_size=8)
        assert [t.subject for t in triplets] == ["B0", "B1", "B2"]
        assert [t.provenance.batch_index for t in triplets] == [0, 1, 2]

    def test_ontology_kind_rejected(self):
        config = BackendConfig(
            backend_id="o", kind="chat_ontology", endpoint="http://unused.invalid"
        )
        with pytest.raises(ConfigError):
            extract_article(make_article("x"), config)

    def test_replay_ontology_mode_rejected(self, tmp_path):
        config = BackendConfig(
            backend_id="o", kind="replay", fixtures_dir=str(tmp_path), replay_mode="ontology"
        )
        with pytest.raises(ConfigError, match="ontology output of backend 'o'"):
            extract_article(make_article("x"), config)

    def test_on_generation_observes_raw_output(self, tmp_path):
        article = make_article("short text here")
        config = self.seq2seq_replay(tmp_path)
        self.write_fixture(config, article.body, "<triplet> A <subj> b <obj> C")
        seen: list[tuple[int | None, str]] = []

        extract_article(article, config, on_generation=lambda i, raw: seen.append((i, raw)))
        assert seen == [(0, "<triplet> A <subj> b <obj> C")]

    def test_determinism(self, tmp_path):
        article = make_article("alpha beta gamma")
        config = self.seq2seq_replay(tmp_path)
        self.write_fixture(config, article.body, "<triplet> A <subj> b <obj> C")
        first = extract_article(article, config)
        second = extract_article(article, config)
        assert first[0] == second[0]
        assert first[1].triplets_emitted == second[1].triplets_emitted


class TestBuildPrompt:
    def test_triples_prompt_contains_contract(self):
        prompt = build_prompt("Some text", "triples")
        assert "Some text" in prompt
        assert "subject | predicate | object" in prompt
        assert build_prompt("Some text", "triples") == prompt

    def test_ontology_prompt_contains_concepts(self):
        concepts = ["organizations", "actions", "practices", "policies"]
        prompt = build_prompt("Some text", "ontology", concepts)
        for concept in concepts:
            assert concept in prompt
        assert "Turtle" in prompt

    def test_ontology_defaults_to_standard_concepts(self):
        prompt = build_prompt("x", "ontology")
        assert "organizations, actions, practices, policies" in prompt

    def test_empty_article_rejected(self):
        with pytest.raises(extraction.EmptyArticleError):
            build_prompt("  ", "triples")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            build_prompt("x", "haiku")
