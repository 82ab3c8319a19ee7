"""End-to-end pipeline runs and config loading.

The runs here use the replay backend and the checked-in corpus, so they are
hermetic: no network, no wall-clock dependence, byte-identical artifacts.
"""

import gc
import hashlib
import json
import os
import re
import subprocess
import sys
import threading
import time
import weakref
from collections import Counter
from collections.abc import Callable
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace
from typing import get_args, get_type_hints

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import textkg
from textkg import extraction, pipeline
from textkg.chunking import TokenBatch
from textkg.cli import main
from textkg.corpus import Article, load_corpus
from textkg.errors import ConfigError, TextkgError
from textkg.extraction import BackendConfig, build_prompt
from textkg.kgstore import KnowledgeBase, load_kb
from textkg.linking import FileLookupClient, LookupUnavailableError, normalize_surface
from textkg.quality import QualityConfig
from textkg.rdf import build_repair_prompt, validate_text
from textkg.pipeline import (
    ExportSettings,
    LinkingSettings,
    PipelineConfig,
    StageError,
    load_config,
    run_pipeline,
)

from .conftest import DATA_DIR, GOLDEN_DIR, fixture_path
from .test_kgstore import json_text

README = Path(__file__).resolve().parents[1] / "README.md"


def snapshot(run_dir: Path) -> dict[str, bytes]:
    """Map of relative path -> file bytes for every file under run_dir."""
    return {
        str(path.relative_to(run_dir)): path.read_bytes()
        for path in sorted(run_dir.rglob("*"))
        if path.is_file()
    }


def write_config(base: Path, data: dict, name: str = "pipeline_custom.json") -> Path:
    path = base / name
    path.write_text(json.dumps(data, indent=2), encoding="utf-8")
    return path


def triples_config_dict() -> dict:
    return json.loads((DATA_DIR / "pipeline_triples.json").read_text(encoding="utf-8"))


def ontology_config_dict() -> dict:
    return json.loads((DATA_DIR / "pipeline_ontology.json").read_text(encoding="utf-8"))


class TestLoadConfig:
    def test_valid_config_loads_and_resolves_paths(self):
        config = load_config(DATA_DIR / "pipeline_triples.json")
        assert config.mode == "triples"
        assert config.backend_id == "replay-chat"
        assert config.backend.kind == "replay"
        assert config.base_dir == DATA_DIR.resolve()
        # relative paths resolve against the config file's directory
        assert config.resolve(config.corpus) == DATA_DIR.resolve() / "corpus_pipeline.jsonl"
        assert Path(config.backend.fixtures_dir).is_absolute()
        assert Path(config.backend.fixtures_dir).name == "replay_triples"

    def test_absolute_paths_kept_verbatim(self, tmp_path):
        data = triples_config_dict()
        data["backends"][0]["fixtures_dir"] = "/somewhere/else"
        path = write_config(tmp_path, data)
        config = load_config(path)
        assert config.backend.fixtures_dir == "/somewhere/else"
        assert config.resolve("/abs/corpus.jsonl") == Path("/abs/corpus.jsonl")

    def test_config_hash_is_sha256_of_raw_bytes(self, tmp_path):
        path = write_config(tmp_path, triples_config_dict())
        config = load_config(path)
        assert config.config_hash == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_config_hash_tracks_bytes_not_semantics(self, tmp_path):
        data = triples_config_dict()
        compact = tmp_path / "compact.json"
        compact.write_text(json.dumps(data), encoding="utf-8")
        pretty = tmp_path / "pretty.json"
        pretty.write_text(json.dumps(data, indent=4), encoding="utf-8")
        assert load_config(compact).config_hash != load_config(pretty).config_hash

    def test_defaults_applied(self, tmp_path):
        data = triples_config_dict()
        del data["linking"]
        del data["quality"]
        del data["export"]
        config = load_config(write_config(tmp_path, data))
        assert config.batch_size == 256
        assert config.workers == 1
        assert config.on_batch_error == "fail"
        assert config.linking.match == "exact"
        assert config.quality.conciseness_max_tokens == 4
        assert config.export.formats == ("dot", "graphml", "json")
        assert config.export.max_nodes == 150
        assert config.max_repair_attempts == 3

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config file"):
            load_config(tmp_path / "nope.json")

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)

    def test_non_object_root_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ConfigError, match="root must be a JSON object"):
            load_config(path)

    def test_unknown_top_level_key_rejected(self, tmp_path):
        data = triples_config_dict()
        data["surprise"] = 1
        with pytest.raises(ConfigError, match="unknown key.*surprise"):
            load_config(write_config(tmp_path, data))

    def test_unknown_backend_key_rejected(self, tmp_path):
        data = triples_config_dict()
        data["backends"][0]["api_key"] = "never"
        with pytest.raises(ConfigError, match=r"backends\[0\].*unknown key.*api_key"):
            load_config(write_config(tmp_path, data))

    @pytest.mark.parametrize("section", ["linking", "quality", "export"])
    def test_unknown_nested_key_rejected(self, tmp_path, section):
        data = triples_config_dict()
        data.setdefault(section, {})["mystery"] = 1
        with pytest.raises(ConfigError, match=f"'{section}'.*unknown key.*mystery"):
            load_config(write_config(tmp_path, data))

    @pytest.mark.parametrize("mode", [None, "both", 3])
    def test_bad_mode_rejected(self, tmp_path, mode):
        data = triples_config_dict()
        if mode is None:
            del data["mode"]
        else:
            data["mode"] = mode
        with pytest.raises(ConfigError, match="'mode'"):
            load_config(write_config(tmp_path, data))

    @pytest.mark.parametrize("key", ["corpus", "run_dir", "backend_id"])
    def test_required_strings(self, tmp_path, key):
        data = triples_config_dict()
        del data[key]
        with pytest.raises(ConfigError, match=f"'{key}'"):
            load_config(write_config(tmp_path, data))

    def test_empty_backends_rejected(self, tmp_path):
        data = triples_config_dict()
        data["backends"] = []
        with pytest.raises(ConfigError, match="'backends'"):
            load_config(write_config(tmp_path, data))

    def test_duplicate_backend_id_rejected(self, tmp_path):
        data = triples_config_dict()
        data["backends"].append(dict(data["backends"][0]))
        with pytest.raises(ConfigError, match="duplicate backend_id"):
            load_config(write_config(tmp_path, data))

    def test_unlisted_backend_id_rejected(self, tmp_path):
        data = triples_config_dict()
        data["backend_id"] = "ghost"
        with pytest.raises(ConfigError, match="'ghost' is not in the backends table"):
            load_config(write_config(tmp_path, data))

    def test_backend_field_errors_carry_context(self, tmp_path):
        data = triples_config_dict()
        del data["backends"][0]["fixtures_dir"]
        with pytest.raises(ConfigError, match=r"backends\[0\]"):
            load_config(write_config(tmp_path, data))

    @pytest.mark.parametrize(
        ("key", "value", "hint"),
        [
            ("batch_size", 0, "batch_size"),
            ("batch_size", "256", "batch_size"),
            ("workers", 0, "workers"),
            ("rate_limit_per_second", -1, "rate_limit_per_second"),
            ("on_batch_error", "retry", "on_batch_error"),
            ("max_repair_attempts", 0, "max_repair_attempts"),
            ("date_from", "02/30/2023", "date_from"),
            ("date_to", "2023-02-30", "date_to"),
        ],
    )
    def test_scalar_validation(self, tmp_path, key, value, hint):
        data = triples_config_dict()
        data[key] = value
        with pytest.raises(ConfigError, match=hint):
            load_config(write_config(tmp_path, data))

    @pytest.mark.parametrize(("section", "key"), [(None, "rate_limit_per_second"), ("export", "max_nodes")])
    def test_null_optional_key_loads_as_none(self, tmp_path, section, key):
        data = triples_config_dict()
        (data[section] if section else data)[key] = None
        config = load_config(write_config(tmp_path, data))
        assert getattr(getattr(config, section) if section else config, key) is None

    def test_dates_parsed_to_date_objects(self, tmp_path):
        data = triples_config_dict()
        data["date_from"] = "2023-02-20"
        data["date_to"] = "2023-03-01"
        config = load_config(write_config(tmp_path, data))
        assert (config.date_from.year, config.date_from.month, config.date_from.day) == (2023, 2, 20)
        assert config.date_to.isoformat() == "2023-03-01"

    def test_seq2seq_limit_below_batch_size_rejected(self, tmp_path):
        # every full batch would fail with TokenLimitExceededError before any request
        data = triples_config_dict()
        data["batch_size"] = 23
        data["backends"].append(
            {"backend_id": "rebel", "kind": "seq2seq_tokens", "endpoint": "http://127.0.0.1:9",
             "max_input_tokens": 5}
        )
        with pytest.raises(ConfigError, match=r"backends\[1\]': max_input_tokens 5 is below batch_size 23"):
            load_config(write_config(tmp_path, data))
        data["backends"][1]["max_input_tokens"] = 23
        assert load_config(write_config(tmp_path, data)).backends["rebel"].max_input_tokens == 23

    def test_inverted_date_window_rejected(self, tmp_path):
        data = triples_config_dict()
        data["date_from"] = "2023-03-01"
        data["date_to"] = "2023-02-01"
        with pytest.raises(ConfigError, match="2023-03-01 is after 2023-02-01"):
            load_config(write_config(tmp_path, data))

    def test_single_day_window_accepted(self, tmp_path):
        data = triples_config_dict()
        data["date_from"] = data["date_to"] = "2023-02-20"
        config = load_config(write_config(tmp_path, data))
        assert config.date_from == config.date_to

    @pytest.mark.parametrize(
        ("patch", "hint"),
        [
            ({"match": "fuzzy"}, "linking.match"),
            ({"on_error": "explode"}, "linking.on_error"),
        ],
    )
    def test_linking_enum_validation(self, tmp_path, patch, hint):
        data = triples_config_dict()
        data["linking"].update(patch)
        with pytest.raises(ConfigError, match=hint):
            load_config(write_config(tmp_path, data))

    @pytest.mark.parametrize(
        ("patch", "hint"),
        [
            ({"formats": ["dot", "svg"]}, "export.formats"),
            ({"formats": []}, "export.formats"),
            ({"radius": -1}, "export"),
            ({"max_nodes": 0}, "export"),
        ],
    )
    def test_export_validation(self, tmp_path, patch, hint):
        data = triples_config_dict()
        data["export"].update(patch)
        with pytest.raises(ConfigError, match=hint):
            load_config(write_config(tmp_path, data))

    def test_quality_lexicon_file_loaded(self, tmp_path):
        data = triples_config_dict()
        (tmp_path / "lex.txt").write_text("# comment\nsolar\nwind\n", encoding="utf-8")
        data["quality"]["domain_lexicon_file"] = "lex.txt"
        config = load_config(write_config(tmp_path, data))
        assert config.quality.domain_lexicon == ("solar", "wind")

    def test_quality_lexicon_file_missing_rejected(self, tmp_path):
        data = triples_config_dict()
        data["quality"]["domain_lexicon_file"] = "missing.txt"
        with pytest.raises(ConfigError, match="quality"):
            load_config(write_config(tmp_path, data))

    def test_quality_bad_threshold_rejected(self, tmp_path):
        data = triples_config_dict()
        data["quality"]["conciseness_max_tokens"] = 0
        with pytest.raises(ConfigError, match="quality"):
            load_config(write_config(tmp_path, data))

    @pytest.mark.parametrize(
        ("section", "key", "value"),
        [
            ("export", "max_nodes", "150"),
            ("export", "formats", 5),
            ("export", "radius", None),
            ("linking", "cache_path", 5),
            ("backends", "fixtures_dir", 7),
            ("backends", "max_retries", 1.5),
            ("backends", "temperature", "0"),
            ("quality", "functional_predicates", "industry"),
            (None, "batch_size", True),
            (None, "workers", 2.0),
            (None, "rate_limit_per_second", True),
            (None, "date_from", 20230101),
        ],
    )
    def test_wrongly_typed_value_rejected(self, tmp_path, section, key, value):
        data = triples_config_dict()
        if section is None:
            data[key] = value
            label = key
        elif section == "backends":
            data["backends"][0][key] = value
            label = f"backends[0].{key}"
        else:
            data.setdefault(section, {})[key] = value
            label = f"{section}.{key}"
        with pytest.raises(ConfigError, match=re.escape(f"config key '{label}': expected")):
            load_config(write_config(tmp_path, data))

    # every section's accepted keys, as documented in the README
    ACCEPTED_KEYS = {
        "": {
            "mode", "corpus", "run_dir", "backend_id", "backends", "batch_size", "workers",
            "rate_limit_per_second", "on_batch_error", "date_from", "date_to", "linking",
            "quality", "export", "max_repair_attempts",
        },
        "backends[0]": {
            "backend_id", "kind", "endpoint", "model_name", "temperature", "max_input_tokens",
            "request_timeout", "max_retries", "fixtures_dir", "replay_mode",
        },
        "linking": {"endpoint", "fixture_file", "cache_path", "match", "on_error"},
        "quality": {"conciseness_max_tokens", "functional_predicates", "domain_lexicon_file"},
        "export": {"formats", "max_nodes", "seed_entity", "radius"},
    }

    @pytest.mark.parametrize("section", sorted(ACCEPTED_KEYS))
    def test_accepted_key_set(self, tmp_path, section):
        # offer every field name of every config dataclass plus a stray key;
        # exactly the ones outside the section's key set must be reported
        offered = {"stray"} | {
            f.name
            for cls in (PipelineConfig, BackendConfig, LinkingSettings, QualityConfig, ExportSettings)
            for f in fields(cls)
        }
        unknown = ", ".join(sorted(offered - self.ACCEPTED_KEYS[section]))
        data = triples_config_dict()
        raw = dict.fromkeys(offered)
        if section == "":
            data = raw
        elif section == "backends[0]":
            data["backends"][0] = raw
        else:
            data[section] = raw
        context = f"config key '{section}'" if section else "config"
        with pytest.raises(ConfigError, match=re.escape(f"{context}: unknown key(s) {unknown}")):
            load_config(write_config(tmp_path, data))

    @pytest.mark.parametrize(
        "backend",
        [
            {"kind": "chat_ontology", "endpoint": "http://127.0.0.1:9"},
            {"kind": "replay", "fixtures_dir": "replay_ontology", "replay_mode": "ontology"},
        ],
        ids=["chat-ontology", "replay-ontology"],
    )
    def test_triples_mode_rejects_backend_answering_in_turtle(self, tmp_path, backend):
        data = triples_config_dict()
        data.update(backend_id="onto", backends=[{"backend_id": "onto", **backend}])
        with pytest.raises(ConfigError, match="config key 'backend_id': backend 'onto' answers in ontology Turtle"):
            load_config(write_config(tmp_path, data))

    def test_skip_policy_rejected_in_ontology_mode(self, tmp_path):
        data = ontology_config_dict()
        data["on_batch_error"] = "skip"
        with pytest.raises(ConfigError, match="'on_batch_error': skip is not supported in ontology mode"):
            load_config(write_config(tmp_path, data))

    def test_readme_example_config_loads(self, tmp_path):
        section = README.read_text(encoding="utf-8").split("## Pipeline config", 1)[1]
        example = section.split("```json\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "config.json"
        path.write_text(example, encoding="utf-8")
        # a domain lexicon must hold at least one term
        (tmp_path / "lexicon.txt").write_text("solar\n", encoding="utf-8")
        config = load_config(path)
        assert config.quality.domain_lexicon == ("solar",)
        assert config.backends["replay"].fixtures_dir == str(tmp_path.resolve() / "recorded")

    def test_readme_lists_each_typed_key_once_under_its_type(self):
        # sections, and the fields that are not config keys, are not typed keys
        sections = {
            "": (PipelineConfig, {"backends", "base_dir", "config_hash", "linking", "quality", "export"}),
            "backends[].": (BackendConfig, set()),
            "linking.": (LinkingSettings, set()),
            "quality.": (QualityConfig, {"domain_lexicon"}),
            "export.": (ExportSettings, set()),
        }
        want = {}
        for prefix, (cls, untyped) in sections.items():
            for name, hint in get_type_hints(cls).items():
                if name not in untyped:
                    optional = type(None) in get_args(hint)
                    expected = pipeline._JSON_TYPES[get_args(hint)[0] if optional else hint][0]
                    want[prefix + name] = expected + (" or `null`" if optional else "")
        text = README.read_text(encoding="utf-8").split("## Pipeline config", 1)[1]
        items = text.split("The types are:\n\n", 1)[1].split("\n\n", 1)[0].split("\n- ")
        listed = [
            (name, label.removeprefix("- "))
            for label, names in (item.split(": ", 1) for item in items)
            for name in re.findall(r"`([^`]+)`", names)
        ]
        assert [name for name, count in Counter(name for name, _ in listed).items() if count > 1] == []
        assert dict(listed) == want


def assert_matches_golden(run_dir: Path, golden_dir: Path) -> None:
    got = snapshot(run_dir)
    want = snapshot(golden_dir)
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], f"artifact {name} differs from golden"


class TestRunPipeline:
    def test_triples_run_matches_golden(self, data_copy):
        manifest = run_pipeline(data_copy / "pipeline_triples.json")
        assert_matches_golden(data_copy / "run_triples", GOLDEN_DIR / "triples")
        on_disk = json.loads((data_copy / "run_triples" / "manifest.json").read_text())
        assert manifest == on_disk

    def test_ontology_run_matches_golden(self, data_copy):
        run_pipeline(data_copy / "pipeline_ontology.json")
        assert_matches_golden(data_copy / "run_ontology", GOLDEN_DIR / "ontology")

    def test_repeat_runs_byte_identical(self, data_copy):
        config = data_copy / "pipeline_triples.json"
        run_pipeline(config)
        first = snapshot(data_copy / "run_triples")
        run_pipeline(config)
        assert snapshot(data_copy / "run_triples") == first

    def test_manifest_carries_no_timestamps(self, data_copy):
        manifest = run_pipeline(data_copy / "pipeline_triples.json")
        assert set(manifest) == {"config_hash", "mode", "stages"}
        assert set(manifest["stages"]) == {
            "corpus",
            "chunk",
            "extract",
            "link",
            "kb",
            "quality",
            "export",
        }

    def test_link_cache_written_beside_config(self, data_copy):
        run_pipeline(data_copy / "pipeline_triples.json")
        cache = json.loads((data_copy / "link_cache.json").read_text(encoding="utf-8"))
        assert len(cache) == 18
        assert cache["soluna"]["iri"] == "http://dbpedia.org/resource/Soluna"
        # rejected candidates are cached as misses so reruns skip the lookup
        assert cache["green bonds"]["iri"] is None

    def test_cached_links_survive_fixture_removal(self, data_copy):
        config = data_copy / "pipeline_triples.json"
        first = run_pipeline(config)
        kb_bytes = (data_copy / "run_triples" / "kb.json").read_bytes()
        # empty the lookup table; the warm cache must keep answers identical
        (data_copy / "lookup_fixture.json").write_text("{}", encoding="utf-8")
        second = run_pipeline(config)
        assert (data_copy / "run_triples" / "kb.json").read_bytes() == kb_bytes
        assert first["stages"]["link"] == second["stages"]["link"]

    def test_workers_do_not_change_artifacts(self, data_copy):
        data = json.loads((data_copy / "pipeline_triples.json").read_text())
        data["workers"] = 3
        config = write_config(data_copy, data)
        manifest = run_pipeline(config)
        got = snapshot(data_copy / "run_triples")
        want = snapshot(GOLDEN_DIR / "triples")
        # the config bytes differ, so compare everything except the hash
        golden_manifest = json.loads(want.pop("manifest.json"))
        ours = json.loads(got.pop("manifest.json"))
        assert ours["stages"] == golden_manifest["stages"]
        assert manifest["stages"] == golden_manifest["stages"]
        assert got == want

    def test_lookup_endpoint_links_as_the_fixture_table_does(self, data_copy, server):
        # the server answers each lookup, in first-seen order, as the bundled
        # lookup table would, so the KB must equal the golden one
        fixture = json.loads((DATA_DIR / "lookup_fixture.json").read_text(encoding="utf-8"))
        table = {normalize_surface(query): results for query, results in fixture.items()}
        queries = []
        for line in (GOLDEN_DIR / "triples" / "triples.jsonl").read_text(encoding="utf-8").splitlines():
            row = json.loads(line)
            for surface in (row["subject"], row["object"]):
                if normalize_surface(surface) not in queries:
                    queries.append(normalize_surface(surface))
        server.script = [(200, json.dumps(table.get(query, []))) for query in queries]
        data = triples_config_dict()
        data["linking"] = {"endpoint": server.url}
        manifest = run_pipeline(write_config(data_copy, data))
        assert [request["params"]["query"] for request in server.requests] == [[query] for query in queries]
        golden = json.loads((GOLDEN_DIR / "triples" / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["stages"] == golden["stages"]
        kb = json.loads((data_copy / "run_triples" / "kb.json").read_text(encoding="utf-8"))
        want = json.loads((GOLDEN_DIR / "triples" / "kb.json").read_text(encoding="utf-8"))
        assert kb.pop("link_config") == f"match=exact;source={server.url}"
        assert want.pop("link_config") == "match=exact;source=lookup_fixture.json"
        assert kb == want

    def test_article_without_a_valid_ontology_is_reported_not_folded(self, data_copy):
        config_path = data_copy / "pipeline_ontology.json"
        config = load_config(config_path)
        first = next(load_corpus(config.resolve(config.corpus)))
        # the first generation and every repair of it answer the same invalid text
        invalid = "this is not turtle"
        for prompt in (build_prompt(first.body, "ontology"), build_repair_prompt(invalid, validate_text(invalid)[1])):
            fixture_path(config.backend, prompt).write_text(invalid, encoding="utf-8")
        counts = run_pipeline(config_path)["stages"]["ontology"]
        assert counts["invalid_article_ids"] == [first.id]
        assert counts["documents"] - counts["valid_documents"] == 1
        ontologies = data_copy / "run_ontology" / "ontologies"
        report = json.loads((ontologies / f"{first.id}.report.json").read_text(encoding="utf-8"))
        assert report["valid"] is False
        assert len(report["attempts"]) == config.max_repair_attempts
        assert not (ontologies / f"{first.id}.ttl").exists()
        kb = load_kb(data_copy / "run_ontology" / "kb.json")
        assert first.id not in {p.article_id for provenance in kb.triples.values() for p in provenance}

    def test_empty_body_article_makes_no_request_in_ontology_mode(self, data_copy):
        corpus = data_copy / "corpus_pipeline.jsonl"
        lines = corpus.read_text(encoding="utf-8").splitlines(keepends=True)
        blank = {**json.loads(lines[0]), "id": "blank", "body": " \n\t "}
        corpus.write_text("".join(lines[:2] + [json.dumps(blank) + "\n"] + lines[2:]), encoding="utf-8")
        # no replay fixture answers for "blank", so a request for it would fail the run
        manifest = run_pipeline(data_copy / "pipeline_ontology.json")
        assert manifest["stages"]["corpus"] == {"articles": 6, "empty_bodies": 1}
        assert manifest["stages"]["ontology"]["documents"] == 5
        run_dir = data_copy / "run_ontology"
        assert snapshot(run_dir / "ontologies") == snapshot(GOLDEN_DIR / "ontology" / "ontologies")
        for name in ("batches.jsonl", "generations.jsonl"):
            assert (run_dir / name).read_bytes() == (GOLDEN_DIR / "ontology" / name).read_bytes(), name

    def test_date_filter_limits_corpus(self, data_copy):
        data = json.loads((data_copy / "pipeline_triples.json").read_text())
        data["date_from"] = "2023-02-20"
        data["date_to"] = "2023-02-25"
        config = write_config(data_copy, data)
        manifest = run_pipeline(config)
        assert manifest["stages"]["corpus"]["articles"] == 2
        kb = json.loads((data_copy / "run_triples" / "kb.json").read_text())
        subjects = {t["subject"] for t in kb["triples"]}
        assert "Samsung" not in subjects
        assert "Soluna" in subjects and "Starbucks" in subjects

    @pytest.mark.parametrize(
        "config_name, bound, kept",
        [
            ("pipeline_ontology.json", {"date_from": "2023-03-01"}, ["a3", "a4", "a5"]),
            ("pipeline_triples.json", {"date_to": "2023-02-25"}, ["a1", "a2"]),
        ],
    )
    def test_one_sided_date_window(self, data_copy, config_name, bound, kept):
        data = json.loads((data_copy / config_name).read_text())
        data.update(bound)
        manifest = run_pipeline(write_config(data_copy, data))
        assert manifest["stages"]["corpus"]["articles"] == len(kept)
        batches = (data_copy / data["run_dir"] / "batches.jsonl").read_text().splitlines()
        assert sorted({json.loads(line)["article_id"] for line in batches}) == kept

    @pytest.mark.parametrize("mode", ["ontology", "triples"])
    def test_corrupt_corpus_fails_in_corpus_stage(self, data_copy, monkeypatch, mode):
        corpus = data_copy / "corpus_pipeline.jsonl"
        corpus.write_text(corpus.read_text(encoding="utf-8") + "{broken\n", encoding="utf-8")
        generated = []  # ontology mode's backend calls
        monkeypatch.setattr(pipeline, "generate", lambda *args, **kwargs: generated.append(args))
        with pytest.raises(StageError, match="stage 'corpus' failed: line 6: invalid JSON") as info:
            run_pipeline(data_copy / f"pipeline_{mode}.json")
        assert info.value.stage == "corpus"
        assert isinstance(info.value.cause, TextkgError)
        rows = data_copy / f"run_{mode}" / "generations.jsonl"
        lines = rows.read_text(encoding="utf-8").splitlines() if rows.exists() else []
        extracted = {json.loads(line)["article_id"] for line in lines}
        if mode == "ontology":
            # the id-only first pass reads every line before the first generation
            assert generated == [] and extracted == set()
        else:
            # one pass: the articles before the bad line are extracted
            assert extracted == {"a1", "a2", "a3", "a4", "a5"}

    def test_failed_rerun_leaves_no_manifest(self, data_copy):
        config = data_copy / "pipeline_triples.json"
        run_dir = data_copy / "run_triples"
        run_pipeline(config)
        assert (run_dir / "manifest.json").is_file()
        (data_copy / "corpus_pipeline.jsonl").write_text("{broken\n", encoding="utf-8")
        with pytest.raises(StageError, match="stage 'corpus' failed"):
            run_pipeline(config)
        assert not (run_dir / "manifest.json").exists()
        assert not list(run_dir.glob("*.tmp"))

    def test_manifest_written_through_replace(self, data_copy, monkeypatch):
        replaced = []
        real_replace = os.replace

        def recording_replace(source, target):
            replaced.append((Path(source).name, Path(target).name))
            real_replace(source, target)

        monkeypatch.setattr(os, "replace", recording_replace)
        run_pipeline(data_copy / "pipeline_triples.json")
        # the link cache, kb.json and quality.json are replaced whole too; the manifest comes last
        assert replaced == [
            ("link_cache.json.tmp", "link_cache.json"),
            ("kb.json.tmp", "kb.json"),
            ("quality.json.tmp", "quality.json"),
            ("manifest.json.tmp", "manifest.json"),
        ]
        assert not list((data_copy / "run_triples").glob("*.tmp"))

    def test_corrupt_link_cache_fails_in_link_stage(self, data_copy):
        (data_copy / "link_cache.json").write_text("{truncated", encoding="utf-8")
        with pytest.raises(StageError, match="link_cache.json") as info:
            run_pipeline(data_copy / "pipeline_triples.json")
        assert info.value.stage == "link"

    def test_missing_generation_fails_in_extract_stage(self, data_copy):
        fixtures = sorted((data_copy / "replay_triples").glob("*.txt"))
        fixtures[0].unlink()
        with pytest.raises(StageError) as info:
            run_pipeline(data_copy / "pipeline_triples.json")
        assert info.value.stage == "extract"

    def test_missing_generation_fails_in_ontology_stage(self, data_copy):
        fixtures = sorted((data_copy / "replay_ontology").glob("*.txt"))
        fixtures[0].unlink()
        with pytest.raises(StageError) as info:
            run_pipeline(data_copy / "pipeline_ontology.json")
        assert info.value.stage == "ontology"

    def test_skip_policy_keeps_pipeline_alive(self, data_copy):
        data = json.loads((data_copy / "pipeline_triples.json").read_text())
        data["on_batch_error"] = "skip"
        config = write_config(data_copy, data)
        fixtures = sorted((data_copy / "replay_triples").glob("*.txt"))
        fixtures[0].unlink()
        manifest = run_pipeline(config)
        assert manifest["stages"]["extract"]["failed_batches"] == 1
        assert (data_copy / "run_triples" / "kb.json").exists()

    def test_export_formats_subset(self, data_copy):
        data = json.loads((data_copy / "pipeline_ontology.json").read_text())
        data["export"]["formats"] = ["json"]
        config = write_config(data_copy, data)
        manifest = run_pipeline(config)
        run_dir = data_copy / "run_ontology"
        assert manifest["stages"]["export"]["formats"] == ["json"]
        assert (run_dir / "export.json").exists()
        assert not (run_dir / "export.dot").exists()


# The stage helpers perfbench/spans.py wraps on textkg.pipeline, by the mode
# that calls them. A stage that stops calling one through the pipeline
# module's globals would silently drop that layer from the benchmark trace.
TRACED_HELPERS = {
    "pipeline_triples.json": (
        "load_corpus", "chunk", "extract_article", "canonicalize", "add_triples",
        "save_kb", "evaluate", "export_graph",
    ),
    "pipeline_ontology.json": (
        "load_corpus", "chunk", "generate", "repair_until_valid", "serialize_turtle",
        "ontology_to_kb", "save_kb", "evaluate", "export_graph",
    ),
}


@pytest.mark.parametrize("config_name", sorted(TRACED_HELPERS))
def test_stages_call_traced_helpers_through_pipeline_module(data_copy, monkeypatch, config_name):
    calls = Counter()
    for name in {name for names in TRACED_HELPERS.values() for name in names}:
        original = getattr(pipeline, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(pipeline, name, counted)
    run_pipeline(data_copy / config_name)
    assert [name for name in TRACED_HELPERS[config_name] if not calls[name]] == []


def test_ontology_stage_folds_articles_without_copying_the_kb(data_copy, monkeypatch):
    # copying the accumulated KB once per article (kb = merge(kb, article_kb))
    # made the ontology stage quadratic in the corpus size
    targets = []
    original = KnowledgeBase.update

    def recorded(self, other):
        targets.append(self)
        return original(self, other)

    monkeypatch.setattr(KnowledgeBase, "update", recorded)
    manifest = run_pipeline(data_copy / "pipeline_ontology.json")
    valid_documents = manifest["stages"]["ontology"]["valid_documents"]
    assert valid_documents > 1
    assert len(targets) == valid_documents
    assert all(target is targets[0] for target in targets)


def test_failed_ontology_write_stops_the_generations(data_copy, monkeypatch):
    # the stage closes its article map, so the pool stops once the consumer raises
    data = ontology_config_dict()
    data["workers"] = 2
    repairs = Counter()
    repair_until_valid = pipeline.repair_until_valid

    def counted(*args, **kwargs):
        repairs["started"] += 1
        time.sleep(0.05)
        return repair_until_valid(*args, **kwargs)

    def failed_write(path, payload):
        raise OSError(f"cannot write {path}")

    monkeypatch.setattr(pipeline, "repair_until_valid", counted)
    monkeypatch.setattr(pipeline, "write_json", failed_write)
    with pytest.raises(OSError, match="cannot write") as info:
        run_pipeline(write_config(data_copy, data))
    started = repairs["started"]
    time.sleep(0.5)
    # info holds the exception, and through its traceback the stage's frame,
    # yet no article starts; at the failure each worker had started at most
    # its second article of the 5
    assert repairs["started"] == started <= 2 * data["workers"]


def test_each_article_is_chunked_once(tmp_path, data_copy, monkeypatch):
    # a 20-token article over an 8-token limit, a short one and an empty one
    bodies = {"long": " ".join(f"w{i}" for i in range(20)), "short": "Acme recycles cans.", "empty": ""}
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(
        "".join(
            json.dumps({"id": article_id, "title": article_id, "body": body, "source_domain": "x.example",
                        "published_at": "2023-02-20", "language": "en"}) + "\n"
            for article_id, body in bodies.items()
        ),
        encoding="utf-8",
    )
    data = triples_config_dict()
    data.update(corpus=str(corpus), run_dir=str(tmp_path / "run"), batch_size=8)
    data["backends"][0].update(fixtures_dir=str(tmp_path / "fixtures"), max_input_tokens=8)
    del data["linking"]
    config = load_config(write_config(tmp_path, data))
    (tmp_path / "fixtures").mkdir()
    words = bodies["long"].split()
    for text in [bodies["short"]] + [" ".join(words[i:i + 8]) for i in range(0, 20, 8)]:
        fixture_path(config.backend, build_prompt(text, "triples")).write_text("A | r | B\n", encoding="utf-8")

    chunked = Counter()
    for module in (pipeline, extraction):
        def counted(article, *args, _original=module.chunk, **kwargs):
            chunked[article.id] += 1
            return _original(article, *args, **kwargs)

        monkeypatch.setattr(module, "chunk", counted)
    # chunk is the only split of a body: nothing on the pipeline path reads word_count
    word_count_reads = Counter()

    def counted_word_count(article, _original=Article.word_count):
        word_count_reads[article.id] += 1
        return _original.fget(article)

    monkeypatch.setattr(Article, "word_count", property(counted_word_count))
    manifest = run_pipeline(tmp_path / "pipeline_custom.json")
    assert chunked == {"long": 1, "short": 1, "empty": 1}
    assert manifest["stages"]["chunk"]["batches"] == 4
    assert manifest["stages"]["extract"]["triplets_parsed"] == 4
    assert word_count_reads == {}

    chunked.clear()
    manifest = run_pipeline(data_copy / "pipeline_ontology.json")
    assert chunked == {article.id: 1 for article in load_corpus(data_copy / "corpus_pipeline.jsonl")}
    assert manifest["stages"]["ontology"]["documents"] > 0
    assert word_count_reads == {}


def write_corpus(path: Path, rows: list[dict]) -> None:
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")


def corpus_rows(data_dir: Path) -> list[dict]:
    return [json.loads(line) for line in (data_dir / "corpus_pipeline.jsonl").read_text().splitlines()]


@pytest.mark.parametrize("first, second", [("a/1", "a_1"), ("a 1", "a:1")])
def test_ontology_file_name_collision_fails_before_any_generation(data_copy, monkeypatch, first, second):
    rows = corpus_rows(data_copy)
    rows[1]["id"], rows[3]["id"] = first, second
    write_corpus(data_copy / "corpus_pipeline.jsonl", rows)
    generated = []
    monkeypatch.setattr(pipeline, "generate", lambda *args, **kwargs: generated.append(args))
    with pytest.raises(StageError, match="both map to ontology file name 'a_1'") as info:
        run_pipeline(data_copy / "pipeline_ontology.json")
    assert info.value.stage == "ontology"
    assert f"{first!r} and {second!r}" in str(info.value)
    assert generated == []
    assert not (data_copy / "run_ontology" / "manifest.json").exists()


def test_ontology_report_is_written_before_the_next_article_is_generated(data_copy, monkeypatch):
    ontology_dir = data_copy / "run_ontology" / "ontologies"
    reports_before = []
    original = pipeline.repair_until_valid

    def recording(*args, **kwargs):
        reports_before.append(sorted(path.name for path in ontology_dir.glob("*.report.json")))
        return original(*args, **kwargs)

    monkeypatch.setattr(pipeline, "repair_until_valid", recording)
    run_pipeline(data_copy / "pipeline_ontology.json")
    # workers is 1: article k is generated after articles 1..k-1 are written
    assert reports_before == [[f"a{i}.report.json" for i in range(1, k)] for k in range(1, 6)]


def test_ontology_stage_holds_a_constant_number_of_documents(data_copy, monkeypatch):
    # eight copies of the five bundled bodies reuse the replay fixtures, which are keyed by prompt
    rows = corpus_rows(data_copy)
    write_corpus(
        data_copy / "corpus_pipeline.jsonl",
        [{**row, "id": f"{row['id']}-{copy}"} for copy in range(8) for row in rows],
    )
    # weak references, not a WeakSet: OntologyDoc compares by value and so is unhashable
    refs = []
    peak = []
    original = pipeline.repair_until_valid

    def tracked(*args, **kwargs):
        doc, attempts = original(*args, **kwargs)
        refs.append(weakref.ref(doc))
        gc.collect()
        peak.append(sum(ref() is not None for ref in refs))
        return doc, attempts

    monkeypatch.setattr(pipeline, "repair_until_valid", tracked)
    manifest = run_pipeline(data_copy / "pipeline_ontology.json")
    assert manifest["stages"]["ontology"]["valid_documents"] == 40
    assert max(peak) <= 2


@pytest.mark.parametrize("workers", [1, 2])
def test_ontology_mode_holds_no_more_articles_than_its_window(data_copy, monkeypatch, workers):
    # forty articles: more than the window of sixteen at two workers
    rows = corpus_rows(data_copy)
    write_corpus(
        data_copy / "corpus_pipeline.jsonl",
        [{**row, "id": f"{row['id']}-{copy}"} for copy in range(8) for row in rows],
    )
    data = ontology_config_dict()
    data["workers"] = workers
    window = 1 if workers == 1 else pipeline._WINDOW_PER_WORKER * workers
    refs = []
    alive = []
    load_corpus, generate = pipeline.load_corpus, pipeline.generate

    def tracked_reads(path, **kwargs):
        for article in load_corpus(path, **kwargs):
            refs.append(weakref.ref(article))
            yield article

    def counted(*args, **kwargs):
        count = sum(ref() is not None for ref in list(refs))
        if count > window:  # only a cycle the collector has not reached yet may hold them
            gc.collect()
            count = sum(ref() is not None for ref in list(refs))
        alive.append(count)
        return generate(*args, **kwargs)

    monkeypatch.setattr(pipeline, "load_corpus", tracked_reads)
    monkeypatch.setattr(pipeline, "generate", counted)
    manifest = run_pipeline(write_config(data_copy, data))
    counts = manifest["stages"]["ontology"]
    assert counts["valid_documents"] == 40
    assert len(alive) == 40 + counts["repair_attempts"]
    assert 1 <= max(alive) <= window
    # the id-only first pass read every article too, and kept none of them
    assert len(refs) == 80


@pytest.mark.parametrize(
    "config_name, stage", [("pipeline_triples.json", "extract"), ("pipeline_ontology.json", "ontology")]
)
def test_failure_on_the_last_article_keeps_the_earlier_articles(data_copy, config_name, stage):
    config = load_config(data_copy / config_name)
    articles = list(load_corpus(config.resolve(config.corpus)))
    last = articles[-1].id
    fixture_path(config.backend, build_prompt(articles[-1].body, config.mode)).unlink()
    with pytest.raises(StageError) as info:
        run_pipeline(data_copy / config_name)
    assert info.value.stage == stage
    run_dir = config.resolve(config.run_dir)
    golden = GOLDEN_DIR / config.mode
    assert not (run_dir / "manifest.json").exists()
    generations = (golden / "generations.jsonl").read_text(encoding="utf-8").splitlines()
    assert (run_dir / "generations.jsonl").read_text(encoding="utf-8").splitlines() == [
        line for line in generations if json.loads(line)["article_id"] != last
    ]
    if config.mode == "ontology":
        want = snapshot(golden / "ontologies")
        assert snapshot(run_dir / "ontologies") == {
            name: data for name, data in want.items() if not name.startswith(f"{last}.")
        }


# run_pipeline(argv[1]) in a fresh interpreter that dies at its argv[2]-th
# rename, before renaming, as a killed run would; prints the name it was renaming
KILLED_AT_RENAME = """
import os, sys
from pathlib import Path
from textkg.pipeline import run_pipeline

replace, renames = os.replace, []

def killing_replace(source, target):
    renames.append(target)
    if len(renames) == int(sys.argv[2]):
        print(Path(target).name, flush=True)
        os._exit(17)
    replace(source, target)

os.replace = killing_replace
run_pipeline(sys.argv[1])
"""

# every file a run of each bundled config writes through a rename, in order
RENAMES = {
    "ontology": [
        *(f"a{n}.report.json" for n in range(1, 6)), "batches.jsonl", "kb.json", "quality.json", "manifest.json"
    ],
    "triples": ["link_cache.json", "kb.json", "quality.json", "manifest.json"],
}


@pytest.mark.parametrize("mode", sorted(RENAMES))
def test_a_run_killed_at_any_rename_leaves_no_manifest_and_a_rerun_writes_the_golden(data_copy, monkeypatch, mode):
    config = data_copy / f"pipeline_{mode}.json"
    run_dir = data_copy / f"run_{mode}"
    renamed = []
    real_replace = os.replace

    def recording_replace(source, target):
        renamed.append(Path(target).name)
        real_replace(source, target)

    with monkeypatch.context() as patch:
        patch.setattr(os, "replace", recording_replace)
        run_pipeline(config)
    assert renamed == RENAMES[mode]
    env = {**os.environ, "PYTHONPATH": str(Path(textkg.__file__).parents[1])}
    for at, name in enumerate(RENAMES[mode], 1):
        killed = subprocess.run(
            [sys.executable, "-c", KILLED_AT_RENAME, str(config), str(at)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert (killed.returncode, killed.stdout) == (17, name + "\n"), killed.stderr
        # the run had deleted the last run's manifest; it may leave the temp file it was renaming
        assert not (run_dir / "manifest.json").exists()
        run_pipeline(config)
        assert_matches_golden(run_dir, GOLDEN_DIR / mode)


KILLED_AT_ROW_WRITE = """
import os, sys
from textkg import pipeline

open_lines, writes = pipeline._open_lines, []


class Killing:
    def __init__(self, handle, name):
        self.handle, self.name = handle, name

    def __enter__(self):
        self.file = self.handle.__enter__()
        return self

    def __exit__(self, *exc):
        return self.handle.__exit__(*exc)

    def writelines(self, rows):
        writes.append(self.name)
        if writes.count(sys.argv[2]) == int(sys.argv[3]) and self.name == sys.argv[2]:
            print(self.name, writes.count(self.name), flush=True)
            os._exit(17)
        self.file.writelines(rows)


pipeline._open_lines = lambda path, *args, **kwargs: Killing(open_lines(path, *args, **kwargs), path.name)
pipeline.run_pipeline(sys.argv[1])
"""


@pytest.mark.parametrize("mode", sorted(RENAMES))
def test_a_run_killed_at_a_row_write_leaves_no_manifest_and_a_rerun_writes_the_golden(data_copy, mode):
    config = data_copy / f"pipeline_{mode}.json"
    run_dir = data_copy / f"run_{mode}"
    run_pipeline(config)  # so that each killed run has a manifest to delete
    env = {**os.environ, "PYTHONPATH": str(Path(textkg.__file__).parents[1])}
    # each row file takes one write per article, and the bundled corpus has five
    for name, at in [("triples.jsonl", 1), ("triples.jsonl", 4), ("generations.jsonl", 2), ("generations.jsonl", 5)]:
        killed = subprocess.run(
            [sys.executable, "-c", KILLED_AT_ROW_WRITE, str(config), name, str(at)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert (killed.returncode, killed.stdout) == (17, f"{name} {at}\n"), killed.stderr
        assert not (run_dir / "manifest.json").exists()
        run_pipeline(config)
        assert_matches_golden(run_dir, GOLDEN_DIR / mode)


@pytest.mark.parametrize("mode", ["ontology", "triples"])
def test_each_empty_body_is_logged_once(data_copy, caplog, mode):
    # ontology mode reads the corpus twice: a first pass over the ids, then the run
    corpus = data_copy / "corpus_pipeline.jsonl"
    lines = corpus.read_text(encoding="utf-8").splitlines(keepends=True)
    blank = {**json.loads(lines[0]), "id": "blank", "body": " "}
    corpus.write_text("".join([*lines, json.dumps(blank) + "\n"]), encoding="utf-8")
    with caplog.at_level("WARNING"):
        manifest = run_pipeline(data_copy / f"pipeline_{mode}.json")
    assert manifest["stages"]["corpus"] == {"articles": 6, "empty_bodies": 1}
    assert [record.getMessage() for record in caplog.records].count("article blank has an empty body") == 1


def test_failed_ontology_run_leaves_the_earlier_batches_file_as_it_was(data_copy):
    config = load_config(data_copy / "pipeline_ontology.json")
    run_pipeline(data_copy / "pipeline_ontology.json")
    batches = config.resolve(config.run_dir) / "batches.jsonl"
    earlier = batches.read_bytes()
    # a smaller batch_size changes every row, and the last article finds no reply
    data = ontology_config_dict()
    data["batch_size"] = 8
    last = list(load_corpus(config.resolve(config.corpus)))[-1]
    fixture_path(config.backend, build_prompt(last.body, "ontology")).unlink()
    with pytest.raises(StageError) as info:
        run_pipeline(write_config(data_copy, data))
    assert info.value.stage == "ontology"
    assert batches.read_bytes() == earlier
    assert not list(batches.parent.glob("*.tmp"))


def stub_corpus_config(tmp_path: Path, count: int, workers: int, linking: dict | None = None) -> Path:
    """A triples config over a corpus of count articles a0, a1, ..., linking
    through the given section, or with none."""
    write_corpus(
        tmp_path / "corpus.jsonl",
        [{"id": f"a{n}", "title": "t", "body": f"Acme recycles {n} cans.", "source_domain": "x.example",
          "published_at": "2023-02-20", "language": "en"} for n in range(count)],
    )
    data = triples_config_dict()
    data.update(corpus=str(tmp_path / "corpus.jsonl"), run_dir=str(tmp_path / "run"), workers=workers)
    del data["linking"]
    if linking is not None:
        data["linking"] = linking
    return write_config(tmp_path, data)


def stub_lookups(monkeypatch, lookup: Callable[[str], list[dict]]) -> None:
    """Make a linking endpoint answer each normalized query with lookup(query)."""
    monkeypatch.setattr(pipeline, "LookupClient", lambda endpoint: SimpleNamespace(lookup=lookup))


STUB_ENDPOINT = {"endpoint": "http://lookup.invalid/api"}  # never contacted: stub_lookups answers


@pytest.mark.parametrize("workers", [1, 2])
def test_corpus_is_read_no_further_ahead_of_extraction_than_its_window(tmp_path, monkeypatch, workers):
    count = 3 * pipeline._WINDOW_PER_WORKER * workers
    config = stub_corpus_config(tmp_path, count, workers)
    manifest, ahead = run_counting_reads_ahead(monkeypatch, config)
    assert manifest["stages"]["corpus"]["articles"] == len(ahead) == count
    assert manifest["stages"]["link"]["entities"] == count + 1
    assert min(ahead) >= 0
    assert max(ahead) <= (1 if workers == 1 else pipeline._WINDOW_PER_WORKER * workers)


def test_corpus_is_read_no_further_ahead_of_extraction_than_its_window_while_linking(tmp_path, monkeypatch):
    # slow lookups started as each article is extracted must not widen the window
    workers = 2
    count = 3 * pipeline._WINDOW_PER_WORKER * workers
    looked_up: list[str] = []

    def slow_lookup(query: str) -> list[dict]:
        looked_up.append(query)
        time.sleep(0.002)
        return []

    stub_lookups(monkeypatch, slow_lookup)
    config = stub_corpus_config(tmp_path, count, workers, STUB_ENDPOINT)
    manifest, ahead = run_counting_reads_ahead(monkeypatch, config)
    assert manifest["stages"]["corpus"]["articles"] == len(ahead) == count
    assert manifest["stages"]["link"]["entities"] == count + 1
    assert sorted(looked_up) == sorted(["acme", *(f"a{n}" for n in range(count))])
    assert min(ahead) >= 0
    assert max(ahead) <= pipeline._WINDOW_PER_WORKER * workers


def run_counting_reads_ahead(monkeypatch, config: Path) -> tuple[dict, list[int]]:
    """Run config with an extraction that records, for each article, how
    many articles past it the corpus reader has read."""
    reads: list[str] = []
    ahead: list[int] = []
    load_corpus = pipeline.load_corpus

    def counted_reads(path, **kwargs):
        for article in load_corpus(path, **kwargs):
            reads.append(article.id)
            yield article

    def extracted(article, backend, **kwargs):
        # how many articles past this one the reader has read
        ahead.append(len(reads) - int(article.id[1:]) - 1)
        time.sleep(0.001)
        return [extraction.Triplet("Acme", "recycles", article.id)], extraction.ParseReport(triplets_emitted=1)

    monkeypatch.setattr(pipeline, "load_corpus", counted_reads)
    monkeypatch.setattr(pipeline, "extract_article", extracted)
    return run_pipeline(config), ahead


def test_malformed_line_after_the_first_article_fails_the_corpus_stage(data_copy):
    corpus = data_copy / "corpus_pipeline.jsonl"
    corpus.write_text(corpus.read_text(encoding="utf-8").splitlines()[0] + "\n{broken\n", encoding="utf-8")
    with pytest.raises(StageError, match="stage 'corpus' failed: line 2: invalid JSON") as info:
        run_pipeline(data_copy / "pipeline_triples.json")
    assert info.value.stage == "corpus"
    run_dir = data_copy / "run_triples"
    assert not (run_dir / "manifest.json").exists()
    # the article before the bad line was extracted, and nothing was linked or saved
    rows = (run_dir / "generations.jsonl").read_text(encoding="utf-8").splitlines()
    assert {json.loads(row)["article_id"] for row in rows} == {"a1"}
    assert not (data_copy / "link_cache.json").exists()
    assert not (run_dir / "kb.json").exists()


@pytest.mark.parametrize("workers", [1, 2])
def test_lookup_abort_fails_the_link_stage_off_the_extraction_workers(data_copy, monkeypatch, workers):
    data = triples_config_dict()
    data["workers"] = workers
    data["linking"] = {"endpoint": "http://127.0.0.1:9", "on_error": "abort"}
    extracting, looking_up = set(), set()

    def recorded(function, threads):
        def call(*args, **kwargs):
            threads.add(threading.current_thread())
            return function(*args, **kwargs)

        return call

    monkeypatch.setattr(pipeline, "extract_article", recorded(pipeline.extract_article, extracting))
    monkeypatch.setattr(pipeline.LookupClient, "lookup", recorded(pipeline.LookupClient.lookup, looking_up))
    threads_before = threading.active_count()
    with pytest.raises(StageError, match="stage 'link' failed: lookup failed") as info:
        run_pipeline(write_config(data_copy, data))
    assert info.value.stage == "link"
    # one worker is the main thread; with more, the link stage's own pool makes the lookups
    assert extracting and looking_up
    if workers == 1:
        assert extracting == looking_up == {threading.main_thread()}
    else:
        assert not extracting & looking_up
    assert threading.active_count() == threads_before
    run_dir = data_copy / "run_triples"
    assert not (run_dir / "manifest.json").exists()
    # whatever workers is, the abort comes after the failing article's rows
    rows = (run_dir / "triples.jsonl").read_text(encoding="utf-8").splitlines()
    assert {json.loads(row)["provenance"][0]["article_id"] for row in rows} == {"a1"}


def stub_extraction(monkeypatch, surfaces: dict[str, str], before: Callable[[str], None] = lambda article_id: None):
    """Make each article extract the one triplet (surface, "p", surface) for its
    surface in surfaces, after calling before(article id) on its worker."""

    def extracted(article, backend, **kwargs):
        before(article.id)
        surface = surfaces[article.id]
        triplet = extraction.Triplet(surface, "p", surface, extraction.Provenance(article.id, 0, "stub"))
        return [triplet], extraction.ParseReport(triplets_emitted=1)

    monkeypatch.setattr(pipeline, "extract_article", extracted)


def a0_ends_after_a1(a2_started: threading.Event) -> Callable[[str], None]:
    """A ``before`` for stub_extraction at workers 2: a0's extraction ends once
    a2's has started, which is after a1's has ended, since a1's worker is the
    only one free to start a2."""

    def before(article_id: str) -> None:
        if article_id == "a0":
            assert a2_started.wait(timeout=5)
        elif article_id == "a2":
            a2_started.set()

    return before


def test_an_articles_lookups_start_while_the_articles_before_it_are_looked_up(tmp_path, monkeypatch):
    # a0's lookup returns once a1's has started, which it can only do if a1's
    # lookups start as soon as a1 is extracted, not when a0 has been linked
    a1_looked_up = threading.Event()
    waits: list[bool] = []

    def lookup(query: str) -> list[dict]:
        if query == "alpha":
            waits.append(a1_looked_up.wait(timeout=5))
        elif query == "gamma":
            a1_looked_up.set()
        return []

    stub_lookups(monkeypatch, lookup)
    stub_extraction(monkeypatch, {"a0": "Alpha", "a1": "Gamma", "a2": "Delta"}, a0_ends_after_a1(threading.Event()))
    manifest = run_pipeline(stub_corpus_config(tmp_path, 3, 2, STUB_ENDPOINT))
    assert waits == [True]
    assert manifest["stages"]["link"] == {"entities": 3, "linked": 0}


@pytest.mark.parametrize("workers", [1, 2])
def test_failed_prefetched_lookup_aborts_after_its_articles_rows(tmp_path, monkeypatch, workers):
    # a1's lookup fails before a0 is linked; the abort still comes after a1's rows
    failed = threading.Event()

    def lookup(query: str) -> list[dict]:
        if query == "alpha" and workers > 1:
            assert failed.wait(timeout=5)
        if query == "gamma":
            failed.set()
            raise LookupUnavailableError("scripted outage")
        return []

    stub_lookups(monkeypatch, lookup)
    surfaces = {"a0": "Alpha", "a1": "Gamma", "a2": "Delta", "a3": "Epsilon"}
    stub_extraction(monkeypatch, surfaces, a0_ends_after_a1(threading.Event()) if workers > 1 else lambda _: None)
    config = stub_corpus_config(tmp_path, 4, workers, {**STUB_ENDPOINT, "on_error": "abort"})
    threads_before = threading.active_count()
    with pytest.raises(StageError, match="stage 'link' failed: scripted outage") as info:
        run_pipeline(config)
    assert info.value.stage == "link"
    assert threading.active_count() == threads_before
    rows = (tmp_path / "run" / "triples.jsonl").read_text(encoding="utf-8").splitlines()
    assert [json.loads(row)["provenance"][0]["article_id"] for row in rows] == ["a0", "a1"]
    assert not (tmp_path / "run" / "manifest.json").exists()


def test_lookup_endpoint_at_any_workers_gives_the_same_bytes(data_copy, monkeypatch):
    # lookups answered by query, later ones often first, as the bundled table would
    table = FileLookupClient(DATA_DIR / "lookup_fixture.json")

    def lookup(query: str) -> list[dict]:
        time.sleep(0.001 * (len(query) % 3))
        return table.lookup(query)

    stub_lookups(monkeypatch, lookup)
    runs = []
    for workers in (1, 2):
        data = triples_config_dict()
        data.update(workers=workers, run_dir=f"run_{workers}", linking={**STUB_ENDPOINT, "cache_path": None})
        run_pipeline(write_config(data_copy, data))
        runs.append(snapshot(data_copy / f"run_{workers}"))
    names = ["triples.jsonl", "kb.json", "export.dot", "export.graphml", "export.json"]
    assert [runs[0][name] for name in names] == [runs[1][name] for name in names]
    kb = json.loads(runs[1]["kb.json"])
    want = json.loads((GOLDEN_DIR / "triples" / "kb.json").read_text(encoding="utf-8"))
    assert kb.pop("link_config") == "match=exact;source=http://lookup.invalid/api"
    want.pop("link_config")
    assert kb == want


def test_fixture_file_lookups_run_on_the_linking_thread(data_copy, monkeypatch):
    threads = set()
    lookup = FileLookupClient.lookup

    def recorded(self, query):
        threads.add(threading.current_thread())
        return lookup(self, query)

    monkeypatch.setattr(FileLookupClient, "lookup", recorded)
    data = triples_config_dict()
    data["workers"] = 2
    run_pipeline(write_config(data_copy, data))
    assert threads == {threading.main_thread()}
    golden = GOLDEN_DIR / "triples" / "kb.json"
    assert (data_copy / "run_triples" / "kb.json").read_bytes() == golden.read_bytes()


def window_worker(started: list, fail_at: int | None = None):
    lock = threading.Lock()

    def work(item: int) -> int:
        with lock:
            started.append(item)
        if item == fail_at:
            raise ValueError(f"item {item} failed")
        time.sleep(0.001 * (item % 4))  # later items often finish first
        return item * 10

    return work


def test_map_articles_yields_in_order_within_its_window():
    window = pipeline._WINDOW_PER_WORKER * 3
    started: list[int] = []
    results = []
    for position, result in enumerate(
        pipeline._map_articles(SimpleNamespace(workers=3), window_worker(started), range(100))
    ):
        assert max(started) < position + window
        results.append(result)
        time.sleep(0.002)  # a slow consumer: unbounded workers would run far ahead
    assert results == [item * 10 for item in range(100)]


def test_map_articles_with_one_worker_is_lazy():
    started: list[int] = []
    results = pipeline._map_articles(SimpleNamespace(workers=1), window_worker(started), range(10))
    assert started == []
    assert next(results) == 0
    assert started == [0]


def test_map_articles_stops_submitting_after_a_failure():
    window = pipeline._WINDOW_PER_WORKER * 3
    started: list[int] = []
    results = []
    with pytest.raises(ValueError, match="item 5 failed"):
        for result in pipeline._map_articles(
            SimpleNamespace(workers=3), window_worker(started, fail_at=5), range(100)
        ):
            results.append(result)
            time.sleep(0.01)
    assert results == [item * 10 for item in range(5)]
    assert max(started) < 5 + window


@given(json_text, st.integers(0, 2**40), json_text)
@example("\u2028", 0, '"\\\x00')
@settings(max_examples=300, deadline=None)
def test_attempt_row_writes_the_json_dumps_line(article_id, attempt, output):
    row = {"article_id": article_id, "attempt": attempt, "output": output}
    filled = pipeline._ATTEMPT_ROW % (pipeline._json_str(article_id), attempt, pipeline._json_str(output))
    assert filled == json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n"


@given(st.text(st.characters() | st.sampled_from([chr(c) for c in range(32)] + ["\x7f", '"', "\\", "\ud800"])))
@example("\x7f")
@example("".join(map(chr, range(32))))
@example("plain ASCII text, with no escapes")
@settings(max_examples=500, deadline=None)
def test_json_str_writes_the_json_dumps_text(text):
    assert pipeline._json_str(text) == json.dumps(text, ensure_ascii=False)


@given(json_text, st.integers(0, 2**40), st.integers(0, 2**40), st.integers(0, 2**40), json_text)
@settings(max_examples=200, deadline=None)
def test_batch_lines_write_the_json_dumps_lines(article_id, batch_index, start, end, text):
    batch = TokenBatch(article_id, batch_index, start, end, text)
    assert list(pipeline._batch_lines([batch])) == [json.dumps(vars(batch), ensure_ascii=False, sort_keys=True) + "\n"]


# chat replies that a loopback server answers in order; each names its own pair of entities
CHAT_REPLIES = [
    (200, json.dumps({"choices": [{"message": {"content": f"Entity {n} | relates to | Thing {n}"}}]}))
    for n in range(20)
]
CHAT_TIMEOUT = 0.5
# a reply that arrives after CHAT_TIMEOUT
LATE_REPLY = (*CHAT_REPLIES[0], {}, CHAT_TIMEOUT * 3)


def chat_config(data_copy: Path, server, **settings) -> Path:
    """The triples config with a chat backend on server; settings override top-level keys
    and max_retries is the backend's."""
    data = triples_config_dict()
    data["backend_id"] = "chat"
    data["backends"] = [
        {
            "backend_id": "chat", "kind": "chat_triples", "endpoint": server.url, "model_name": "m",
            "request_timeout": CHAT_TIMEOUT, "max_retries": settings.pop("max_retries"),
        }
    ]
    return write_config(data_copy, data | settings)


def test_retried_429_storm_and_timeout_leave_the_artifacts_of_a_clean_run(data_copy, server, monkeypatch):
    sleeps = []
    monkeypatch.setattr(extraction, "_sleep", sleeps.append)
    config = chat_config(data_copy, server, max_retries=3)
    server.script = list(CHAT_REPLIES)
    clean_manifest = run_pipeline(config)
    clean = snapshot(data_copy / "run_triples")
    calls = len(server.requests)
    assert 3 <= calls < len(CHAT_REPLIES) and sleeps == []

    retry_after = (1, 3, 1)
    storm = [(429, "slow down", {"Retry-After": str(seconds)}) for seconds in retry_after]
    server.script = [CHAT_REPLIES[0], *storm, CHAT_REPLIES[1], LATE_REPLY, *CHAT_REPLIES[2:]]
    assert run_pipeline(config) == clean_manifest
    assert snapshot(data_copy / "run_triples") == clean
    assert len(server.requests) == 2 * calls + len(storm) + 1
    backoff = [extraction.RETRY_BACKOFF_SECONDS * 2**attempt for attempt in range(3)]
    assert sleeps == [*map(max, backoff, retry_after), backoff[0]]


def test_429_and_timeout_with_no_retries_left_are_skipped_batches(data_copy, server, monkeypatch):
    sleeps = []
    monkeypatch.setattr(extraction, "_sleep", sleeps.append)
    config = chat_config(data_copy, server, max_retries=0, on_batch_error="skip")
    server.script = [CHAT_REPLIES[0], (429, "slow down", {"Retry-After": "1"}), LATE_REPLY, *CHAT_REPLIES[1:]]
    manifest = run_pipeline(config)
    assert manifest["stages"]["extract"]["failed_batches"] == 2
    assert sleeps == []


@pytest.mark.parametrize("fault", [(429, "slow down", {"Retry-After": "1"}), LATE_REPLY], ids=["429", "timeout"])
def test_fault_with_no_retries_left_fails_the_cli_run_without_traceback(data_copy, server, monkeypatch, capsys, fault):
    monkeypatch.setattr(extraction, "_sleep", lambda seconds: None)
    config = chat_config(data_copy, server, max_retries=0)
    server.script = [CHAT_REPLIES[0], fault, *CHAT_REPLIES[1:]]
    assert main(["pipeline", "--config", str(config)]) == 1
    stderr = capsys.readouterr().err
    assert stderr.startswith("error: stage 'extract' failed: ")
    assert [line for line in stderr.splitlines() if line.startswith("error:")] == [stderr.splitlines()[0]]
    assert "Traceback" not in stderr
