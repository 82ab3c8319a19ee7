"""End-to-end pipeline runs and config loading.

The runs here use the replay backend and the checked-in corpus, so they are
hermetic: no network, no wall-clock dependence, byte-identical artifacts.
"""

import hashlib
import json
from collections import Counter
from pathlib import Path

import pytest

from textkg import pipeline
from textkg.errors import ConfigError, TextkgError
from textkg.kgstore import KnowledgeBase
from textkg.pipeline import StageError, load_config, run_pipeline

from .conftest import DATA_DIR, GOLDEN_DIR


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

    def test_dates_parsed_to_date_objects(self, tmp_path):
        data = triples_config_dict()
        data["date_from"] = "2023-02-20"
        data["date_to"] = "2023-03-01"
        config = load_config(write_config(tmp_path, data))
        assert (config.date_from.year, config.date_from.month, config.date_from.day) == (2023, 2, 20)
        assert config.date_to.isoformat() == "2023-03-01"

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

    def test_corrupt_corpus_fails_in_corpus_stage(self, data_copy):
        (data_copy / "corpus_pipeline.jsonl").write_text("{broken\n", encoding="utf-8")
        with pytest.raises(StageError, match="stage 'corpus' failed") as info:
            run_pipeline(data_copy / "pipeline_triples.json")
        assert info.value.stage == "corpus"
        assert isinstance(info.value.cause, TextkgError)

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
    # copying the accumulated KB once per article made the ontology stage
    # quadratic in the corpus size
    copies = Counter()
    original = KnowledgeBase.copy

    def counted(self):
        copies["copy"] += 1
        return original(self)

    monkeypatch.setattr(KnowledgeBase, "copy", counted)
    manifest = run_pipeline(data_copy / "pipeline_ontology.json")
    assert manifest["stages"]["ontology"]["valid_documents"] > 1
    assert copies["copy"] == 0
