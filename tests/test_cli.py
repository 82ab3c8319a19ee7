"""Command-line interface: every subcommand plus the exit-code contract
(0 success, 1 stage failure, 2 config error)."""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import textkg
from textkg import __version__
from textkg.cli import build_parser, main
from textkg.corpus import load_corpus
from textkg.extraction import build_prompt, request_fingerprint
from textkg.kgstore import load_kb
from textkg.pipeline import load_config
from textkg.rdf import build_repair_prompt, validate_text

from .conftest import DATA_DIR, GOLDEN_DIR, NEWS_PAYLOAD, fixture_path


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def invalid_ontology_text() -> str:
    """The raw first-attempt generation for article a2 (undeclared property)."""
    for line in (GOLDEN_DIR / "ontology" / "generations.jsonl").read_text().splitlines():
        row = json.loads(line)
        if row["article_id"] == "a2" and row["attempt"] == 0:
            return row["output"]
    raise AssertionError("fixture row missing")


# documents that parse but would give a blank KB label, and the error's fragment
BLANK_TERM_DOCS = {
    "empty-iri": ("ex:C a owl:Class .\n<> a ex:C .\n", "<> would have a blank KB label"),
    "empty-literal": (
        'ex:P a owl:DatatypeProperty .\nex:a a owl:NamedIndividual ; ex:P "" .\n',
        "ex:a ex:P has a blank literal object",
    ),
    "asserted-class": (
        "ex:x a <http://www.w3.org/2002/07/owl# > .\n",
        "<http://www.w3.org/2002/07/owl# > would have a blank KB label",
    ),
}


def blank_term_file(tmp_path: Path, case: str) -> str:
    path = tmp_path / "doc.ttl"
    path.write_text("@prefix ex: <http://example.org/kg#> .\n" + BLANK_TERM_DOCS[case][0], encoding="utf-8")
    return str(path)


class TestParser:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert capsys.readouterr().out.strip() == f"textkg {__version__}"

    def test_no_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_unknown_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_bad_date_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(
                ["fetch", "--endpoint", "http://x", "--query", "q",
                 "--from", "02/01/2023", "--to", "2023-03-01", "-o", "out"]
            )
        assert info.value.code == 2


class TestChunk:
    def test_writes_batches(self, capsys, data_copy, tmp_path):
        out = tmp_path / "batches.jsonl"
        code, stdout, _ = run(
            capsys, "chunk", str(data_copy / "corpus_pipeline.jsonl"), "-o", str(out)
        )
        assert code == 0
        assert f"wrote 7 batches to {out}" in stdout
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 7
        long_article = [r for r in rows if r["article_id"] == "a4"]
        assert [(r["token_start"], r["token_end"]) for r in long_article] == [
            (0, 256),
            (256, 512),
            (512, 600),
        ]
        assert out.read_bytes() == (GOLDEN_DIR / "triples" / "batches.jsonl").read_bytes()

    def test_missing_corpus_is_stage_failure(self, capsys, tmp_path):
        code, _, stderr = run(
            capsys, "chunk", str(tmp_path / "nope.jsonl"), "-o", str(tmp_path / "out")
        )
        assert code == 1
        assert stderr.startswith("error:")

    def test_failed_rerun_keeps_the_earlier_file(self, capsys, data_copy, tmp_path):
        out = tmp_path / "b.jsonl"
        assert run(capsys, "chunk", str(data_copy / "corpus_pipeline.jsonl"), "-o", str(out))[0] == 0
        written = out.read_bytes()
        code, _, stderr = run(capsys, "chunk", non_utf8_corpus(tmp_path), "-o", str(out))
        assert code == 1
        assert stderr.startswith("error:")
        assert out.read_bytes() == written
        assert not list(tmp_path.glob("*.tmp"))


class TestValidate:
    def test_valid_file(self, capsys):
        code, stdout, _ = run(capsys, "validate", str(DATA_DIR / "soluna.ttl"))
        assert code == 0
        assert "valid (0 warning(s))" in stdout

    def test_untyped_individual_is_a_warning_of_a_valid_file(self, capsys, tmp_path):
        path = tmp_path / "doc.ttl"
        path.write_text(
            "@prefix ex: <http://example.org/kg#> .\n"
            "ex:knows a owl:ObjectProperty .\n"
            "ex:a a owl:NamedIndividual ; ex:knows ex:b .\n",
            encoding="utf-8",
        )
        code, stdout, _ = run(capsys, "validate", str(path))
        assert code == 0
        assert stdout.splitlines() == [
            "warning: [UntypedIndividual] (ex:b) ex:b appears in assertions but is never given a type",
            f"{path}: valid (1 warning(s))",
        ]

    def test_undeclared_property_fails(self, capsys, tmp_path):
        path = tmp_path / "bad.ttl"
        path.write_text(invalid_ontology_text(), encoding="utf-8")
        code, stdout, _ = run(capsys, "validate", str(path))
        assert code == 1
        assert "[UndeclaredProperty]" in stdout
        assert "invalid (1 error(s))" in stdout

    def test_syntax_error_fails(self, capsys, tmp_path):
        path = tmp_path / "garbage.ttl"
        path.write_text("this is not turtle\n", encoding="utf-8")
        code, stdout, _ = run(capsys, "validate", str(path))
        assert code == 1
        assert "[ParseError]" in stdout


    @pytest.mark.parametrize("case", sorted(BLANK_TERM_DOCS))
    def test_blank_kb_label_fails(self, capsys, tmp_path, case):
        code, stdout, _ = run(capsys, "validate", blank_term_file(tmp_path, case))
        assert code == 1
        assert BLANK_TERM_DOCS[case][1] in stdout
        assert "invalid (1 error(s))" in stdout


class TestTtl2kb:
    def test_converts_with_stem_as_source(self, capsys, tmp_path):
        out = tmp_path / "kb.json"
        code, stdout, _ = run(capsys, "ttl2kb", str(DATA_DIR / "soluna.ttl"), "-o", str(out))
        assert code == 0
        assert "(3 triples)" in stdout
        kb = load_kb(out)
        assert ("Soluna", "utilizes", "Excess Energy") in kb.triples
        provenance = {p.article_id for stamps in kb.triples.values() for p in stamps}
        assert provenance == {"soluna"}

    def test_source_id_override(self, capsys, tmp_path):
        out = tmp_path / "kb.json"
        code, _, _ = run(
            capsys, "ttl2kb", str(DATA_DIR / "soluna.ttl"),
            "--source-id", "doc-9", "--backend-id", "manual", "-o", str(out),
        )
        assert code == 0
        kb = load_kb(out)
        stamps = {(p.article_id, p.backend_id) for row in kb.triples.values() for p in row}
        assert stamps == {("doc-9", "manual")}

    def test_blank_label_falls_back_to_local_name(self, capsys, tmp_path):
        path = tmp_path / "doc.ttl"
        path.write_text(
            '@prefix ex: <http://example.org/kg#> .\nex:C a owl:Class ; rdfs:label "  " .\nex:x a ex:C .\n',
            encoding="utf-8",
        )
        code, _, _ = run(capsys, "ttl2kb", str(path), "-o", str(tmp_path / "kb.json"))
        assert code == 0
        assert ("x", "instanceOf", "C") in load_kb(tmp_path / "kb.json").triples

    def test_invalid_input_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.ttl"
        path.write_text(invalid_ontology_text(), encoding="utf-8")
        code, _, stderr = run(capsys, "ttl2kb", str(path), "-o", str(tmp_path / "kb.json"))
        assert code == 1
        assert "not a valid ontology" in stderr
        assert not (tmp_path / "kb.json").exists()


class TestStats:
    def test_counts(self, capsys):
        code, stdout, _ = run(capsys, "stats", str(GOLDEN_DIR / "triples" / "kb.json"))
        assert code == 0
        assert stdout.splitlines() == [
            "entities: 18",
            "predicates: 13",
            "triples: 13",
            "isolated entities: 0",
        ]

    def test_missing_kb_is_stage_failure(self, capsys, tmp_path):
        code, _, stderr = run(capsys, "stats", str(tmp_path / "nope.json"))
        assert code == 1
        assert stderr.startswith("error:")


class TestTopRelations:
    def test_frequency_then_alphabetical(self, capsys):
        code, stdout, _ = run(
            capsys, "top-relations", str(GOLDEN_DIR / "ontology" / "kb.json"), "-k", "2"
        )
        assert code == 0
        assert stdout.splitlines() == ["instanceOf\t11", "expands\t1"]


class TestExport:
    def test_stdout_matches_golden(self, capsys):
        code, stdout, _ = run(
            capsys, "export", str(GOLDEN_DIR / "triples" / "kb.json"), "--format", "dot"
        )
        assert code == 0
        assert stdout == (GOLDEN_DIR / "triples" / "export.dot").read_text(encoding="utf-8")

    def test_output_file(self, capsys, tmp_path):
        out = tmp_path / "graph.graphml"
        code, stdout, _ = run(
            capsys, "export", str(GOLDEN_DIR / "ontology" / "kb.json"),
            "--format", "graphml", "-o", str(out),
        )
        assert code == 0
        assert f"wrote graphml export to {out}" in stdout
        assert out.read_text(encoding="utf-8") == (
            GOLDEN_DIR / "ontology" / "export.graphml"
        ).read_text(encoding="utf-8")

    def test_class_membership_shapes_node_kinds(self, capsys):
        code, stdout, _ = run(
            capsys, "export", str(GOLDEN_DIR / "ontology" / "kb.json"), "--format", "dot"
        )
        assert code == 0
        assert '"Organizations" [kind="concept"];' in stdout
        assert '"Soluna" [kind="instance"];' in stdout

    def test_unknown_seed_is_stage_failure(self, capsys):
        code, _, stderr = run(
            capsys, "export", str(GOLDEN_DIR / "triples" / "kb.json"),
            "--format", "dot", "--seed", "Ghost",
        )
        assert code == 1
        assert "Ghost" in stderr


class TestMerge:
    def test_self_merge_is_identity(self, capsys, tmp_path):
        golden = GOLDEN_DIR / "triples" / "kb.json"
        out = tmp_path / "merged.json"
        code, stdout, _ = run(capsys, "merge", str(golden), str(golden), "-o", str(out))
        assert code == 0
        assert "(18 entities, 13 triples)" in stdout
        assert out.read_bytes() == golden.read_bytes()

    def test_cross_mode_merge(self, capsys, tmp_path):
        out = tmp_path / "merged.json"
        code, stdout, _ = run(
            capsys, "merge",
            str(GOLDEN_DIR / "triples" / "kb.json"),
            str(GOLDEN_DIR / "ontology" / "kb.json"),
            "-o", str(out),
        )
        assert code == 0
        # 5 entity labels are shared; no triple is (canonical labels differ)
        assert "(29 entities, 30 triples)" in stdout


class TestEval:
    def test_report_matches_golden(self, capsys, tmp_path):
        quality_config = tmp_path / "quality.json"
        quality_config.write_text(
            json.dumps({"conciseness_max_tokens": 4, "functional_predicates": ["industry"]}),
            encoding="utf-8",
        )
        out = tmp_path / "report.json"
        code, stdout, _ = run(
            capsys, "eval", str(GOLDEN_DIR / "triples" / "kb.json"),
            "--corpus", str(DATA_DIR / "corpus_pipeline.jsonl"),
            "--config", str(quality_config), "-o", str(out),
        )
        assert code == 0
        assert out.read_bytes() == (GOLDEN_DIR / "triples" / "quality.json").read_bytes()

    def test_unknown_key_is_config_error(self, capsys, tmp_path):
        quality_config = tmp_path / "quality.json"
        quality_config.write_text(json.dumps({"conciseness_max_token": 4}), encoding="utf-8")
        code, _, stderr = run(
            capsys, "eval", str(GOLDEN_DIR / "triples" / "kb.json"),
            "--corpus", str(DATA_DIR / "corpus_pipeline.jsonl"), "--config", str(quality_config),
        )
        assert code == 2
        assert "unknown key(s) conciseness_max_token" in stderr

    def test_lexicon_resolves_against_config_directory(self, capsys, tmp_path, monkeypatch):
        config_dir = tmp_path / "conf"
        config_dir.mkdir()
        (config_dir / "lexicon.txt").write_text("coffee\n", encoding="utf-8")
        quality_config = config_dir / "quality.json"
        quality_config.write_text(json.dumps({"domain_lexicon_file": "lexicon.txt"}), encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "report.json"
        code, _, _ = run(
            capsys, "eval", str(GOLDEN_DIR / "triples" / "kb.json"),
            "--corpus", str(DATA_DIR / "corpus_pipeline.jsonl"),
            "--config", str(quality_config), "-o", str(out),
        )
        assert code == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["config"]["domain_lexicon"] == ["coffee"]

    def test_default_prints_text_report(self, capsys):
        code, stdout, _ = run(
            capsys, "eval", str(GOLDEN_DIR / "triples" / "kb.json"),
            "--corpus", str(DATA_DIR / "corpus_pipeline.jsonl"),
        )
        assert code == 0
        assert stdout.startswith("quality report")
        assert "18." in stdout


class TestExtract:
    def test_triples_mode_matches_golden(self, capsys, data_copy, tmp_path):
        out = tmp_path / "triples.jsonl"
        code, stdout, _ = run(
            capsys, "extract", "--config", str(data_copy / "pipeline_triples.json"),
            "--backend", "replay-chat", "-o", str(out),
        )
        assert code == 0
        assert "wrote 13 triplets" in stdout
        assert "(2 segments skipped)" in stdout
        assert out.read_bytes() == (GOLDEN_DIR / "triples" / "triples.jsonl").read_bytes()

    def test_ontology_mode_matches_golden(self, capsys, data_copy, tmp_path):
        out_dir = tmp_path / "ontologies"
        code, stdout, _ = run(
            capsys, "extract", "--config", str(data_copy / "pipeline_ontology.json"),
            "--backend", "replay-onto", "--mode", "ontology", "-o", str(out_dir),
        )
        assert code == 0
        assert "wrote 5 ontologies" in stdout
        assert "(5 valid, 1 repair attempt(s))" in stdout
        golden = GOLDEN_DIR / "ontology" / "ontologies"
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(p.name for p in golden.iterdir())
        for path in golden.iterdir():
            assert (out_dir / path.name).read_bytes() == path.read_bytes(), path.name

    def test_honours_date_window_and_workers(self, capsys, data_copy, tmp_path):
        config = data_copy / "pipeline_triples.json"
        data = json.loads(config.read_text())
        data.update(date_to="2023-02-25", workers=2)
        config.write_text(json.dumps(data), encoding="utf-8")
        out = tmp_path / "triples.jsonl"
        code, _, _ = run(
            capsys, "extract", "--config", str(config), "--backend", "replay-chat", "-o", str(out),
        )
        assert code == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        golden = [
            json.loads(line)
            for line in (GOLDEN_DIR / "triples" / "triples.jsonl").read_text().splitlines()
        ]
        assert rows == [r for r in golden if r["provenance"][0]["article_id"] in ("a1", "a2")]

    @pytest.mark.parametrize("source", ["config", "flag"])
    def test_ontology_mode_rejects_skip_policy(self, capsys, data_copy, tmp_path, source):
        config = data_copy / "pipeline_ontology.json"
        data = json.loads(config.read_text())
        # a triples-mode config may hold "skip"; --mode ontology must still refuse it
        data["mode"] = "triples"
        extra = ["--on-batch-error", "skip"] if source == "flag" else []
        if source == "config":
            data["on_batch_error"] = "skip"
        config.write_text(json.dumps(data), encoding="utf-8")
        out_dir = tmp_path / "ontologies"
        code, _, stderr = run(
            capsys, "extract", "--config", str(config), "--backend", "replay-onto",
            "--mode", "ontology", *extra, "-o", str(out_dir),
        )
        assert code == 2
        assert "skip is not supported in ontology mode" in stderr
        assert not out_dir.exists()

    def test_triples_mode_rejects_backend_answering_in_turtle(self, capsys, data_copy, tmp_path):
        out = tmp_path / "triples.jsonl"
        code, _, stderr = run(
            capsys, "extract", "--config", str(data_copy / "pipeline_ontology.json"),
            "--backend", "replay-onto", "--mode", "triples", "-o", str(out),
        )
        assert code == 2
        assert stderr.startswith("config error: config key 'backend_id': backend 'replay-onto' answers in ontology")
        assert not out.exists()

    def test_unknown_backend_is_config_error(self, capsys, data_copy, tmp_path):
        code, _, stderr = run(
            capsys, "extract", "--config", str(data_copy / "pipeline_triples.json"),
            "--backend", "ghost", "-o", str(tmp_path / "out.jsonl"),
        )
        assert code == 2
        assert stderr.startswith("config error:")


class TestLink:
    def test_rebuilds_golden_kb_from_triples_file(self, capsys, data_copy, tmp_path, workers=1):
        config = data_copy / "pipeline_triples.json"
        config.write_text(json.dumps({**json.loads(config.read_text()), "workers": workers}), encoding="utf-8")
        out = tmp_path / "kb.json"
        code, stdout, _ = run(
            capsys, "link", str(GOLDEN_DIR / "triples" / "triples.jsonl"),
            "--config", str(data_copy / "pipeline_triples.json"), "-o", str(out),
        )
        assert code == 0
        assert "(18 entities, 6 linked)" in stdout
        assert out.read_bytes() == (GOLDEN_DIR / "triples" / "kb.json").read_bytes()

    def test_rebuilds_golden_kb_with_two_workers(self, capsys, data_copy, tmp_path):
        self.test_rebuilds_golden_kb_from_triples_file(capsys, data_copy, tmp_path, workers=2)


class TestRepair:
    def test_already_valid_writes_normalized_copy(self, capsys, data_copy, tmp_path):
        out = tmp_path / "fixed.ttl"
        code, stdout, _ = run(
            capsys, "repair", str(DATA_DIR / "soluna.ttl"),
            "--config", str(data_copy / "pipeline_ontology.json"),
            "--backend", "replay-onto", "-o", str(out),
        )
        assert code == 0
        assert "already valid" in stdout
        assert "@prefix ex:" in out.read_text(encoding="utf-8")

    def test_repairs_undeclared_property(self, capsys, data_copy, tmp_path):
        broken = tmp_path / "broken.ttl"
        broken.write_text(invalid_ontology_text(), encoding="utf-8")
        out = tmp_path / "fixed.ttl"
        code, stdout, _ = run(
            capsys, "repair", str(broken),
            "--config", str(data_copy / "pipeline_ontology.json"),
            "--backend", "replay-onto", "-o", str(out),
        )
        assert code == 0
        assert "repaired after 1 attempt(s)" in stdout
        assert out.read_bytes() == (GOLDEN_DIR / "ontology" / "ontologies" / "a2.ttl").read_bytes()

    def test_repairs_with_a_triples_mode_config(self, capsys, data_copy, tmp_path):
        # repair is ontology work whatever mode and batch policy the file sets
        config = data_copy / "pipeline_ontology.json"
        data = json.loads(config.read_text())
        data.update(mode="triples", on_batch_error="skip")
        config.write_text(json.dumps(data), encoding="utf-8")
        broken = tmp_path / "broken.ttl"
        broken.write_text(invalid_ontology_text(), encoding="utf-8")
        out = tmp_path / "fixed.ttl"
        code, _, _ = run(
            capsys, "repair", str(broken), "--config", str(config), "--backend", "replay-onto", "-o", str(out),
        )
        assert code == 0
        assert out.read_bytes() == (GOLDEN_DIR / "ontology" / "ontologies" / "a2.ttl").read_bytes()

    def test_unrepairable_is_stage_failure(self, capsys, data_copy, tmp_path):
        broken = tmp_path / "novel.ttl"
        broken.write_text("@prefix ex: <http://example.org/x#> .\nex:a ex:b ex:c .\n")
        code, _, stderr = run(
            capsys, "repair", str(broken),
            "--config", str(data_copy / "pipeline_ontology.json"),
            "--backend", "replay-onto", "-o", str(tmp_path / "out.ttl"),
        )
        assert code == 1
        assert stderr.startswith("error:")


class TestPipelineCommand:
    def test_full_run(self, capsys, data_copy):
        code, stdout, _ = run(
            capsys, "pipeline", "--config", str(data_copy / "pipeline_triples.json")
        )
        assert code == 0
        assert "pipeline finished: 18 entities, 13 triples (mode triples)" in stdout
        assert (data_copy / "run_triples" / "manifest.json").exists()

    def test_stage_failure_exit_code(self, capsys, data_copy):
        (data_copy / "corpus_pipeline.jsonl").write_text("{broken\n", encoding="utf-8")
        code, _, stderr = run(
            capsys, "pipeline", "--config", str(data_copy / "pipeline_triples.json")
        )
        assert code == 1
        assert "stage 'corpus' failed" in stderr

    def test_corrupt_link_cache_exits_1_without_traceback(self, capsys, data_copy):
        (data_copy / "link_cache.json").write_bytes(b"\xff\xfe not a cache")
        code, _, stderr = run(
            capsys, "pipeline", "--config", str(data_copy / "pipeline_triples.json")
        )
        assert code == 1
        assert stderr.startswith("error: stage 'link' failed: link cache")
        assert "Traceback" not in stderr

    def test_config_error_exit_code(self, capsys, data_copy):
        config = data_copy / "pipeline_triples.json"
        data = json.loads(config.read_text())
        data["mystery"] = True
        config.write_text(json.dumps(data), encoding="utf-8")
        code, _, stderr = run(capsys, "pipeline", "--config", str(config))
        assert code == 2
        assert stderr.startswith("config error:")


class TestFetch:
    def fetch_args(self, url: str, out: Path) -> list[str]:
        return [
            "fetch", "--endpoint", url, "--query", "sustainability",
            "--from", "2023-02-01", "--to", "2023-03-01", "-o", str(out),
        ]

    def test_writes_corpus_and_passes_query(self, capsys, server, tmp_path, monkeypatch):
        monkeypatch.delenv("TEXTKG_NEWS_API_KEY", raising=False)
        server.script.append((200, NEWS_PAYLOAD))
        out = tmp_path / "corpus.jsonl"
        code, stdout, _ = run(capsys, *self.fetch_args(server.url, out))
        assert code == 0
        assert "wrote 2 articles" in stdout

        request = server.requests[0]
        assert request["params"]["q"] == ["sustainability"]
        assert request["params"]["from"] == ["2023-02-01"]
        assert request["params"]["to"] == ["2023-03-01"]
        assert request["params"]["language"] == ["en"]
        assert "X-Api-Key" not in request["headers"]

        articles = list(load_corpus(out))
        assert [a.id for a in articles] == [
            "https://greenreport.example/soluna",
            "article-0003",
        ]
        assert articles[0].source_domain == "greenreport.example"
        assert articles[1].source_domain == "wire"
        assert articles[1].body == "Body taken from the description field."

    def test_api_key_from_environment_only(self, capsys, server, tmp_path, monkeypatch):
        monkeypatch.setenv("TEXTKG_NEWS_API_KEY", "sekrit")
        server.script.append((200, NEWS_PAYLOAD))
        code, _, _ = run(capsys, *self.fetch_args(server.url, tmp_path / "c.jsonl"))
        assert code == 0
        assert server.requests[0]["headers"]["X-Api-Key"] == "sekrit"

    def test_http_error_is_stage_failure(self, capsys, server, tmp_path, monkeypatch):
        monkeypatch.delenv("TEXTKG_NEWS_API_KEY", raising=False)
        server.script.append((500, "{}"))
        code, _, stderr = run(capsys, *self.fetch_args(server.url, tmp_path / "c.jsonl"))
        assert code == 1
        assert stderr.startswith("error: fetch failed")


def bad_kb(tmp_path: Path) -> str:
    path = tmp_path / "kb.json"
    path.write_text('{"entities": ["a"], "triples": [', encoding="utf-8")
    return str(path)


def blank_subject_kb(tmp_path: Path) -> str:
    """A kb.json whose one triple row has a blank subject."""
    path = tmp_path / "kb.json"
    row = {"subject": "", "predicate": "p", "object": "B", "provenance": []}
    path.write_text(json.dumps({"entities": ["B"], "predicates": ["p"], "triples": [row]}), encoding="utf-8")
    return str(path)


def triples_without_predicate(tmp_path: Path) -> str:
    path = tmp_path / "triples.jsonl"
    path.write_text(
        json.dumps({"subject": "A", "predicate": "p", "object": "B"}) + "\n"
        + json.dumps({"subject": "A", "object": "B"}) + "\n",
        encoding="utf-8",
    )
    return str(path)


def non_json_file(tmp_path: Path) -> str:
    path = tmp_path / "quality.json"
    path.write_text("conciseness_max_tokens = 4\n", encoding="utf-8")
    return str(path)


def non_utf8_file(tmp_path: Path) -> str:
    path = tmp_path / "doc.ttl"
    path.write_bytes(b"\xff\xfe@prefix ex: <http://example.org/kg#> .\n")
    return str(path)


def non_utf8_corpus(tmp_path: Path) -> str:
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(b"\xff\xfe" + Path(CORPUS).read_bytes())
    return str(path)


def first_replay_fixture() -> str:
    """The replay_triples file that answers the first corpus article."""
    prompt = build_prompt(next(load_corpus(CORPUS)).body, "triples")
    return f"replay_triples/{request_fingerprint(prompt, 'fixture-model', 0.0)}.txt"


def broken_data_config(tmp_path: Path, name: str, content: bytes) -> str:
    """The bundled triples config in a copy of tests/data whose file name
    holds content instead."""
    target = tmp_path / "data"
    shutil.copytree(DATA_DIR, target)
    assert (target / name).is_file()
    (target / name).write_bytes(content)
    return str(target / "pipeline_triples.json")


def inverted_window_config(tmp_path: Path) -> str:
    data = json.loads((DATA_DIR / "pipeline_triples.json").read_text(encoding="utf-8"))
    data.update(date_from="2023-03-01", date_to="2023-02-01")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def seq2seq_limit_below_batch_config(tmp_path: Path) -> str:
    data = json.loads((DATA_DIR / "pipeline_triples.json").read_text(encoding="utf-8"))
    data["batch_size"] = 23
    data["backends"][0] = {
        "backend_id": "replay-chat", "kind": "seq2seq_tokens", "endpoint": "http://127.0.0.1:9",
        "max_input_tokens": 5,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def triples_mode_turtle_backend_config(tmp_path: Path) -> str:
    """The bundled triples config with a backend that answers in ontology Turtle."""
    data = json.loads((DATA_DIR / "pipeline_triples.json").read_text(encoding="utf-8"))
    data["backends"][0]["replay_mode"] = "ontology"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def patched_config(tmp_path: Path, section: str, key: str, value) -> str:
    data = json.loads((DATA_DIR / "pipeline_triples.json").read_text(encoding="utf-8"))
    data.setdefault(section, {})[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def colliding_ids_config(tmp_path: Path) -> str:
    """The bundled ontology config over a corpus whose first two ids share
    the file name a_1."""
    rows = [json.loads(line) for line in (DATA_DIR / "corpus_pipeline.jsonl").read_text().splitlines()]
    rows[0]["id"], rows[1]["id"] = "a/1", "a:1"
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    data = json.loads((DATA_DIR / "pipeline_ontology.json").read_text(encoding="utf-8"))
    data.update(corpus=str(corpus), run_dir=str(tmp_path / "run"))
    data["backends"][0]["fixtures_dir"] = str(DATA_DIR / "replay_ontology")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def prefixed_file(tmp_path: Path, source: str, prefix: bytes) -> str:
    """A copy of source, under the same name, with prefix before its bytes."""
    path = tmp_path / Path(source).name
    path.write_bytes(prefix + Path(source).read_bytes())
    return str(path)


def non_utf8_line(tmp_path: Path, source: str, number: int) -> str:
    """A copy of source, under the same name, whose line number starts with 0xff."""
    lines = Path(source).read_bytes().splitlines(keepends=True)
    lines[number - 1] = b"\xff" + lines[number - 1]
    path = tmp_path / Path(source).name
    path.write_bytes(b"".join(lines))
    return str(path)


def exhausted_repair_argv(tmp_path: Path) -> list[str]:
    """repair of an invalid file whose every repair answers the same invalid
    text, in a copy of tests/data holding that answer as a replay fixture."""
    target = tmp_path / "data"
    shutil.copytree(DATA_DIR, target)
    config = target / "pipeline_ontology.json"
    invalid = "this is not turtle"
    prompt = build_repair_prompt(invalid, validate_text(invalid)[1])
    fixture_path(load_config(config).backend, prompt).write_text(invalid, encoding="utf-8")
    (tmp_path / "doc.ttl").write_text(invalid, encoding="utf-8")
    return ["repair", str(tmp_path / "doc.ttl"), "--config", str(config), "--backend", "replay-onto",
            "--max-attempts", "2", "-o", str(tmp_path / "out.ttl")]


GOLDEN_KB = str(GOLDEN_DIR / "triples" / "kb.json")
GOLDEN_TRIPLES = str(GOLDEN_DIR / "triples" / "triples.jsonl")
CORPUS = str(DATA_DIR / "corpus_pipeline.jsonl")
NOT_UTF8 = "line 1: invalid JSON: 'utf-8' codec can't decode byte 0xff"

# (argv builder, exit code, stderr fragment)
CLI_ERROR_PATHS = {
    "chunk-batch-size-0": (
        lambda t: ["chunk", CORPUS, "--batch-size", "0", "-o", str(t / "b.jsonl")], 2, "at least 1"
    ),
    "top-relations-k-0": (lambda t: ["top-relations", GOLDEN_KB, "-k", "0"], 2, "at least 1"),
    "export-max-nodes-0": (
        lambda t: ["export", GOLDEN_KB, "--format", "dot", "--max-nodes", "0"], 2, "at least 1"
    ),
    "export-radius-negative": (
        lambda t: ["export", GOLDEN_KB, "--format", "dot", "--radius", "-1"], 2, "at least 0"
    ),
    "repair-max-attempts-0": (
        lambda t: ["repair", "x.ttl", "--config", "c.json", "--backend", "b",
                   "--max-attempts", "0", "-o", "out.ttl"],
        2,
        "at least 1",
    ),
    "fetch-page-size-0": (
        lambda t: ["fetch", "--endpoint", "http://127.0.0.1:9", "--query", "q", "--from",
                   "2023-01-01", "--to", "2023-02-01", "--page-size", "0", "-o", "out"],
        2,
        "at least 1",
    ),
    "stats-bad-kb": (lambda t: ["stats", bad_kb(t)], 1, "is not a KB file"),
    "stats-blank-triple-subject": (lambda t: ["stats", blank_subject_kb(t)], 1, "is not a KB file"),
    "merge-bad-kb": (
        lambda t: ["merge", GOLDEN_KB, bad_kb(t), "-o", str(t / "m.json")], 1, "is not a KB file"
    ),
    "eval-bad-kb": (lambda t: ["eval", bad_kb(t), "--corpus", CORPUS], 1, "is not a KB file"),
    "export-bad-kb": (lambda t: ["export", bad_kb(t), "--format", "json"], 1, "is not a KB file"),
    "top-relations-bad-kb": (lambda t: ["top-relations", bad_kb(t)], 1, "is not a KB file"),
    "link-row-without-predicate": (
        lambda t: ["link", triples_without_predicate(t), "--config",
                   str(DATA_DIR / "pipeline_triples.json"), "-o", str(t / "kb.json")],
        1,
        "line 2",
    ),
    "eval-non-json-config": (
        lambda t: ["eval", GOLDEN_KB, "--corpus", CORPUS, "--config", non_json_file(t)],
        2,
        "is not valid JSON",
    ),
    "validate-non-utf8": (lambda t: ["validate", non_utf8_file(t)], 1, "doc.ttl is not UTF-8"),
    "ttl2kb-non-utf8": (
        lambda t: ["ttl2kb", non_utf8_file(t), "-o", str(t / "kb.json")], 1, "doc.ttl is not UTF-8"
    ),
    "ttl2kb-empty-iri": (
        lambda t: ["ttl2kb", blank_term_file(t, "empty-iri"), "-o", str(t / "kb.json")],
        1,
        BLANK_TERM_DOCS["empty-iri"][1],
    ),
    "ttl2kb-empty-literal": (
        lambda t: ["ttl2kb", blank_term_file(t, "empty-literal"), "-o", str(t / "kb.json")],
        1,
        BLANK_TERM_DOCS["empty-literal"][1],
    ),
    "ttl2kb-asserted-class": (
        lambda t: ["ttl2kb", blank_term_file(t, "asserted-class"), "-o", str(t / "kb.json")],
        1,
        BLANK_TERM_DOCS["asserted-class"][1],
    ),
    "repair-non-utf8": (
        lambda t: ["repair", non_utf8_file(t), "--config", str(DATA_DIR / "pipeline_ontology.json"),
                   "--backend", "replay-onto", "-o", str(t / "out.ttl")],
        1,
        "doc.ttl is not UTF-8",
    ),
    "repair-attempts-exhausted": (
        exhausted_repair_argv, 1, "error: still invalid after 2 repair attempt(s)"
    ),
    "pipeline-inverted-date-window": (
        lambda t: ["pipeline", "--config", inverted_window_config(t)], 2, "is after"
    ),
    "pipeline-export-max-nodes-string": (
        lambda t: ["pipeline", "--config", patched_config(t, "export", "max_nodes", "150")],
        2,
        "config key 'export.max_nodes': expected an integer or null",
    ),
    "pipeline-linking-cache-path-number": (
        lambda t: ["pipeline", "--config", patched_config(t, "linking", "cache_path", 5)],
        2,
        "config key 'linking.cache_path': expected a string or null",
    ),
    "pipeline-ontology-file-name-collision": (
        lambda t: ["pipeline", "--config", colliding_ids_config(t)],
        1,
        "article ids 'a/1' and 'a:1' both map to ontology file name 'a_1'",
    ),
    "pipeline-triples-mode-turtle-backend": (
        lambda t: ["pipeline", "--config", triples_mode_turtle_backend_config(t)],
        2,
        "config key 'backend_id': backend 'replay-chat' answers in ontology Turtle",
    ),
    "pipeline-seq2seq-limit-below-batch-size": (
        lambda t: ["pipeline", "--config", seq2seq_limit_below_batch_config(t)], 2, "is below batch_size"
    ),
    "pipeline-non-utf8-corpus": (
        lambda t: ["pipeline", "--config", broken_data_config(
            t, "corpus_pipeline.jsonl", b"\xff\xfe" + Path(CORPUS).read_bytes())],
        1,
        f"stage 'corpus' failed: {NOT_UTF8}",
    ),
    "chunk-non-utf8-corpus": (
        lambda t: ["chunk", non_utf8_corpus(t), "-o", str(t / "b.jsonl")], 1, f"error: {NOT_UTF8}"
    ),
    "eval-non-utf8-corpus": (
        lambda t: ["eval", GOLDEN_KB, "--corpus", non_utf8_corpus(t)], 1, f"error: {NOT_UTF8}"
    ),
    "pipeline-non-json-lookup-fixture": (
        lambda t: ["pipeline", "--config", broken_data_config(t, "lookup_fixture.json", b"soluna = 1\n")],
        1,
        "stage 'link' failed: lookup fixture ",
    ),
    "pipeline-list-lookup-fixture": (
        lambda t: ["pipeline", "--config", broken_data_config(t, "lookup_fixture.json", b"[]")],
        1,
        "lookup_fixture.json must be a JSON object",
    ),
    "link-non-json-lookup-fixture": (
        lambda t: ["link", GOLDEN_TRIPLES, "--config",
                   broken_data_config(t, "lookup_fixture.json", b"soluna = 1\n"), "-o", str(t / "kb.json")],
        1,
        "lookup_fixture.json is unreadable: Expecting value",
    ),
    "link-list-lookup-fixture": (
        lambda t: ["link", GOLDEN_TRIPLES, "--config",
                   broken_data_config(t, "lookup_fixture.json", b"[]"), "-o", str(t / "kb.json")],
        1,
        "lookup_fixture.json must be a JSON object",
    ),
    "pipeline-non-utf8-replay-fixture": (
        lambda t: ["pipeline", "--config", broken_data_config(t, first_replay_fixture(), b"\xff\xfeA | r | B\n")],
        1,
        "stage 'extract' failed: replay fixture ",
    ),
    "stats-non-utf8-kb": (
        lambda t: ["stats", prefixed_file(t, GOLDEN_KB, b"\xff")], 1, "kb.json is not a KB file: 'utf-8' codec"
    ),
    "link-non-utf8-line-13": (
        lambda t: ["link", non_utf8_line(t, GOLDEN_TRIPLES, 13), "--config",
                   str(DATA_DIR / "pipeline_triples.json"), "-o", str(t / "kb.json")],
        1,
        "triples.jsonl, line 13: not UTF-8: 'utf-8' codec can't decode byte 0xff",
    ),
    "pipeline-both-lookup-sources": (
        lambda t: ["pipeline", "--config", patched_config(t, "linking", "endpoint", "http://127.0.0.1:9")],
        2,
        "config key 'linking': endpoint and fixture_file are exclusive",
    ),
}


@pytest.mark.parametrize("case", sorted(CLI_ERROR_PATHS))
def test_error_paths_exit_without_traceback(case, tmp_path):
    build_argv, exit_code, fragment = CLI_ERROR_PATHS[case]
    argv = build_argv(tmp_path)
    env = {**os.environ, "PYTHONPATH": str(Path(textkg.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-m", "textkg.cli", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == exit_code, result.stderr
    assert fragment in result.stderr
    assert "Traceback" not in result.stderr
    # one message, without the contents of the file it names
    assert len(result.stderr.encode("utf-8")) < 300, result.stderr
    # no output document is left behind; extract's row file keeps the rows
    # written before the failure, as a failed run's row files do
    if "-o" in argv and argv[0] != "extract":
        assert not (tmp_path / argv[argv.index("-o") + 1]).exists()


@pytest.mark.parametrize("config_name", ["pipeline_triples.json", "pipeline_ontology.json"])
def test_replay_run_never_loads_the_network_stack(config_name, data_copy):
    # a fresh interpreter, because other tests import these modules
    modules = ["ssl", "http.client", "urllib.request", "email.utils", "xml.sax"]
    code = (
        "import sys; from textkg.cli import main; "
        f"code = main(['pipeline', '--config', {str(data_copy / config_name)!r}]); "
        f"print(code, [name for name in {modules!r} if name in sys.modules])"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(textkg.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    assert result.stdout.splitlines()[-1] == "0 []", result.stderr


def test_plain_http_request_loads_no_tls_or_email_module(keepalive_server):
    # a fresh interpreter with no *_proxy variable, because other tests import these modules
    modules = ["ssl", "http.client", "email.parser", "urllib.request"]
    code = (
        "import sys; from textkg import transport; "
        f"status = transport.request('GET', {keepalive_server.url!r}, timeout=10).status; "
        f"print(status, [name for name in {modules!r} if name in sys.modules])"
    )
    env = {name: value for name, value in os.environ.items() if not name.lower().endswith("_proxy")}
    env["PYTHONPATH"] = str(Path(textkg.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    assert result.stdout.splitlines()[-1] == "200 []", result.stderr


def test_readme_cli_and_layout_blocks_match_the_code():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

    def block(heading: str) -> list[str]:
        return readme.split(f"\n## {heading}\n", 1)[1].split("```\n", 2)[1].splitlines()

    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(line.split()[1] for line in block("CLI")) == sorted(subparsers.choices)
    package = Path(textkg.__file__).parent
    modules = sorted(path.name for path in package.glob("*.py") if path.name != "__init__.py")
    layout = [line.split()[0] for line in block("Layout") if line.startswith("  ")]
    assert sorted(name for name in layout if name.endswith(".py")) == modules


def test_radius_zero_is_accepted(capsys):
    code, stdout, _ = run(
        capsys, "export", GOLDEN_KB, "--format", "json", "--seed", "Soluna", "--radius", "0"
    )
    assert code == 0
    assert json.loads(stdout)["nodes"] == [{"id": "Soluna", "kind": "plain"}]
