"""Pipeline contracts on generated corpora larger than the goldens.

The goldens hold five articles, fewer than the extraction window at
`workers` 2, so they never fill it. The corpora here come from the
benchmark's seeded generators (perfbench/workloads.py), which also write
the replay fixtures and lookup table and count the stages a run must report.
The replay backend extracts on the calling thread at any `workers`, so the
runs past one worker use a chat backend answered from those fixtures.
"""

import functools
import importlib
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import textkg
from textkg.cli import main
from textkg.pipeline import run_pipeline

from .conftest import answer_from_fixtures, chat_backends, snapshot_apart_from_hash

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402
from spans import WRAPPED  # noqa: E402

ARTICLES = 80
WORKERS = (1, 2, 3)
# workload -> the generator for its mode
GENERATORS = {
    "triples-replay": workloads._generate_triples,
    "ontology-repair": workloads._generate_ontology,
}


def generate(workload: str, directory: Path) -> dict:
    """Write a corpus of ARTICLES articles, its replay fixtures and lookup
    table into directory, as workloads.generate does at full size; returns
    the stage counts a run over them must report."""
    rng = random.Random(f"{workload}:1")
    articles, fixtures, lookup, expected = GENERATORS[workload](rng, ARTICLES)
    tokens = [len(article["body"].split()) for article in articles]
    expected["stages"]["corpus"] = {"articles": ARTICLES, "empty_bodies": 0}
    expected["stages"]["chunk"] = {"batches": sum(math.ceil(n / workloads.BATCH_SIZE) for n in tokens)}
    (directory / "fixtures").mkdir(parents=True)
    (directory / "corpus.jsonl").write_text("".join(json.dumps(a) + "\n" for a in articles), encoding="utf-8")
    for key, text in fixtures.items():
        (directory / "fixtures" / f"{key}.txt").write_text(text, encoding="utf-8")
    (directory / "lookup.json").write_text(json.dumps(lookup, sort_keys=True), encoding="utf-8")
    return expected["stages"]


def write_config(directory: Path, workload: str, name: str, workers: int = 1, chat: bool = False) -> Path:
    """A config over the generated inputs whose run directory and link cache
    are named after it, so runs of different configs share nothing; with
    chat, on a chat backend in place of the replay one."""
    data = workloads.pipeline_config(workload)
    if chat:
        chat_backends(data)
    data.update(workers=workers, run_dir=f"run_{name}")
    if "linking" in data:
        data["linking"]["cache_path"] = f"cache_{name}.json"
    path = directory / f"{name}.json"
    path.write_text(json.dumps(data, indent=2), encoding="utf-8")
    return path


@pytest.fixture(scope="module", params=sorted(GENERATORS))
def generated(request, tmp_path_factory):
    """(workload, input directory, expected stage counts, snapshot of the run
    at each of WORKERS)."""
    workload = request.param
    directory = tmp_path_factory.mktemp(workload)
    expected = generate(workload, directory)
    runs = {}
    for workers in WORKERS:
        with pytest.MonkeyPatch.context() as monkeypatch:
            if workers > 1:  # so that the articles are extracted on threads
                answer_from_fixtures(monkeypatch)
            config = write_config(directory, workload, f"w{workers}", workers, chat=workers > 1)
            run_pipeline(config)
        runs[workers] = snapshot_apart_from_hash(directory / f"run_w{workers}")
    return workload, directory, expected, runs


def test_workers_write_the_same_bytes(generated):
    _, _, _, runs = generated
    for workers in WORKERS[1:]:
        assert runs[workers] == runs[1], f"workers {workers}"


def test_manifest_counts_equal_the_generators(generated):
    _, _, expected, runs = generated
    stages = json.loads(runs[1]["manifest.json"])["stages"]
    assert {name: stages[name] for name in expected} == expected


def test_hash_seed_does_not_change_the_bytes(generated):
    workload, directory, _, runs = generated
    env = {**os.environ, "PYTHONPATH": str(Path(textkg.__file__).parents[1])}
    for seed in ("1", "2"):
        config = write_config(directory, workload, f"seed{seed}")
        subprocess.run(
            [sys.executable, "-m", "textkg.cli", "pipeline", "--config", str(config)],
            env=env | {"PYTHONHASHSEED": seed}, capture_output=True, check=True, timeout=120,
        )
        assert snapshot_apart_from_hash(directory / f"run_seed{seed}") == runs[1], f"PYTHONHASHSEED={seed}"


@pytest.mark.parametrize("generated", ["ontology-repair"], indirect=True)
def test_cli_extract_in_ontology_mode_writes_the_pipelines_ontologies(generated, tmp_path, monkeypatch):
    workload, directory, expected, runs = generated
    answer_from_fixtures(monkeypatch)
    config = write_config(directory, workload, "cli", workers=2, chat=True)
    output = tmp_path / "ontologies"
    argv = ["extract", "--config", str(config), "--backend", "replay-onto", "--mode", "ontology", "-o", str(output)]
    assert main(argv) == 0
    prefix = "ontologies/"
    ontologies = {name.removeprefix(prefix): data for name, data in runs[1].items() if name.startswith(prefix)}
    # a report per article and a document per valid one
    assert len(ontologies) == ARTICLES + expected["ontology"]["valid_documents"]
    assert {path.name: path.read_bytes() for path in output.iterdir()} == ontologies


@pytest.mark.parametrize("generated", ["triples-replay"], indirect=True)
def test_cli_chain_writes_the_pipelines_bytes(generated, tmp_path):
    workload, directory, _, runs = generated
    config = write_config(directory, workload, "chain")
    data = json.loads(config.read_text(encoding="utf-8"))
    corpus, out = str(directory / "corpus.jsonl"), tmp_path
    (out / "quality_config.json").write_text(json.dumps(data["quality"]), encoding="utf-8")
    export = data["export"]
    chain = [
        ["chunk", corpus, "--batch-size", str(data["batch_size"]), "-o", str(out / "batches.jsonl")],
        ["extract", "--config", str(config), "--backend", data["backend_id"], "-o", str(out / "triples.jsonl")],
        ["link", str(out / "triples.jsonl"), "--config", str(config), "-o", str(out / "kb.json")],
        ["eval", str(out / "kb.json"), "--corpus", corpus, "--config", str(out / "quality_config.json"),
         "-o", str(out / "quality.json")],
        *(["export", str(out / "kb.json"), "--format", name, "--max-nodes", str(export["max_nodes"]),
           "-o", str(out / f"export.{name}")] for name in export["formats"]),
    ]
    for argv in chain:
        assert main(argv) == 0, argv
    names = ["batches.jsonl", "triples.jsonl", "kb.json", "quality.json", *(f"export.{n}" for n in export["formats"])]
    for name in names:
        assert (out / name).read_bytes() == runs[1][name], name


def test_every_traced_seam_resolves():
    # a seam that does not resolve is only reported as "not traced", and its
    # per-layer metric reads 0; pipeline.merge is gone since the ontology
    # stage folds each article in place, and the harness still lists it
    def resolves(module: str, attribute: str) -> bool:
        try:
            functools.reduce(getattr, attribute.split("."), importlib.import_module(module))
        except AttributeError:
            return False
        return True

    missing = {(module, attribute) for module, attribute, _ in WRAPPED if not resolves(module, attribute)}
    assert missing <= {("textkg.pipeline", "merge")}
