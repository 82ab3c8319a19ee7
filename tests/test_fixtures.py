"""The committed corpus and replay fixtures are what gen_fixtures.py writes.

Replay fixture names hash the exact prompts, and repair prompts embed the
validator's messages, so a change to either must come with regenerated
fixtures; this test catches one that does not.
"""

import importlib.util
from pathlib import Path

from .conftest import DATA_DIR


def load_generator():
    spec = importlib.util.spec_from_file_location("gen_fixtures", DATA_DIR / "gen_fixtures.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tree(root: Path, names: tuple[str, ...]) -> dict[str, bytes]:
    files = {}
    for name in names:
        path = root / name
        for item in [path] if path.is_file() else sorted(path.iterdir()):
            files[str(item.relative_to(root))] = item.read_bytes()
    return files


def test_regenerated_fixtures_match_the_committed_ones(tmp_path):
    load_generator().main(tmp_path)
    names = ("corpus_pipeline.jsonl", "replay_triples", "replay_ontology")
    regenerated, committed = tree(tmp_path, names), tree(DATA_DIR, names)
    assert sorted(regenerated) == sorted(committed)
    assert regenerated == committed
