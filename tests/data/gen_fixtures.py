"""Regenerates the committed pipeline fixtures: the five-article corpus and
the replay fixture files for both pipeline modes.

Replay fixtures are keyed by the content hash of the exact request the
pipeline will issue, so this script derives every key through the same
prompt-building and fingerprinting code the pipeline uses. Rerun it after
any deliberate prompt change:

    python3 tests/data/gen_fixtures.py [output_dir]

The output directory defaults to this one. A test regenerates into a scratch
directory and requires byte identity with the committed files, so a prompt,
fingerprint or validation-message change cannot leave them stale.
"""

from __future__ import annotations

import datetime as dt
import json
import shutil
import sys
from pathlib import Path

from textkg.chunking import chunk
from textkg.corpus import Article, load_corpus, write_corpus
from textkg.extraction import build_prompt, request_fingerprint
from textkg.rdf import build_repair_prompt, validate_text

HERE = Path(__file__).parent
MODEL = "fixture-model"
TEMPERATURE = 0.0
MAX_INPUT_TOKENS = 512
BATCH_SIZE = 256


def _long_body() -> str:
    topics = ("solar", "wind", "hydro", "biomass", "geothermal")
    words: list[str] = []
    for index in range(75):
        words.extend(
            ["GreenCo", "expanded", topics[index % 5], "capacity", "in", "region", f"R{index}", "during"]
        )
    return " ".join(words)


ARTICLES = [
    Article(
        id="a1",
        title="Soluna soaks up surplus renewable power",
        body=(
            "Soluna announced a plan to soak up excess energy from renewable producers "
            "in Kentucky. The company said the practice keeps turbines spinning when "
            "demand dips, and regulators welcomed the move."
        ),
        source_domain="greenreport.example",
        published_at=dt.date(2023, 2, 20),
        language="en",
    ),
    Article(
        id="a2",
        title="Starbucks pilots resource sharing between stores",
        body=(
            "Starbucks is piloting a resource sharing scheme across its Seattle stores. "
            "Surplus equipment and food are redistributed between branches, a practice "
            "managers say lowers waste across the chain."
        ),
        source_domain="cafejournal.example",
        published_at=dt.date(2023, 2, 25),
        language="en",
    ),
    Article(
        id="a3",
        title="Samsung adds solar to its fabs",
        body=(
            "Samsung operates in the electronics industry and has announced new "
            "investments in solar energy for its fabrication plants, part of a broader "
            "push to cut emissions."
        ),
        source_domain="technews.example",
        published_at=dt.date(2023, 3, 1),
        language="en",
    ),
    Article(
        id="a4",
        title="GreenCo capacity report",
        body=_long_body(),
        source_domain="energydaily.example",
        published_at=dt.date(2023, 3, 8),
        language="en",
    ),
    Article(
        id="a5",
        title="EcoBank extends climate-aligned lending",
        body=(
            "EcoBank will fund reforestation projects and issue green bonds next "
            "quarter, extending a policy of climate-aligned lending the bank began "
            "two years ago."
        ),
        source_domain="financegreen.example",
        published_at=dt.date(2023, 3, 15),
        language="en",
    ),
]

TRIPLES_RESPONSES = {
    "a1": (
        "Here are the extracted relations:\n"
        "1. Soluna | utilizes | Excess Energy\n"
        "2. Soluna | operates in | Kentucky\n"
        "3. Excess Energy | reduces | Carbon Emissions\n"
    ),
    "a2": (
        "Starbucks | adopts | Resource Sharing\n"
        "Starbucks | located in | Seattle\n"
        "Resource Sharing | lowers | Waste\n"
    ),
    "a3": (
        "Samsung | industry | Electronics\n"
        "Samsung | invests in | Solar Energy\n"
        "not a triple\n"
    ),
    # a4 responses are per batch, see below
    "a5": (
        "EcoBank | funds | Reforestation\n"
        "EcoBank | issues | Green Bonds\n"
    ),
}

A4_BATCH_RESPONSES = [
    "GreenCo | installs | Solar Panels\n",
    "GreenCo | recycles | Plastic Waste\ngarbage\n",
    "GreenCo | partners with | CleanGrid\n",
]

_ONTOLOGY_PREAMBLE = "@prefix ex: <http://example.org/kg#> .\n\n"

ONTOLOGY_RESPONSES = {
    "a1": _ONTOLOGY_PREAMBLE
    + (
        "ex:Organizations a owl:Class .\n"
        "ex:Practices a owl:Class .\n"
        "ex:Places a owl:Class .\n"
        "ex:utilizes a owl:ObjectProperty .\n"
        "ex:locatedIn a owl:ObjectProperty .\n"
        "\n"
        "ex:Soluna a ex:Organizations .\n"
        'ex:ExcessEnergy a ex:Practices ;\n    rdfs:label "Excess Energy" .\n'
        "ex:Kentucky a ex:Places .\n"
        "\n"
        "ex:Soluna ex:utilizes ex:ExcessEnergy .\n"
        "ex:Soluna ex:locatedIn ex:Kentucky .\n"
    ),
    "a3": _ONTOLOGY_PREAMBLE
    + (
        "ex:Organizations a owl:Class .\n"
        "ex:Actions a owl:Class .\n"
        "ex:investsIn a owl:ObjectProperty .\n"
        "\n"
        "ex:Samsung a ex:Organizations .\n"
        "ex:SolarInvestment a ex:Actions .\n"
        "\n"
        "ex:Samsung ex:investsIn ex:SolarInvestment .\n"
    ),
    "a4": _ONTOLOGY_PREAMBLE
    + (
        "ex:Organizations a owl:Class .\n"
        "ex:Actions a owl:Class .\n"
        "ex:expands a owl:ObjectProperty .\n"
        "\n"
        "ex:GreenCo a ex:Organizations .\n"
        "ex:CapacityExpansion a ex:Actions .\n"
        "\n"
        "ex:GreenCo ex:expands ex:CapacityExpansion .\n"
    ),
    "a5": _ONTOLOGY_PREAMBLE
    + (
        "ex:Organizations a owl:Class .\n"
        "ex:Policies a owl:Class .\n"
        "ex:funds a owl:ObjectProperty .\n"
        "\n"
        "ex:EcoBank a ex:Organizations .\n"
        "ex:GreenBondPolicy a ex:Policies .\n"
        "\n"
        "ex:EcoBank ex:funds ex:GreenBondPolicy .\n"
    ),
}

# the a2 generation is wrong on the first attempt (ex:hasPractice is used but
# never declared) and fixed on the second, exercising the repair loop
A2_INVALID = _ONTOLOGY_PREAMBLE + (
    "ex:Organizations a owl:Class .\n"
    "ex:Practices a owl:Class .\n"
    "\n"
    "ex:Starbucks a ex:Organizations .\n"
    "ex:ResourceSharing a ex:Practices .\n"
    "\n"
    "ex:Starbucks ex:hasPractice ex:ResourceSharing .\n"
)
A2_VALID = _ONTOLOGY_PREAMBLE + (
    "ex:Organizations a owl:Class .\n"
    "ex:Practices a owl:Class .\n"
    "ex:hasPractice a owl:ObjectProperty .\n"
    "\n"
    "ex:Starbucks a ex:Organizations .\n"
    "ex:ResourceSharing a ex:Practices .\n"
    "\n"
    "ex:Starbucks ex:hasPractice ex:ResourceSharing .\n"
)


def _write_fixture(directory: Path, prompt: str, response: str) -> None:
    fingerprint = request_fingerprint(prompt, MODEL, TEMPERATURE)
    (directory / f"{fingerprint}.txt").write_text(response, encoding="utf-8")


def main(out_dir: Path = HERE) -> None:
    write_corpus(ARTICLES, out_dir / "corpus_pipeline.jsonl")
    articles = list(load_corpus(out_dir / "corpus_pipeline.jsonl"))

    triples_dir = out_dir / "replay_triples"
    ontology_dir = out_dir / "replay_ontology"
    for directory in (triples_dir, ontology_dir):
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)

    for article in articles:
        tokens = article.body.split()
        if len(tokens) <= MAX_INPUT_TOKENS:
            prompt = build_prompt(article.body, "triples")
            _write_fixture(triples_dir, prompt, TRIPLES_RESPONSES[article.id])
        else:
            batches = chunk(article, BATCH_SIZE)
            responses = A4_BATCH_RESPONSES
            assert article.id == "a4" and len(batches) == len(responses)
            for batch, response in zip(batches, responses):
                _write_fixture(triples_dir, build_prompt(batch.text, "triples"), response)

    for article in articles:
        prompt = build_prompt(article.body, "ontology")
        if article.id == "a2":
            _write_fixture(ontology_dir, prompt, A2_INVALID)
            _, report = validate_text(A2_INVALID)
            assert report.errors, "the seeded a2 defect must be a validation error"
            repair_prompt = build_repair_prompt(A2_INVALID, report)
            _write_fixture(ontology_dir, repair_prompt, A2_VALID)
        else:
            _write_fixture(ontology_dir, prompt, ONTOLOGY_RESPONSES[article.id])

    counts = (len(list(triples_dir.iterdir())), len(list(ontology_dir.iterdir())))
    print(f"wrote corpus ({len(articles)} articles), {counts[0]} triples fixtures, {counts[1]} ontology fixtures")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else HERE)
