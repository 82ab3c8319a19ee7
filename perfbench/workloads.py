"""Seeded workload generators for the textkg benchmark.

Each workload is a directory holding a corpus, replay fixtures, a lookup
table, a pipeline config and ``expected.json``: the stage counts the
manifest must report and the number of backend operations a run makes.
Everything is derived from ``random.Random`` seeded with the workload name
and seed, so one seed always gives byte-identical inputs. Fixture keys go
through ``build_prompt``, ``request_fingerprint``, ``build_repair_prompt`` and
``validate_text``, the same way ``tests/data/gen_fixtures.py`` derives them.
"""

from __future__ import annotations

import datetime as dt
import itertools
import json
import math
import random
import shutil
from pathlib import Path

from textkg.extraction import build_prompt, request_fingerprint
from textkg.rdf import build_repair_prompt, validate_text

MODEL = "bench-model"
TEMPERATURE = 0.0
BATCH_SIZE = 256
MAX_INPUT_TOKENS = 512
MAX_REPAIR_ATTEMPTS = 3

# workload name -> (pipeline mode, articles)
WORKLOADS = {
    "triples-replay": ("triples", 2000),
    "ontology-repair": ("ontology", 200),
    "triples-live": ("triples", 150),
}

_SYLLABLES = (
    "ka ve lo mi ra su ne to pa di gre sol tan bor vi ex an ter ul mo "
    "cen dra fi lu qua ren sa the zo bel cor da ha jun kri mar nov os"
).split()
_ORG_SUFFIXES = ("Energy", "Holdings", "Group", "Foods", "Motors", "Bank", "Labs", "Logistics")
_CONCEPT_HEADS = (
    "Emissions", "Recycling", "Solar Power", "Wind Capacity", "Water Use", "Packaging",
    "Supply Chain", "Reforestation", "Green Bonds", "Waste", "Biodiversity", "Heat Pumps",
)
_LEAD_INS = (
    "Here are the extracted relations:",
    "Relations found in the article:",
    "Extracted triples:",
)
_HOT_POOL = 200
_HOT_SHARE = 0.25


def _word(rng: random.Random, syllables: int) -> str:
    return "".join(rng.choice(_SYLLABLES) for _ in range(syllables))


def _distinct(make, count: int) -> list[str]:
    seen: dict[str, None] = {}
    while len(seen) < count:
        seen.setdefault(make(), None)
    return list(seen)


def _body(rng: random.Random, vocabulary: list[str], tokens: int) -> str:
    words = rng.choices(vocabulary, k=tokens)
    for index in range(11, tokens, 12):
        words[index] += "."
    return " ".join(words)


def _articles(rng: random.Random, count: int, long_share: float) -> list[dict]:
    vocabulary = _distinct(lambda: _word(rng, rng.randint(1, 3)), 600)
    start = dt.date(2022, 1, 1)
    # an exact share of long articles keeps the amount of work steady across seeds
    long_count = round(count * long_share)
    is_long = [True] * long_count + [False] * (count - long_count)
    rng.shuffle(is_long)
    rows = []
    for index in range(count):
        tokens = rng.randint(600, 1400) if is_long[index] else rng.randint(80, 400)
        rows.append(
            {
                "id": f"art{index:05d}",
                "title": " ".join(_word(rng, 2).title() for _ in range(4)),
                "body": _body(rng, vocabulary, tokens),
                "source_domain": f"{_word(rng, 2)}.example",
                "published_at": (start + dt.timedelta(days=rng.randrange(700))).isoformat(),
                "language": "en",
            }
        )
    return rows


def _units(body: str) -> list[str]:
    """The request texts extract_article sends for one body: the whole body
    when it fits the input limit, else its 256-token batches."""
    tokens = body.split()
    if len(tokens) <= MAX_INPUT_TOKENS:
        return [body]
    return [" ".join(tokens[i : i + BATCH_SIZE]) for i in range(0, len(tokens), BATCH_SIZE)]


def _write_fixture(fixtures: dict[str, str], prompt: str, response: str) -> None:
    key = request_fingerprint(prompt, MODEL, TEMPERATURE)
    if fixtures.setdefault(key, response) != response:
        raise RuntimeError(f"two requests share fingerprint {key}")


def _normalize(surface: str) -> str:
    return " ".join(surface.split()).casefold()


def _zipf(count: int) -> list[float]:
    return list(itertools.accumulate(1.0 / rank for rank in range(1, count + 1)))


def _triples_response(rng, pools) -> tuple[str, list, int]:
    """One chat completion: 4-10 triple lines, sometimes numbered, bulleted,
    fenced or led in by prose, and in 10 % of cases one malformed line.
    Returns the text, its valid triples and the number of skipped segments."""
    orgs, predicates, concepts, hot = pools
    triples = []
    for _ in range(rng.randint(4, 10)):
        if rng.random() < _HOT_SHARE:
            triples.append(rng.choices(hot[0], cum_weights=hot[1])[0])
        else:
            triples.append(
                (
                    rng.choices(orgs[0], cum_weights=orgs[1])[0],
                    rng.choice(predicates),
                    rng.choices(concepts[0], cum_weights=concepts[1])[0],
                )
            )
    style = rng.random()
    lines = []
    for index, (s, p, o) in enumerate(triples, start=1):
        line = f"{s} | {p} | {o}"
        if style < 0.25:
            line = f"{index}. {line}"
        elif style < 0.40:
            line = f"- {line}"
        lines.append(line)
    skipped = 0
    if rng.random() < 0.10:
        s, p, o = triples[0]
        malformed = rng.choice(
            (
                "No further relations are stated.",
                f"{s} | {p}",
                f"{s} | | {o}",
                f"{s} | {p} | {o} | {p}",
            )
        )
        lines.insert(rng.randrange(len(lines) + 1), malformed)
        skipped = 1
    if rng.random() < 0.20:
        lines.insert(0, rng.choice(_LEAD_INS))
    if rng.random() < 0.05:
        lines = ["```", *lines, "```"]
    return "\n".join(lines) + "\n", triples, skipped


def _generate_triples(rng: random.Random, count: int) -> tuple[list[dict], dict[str, str], dict, dict]:
    articles = _articles(rng, count, long_share=0.15)
    orgs = _distinct(lambda: f"{_word(rng, 2).title()} {rng.choice(_ORG_SUFFIXES)}", 2000)
    concepts = _distinct(
        lambda: f"{_word(rng, 2).title()} {rng.choice(_CONCEPT_HEADS)}", 3000
    )
    predicates = _distinct(lambda: f"{_word(rng, 1)} {rng.choice(('with', 'in', 'for', 'to'))}", 60)
    hot = [(rng.choice(orgs), rng.choice(predicates), rng.choice(concepts)) for _ in range(_HOT_POOL)]
    # entity mentions are Zipf-distributed too, so small corpora share entities
    pools = ((orgs, _zipf(len(orgs))), predicates, (concepts, _zipf(len(concepts))), (hot, _zipf(_HOT_POOL)))

    fixtures: dict[str, str] = {}
    surfaces: set[str] = set()
    parsed = skipped = generations = 0
    for article in articles:
        for text in _units(article["body"]):
            response, triples, bad = _triples_response(rng, pools)
            _write_fixture(fixtures, build_prompt(text, "triples"), response)
            generations += 1
            parsed += len(triples)
            skipped += bad
            for s, _, o in triples:
                surfaces.update((_normalize(s), _normalize(o)))

    lookup = {}
    for name in orgs + concepts:
        draw = rng.random()
        if draw < 0.45:
            label = name.upper() if draw < 0.05 else name
        elif draw < 0.55:
            label = f"{name} Foundation"
        else:
            continue
        iri = "http://dbpedia.org/resource/" + name.replace(" ", "_")
        lookup[_normalize(name)] = {"results": [{"uri": iri, "label": label}]}

    stages = {
        "extract": {"triplets_parsed": parsed, "segments_skipped": skipped, "failed_batches": 0},
    }
    operations = {"generations": generations, "lookups": len(surfaces)}
    return articles, fixtures, lookup, {"stages": stages, "operations": operations}


def _ontology_doc(rng, classes, properties, individuals, weights) -> tuple[list[str], dict]:
    """A valid Turtle document of about 100 statements, as lines, plus the
    terms an invalid variant can break."""
    doc_classes = rng.sample(classes, rng.randint(6, 10))
    doc_properties = rng.sample(properties, rng.randint(6, 10))
    size = rng.randint(25, 35)
    members: dict[str, str] = {}
    while len(members) < size:
        local, label = rng.choices(individuals, cum_weights=weights)[0]
        members.setdefault(local, label)
    typed = {local: rng.choice(doc_classes) for local in members}
    lines = ["@prefix ex: <http://example.org/kg#> .", ""]
    lines += [f"ex:{name} a owl:Class ." for name in doc_classes]
    lines += [f"ex:{name} a owl:ObjectProperty ." for name in doc_properties]
    lines.append("")
    for local, label in members.items():
        lines.append(f'ex:{local} a ex:{typed[local]} ;\n    rdfs:label "{label}" .')
    lines.append("")
    used: set[str] = set()
    for _ in range(rng.randint(35, 45)):
        subject, obj = rng.sample(list(members), 2)
        prop = rng.choice(doc_properties)
        used.add(prop)
        lines.append(f"ex:{subject} ex:{prop} ex:{obj} .")
    terms = {"classes": sorted(set(typed.values())), "properties": sorted(used), "members": list(members)}
    return lines, terms


def _break(rng: random.Random, lines: list[str], terms: dict, defect: str) -> str:
    """Render an invalid variant of a document: an undeclared property, an
    undeclared class, or a Turtle syntax error."""
    broken = list(lines)
    if defect == "property":
        broken.remove(f"ex:{rng.choice(terms['properties'])} a owl:ObjectProperty .")
    elif defect == "class":
        broken.remove(f"ex:{rng.choice(terms['classes'])} a owl:Class .")
    else:
        subject = rng.choice(terms["members"])
        broken.insert(rng.randrange(3, len(broken)), f"ex:{subject} ex:{rng.choice(terms['properties'])} 42 .")
    return "\n".join(broken) + "\n"


def _generate_ontology(rng: random.Random, count: int) -> tuple[list[dict], dict[str, str], dict, dict]:
    articles = _articles(rng, count, long_share=0.0)
    classes = _distinct(lambda: _word(rng, 3).title(), 40)
    properties = _distinct(lambda: _word(rng, 2) + _word(rng, 2).title(), 50)
    individuals = [
        (f"{local}{index}", f"{local.title()} {index}")
        for index, local in enumerate(_distinct(lambda: _word(rng, 3), 3000))
    ]
    weights = list(itertools.accumulate(1.0 / math.sqrt(rank) for rank in range(1, len(individuals) + 1)))

    fixtures: dict[str, str] = {}
    generations = repairs = 0
    invalid_ids = []
    # exact shares: 2 % never validate, 30 % validate after one repair
    never, repaired = round(count * 0.02), round(count * 0.30)
    outcomes = ["never"] * never + ["repaired"] * repaired + ["valid"] * (count - never - repaired)
    rng.shuffle(outcomes)
    for article, outcome in zip(articles, outcomes):
        lines, terms = _ontology_doc(rng, classes, properties, individuals, weights)
        valid = "\n".join(lines) + "\n"
        if outcome == "never":
            outputs = [_break(rng, lines, terms, defect) for defect in ("syntax", "property", "class")]
            invalid_ids.append(article["id"])
        elif outcome == "repaired":
            outputs = [_break(rng, lines, terms, rng.choice(("syntax", "property", "class"))), valid]
        else:
            outputs = [valid]
        prompt = build_prompt(article["body"], "ontology")
        for output in outputs:
            _write_fixture(fixtures, prompt, output)
            if output is valid:
                break
            _, report = validate_text(output)
            if not report.errors:
                raise RuntimeError(f"the seeded defect in {article['id']} left it valid")
            prompt = build_repair_prompt(output, report)
        generations += len(outputs)
        repairs += len(outputs) - 1

    stages = {
        "ontology": {
            "documents": count,
            "valid_documents": count - len(invalid_ids),
            "repair_attempts": repairs,
            "invalid_article_ids": invalid_ids,
        }
    }
    return articles, fixtures, {}, {"stages": stages, "operations": {"generations": generations, "lookups": 0}}


def pipeline_config(workload: str, endpoint: str | None = None) -> dict:
    """The pipeline config for a workload; paths are relative to its directory.
    triples-live needs the loopback server's base URL."""
    mode, _ = WORKLOADS[workload]
    config: dict = {
        "mode": mode,
        "corpus": "corpus.jsonl",
        "run_dir": "run",
        "batch_size": BATCH_SIZE,
        "quality": {"conciseness_max_tokens": 4},
        "export": {"formats": ["dot", "graphml", "json"], "max_nodes": 150},
    }
    backend = {"model_name": MODEL, "temperature": TEMPERATURE, "max_input_tokens": MAX_INPUT_TOKENS}
    if workload == "triples-live":
        backend.update(backend_id="live-chat", kind="chat_triples", endpoint=f"{endpoint}/v1/chat/completions")
        config.update(workers=2, rate_limit_per_second=None)
        config["linking"] = {"endpoint": f"{endpoint}/lookup", "cache_path": "link_cache.json"}
    elif mode == "triples":
        backend.update(backend_id="replay-chat", kind="replay", fixtures_dir="fixtures", replay_mode="triples")
        config["linking"] = {"fixture_file": "lookup.json", "cache_path": "link_cache.json"}
    else:
        backend.update(backend_id="replay-onto", kind="replay", fixtures_dir="fixtures", replay_mode="ontology")
        config["max_repair_attempts"] = MAX_REPAIR_ATTEMPTS
    config["backend_id"] = backend["backend_id"]
    config["backends"] = [backend]
    return config


def write_config(directory: Path, workload: str, endpoint: str | None = None) -> Path:
    path = directory / "config.json"
    path.write_text(json.dumps(pipeline_config(workload, endpoint), indent=2, sort_keys=True) + "\n")
    return path


def generate(workload: str, seed: int, directory: Path) -> dict:
    """Write one workload's inputs into ``directory`` and return its expectations."""
    mode, count = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    make = _generate_triples if mode == "triples" else _generate_ontology
    articles, fixtures, lookup, expected = make(rng, count)

    tokens = [len(article["body"].split()) for article in articles]
    expected["stages"]["corpus"] = {"articles": count, "empty_bodies": 0}
    expected["stages"]["chunk"] = {"batches": sum(math.ceil(n / BATCH_SIZE) for n in tokens)}
    expected.update(workload=workload, seed=seed, articles=count)

    shutil.rmtree(directory, ignore_errors=True)
    (directory / "fixtures").mkdir(parents=True)
    with (directory / "corpus.jsonl").open("w", encoding="utf-8") as handle:
        for article in articles:
            handle.write(json.dumps(article) + "\n")
    for key, text in fixtures.items():
        (directory / "fixtures" / f"{key}.txt").write_text(text, encoding="utf-8")
    (directory / "lookup.json").write_text(json.dumps(lookup, sort_keys=True), encoding="utf-8")
    if workload != "triples-live":
        write_config(directory, workload)
    (directory / "expected.json").write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
    return expected
