"""Turtle-subset parser, serializer, OWL declaration checks, repair prompts.

The accepted subset covers what flat generated ontologies use: @prefix
directives, IRIs in angle brackets, prefixed names, the `a` keyword,
predicate lists with `;`, object lists with `,`, `.` terminators, string
literals with optional language tags, and `#` comments. Blank nodes,
collections, multiline and typed literals, numbers, and @base are outside
the subset and produce a located ParseError instead of a guess.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable

from .errors import TextkgError
from .extraction import Provenance, Triplet
from .kgstore import KnowledgeBase

RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"
OWL_NS = "http://www.w3.org/2002/07/owl#"
XSD_NS = "http://www.w3.org/2001/XMLSchema#"
STANDARD_NAMESPACES = (RDF_NS, RDFS_NS, OWL_NS, XSD_NS)

DEFAULT_PREFIXES = {"rdf": RDF_NS, "rdfs": RDFS_NS, "owl": OWL_NS, "xsd": XSD_NS}

RDF_TYPE = RDF_NS + "type"
RDFS_LABEL = RDFS_NS + "label"
_CLASS_TYPES = (OWL_NS + "Class", RDFS_NS + "Class")
_OBJECT_PROPERTY = OWL_NS + "ObjectProperty"
_DATA_PROPERTY_TYPES = (OWL_NS + "DatatypeProperty", OWL_NS + "AnnotationProperty")
_NAMED_INDIVIDUAL = OWL_NS + "NamedIndividual"
_ONTOLOGY = OWL_NS + "Ontology"

_LOCAL_RE = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_-]*\Z")
_PREFIX_RE = re.compile(r"[A-Za-z][A-Za-z0-9_-]*\Z")


class NoErrorsError(TextkgError):
    """A repair prompt was requested for a report with no errors."""


class InvalidDocError(TextkgError):
    """An ontology with validation errors was passed where a valid one is required."""


@dataclass(frozen=True)
class Literal:
    text: str
    lang: str | None = None


@dataclass(frozen=True)
class Issue:
    code: str
    message: str
    location: str = ""

    def to_dict(self) -> dict:
        return {"code": self.code, "message": self.message, "location": self.location}


@dataclass
class ValidationReport:
    errors: list[Issue] = field(default_factory=list)
    warnings: list[Issue] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def to_dict(self) -> dict:
        return {
            "errors": [issue.to_dict() for issue in self.errors],
            "warnings": [issue.to_dict() for issue in self.warnings],
        }


@dataclass
class OntologyDoc:
    """Parsed ontology content. All IRIs are stored fully expanded; labels
    holds rdfs:label text per IRI (first label wins)."""

    prefixes: dict[str, str] = field(default_factory=dict)
    classes: set[str] = field(default_factory=set)
    object_properties: set[str] = field(default_factory=set)
    data_properties: set[str] = field(default_factory=set)
    individuals: set[str] = field(default_factory=set)
    class_assertions: set[tuple[str, str]] = field(default_factory=set)
    property_assertions: set[tuple[str, str, str | Literal]] = field(default_factory=set)
    labels: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        self.prefixes = {**DEFAULT_PREFIXES, **self.prefixes}


def local_name(iri: str) -> str:
    """Fragment after '#', else the last path segment, else the IRI itself."""
    for separator in ("#", "/", ":"):
        head, found, tail = iri.rpartition(separator)
        if found and tail:
            return tail
    return iri


def _is_standard(iri: str) -> bool:
    return iri.startswith(STANDARD_NAMESPACES)


def _entity_label(doc: OntologyDoc, iri: str) -> str:
    """An IRI's KB label: its rdfs:label text unless blank, else its local name."""
    label = doc.labels.get(iri, "")
    return label if label.strip() else local_name(iri)


# ---------------------------------------------------------------------------
# Tokenizer
#
# A token is one match of _TOKEN_RE. Its kind is the name of the alternative
# that matched (match.lastgroup) and its offset is match.start(kind), past the
# whitespace and comments the match also spans. Line and column are worked
# out from the offset only when an error is reported. Kinds:
# prefix_directive, iri, pname, a, string, dot, semi, comma and eof.


def _location(text: str, offset: int) -> str:
    line = text.count("\n", 0, offset) + 1
    column = offset - text.rfind("\n", 0, offset)
    return f"line {line}, column {column}"


class _ParseAbort(Exception):
    """A subset violation, raised as _ParseAbort(message, offset in the text)."""


_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t"}
_ESCAPE_RE = re.compile(r"\\(.)")
_SKIP = r"[ \t\r\n]*(?:\#[^\n]*\n[ \t\r\n]*)*"
_SKIP_RE = re.compile(_SKIP)
_STRING_BODY = r"""(?:[^"\\\n]|\\["\\nrt])*"""
_STRING_BODY_RE = re.compile(_STRING_BODY)
_WORD_RE = re.compile(r"[A-Za-z0-9_-]*")
# Whitespace and comments, then one token. Where the regex stops,
# _token_error names the violation; a string followed by '^^' or by an empty
# language tag does not match at all, so that error is found from its opening
# quote. '@prefix' followed by a letter is refused in _tokenize, since
# str.isalpha has no regex class. A comment that runs to the end of input
# belongs to the eof token, which then sits at the '#'.
_TOKEN_RE = re.compile(
    _SKIP
    + r"""(?:
        (?P<pname>(?P<pfx>(?:[A-Za-z]|_(?!:))[A-Za-z0-9_-]*|):(?P<local>[A-Za-z0-9_-]*))
      | (?P<dot>\.)
      | (?P<semi>;)
      | (?P<string>"(?!"")(?P<body>"""
    + _STRING_BODY
    + r""")"(?:@(?P<lang>(?:[^\W_]|-)+)|(?!@|\^\^)))
      | (?P<iri><(?P<ref>[^>\n]*)>)
      | (?P<a>a(?![A-Za-z0-9_:-]))
      | (?P<comma>,)
      | (?P<prefix_directive>@prefix)
      | (?P<eof>(?:\#[^\n]*)?\Z)
    )""",
    re.VERBOSE,
)


def _tokenize(text: str) -> list[re.Match]:
    """Every token of text up to and including eof, so that a token error
    anywhere in the document is raised before any of it is parsed."""
    tokens: list[re.Match] = []
    match = None
    for match in iter(_TOKEN_RE.scanner(text).match, None):
        tokens.append(match)
        kind = match.lastgroup
        if kind == "eof":
            return tokens
        if kind == "prefix_directive" and text[match.end() : match.end() + 1].isalpha():
            raise _token_error(text, match.start(kind))
    # the scan stopped before the end: name what starts after the last token
    raise _token_error(text, _SKIP_RE.match(text, match.end() if match else 0).end())


def _token_error(text: str, pos: int) -> _ParseAbort:
    """Name the subset violation that starts at ``pos``."""
    char, following = text[pos], text[pos + 1 : pos + 2]
    if char == "<":
        return _ParseAbort("unterminated IRI reference", pos)
    if char == '"':
        if text.startswith('"""', pos):
            return _ParseAbort("multiline literals are not supported", pos)
        end = _STRING_BODY_RE.match(text, pos + 1).end()
        stop = text[end : end + 1]
        if stop == "\\":
            if end + 1 == len(text):
                return _ParseAbort("dangling escape at end of input", end)
            return _ParseAbort(f"unsupported escape '\\{text[end + 1]}'", end)
        if stop != '"':
            return _ParseAbort("unterminated string literal", pos)
        if text.startswith("^^", end + 1):
            return _ParseAbort("typed literals are not supported", end + 1)
        return _ParseAbort("empty language tag", end + 2)
    if char == "@":
        end = pos + 1
        while end < len(text) and text[end].isalpha():
            end += 1
        word = text[pos + 1 : end]
        message = "@base is not supported" if word == "base" else f"unknown directive '@{word}'"
        return _ParseAbort(message, pos)
    if char in "[]" or (char == "_" and following == ":"):
        return _ParseAbort("blank nodes are not supported", pos)
    if char in "()":
        return _ParseAbort("collections are not supported", pos)
    if char.isdigit() or (char in "+-" and following.isdigit()):
        return _ParseAbort("numeric literals are not supported", pos)
    word = _WORD_RE.match(text, pos)[0] if char.isalpha() or char == "_" else ""
    return _ParseAbort(f"unexpected word {word!r}" if word else f"unexpected character {char!r}", pos)


# ---------------------------------------------------------------------------
# Parser


def _expected(token: re.Match, what: str) -> _ParseAbort:
    """The error for a token that is not the ``what`` the grammar needs there."""
    kind = token.lastgroup
    if kind == "eof":
        found = "end of input"
    elif kind == "string":
        found = "a string literal"
    else:
        found = f"'{token['ref' if kind == 'iri' else kind]}'"
    return _ParseAbort(f"expected {what}, found {found}", token.start(kind))


def _record(doc: OntologyDoc, subject: str, predicate: str, obj: str | Literal) -> None:
    is_typing = predicate == RDF_TYPE or (predicate.endswith("instanceOf") and local_name(predicate) == "instanceOf")
    if is_typing and isinstance(obj, str):
        if obj in _CLASS_TYPES:
            doc.classes.add(subject)
        elif obj == _OBJECT_PROPERTY:
            doc.object_properties.add(subject)
        elif obj in _DATA_PROPERTY_TYPES:
            doc.data_properties.add(subject)
        elif obj == _NAMED_INDIVIDUAL:
            doc.individuals.add(subject)
        elif obj == _ONTOLOGY:
            pass
        else:
            doc.class_assertions.add((subject, obj))
            doc.individuals.add(subject)
        return
    if predicate == RDFS_LABEL and isinstance(obj, Literal):
        doc.labels.setdefault(subject, obj.text)
        return
    doc.property_assertions.add((subject, predicate, obj))


def parse_turtle(text: str) -> OntologyDoc | ValidationReport:
    """Parse Turtle-subset text; syntax problems come back as a report.

    Undefined prefixes are collected across the whole document; any other
    violation of the subset stops at the first offense with its line and
    column.
    """
    doc = OntologyDoc()
    prefixes = doc.prefixes
    undeclared: dict[str, int] = {}  # prefix -> offset of its first use

    def resolve(token: re.Match) -> str | None:
        """The full IRI that token names, or None if it is not an IRI or a prefixed name."""
        kind = token.lastgroup
        if kind == "iri":
            return token["ref"]
        if kind != "pname":
            return None
        prefix, local = token.group("pfx", "local")
        base = prefixes.get(prefix)
        if base is None:
            undeclared.setdefault(prefix, token.start("pname"))
            return f"urn:undeclared:{prefix}:{local}"
        return base + local

    # Each pass of the outer loop reads one directive or statement through
    # its '.'. Every place that can read the eof token ends the loop or
    # raises, so next() never runs past it.
    try:
        tokens = iter(_tokenize(text))
        for token in tokens:
            kind = token.lastgroup
            if kind == "eof":
                break
            if kind == "prefix_directive":
                name = next(tokens)
                if name.lastgroup != "pname":
                    raise _expected(name, "a prefix name like 'ex:'")
                prefix, local = name.group("pfx", "local")
                if local:
                    raise _ParseAbort(
                        f"prefix declaration must end with ':', got '{prefix}:{local}'", name.start("pname")
                    )
                namespace = next(tokens)
                if namespace.lastgroup != "iri":
                    raise _expected(namespace, "an IRI in angle brackets")
                end = next(tokens)
                if end.lastgroup != "dot":
                    raise _expected(end, "'.'")
                prefixes[prefix] = namespace["ref"]
                continue
            subject = resolve(token)
            if subject is None:
                raise _expected(token, "a subject IRI")
            verb = next(tokens)
            while True:
                predicate = RDF_TYPE if verb.lastgroup == "a" else resolve(verb)
                if predicate is None:
                    raise _expected(verb, "a predicate")
                while True:
                    token = next(tokens)
                    obj: str | Literal | None = resolve(token)
                    if obj is None:
                        if token.lastgroup != "string":
                            raise _expected(token, "an object")
                        body, lang = token.group("body", "lang")
                        if "\\" in body:
                            body = _ESCAPE_RE.sub(lambda escape: _ESCAPES[escape[1]], body)
                        obj = Literal(body, lang)
                    _record(doc, subject, predicate, obj)
                    token = next(tokens)
                    if token.lastgroup != "comma":
                        break
                if token.lastgroup == "dot":
                    break
                if token.lastgroup != "semi":
                    raise _expected(token, "';', ',' or '.'")
                verb = next(tokens)
                # tolerate a trailing ';' before the final '.'
                if verb.lastgroup == "dot":
                    break
    except _ParseAbort as abort:
        message, offset = abort.args
        return ValidationReport(errors=[Issue("ParseError", message, _location(text, offset))])
    errors = [
        Issue("UndefinedPrefix", f"prefix '{prefix}:' is used but never declared", _location(text, offset))
        for prefix, offset in undeclared.items()
    ]
    return ValidationReport(errors=errors) if errors else doc


# ---------------------------------------------------------------------------
# Serializer


def _compact(iri: str, prefixes: dict[str, str]) -> str:
    best: tuple[int, str, str] | None = None
    for prefix, base in prefixes.items():
        if base and iri.startswith(base):
            local = iri[len(base):]
            if _LOCAL_RE.match(local) and (prefix == "" or _PREFIX_RE.match(prefix)):
                if best is None or len(base) > best[0]:
                    best = (len(base), prefix, local)
    if best is not None:
        return f"{best[1]}:{best[2]}"
    return f"<{iri}>"


def _quote(literal: Literal) -> str:
    text = (
        literal.text.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
        .replace("\r", "\\r")
        .replace("\t", "\\t")
    )
    suffix = f"@{literal.lang}" if literal.lang else ""
    return f'"{text}"{suffix}'


def _object_key(obj: str | Literal) -> tuple:
    if isinstance(obj, Literal):
        return ("literal", obj.text, obj.lang or "")
    return ("iri", obj, "")


def serialize_turtle(doc: OntologyDoc) -> str:
    """Emit the document in the same subset with fully deterministic ordering."""
    prefixes = doc.prefixes
    compacted: dict[str, str] = {}

    def compact(iri: str) -> str:
        # each distinct IRI is compacted once per call
        if iri not in compacted:
            compacted[iri] = _compact(iri, prefixes)
        return compacted[iri]

    sections: list[list[str]] = []

    # vocabulary terms go through compaction too: a document may rebind the
    # owl:/rdfs: prefixes, in which case the full IRI form is emitted
    owl_class = compact(OWL_NS + "Class")
    object_property = compact(_OBJECT_PROPERTY)
    datatype_property = compact(OWL_NS + "DatatypeProperty")
    named_individual = compact(_NAMED_INDIVIDUAL)
    rdfs_label = compact(RDFS_LABEL)

    sections.append([f"@prefix {prefix}: <{base}> ." for prefix, base in sorted(prefixes.items())])
    sections.append([f"{compact(iri)} a {owl_class} ." for iri in sorted(doc.classes)])
    sections.append([f"{compact(iri)} a {object_property} ." for iri in sorted(doc.object_properties)])
    sections.append([f"{compact(iri)} a {datatype_property} ." for iri in sorted(doc.data_properties)])
    # individuals with a class assertion are re-typed by it on re-parse
    asserted = {individual for individual, _ in doc.class_assertions}
    sections.append(
        [f"{compact(iri)} a {named_individual} ." for iri in sorted(doc.individuals - asserted)]
    )
    sections.append(
        [f"{compact(ind)} a {compact(cls)} ." for ind, cls in sorted(doc.class_assertions)]
    )
    sections.append(
        [f"{compact(iri)} {rdfs_label} {_quote(Literal(text))} ." for iri, text in sorted(doc.labels.items())]
    )
    sections.append(
        [
            f"{compact(s)} {compact(p)} "
            + (_quote(o) if isinstance(o, Literal) else compact(o))
            + " ."
            for s, p, o in sorted(doc.property_assertions, key=lambda a: (a[0], a[1], _object_key(a[2])))
        ]
    )
    return "\n\n".join("\n".join(section) for section in sections if section) + "\n"


# ---------------------------------------------------------------------------
# Validation


def validate_owl(doc: OntologyDoc) -> ValidationReport:
    """Declaration hygiene: every used property/class declared, individuals typed,
    and no term or literal object that would be blank in the KB.

    Terms from the standard RDF/RDFS/OWL/XSD namespaces are exempt. One error
    per distinct offending IRI; untyped individuals are warnings.
    """
    report = ValidationReport()
    declared_properties = doc.object_properties | doc.data_properties
    used_properties = sorted({predicate for _, predicate, _ in doc.property_assertions})
    for predicate in used_properties:
        if predicate not in declared_properties and not _is_standard(predicate):
            report.errors.append(
                Issue(
                    "UndeclaredProperty",
                    f"property {_compact(predicate, doc.prefixes)} is used in an assertion but never declared",
                    _compact(predicate, doc.prefixes),
                )
            )
    used_classes = sorted({cls for _, cls in doc.class_assertions})
    for cls in used_classes:
        if cls not in doc.classes and not _is_standard(cls):
            report.errors.append(
                Issue(
                    "UndeclaredClass",
                    f"class {_compact(cls, doc.prefixes)} is used in a typing but never declared",
                    _compact(cls, doc.prefixes),
                )
            )
    referenced = {subject for subject, _, _ in doc.property_assertions}
    referenced.update(obj for _, _, obj in doc.property_assertions if isinstance(obj, str))
    # a local name can be blank only where the IRI is empty or ends in whitespace
    entities = (*doc.classes, *doc.individuals, *referenced)
    blank = {iri for iri in entities if (not iri or iri[-1].isspace()) and not _entity_label(doc, iri).strip()}
    blank.update(p for p in used_properties if (not p or p[-1].isspace()) and not local_name(p).strip())
    for iri in sorted(blank):
        term = _compact(iri, doc.prefixes)
        report.errors.append(Issue("BlankLabel", f"{term} would have a blank KB label: its local name is blank", term))
    literals = {(s, p) for s, p, obj in doc.property_assertions if isinstance(obj, Literal) and not obj.text.strip()}
    for subject, predicate in sorted(literals):
        term = f"{_compact(subject, doc.prefixes)} {_compact(predicate, doc.prefixes)}"
        report.errors.append(Issue("BlankLiteral", f"{term} has a blank literal object", term))
    typed = doc.individuals | doc.classes | declared_properties
    for iri in sorted(referenced):
        if iri not in typed and not _is_standard(iri):
            report.warnings.append(
                Issue(
                    "UntypedIndividual",
                    f"{_compact(iri, doc.prefixes)} appears in assertions but is never given a type",
                    _compact(iri, doc.prefixes),
                )
            )
    return report


def validate_text(text: str) -> tuple[OntologyDoc | None, ValidationReport]:
    """Parse then validate; returns (doc or None, combined report)."""
    parsed = parse_turtle(text)
    if isinstance(parsed, ValidationReport):
        return None, parsed
    return parsed, validate_owl(parsed)


# ---------------------------------------------------------------------------
# Repair loop


def build_repair_prompt(previous_output: str, report: ValidationReport) -> str:
    """Deterministic prompt asking the model to fix the enumerated errors."""
    if not report.errors:
        raise NoErrorsError("the report has no errors, nothing to repair")
    lines = ["The RDF Turtle document below failed validation.", "", "Errors:"]
    for index, issue in enumerate(report.errors, start=1):
        location = f" at {issue.location}" if issue.location else ""
        lines.append(f"{index}. [{issue.code}]{location}: {issue.message}")
    lines += [
        "",
        "Fix every error listed and return the corrected document in RDF Turtle format only, with no commentary.",
        "",
        "Previous output:",
        previous_output,
    ]
    return "\n".join(lines)


@dataclass
class RepairAttempt:
    output: str
    report: ValidationReport


def repair_until_valid(
    initial_prompt: str,
    complete: Callable[[str], str],
    max_attempts: int = 3,
) -> tuple[OntologyDoc | None, list[RepairAttempt]]:
    """Generate, validate, and re-prompt until valid or attempts run out.

    max_attempts counts generations including the first one. Returns the
    accepted document (None if every attempt failed) and the full attempt
    history.
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be at least 1")
    attempts: list[RepairAttempt] = []
    prompt = initial_prompt
    for _ in range(max_attempts):
        output = complete(prompt)
        doc, report = validate_text(output)
        attempts.append(RepairAttempt(output, report))
        if doc is not None and report.ok:
            return doc, attempts
        prompt = build_repair_prompt(output, report)
    return None, attempts


# ---------------------------------------------------------------------------
# Conversion


def ontology_to_kb(doc: OntologyDoc, *, source_id: str, backend_id: str = "ontology") -> KnowledgeBase:
    """Flatten a valid ontology into KB triples.

    Class assertions become (individual, "instanceOf", class) and property
    assertions become (subject, property local name, object). Entity labels
    prefer rdfs:label text and fall back to the IRI's local name; predicates
    always use local names. Distinct assertions whose labels coincide merge
    under the store's dedup rule.
    """
    report = validate_owl(doc)
    if report.errors:
        raise InvalidDocError(
            f"document has {len(report.errors)} validation error(s); repair it first"
        )
    # every named IRI's KB label, resolved once however many assertions name it
    named = {*doc.classes, *doc.individuals, *(cls for _, cls in doc.class_assertions)}
    named.update(subject for subject, _, _ in doc.property_assertions)
    named.update(obj for _, _, obj in doc.property_assertions if isinstance(obj, str))
    labels = {iri: _entity_label(doc, iri) for iri in named}
    kb = KnowledgeBase()
    for iri in doc.classes | doc.individuals:
        kb.add_entity(labels[iri])
    provenance = Provenance(source_id, None, backend_id)
    for individual, cls in sorted(doc.class_assertions):
        kb.add_triple(Triplet(labels[individual], "instanceOf", labels[cls], provenance))
    predicates = {predicate: local_name(predicate) for predicate in {p for _, p, _ in doc.property_assertions}}
    for subject, predicate, obj in sorted(
        doc.property_assertions, key=lambda a: (a[0], a[1], _object_key(a[2]))
    ):
        object_label = obj.text if isinstance(obj, Literal) else labels[obj]
        kb.add_triple(Triplet(labels[subject], predicates[predicate], object_label, provenance))
    return kb
