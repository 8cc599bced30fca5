"""One round-trip property for every writer that has a reader.

Each format has its own seeded generator here, apart from the shared ones in
gen.py, and mixes into every free-text field the characters that have broken
a format before: line-break look-alikes, the separators of every format,
markup characters, C0 controls, lone surrogates, non-BMP characters and the
empty string.  For every value drawn, either its construction or its writer
raises ValueError, or the writer's text parses back equal.
"""

import random

import pytest

from gen import LINE_BREAK_LOOKALIKES
from valex.checker import ObservedFrame, parse_corpus, serialize_corpus
from valex.lexicon import (
    Category,
    FunctionSlot,
    LexicalEntry,
    Lexicon,
    Marker,
    Realization,
    Redistribution,
    SyntacticFunction,
    parse_lexicon,
    serialize_lexicon,
)
from valex.mining import (
    SentenceRecord,
    parse_records,
    serialize_records,
)
from valex.passage import (
    Constituent,
    ConstituentType,
    Relation,
    RelationType,
    SentenceAnnotation,
    parse_passage,
    serialize_passage,
)

SEPARATORS = ["#", ",", ";", ":", "|", ")", "(", "<", "&", "'", '"', "]]>", "?"]
CONTROLS = [chr(c) for c in range(0x20)]  # tab, LF and CR among them
SURROGATES = ["\ud800", "\udbff", "\udc00", "\udfff"]
NON_BMP = ["\U0001d518", "\U0001f600", "\U0010fffd"]
TRICKY = LINE_BREAK_LOOKALIKES + SEPARATORS + CONTROLS + SURROGATES + NON_BMP + ["\ufffe", "\uffff"]
PLAIN = ["a", "de", "sur", "é", "ß", " ", "x1", "Z"]  # "Z" breaks the lowercase rules


def field(rng: random.Random) -> str:
    """A free-text value: empty one time in ten, else up to four pieces,
    each plain or tricky."""
    if rng.random() < 0.1:
        return ""
    return "".join(rng.choice(TRICKY if rng.random() < 0.3 else PLAIN) for _ in range(rng.randint(1, 4)))


def key(rng: random.Random) -> str:
    """A sentence or entry id: a free-text value, or one of two that repeat."""
    return rng.choice(["s1", "s2"]) if rng.random() < 0.3 else field(rng)


def realization(rng: random.Random) -> Realization:
    if rng.random() < 0.5:
        return Realization(Marker.PP, field(rng))
    return Realization(rng.choice([m for m in Marker if m is not Marker.PP]))


def lexicon(rng: random.Random) -> Lexicon:
    entries = []
    for _ in range(rng.randint(1, 4)):
        coded = rng.random() < 0.7
        functions = rng.sample(list(SyntacticFunction), rng.randint(0, 3))
        entries.append(LexicalEntry(
            lemma=field(rng),
            category=rng.choice(list(Category)),
            entry_id=key(rng),
            frame=tuple(FunctionSlot(f, {realization(rng) for _ in range(rng.randint(1, 2))},
                                     coded and rng.random() < 0.3) for f in functions),
            redistributions={Redistribution.ACTIVE} | set(rng.sample(list(Redistribution), rng.randint(0, 2))),
            coded=coded,
            provenance=tuple((field(rng), field(rng)) for _ in range(rng.randint(1, 2))),
            examples=tuple(field(rng) for _ in range(rng.randint(0, 2))),
        ))
    return Lexicon.from_entries(entries)


def corpus(rng: random.Random) -> list:
    return [
        (key(rng), [
            ObservedFrame(
                field(rng),
                {(f, realization(rng)) for f in rng.sample(list(SyntacticFunction), rng.randint(0, 3))},
                rng.choice(list(Redistribution)),
            )
            for _ in range(rng.randint(1, 2))
        ])
        for _ in range(rng.randint(1, 3))
    ]


def records(rng: random.Random) -> list:
    return [
        SentenceRecord(key(rng), tuple(field(rng) for _ in range(rng.randint(1, 3))), rng.random() < 0.5)
        for _ in range(rng.randint(1, 3))
    ]


def annotations(rng: random.Random) -> list:
    drawn = []
    for _ in range(rng.randint(0, 3)):
        n = rng.randint(1, 4)
        spans = [(s, rng.randint(s + 1, n)) for s in (rng.randrange(n) for _ in range(rng.randint(0, 2)))]
        pairs = [rng.sample(range(n), 2) for _ in range(rng.randint(0, 2) if n > 1 else 0)]
        drawn.append(SentenceAnnotation(
            key(rng),
            tuple(field(rng) for _ in range(n)),
            tuple(Constituent(rng.choice(list(ConstituentType)), s, e) for s, e in spans),
            tuple(Relation(rng.choice(list(RelationType)), s, t) for s, t in pairs),
            rng.random() < 0.5,
        ))
    return drawn


# (generator, writer, reader) of each format
FORMATS = {
    "lexicon": (lexicon, serialize_lexicon, parse_lexicon),
    "corpus": (corpus, serialize_corpus, parse_corpus),
    "records": (records, serialize_records, parse_records),
    "passage": (annotations, serialize_passage, parse_passage),
}


@pytest.mark.parametrize("name", FORMATS)
def test_what_a_writer_accepts_reads_back_equal(name):
    generate, write, read = FORMATS[name]
    rng = random.Random(f"round trip {name}")
    outcomes = {"refused": 0, "read back": 0}
    for _ in range(3000):
        try:
            value = generate(rng)
            text = write(value)
        except ValueError:
            outcomes["refused"] += 1
            continue
        assert read(text) == value, text
        outcomes["read back"] += 1
    # the generator reaches both outcomes often enough to mean something
    assert min(outcomes.values()) > 200, outcomes
