"""Splitting a reader's input into blocks changes nothing.

Every reader takes its text as a str or as an iterable of text blocks, the
way the command line feeds it a file decoded a block at a time.  For seeded
valid inputs and one-line mutations of them, each reader must return the
same value, or raise the same FormatError at the same line, for the whole
text and for the same text cut into blocks of 1, 2, 3, 7 and 65,536
characters.  This is the oracle that no message or error order moves with
the block edges.
"""

import functools
import random

import pytest

from gen import rand_annotation, rand_lemma, rand_lexicon, rand_observed_frame, rand_records
from valex import markup
from valex.checker import parse_corpus, serialize_corpus
from valex.errors import FormatError
from valex.freq import FrequencyTable, lemma_counts, parse_frequency_table
from valex.lexicon import parse_lexicon, serialize_lexicon
from valex.mining import parse_records, serialize_records
from valex.passage import parse_passage, serialize_passage

SIZES = [1, 2, 3, 7, 65_536]
MULTIBYTE = ["é", "œ", "ß", "€", "\u2028", "\U0001f600", "\U0010fffd"]


def lexicon_text(rng):
    return "".join(serialize_lexicon(rand_lexicon(rng, rng.randint(2, 5))))


def corpus_text(rng):
    entries = [e for group in rand_lexicon(rng, 4).entries.values() for e in group]
    return "".join(serialize_corpus([
        (f"s{k}", [rand_observed_frame(rng, rng.choice(entries)) for _ in range(rng.randint(1, 3))])
        for k in range(rng.randint(2, 8))
    ]))


def records_text(rng):
    return "".join(serialize_records(rand_records(rng, 12)))


FORMS = [f"f{k}" for k in range(12)]


def frequency_text(rng):
    return "".join(f"{form}\t{rng.randint(0, 99)}\n" for form in rng.sample(FORMS, rng.randint(2, 12)))


def lemma_map_text(rng):
    return "".join(f"{form}\t{rand_lemma(rng)[:2]}\n" for form in rng.sample(FORMS, rng.randint(2, 12)))


def passage_text(rng):
    return serialize_passage([rand_annotation(rng, f"s{k}", 3) for k in range(rng.randint(2, 6))])


# the lemma map is read against one table, which lacks some of its forms and has some it lacks
TABLE = FrequencyTable({form: k for k, form in enumerate(FORMS[2:] + ["g0"])})

# (generator of a valid text, reader) of each format
FORMATS = {
    "lexicon": (lexicon_text, parse_lexicon),
    "corpus": (corpus_text, parse_corpus),
    "records": (records_text, parse_records),
    "frequency table": (frequency_text, parse_frequency_table),
    "lemma map": (lemma_map_text, functools.partial(lemma_counts, TABLE)),
    "passage": (passage_text, parse_passage),
}


def _bom(rng, lines):
    lines[0] = "\ufeff" + lines[0]


def _crlf(rng, lines):
    k = rng.randrange(len(lines) - 1)  # not the last, which no LF ends
    lines[k] += "\r"


def _crlf_everywhere(rng, lines):
    lines[:-1] = [line + "\r" for line in lines[:-1]]


def _insert(pieces):
    def mutate(rng, lines):
        k = rng.randrange(len(lines))
        at = rng.randint(0, len(lines[k]))
        lines[k] = lines[k][:at] + rng.choice(pieces) + lines[k][at:]
    return mutate


def _duplicate_line(rng, lines):
    k = rng.randrange(len(lines))
    lines.insert(k, lines[k])


def _duplicate_id(rng, lines):
    heads = [k for k, line in enumerate(lines) if line.startswith("<S ")]
    if len(heads) > 1:
        lines[rng.choice(heads[1:])] = lines[heads[0]]
    else:
        _duplicate_line(rng, lines)


def _leave_the_shape(rng, lines):
    """A sentence partway that expat reads and the line matcher does not."""
    heads = [k for k, line in enumerate(lines) if line.startswith("<S ")]
    if heads:
        k = rng.choice(heads[1:] or heads)
        lines[k] = rng.choice([lines[k].replace(' full="yes"', "").replace(' full="no"', ""),
                               lines[k].replace("<S ", "<S  "), "<!-- c -->\n" + lines[k]])
    else:
        _insert(["#", "\t"])(rng, lines)


def _drop_final_lf(rng, lines):
    if len(lines) > 1 and lines[-1] == "":
        lines.pop()


def _blank_line(rng, lines):
    lines.insert(rng.randrange(len(lines)), rng.choice(["", "# c", " \t"]))


def _cut_line(rng, lines):
    k = rng.randrange(len(lines))
    lines[k] = lines[k][:rng.randint(0, len(lines[k]))]


MUTATIONS = {
    "none": lambda rng, lines: None,
    "bom": _bom,
    "crlf": _crlf,
    "crlf everywhere": _crlf_everywhere,
    "lone cr": _insert(["\r"]),
    "multibyte": _insert(MULTIBYTE),
    "duplicate id": _duplicate_id,
    "leaves the shape": _leave_the_shape,
    "no final lf": _drop_final_lf,
    "blank or comment line": _blank_line,
    "cut line": _cut_line,
}


def outcome(read, text):
    """What read makes of text: the value and, for annotations, which items
    are one object; or the FormatError's message and line."""
    try:
        value = read(text)
    except FormatError as exc:
        return "refused", exc.message, exc.line
    if read is parse_passage:
        items = [x for a in value for x in a.constituents + a.relations]
        first: dict[int, int] = {}
        return "read", value, [first.setdefault(id(x), k) for k, x in enumerate(items)]
    return "read", value


@pytest.mark.parametrize("name", FORMATS)
def test_blocks_read_as_the_whole_text(name):
    check_blocks(name)


def test_passage_read_as_the_whole_text_when_expat_takes_long_sentences(monkeypatch):
    # the line matcher hands a sentence longer than _LONGEST, and the rest, to expat
    monkeypatch.setattr(markup, "_LONGEST", 100)
    check_blocks("passage")


def check_blocks(name):
    generate, read = FORMATS[name]
    rng = random.Random(f"blocks {name}")
    seen = {"read": 0, "refused": 0}
    for mutation in MUTATIONS.values():
        for _ in range(20):
            lines = generate(rng).split("\n")
            mutation(rng, lines)
            text = "\n".join(lines)
            whole = outcome(read, text)
            seen[whole[0]] += 1
            for size in SIZES:
                blocks = [text[start:start + size] for start in range(0, len(text), size)]
                assert outcome(read, iter(blocks)) == whole, (size, text)
    # the mutations reach both outcomes often enough to mean something
    assert min(seen.values()) > 10, seen
