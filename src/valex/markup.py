"""Annotation model and markup of parsed sentences.

Sentences are annotated with six constituent types over half-open token
spans and fourteen typed dependency relations between token positions.
The markup is a small XML dialect:

    <S id="E1" full="yes">
      <W ix="0">token</W> ...
      <G type="GN" start="0" end="2"/> ...
      <R type="SUJ-V" src="1" tgt="3"/> ...
    </S>

parse_passage reads it, whole or a block at a time, iter_passage a sentence
at a time; serialize_passage writes it; valex.passage scores it.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from itertools import chain
from typing import Generator, Iterable, Iterator, Sequence
from xml.parsers.expat import ExpatError, ParserCreate

from .errors import BLOCK, FormatError, Vocabulary, text_blocks


class ConstituentType(Vocabulary):
    GN = "GN"
    NV = "NV"
    GA = "GA"
    GR = "GR"
    GP = "GP"
    PV = "PV"


class RelationType(Vocabulary):
    SUJ_V = "SUJ-V"
    AUX_V = "AUX-V"
    COD_V = "COD-V"
    CPL_V = "CPL-V"
    MOD_V = "MOD-V"
    COMP = "COMP"
    ATB_SO = "ATB-SO"
    MOD_N = "MOD-N"
    MOD_A = "MOD-A"
    MOD_R = "MOD-R"
    MOD_P = "MOD-P"
    COORD = "COORD"
    APPOS = "APPOS"
    JUXT = "JUXT"


@dataclass(frozen=True, slots=True)
class Constituent:
    """A typed, half-open token span [start, end)."""

    ctype: ConstituentType
    start: int
    end: int

    def __post_init__(self):
        if self.start < 0 or self.start >= self.end:
            raise ValueError(f"invalid span [{self.start}, {self.end})")


@dataclass(frozen=True, slots=True)
class Relation:
    """A typed dependency between two distinct token positions."""

    rtype: RelationType
    source: int
    target: int

    def __post_init__(self):
        if self.source == self.target:
            raise ValueError(f"{self.rtype.value} relation with source == target")
        if self.source < 0 or self.target < 0:
            raise ValueError("negative token index")


@dataclass(frozen=True, slots=True)
class SentenceAnnotation:
    sentence_id: str
    tokens: tuple[str, ...]
    constituents: tuple[Constituent, ...] = ()
    relations: tuple[Relation, ...] = ()
    full_parse: bool = True

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        object.__setattr__(self, "constituents", tuple(self.constituents))
        object.__setattr__(self, "relations", tuple(self.relations))
        if not self.sentence_id:
            raise ValueError("empty sentence id")
        if not self.tokens:
            raise ValueError(f"sentence {self.sentence_id} has no tokens")
        n = len(self.tokens)
        for c in self.constituents:
            if c.end > n:
                raise ValueError(f"constituent span [{c.start}, {c.end}) exceeds {n} tokens")
        for r in self.relations:
            if r.source >= n or r.target >= n:
                raise ValueError(f"relation index out of range in {self.sentence_id}")


# <G> and <R>: the model each builds, its type vocabulary and its two integer attributes
_ITEMS = {
    "G": (Constituent, ConstituentType, "constituent type", "start", "end"),
    "R": (Relation, RelationType, "relation type", "src", "tgt"),
}
# In a token, markup would read a raw CR back as LF; XML 1.0 cannot carry the
# other C0 controls but tab and LF, U+FFFE, U+FFFF or a lone surrogate at all.
_CR_REF = {"\r": "&#13;"}
_UNWRITABLE = "[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]"


# serialize_passage's body lines and one whole sentence, each line ending in
# LF or CRLF (compiled on first use).  Only </S> may lack its line end.  An id
# or token holding what the writer escapes, or a character expat refuses or
# rewrites, does not match: CR, C0 controls (but tab and LF in a token), lone
# surrogates, U+FFFE and U+FFFF.  Quotes match (expat reads them as written),
# but for the one that closes the id.  Each line kind has its own prefix and a
# token holds no "<", so a body that fails backtracks in linear time.
_W = r'  <W ix="([0-9]+)">([^<>&\x00-\x08\x0b-\x1f\ud800-\udfff\ufffe\uffff]*)</W>\r?\n'
_G = r'  <G type="([A-Z-]+)" start="([0-9]+)" end="([0-9]+)"/>\r?\n'
_R = r'  <R type="([A-Z-]+)" src="([0-9]+)" tgt="([0-9]+)"/>\r?\n'
_SENTENCE = (r'<S id="([^<>&"\x00-\x1f\ud800-\udfff\ufffe\uffff]+)" full="(yes|no)">\r?\n'
             r'((?:' + "|".join((_W, _G, _R)) + r')*)</S>(?:\r?\n|\Z)')  # body lines in any order


_LONGEST = 1 << 19  # characters of one sentence that the line matcher carries across blocks


def _required(tag: str, name: str, value: str | None) -> str:
    if value is None:
        raise FormatError(f"<{tag}> missing {name!r} attribute")
    return value


def _int_attr(tag: str, name: str, value: str | None) -> int:
    value = _required(tag, name, value)
    try:
        return int(value)
    except ValueError as exc:
        raise FormatError(f"attribute {name}={value!r} is not an integer") from exc


def _item(tag: str, kind: str | None, first: str | None,
          second: str | None) -> Constituent | Relation:
    """The <G> or <R> item of these attribute strings.  Both readers of a
    file call it through one functools.cache, so equal items share one
    object per file, and a key that fails is tried again."""
    model, vocabulary, what, first_name, second_name = _ITEMS[tag]
    kind = vocabulary.parse(_required(tag, "type", kind), what)
    return model(kind, _int_attr(tag, first_name, first), _int_attr(tag, second_name, second))


def _unexpected(tag: str, where: str) -> FormatError:
    # expat names a namespaced element "uri}name"; ElementTree spells it "{uri}name"
    return FormatError(f"unexpected element <{'{' if '}' in tag else ''}{tag}> {where}")


def parse_passage(text: str | Iterable[str] | None,
                  reader: Generator[list[SentenceAnnotation], str | None, None] | None = None,
                  ) -> list[SentenceAnnotation]:
    """The sentence annotations of a sequence of <S> blocks, as a list.

    text is a str or an iterable of text blocks, split anywhere.  Given a
    reader (see _reader), text is instead the next block of that reader's
    input, or None for its end, and the list holds the sentences that the
    block closes.  iter_passage parses by such calls, so that a wrapper of
    parse_passage, as bench/layertrace.py installs, times and counts every
    sentence read, whole or a block at a time.
    """
    if reader is not None:
        return reader.send(text)
    reader = _reader()
    next(reader)
    return [a for block in chain(text_blocks(text), [None]) for a in reader.send(block)]


def iter_passage(text: str | Iterable[str]) -> Iterator[SentenceAnnotation]:
    """Yield the sentence annotations of a sequence of <S> blocks, the
    sentences that each block closes once that block is parsed.

    text is a str or an iterable of text blocks, split anywhere; a block is
    drawn only when the sentences before it are yielded.  One regex match
    per sentence and one findall per line kind read the sentences at the
    start of the text in serialize_passage's line shape, with <W>, <G> and
    <R> lines in any order, on the complete sentences of each block; expat
    reads the rest, from the first other sentence, fed a block at a time
    after the line ends before it, so that lines are the file's.  Only
    expat raises, and what is yielded is what expat alone makes of the
    whole text.  A <W> token is the text before its first child; elements
    nested in <W>, <G> or <R> are ignored.  Every FormatError carries the
    line of the element at fault, or of </S> for an error in the whole
    sentence.  Only the set of ids yielded is kept, for the duplicate check.
    """
    reader = _reader()
    next(reader)
    for block in chain(text_blocks(text), [None]):
        yield from parse_passage(block, reader)


def _reader() -> Generator[list[SentenceAnnotation], str | None, None]:
    """A reader: a generator, started by next(), that is sent each text
    block and then None, and answers each with a new list of the sentences
    that it closes.  The line matcher reads, and expat from the first
    sentence that the matcher cannot read."""
    seen: set[str] = set()
    item = functools.cache(_item)  # one per file, not per block
    lines, text, closed, final = yield from _read_canonical(seen, item)
    if text:
        yield from _read_expat(lines, [text, None] if final else [text], closed, seen, item)
    else:
        yield closed  # every sentence matched: the answer to the end


def _read_canonical(seen: set, item) -> Generator[list[SentenceAnnotation], str | None,
                                                   tuple[int, str, list[SentenceAnnotation], bool]]:
    """A reader of the sentences at the start of the text that match
    _SENTENCE, well formed and of ids not in seen, up to the block in which
    one does not, or the end.  Return the number of lines before that
    sentence, the text from its start that has been sent, the sentences
    read of the last block, and whether that block was the end."""
    match = re.compile(_SENTENCE).match  # anchored at pos: a gap ends the search at once
    words, constituents, relations = (re.compile(p).findall for p in (_W, _G, _R))
    lines = 0  # before text
    text = ""  # from the first sentence not yet read
    closed: list[SentenceAnnotation] = []
    while True:
        block = yield closed
        closed = []
        if block is None:  # the end, which may end the last </S> line
            end = len(text)
        else:
            # Up to the line end after the last </S> whose line is sent: a
            # sentence that starts before it either matches or never will.
            text += block
            close = text.rfind("</S>", 0, text.rfind("\n") + 1)
            end = text.find("\n", close) + 1 if close >= 0 else 0
        pos = 0
        try:
            while m := match(text, pos, end):
                sentence_id, full, body = m.group(1, 2, 3)
                pairs = words(body)
                tokens = [token for k, (ix, token) in enumerate(pairs) if ix == str(k)]
                if sentence_id in seen or len(tokens) < len(pairs):
                    break
                closed.append(SentenceAnnotation(
                    sentence_id, tokens,
                    [item("G", *g) for g in constituents(body)],
                    [item("R", *r) for r in relations(body)], full == "yes"))
                seen.add(sentence_id)
                pos = m.end()
        except ValueError:  # a bad type, span or sentence: expat gives the error its line
            pass
        lines += text.count("\n", 0, pos)
        text = text[pos:]
        # Expat reads from pos if the sentence there starts before end (it
        # failed for good), if what is sent of it holds a </S> that does
        # not start a line, or if it is longer than _LONGEST, as what is
        # carried is scanned again with each block.
        close = text.find("</S>")
        if block is None or pos < end or close > 0 and text[close - 1] != "\n" or len(text) > _LONGEST:
            return lines, text, closed, block is None


def _read_expat(lines: int, pending: list[str | None], closed: list[SentenceAnnotation],
                seen: set, item) -> Generator[list[SentenceAnnotation], str | None, None]:
    """A reader by expat events, started by next(), of the blocks pending,
    the text from the start of line lines + 1, and then of each block sent.
    Its first answer is closed, to which it adds what pending closes."""
    parser = ParserCreate(namespace_separator="}")  # namespaces as ElementTree
    parser.buffer_text = True
    chunks: list[str] = []  # text of the open <W>
    collect = chunks.append
    depth = 0
    sentence_id = full_tok = tokens = constituents = relations = None  # of the open <S>

    def start(tag, attrs):
        nonlocal depth, sentence_id, full_tok, tokens, constituents, relations
        depth += 1
        try:
            if depth == 3:  # a child of <S>
                if tag == "W":
                    n = len(tokens)
                    if attrs.get("ix") != str(n) and _int_attr(tag, "ix", attrs.get("ix")) != n:
                        raise FormatError(
                            f"token indices must be consecutive from 0 in {sentence_id!r}"
                        )
                    parser.CharacterDataHandler = collect
                elif tag in _ITEMS:
                    first, second = _ITEMS[tag][3:]
                    (constituents if tag == "G" else relations).append(item(
                        tag, attrs.get("type"), attrs.get(first), attrs.get(second)))
                else:
                    raise _unexpected(tag, f"in {sentence_id!r}")
            elif depth == 2:
                if tag != "S":
                    raise _unexpected(tag, "at top level")
                sentence_id = _required(tag, "id", attrs.get("id"))
                if sentence_id in seen:
                    raise FormatError(f"duplicate sentence id: {sentence_id!r}")
                full_tok = attrs.get("full", "yes")
                if full_tok not in ("yes", "no"):
                    raise FormatError(f"full attribute must be yes or no, got {full_tok!r}")
                tokens, constituents, relations = [], [], []
            elif depth > 3:
                parser.CharacterDataHandler = None  # a token ends at its first child
        except ValueError as exc:  # no FormatError raised above has a line yet
            raise FormatError(str(exc), parser.CurrentLineNumber) from exc

    def end(tag):
        nonlocal depth
        depth -= 1
        if depth == 2 and tag == "W":
            tokens.append("".join(chunks))
            chunks.clear()
            parser.CharacterDataHandler = None
        elif depth == 1:
            try:
                closed.append(SentenceAnnotation(  # the model turns the lists into tuples
                    sentence_id, tokens, constituents, relations, full_tok == "yes"
                ))
            except ValueError as exc:
                raise FormatError(str(exc), parser.CurrentLineNumber) from exc
            seen.add(sentence_id)

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    try:  # bytes, so that expat, not the codec, refuses a lone surrogate, at its line
        parser.Parse(b"<document>", False)
        for start in range(0, lines, BLOCK):  # a blank line for each line before pending
            parser.Parse(b"\n" * min(BLOCK, lines - start), False)
        while True:
            for block in pending:
                if block is None:
                    parser.Parse(b"</document>", True)
                else:
                    parser.Parse(block.encode("utf-8", "surrogatepass"), False)
            answer, closed = closed, []
            pending = [(yield answer)]
    except ExpatError as exc:
        raise FormatError(f"malformed markup: {exc}", line=exc.lineno) from exc
    finally:  # the handlers hold the parser: free it without waiting for the cyclic collector
        parser.StartElementHandler = parser.EndElementHandler = parser.CharacterDataHandler = None


def serialize_passage(annotations: Sequence[SentenceAnnotation]) -> str:
    """Inverse of parse_passage; raises ValueError on what would not read back."""
    from xml.sax.saxutils import escape, quoteattr  # pulls in urllib; no command needs it

    if len({ann.sentence_id for ann in annotations}) < len(annotations):
        raise ValueError("duplicate sentence id")
    lines = []
    for ann in annotations:
        full = "yes" if ann.full_parse else "no"
        lines.append(f"<S id={quoteattr(ann.sentence_id)} full=\"{full}\">")
        for ix, token in enumerate(ann.tokens):
            lines.append(f"  <W ix=\"{ix}\">{escape(token, _CR_REF)}</W>")
        for c in ann.constituents:
            lines.append(f"  <G type=\"{c.ctype.value}\" start=\"{c.start}\" end=\"{c.end}\"/>")
        for r in ann.relations:
            lines.append(f"  <R type=\"{r.rtype.value}\" src=\"{r.source}\" tgt=\"{r.target}\"/>")
        lines.append("</S>")
    text = "".join(line + "\n" for line in lines)
    bad = re.search(_UNWRITABLE, text)
    if bad:
        raise ValueError(f"character {bad.group()!r} cannot be serialized")
    return text
