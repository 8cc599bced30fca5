"""Constituent and relation scoring for parser output.

Sentences are annotated with six constituent types over half-open token
spans and fourteen typed dependency relations between token positions.
The markup is a small XML dialect:

    <S id="E1" full="yes">
      <W ix="0">token</W> ...
      <G type="GN" start="0" end="2"/> ...
      <R type="SUJ-V" src="1" tgt="3"/> ...
    </S>

Scoring counts true positives per type.  Relations match on exact
(type, src, tgt); constituents match under one of three relaxation modes:
exact span and shared left boundary as multiset intersections, non-empty
overlap by greedy alignment per sentence.
Precision, recall and f-measure are kept as exact rationals; display
formatting rounds half-up to two decimals, percentage style.
"""

from __future__ import annotations

import functools
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence
from xml.parsers.expat import ExpatError, ParserCreate

from .errors import FormatError, Vocabulary


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


class RelaxationMode(Vocabulary):
    EXACT = "exact"
    LEFT = "left"
    OVERLAP = "overlap"


@dataclass(frozen=True)
class Constituent:
    """A typed, half-open token span [start, end)."""

    ctype: ConstituentType
    start: int
    end: int

    def __post_init__(self):
        if self.start < 0 or self.start >= self.end:
            raise ValueError(f"invalid span [{self.start}, {self.end})")


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


def parse_passage(text: str) -> list[SentenceAnnotation]:
    """Parse a sequence of <S> blocks into sentence annotations.

    One regex match per sentence and one findall per line kind read the
    sentences at the start of text in serialize_passage's line shape, with
    <W>, <G> and <R> lines in any order; expat reads the rest, from the
    first other sentence, with what came before it blanked so that lines
    and offsets are the file's.  Only expat raises, and the result is what
    expat alone makes of the whole text.  A <W> token is the text before its
    first child; elements nested in <W>, <G> or <R> are ignored.  Every
    FormatError carries the line of the element at fault, or of </S> for an
    error in the whole sentence.
    """
    annotations: dict[str, SentenceAnnotation] = {}  # by id, in document order
    item = functools.cache(_item)
    pos = _read_canonical(text, annotations, item)
    if pos < len(text):
        _read_expat(text, pos, annotations, item)
    return list(annotations.values())


def _read_canonical(text: str, annotations: dict, item) -> int:
    """Add to annotations the sentences at the start of text that match
    _SENTENCE, well formed and of new ids; return where the next starts."""
    match = re.compile(_SENTENCE).match  # anchored at pos: a gap ends the search at once
    words, constituents, relations = (re.compile(p).findall for p in (_W, _G, _R))
    pos = 0
    try:
        while m := match(text, pos):
            sentence_id, full, body = m.group(1, 2, 3)
            pairs = words(body)
            tokens = [token for k, (ix, token) in enumerate(pairs) if ix == str(k)]
            if sentence_id in annotations or len(tokens) < len(pairs):
                break
            annotations[sentence_id] = SentenceAnnotation(
                sentence_id, tokens,
                [item("G", *g) for g in constituents(body)],
                [item("R", *r) for r in relations(body)], full == "yes")
            pos = m.end()
    except ValueError:  # a bad type, span or sentence: expat gives the error its line
        pass
    return pos


def _read_expat(text: str, pos: int, annotations: dict, item) -> None:
    """One pass over expat events from pos, the start of a line in text, that
    adds each sentence as its </S> closes."""
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
                if sentence_id in annotations:
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
                annotations[sentence_id] = SentenceAnnotation(  # the model turns the lists into tuples
                    sentence_id, tokens, constituents, relations, full_tok == "yes"
                )
            except ValueError as exc:
                raise FormatError(str(exc), parser.CurrentLineNumber) from exc

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    lines = text.count("\n", 0, pos)  # text[:pos] goes blank, keeping its length and its line ends
    document = "".join(("<document>", " " * (pos - lines), "\n" * lines, text[pos:], "</document>"))
    try:
        parser.Parse(document, True)
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


def _overlap_tp(gold: SentenceAnnotation, hyp: SentenceAnnotation) -> Counter:
    """Overlap-mode true positives per constituent type in one sentence: gold
    constituents, in (start, end) order, each take the unconsumed overlapping
    hypothesis constituent of their type with the smallest boundary distance
    |start difference| + |end difference|, the earliest on ties."""
    free = [(h.ctype, h.start, h.end) for h in hyp.constituents]  # None once consumed
    tp: Counter = Counter()
    for g in sorted(gold.constituents, key=lambda c: (c.start, c.end)):
        kind, start, end = g.ctype, g.start, g.end
        best = None
        for j, h in enumerate(free):
            if h is not None and h[0] is kind and max(start, h[1]) < min(end, h[2]):
                distance = abs(start - h[1]) + abs(end - h[2])
                if best is None or distance < best[0]:
                    best = (distance, j)
        if best is not None:
            free[best[1]] = None
            tp[kind] += 1
    return tp


def match_constituents(gold: SentenceAnnotation, hyp: SentenceAnnotation,
                       mode: RelaxationMode) -> Counter:
    """True positives per constituent type in one sentence, as score_corpus counts them."""
    scores = score_corpus((gold,), (hyp,), mode).per_constituent
    return Counter({t: s.tp for t, s in scores.items() if s.tp})


def match_relations(gold: SentenceAnnotation, hyp: SentenceAnnotation) -> Counter:
    """True positives per relation type in one sentence, as score_corpus counts them."""
    scores = score_corpus((gold,), (hyp,)).per_relation
    return Counter({t: s.tp for t, s in scores.items() if s.tp})


@dataclass(frozen=True)
class Scores:
    """tp/gold/hyp counts with exact rational precision, recall, f."""

    tp: int
    gold_count: int
    hyp_count: int

    def __post_init__(self):
        if self.tp > min(self.gold_count, self.hyp_count) or self.tp < 0:
            raise ValueError(
                f"tp {self.tp} exceeds gold {self.gold_count} / hyp {self.hyp_count}"
            )

    @property
    def precision(self) -> Fraction:
        return Fraction(self.tp, self.hyp_count) if self.hyp_count else Fraction(1)

    @property
    def recall(self) -> Fraction:
        return Fraction(self.tp, self.gold_count) if self.gold_count else Fraction(1)

    @property
    def f_measure(self) -> Fraction:
        p, r = self.precision, self.recall
        if p + r == 0:
            return Fraction(0)
        return 2 * p * r / (p + r)


# Sentences per score_corpus intersection: one block's keys take under half a
# MiB, where 8,000 sentence pairs' (15 MiB) lifted eval's peak RSS past its parse.
_BLOCK = 256


@dataclass(frozen=True)
class EvalScores:
    constituents: Scores
    relations: Scores
    per_constituent: dict[ConstituentType, Scores]
    per_relation: dict[RelationType, Scores]


def score_corpus(
    gold: Sequence[SentenceAnnotation],
    hyp: Sequence[SentenceAnnotation],
    mode: RelaxationMode = RelaxationMode.EXACT,
) -> EvalScores:
    """Micro-averaged scores over aligned gold/hypothesis corpora."""
    gold_ids, hyp_ids = [g.sentence_id for g in gold], [h.sentence_id for h in hyp]
    if gold_ids != hyp_ids:
        k = next((k for k, (g, h) in enumerate(zip(gold_ids, hyp_ids)) if g != h), None)
        where = (f"gold has {len(gold_ids)} sentences, hypothesis {len(hyp_ids)}" if k is None
                 else f"sentence {k + 1} is {gold_ids[k]!r} in gold, {hyp_ids[k]!r} in hypothesis")
        raise ValueError(f"gold and hypothesis must list the same sentence ids in order: {where}")
    for g, h in zip(gold, hyp):
        if len(g.tokens) != len(h.tokens):
            raise ValueError(f"token count mismatch in {g.sentence_id!r}: "
                             f"gold has {len(g.tokens)} tokens, hypothesis {len(h.tokens)}")
    exact, overlap = mode is RelaxationMode.EXACT, mode is RelaxationMode.OVERLAP
    tp: Counter = Counter()  # these three are keyed by constituent or relation type
    gold_count, hyp_count = (Counter(c.ctype for a in corpus for c in a.constituents)
                             + Counter(r.rtype for a in corpus for r in a.relations)
                             for corpus in (gold, hyp))
    # Relations match on (type, src, tgt), constituents on (type, start, end)
    # in exact mode and on (type, start) in left mode.  Each rule is an
    # equivalence, so greedy matching is the multiset intersection of (sentence
    # position, type, a, b), taken per block so that one block's keys are alive.
    for lo in range(0, len(gold), _BLOCK):
        matched = []
        for corpus in (gold, hyp):
            part = corpus[lo:lo + _BLOCK]
            keys = [(k, r.rtype, r.source, r.target) for k, a in enumerate(part) for r in a.relations]
            if not overlap:
                keys += [(k, c.ctype, c.start, c.end if exact else None)
                         for k, a in enumerate(part) for c in a.constituents]
            matched.append(Counter(keys))
        for key, n in (matched[0] & matched[1]).items():
            tp[key[1]] += n
    if overlap:
        for g, h in zip(gold, hyp):
            tp.update(_overlap_tp(g, h))  # update, unlike +=, does not re-filter

    def tally(types) -> tuple[Scores, dict]:
        """The total and the per-type scores of one item kind."""
        total = Scores(sum(tp[t] for t in types), sum(gold_count[t] for t in types),
                       sum(hyp_count[t] for t in types))
        return total, {t: Scores(tp[t], gold_count[t], hyp_count[t]) for t in types}

    constituents, per_constituent = tally(ConstituentType)
    relations, per_relation = tally(RelationType)
    return EvalScores(constituents, relations, per_constituent, per_relation)


@dataclass(frozen=True)
class CoverageResult:
    """How many items carry a positive flag, with exact ratio."""

    covered: int
    total: int

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.covered, self.total)

    @property
    def percent_display(self) -> str:
        return format_percent(self.ratio)


def coverage(records: Sequence) -> CoverageResult:
    """Coverage over SentenceRecord.analyzable or
    SentenceAnnotation.full_parse flags."""
    if not records:
        raise ValueError("coverage of an empty record list is undefined")
    covered = sum(
        r.full_parse if isinstance(r, SentenceAnnotation) else r.analyzable for r in records
    )
    return CoverageResult(covered, len(records))


def format_fixed(value, places: int = 2) -> str:
    """Decimal string with the given places, rounding half away from zero."""
    q = Fraction(value)
    scale = 10**places
    sign = "-" if q < 0 else ""
    n, d = abs(q * scale).numerator, abs(q * scale).denominator
    units = (2 * n + d) // (2 * d)
    whole, part = divmod(units, scale)
    return f"{sign}{whole}.{part:0{places}d}" if places else f"{sign}{whole}"


def format_percent(ratio) -> str:
    """Ratio in [0, 1] rendered as a percentage with two decimals."""
    return format_fixed(Fraction(ratio) * 100, 2)
