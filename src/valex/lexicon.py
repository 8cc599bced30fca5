"""Data model and interchange format for syntactic valence lexicons.

A lexicon maps lemmas to entries.  Each entry carries a subcategorization
frame made of syntactic-function slots with their admissible surface
realizations, a set of licensed frame redistributions (passive,
impersonal, ...), a coded/uncoded flag, provenance and free-text examples.

The textual interchange format is line-based UTF-8.  One entry per line:

    lemma<TAB>category<TAB>entry_id<TAB>frame<TAB>redistributions<TAB>codedflag<TAB>provenance[<TAB>example ...]

* frame: ``;``-separated slots, each ``Function[?]:real|real|...`` where a
  trailing ``?`` on the function marks the slot optional and a
  prepositional realization is written ``PP(prep)``;
* redistributions: comma-separated tokens (``ACTIVE``, ``PASSIVE``, ...);
* codedflag: literal ``coded`` or ``uncoded``;
* provenance: comma-separated ``source:id`` pairs;
* remaining tab-separated fields, if any, are free-text examples.

Lines are read and written by the shared line layer in ``valex.errors``;
see "File formats" in the README for what a line is.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import FormatError, Vocabulary, parse_rows, write_rows


class SyntacticFunction(Vocabulary):
    """Closed inventory of syntactic functions a frame slot can bear."""

    SUJ = "Suj"
    OBJ = "Obj"
    OBJA = "Obja"
    OBJDE = "Objde"
    ATT = "Att"
    LOC = "Loc"
    DLOC = "Dloc"
    OBL = "Obl"
    OBL2 = "Obl2"


# Total, disjoint classification: every function is base or oblique.
BASE_FUNCTIONS = frozenset(
    {SyntacticFunction.SUJ, SyntacticFunction.OBJ, SyntacticFunction.OBJA, SyntacticFunction.OBJDE}
)
OBLIQUE_FUNCTIONS = frozenset(SyntacticFunction) - BASE_FUNCTIONS

# Bit of each function in an entry's base_mask or oblique_mask; the two
# classes are numbered separately, in enum order, so both masks stay small ints.
_BASE_BIT = {f: 1 << k for k, f in enumerate(f for f in SyntacticFunction if f in BASE_FUNCTIONS)}
_OBLIQUE_BIT = {f: 1 << k for k, f in enumerate(f for f in SyntacticFunction if f in OBLIQUE_FUNCTIONS)}


class Category(Vocabulary):
    """Entry category: plain verb or predicative noun."""

    V = "V"
    N_PRED = "N-PRED"


class Redistribution(Vocabulary):
    """Frame redistributions an entry may license."""

    ACTIVE = "ACTIVE"
    PASSIVE = "PASSIVE"
    IMPERSONAL = "IMPERSONAL"
    SE_MIDDLE = "SE-MIDDLE"
    OBJ_CLITICIZATION = "OBJ-CLITICIZATION"


class Marker(Vocabulary):
    """Surface realization markers."""

    NP = "NP"
    CLITIC = "CLITIC"
    FINITE_CLAUSE = "FINITE-CLAUSE"
    INF_CLAUSE = "INF-CLAUSE"
    PP = "PP"


_PP_TOKEN = re.compile(r"^PP\((.+)\)$")


def check_lemma(lemma: str) -> None:
    """Refuse an empty or non-lowercase lemma, in every model that holds one."""
    if not lemma:
        raise ValueError("empty lemma")
    if lemma != lemma.lower():
        raise ValueError(f"lemma must be lowercase: {lemma!r}")


@dataclass(frozen=True, slots=True)
class Realization:
    """One admissible surface realization; PP carries its preposition."""

    marker: Marker
    prep: str | None = None

    def __post_init__(self):
        if self.marker is Marker.PP:
            if not self.prep:
                raise ValueError("PP realization requires a preposition")
            if self.prep != self.prep.lower():
                raise ValueError(f"preposition must be lowercase: {self.prep!r}")
            if ")" in self.prep or "|" in self.prep or ";" in self.prep:  # around PP(prep): ; and |
                raise ValueError(f"preposition {self.prep!r} cannot be serialized")
        elif self.prep is not None:
            raise ValueError(f"{self.marker.value} realization takes no preposition")

    def token(self) -> str:
        """The token parse_realization reads back."""
        return self.marker.value if self.prep is None else f"PP({self.prep})"


NP = Realization(Marker.NP)
CLITIC = Realization(Marker.CLITIC)
FINITE_CLAUSE = Realization(Marker.FINITE_CLAUSE)
INF_CLAUSE = Realization(Marker.INF_CLAUSE)
# The plain realizations are frozen, so parse_realization hands out these singletons.
_PLAIN_BY_TOKEN = {r.token(): r for r in (NP, CLITIC, FINITE_CLAUSE, INF_CLAUSE)}


def pp(prep: str) -> Realization:
    return Realization(Marker.PP, prep)


@dataclass(frozen=True, slots=True)
class FunctionSlot:
    """One frame slot: a function, its realizations, and optionality."""

    function: SyntacticFunction
    realizations: frozenset[Realization]
    optional: bool = False

    def __post_init__(self):
        if type(self.function) is not SyntacticFunction:
            raise ValueError(f"slot function must be a SyntacticFunction, got {self.function!r}")
        if type(self.realizations) is not frozenset:
            object.__setattr__(self, "realizations", frozenset(self.realizations))
        if not self.realizations:
            raise ValueError(f"slot {self.function.value} has an empty realization set")

    def token(self) -> str:
        reals = "|".join(sorted(r.token() for r in self.realizations))
        flag = "?" if self.optional else ""
        return f"{self.function.value}{flag}:{reals}"


@dataclass(frozen=True, slots=True)
class LexicalEntry:
    """One lexicon entry: a lemma with one subcategorization frame.

    An uncoded entry stands for a source whose fine-grained coding is
    absent: its frame is the bare base construction and every slot is
    obligatory.  Coded entries always license at least ACTIVE.

    base_mask and oblique_mask are the sets of the frame's base and oblique
    functions, as bitmasks; they are derived from the frame on construction.
    """

    lemma: str
    category: Category
    entry_id: str
    frame: tuple[FunctionSlot, ...]
    redistributions: frozenset[Redistribution]
    coded: bool
    provenance: tuple[tuple[str, str], ...]
    examples: tuple[str, ...] = ()
    base_mask: int = field(init=False, repr=False, compare=False)
    oblique_mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if type(self.frame) is not tuple:
            object.__setattr__(self, "frame", tuple(self.frame))
        if type(self.redistributions) is not frozenset:
            object.__setattr__(self, "redistributions", frozenset(self.redistributions))
        object.__setattr__(self, "provenance", tuple((s, i) for s, i in self.provenance))
        if type(self.examples) is not tuple:
            object.__setattr__(self, "examples", tuple(self.examples))
        check_lemma(self.lemma)
        if not self.entry_id:
            raise ValueError("empty entry_id")
        base = oblique = 0
        for slot in self.frame:
            if slot.function in _BASE_BIT:
                base |= _BASE_BIT[slot.function]
            else:
                oblique |= _OBLIQUE_BIT[slot.function]
        object.__setattr__(self, "base_mask", base)
        object.__setattr__(self, "oblique_mask", oblique)
        if base.bit_count() + oblique.bit_count() != len(self.frame):
            raise ValueError(f"duplicate function in frame of {self.entry_id}")
        if not self.provenance:
            raise ValueError(f"entry {self.entry_id} has no provenance")
        for source, orig_id in self.provenance:  # written source:id, comma-joined
            if not source or not orig_id or ":" in source or "," in source or "," in orig_id:
                raise ValueError(f"provenance item {(source, orig_id)!r} cannot be serialized")
        if self.coded and Redistribution.ACTIVE not in self.redistributions:
            raise ValueError(f"coded entry {self.entry_id} must license ACTIVE")
        if not self.coded and any(slot.optional for slot in self.frame):
            raise ValueError(f"uncoded entry {self.entry_id} cannot have optional slots")


@dataclass(slots=True)
class Lexicon:
    """A collection of entries grouped by lemma.

    Construction canonicalizes the layout: lemmas in lexicographic order,
    entries of a lemma in entry_id order.  Entry ids are unique across the
    whole lexicon.
    """

    entries: dict[str, tuple[LexicalEntry, ...]]

    def __post_init__(self):
        canonical: dict[str, tuple[LexicalEntry, ...]] = {}
        seen_ids: set[str] = set()
        for lemma in sorted(self.entries):
            group = tuple(sorted(self.entries[lemma], key=lambda e: e.entry_id))
            if not group:
                raise ValueError(f"lemma {lemma!r} has no entries")
            for entry in group:
                if entry.lemma != lemma:
                    raise ValueError(f"entry {entry.entry_id} filed under wrong lemma {lemma!r}")
                if entry.entry_id in seen_ids:
                    raise ValueError(f"duplicate entry_id: {entry.entry_id}")
                seen_ids.add(entry.entry_id)
            canonical[lemma] = group
        self.entries = canonical

    @classmethod
    def from_entries(cls, entries: Iterable[LexicalEntry]) -> "Lexicon":
        grouped: dict[str, list[LexicalEntry]] = {}
        for entry in entries:
            grouped.setdefault(entry.lemma, []).append(entry)
        return cls({lemma: tuple(group) for lemma, group in grouped.items()})

    def all_entries(self) -> Iterator[LexicalEntry]:
        for group in self.entries.values():
            yield from group


@dataclass(frozen=True, slots=True)
class StatsReport:
    """Size figures for one lexicon."""

    lemma_count: int
    entry_count: int
    max_entries: int
    top: tuple[tuple[str, int], ...]


def parse_realization(token: str) -> Realization:
    """The realization a token names; a bad token raises ValueError."""
    plain = _PLAIN_BY_TOKEN.get(token)
    if plain is not None:
        return plain
    m = _PP_TOKEN.match(token)
    if m is None:
        raise FormatError(f"unknown realization token: {token!r}")
    return Realization(Marker.PP, m.group(1))


def _parse_slot(token: str) -> FunctionSlot:
    head, sep, tail = token.partition(":")
    if not sep:
        raise FormatError(f"malformed frame slot: {token!r}")
    optional = head.endswith("?")
    if optional:
        head = head[:-1]
    function = SyntacticFunction.parse(head, "function token")
    if not tail:
        raise FormatError(f"empty realization set for {head}")
    realizations = frozenset(parse_realization(t) for t in tail.split("|"))
    return FunctionSlot(function, realizations, optional)


def _parse_redistributions(token: str) -> frozenset[Redistribution]:
    return frozenset(
        Redistribution.parse(tok, "redistribution") for tok in (token.split(",") if token else ())
    )


def _parse_entry(fields: list[str], parse_slot, parse_redistributions, strings: dict[str, str]) -> LexicalEntry:
    if len(fields) < 7:
        raise FormatError(f"expected at least 7 tab-separated fields, got {len(fields)}")
    lemma, category_tok, entry_id, frame_tok, redist_tok, coded_tok = fields[:6]
    lemma = strings.setdefault(lemma, lemma)
    provenance_tok = fields[6]
    examples = tuple(fields[7:])

    category = Category.parse(category_tok, "category")

    frame = tuple(parse_slot(tok) for tok in frame_tok.split(";")) if frame_tok else ()
    redistributions = parse_redistributions(redist_tok)

    if coded_tok == "coded":
        coded = True
    elif coded_tok == "uncoded":
        coded = False
    else:
        raise FormatError(f"coded flag must be 'coded' or 'uncoded', got {coded_tok!r}")

    provenance = []
    for tok in provenance_tok.split(","):
        source, sep, orig_id = tok.partition(":")
        if not sep:
            raise FormatError(f"malformed provenance item: {tok!r}")
        provenance.append((strings.setdefault(source, source), orig_id))

    return LexicalEntry(
        lemma=lemma,
        category=category,
        entry_id=entry_id,
        frame=frame,
        redistributions=redistributions,
        coded=coded,
        provenance=tuple(provenance),
        examples=examples,
    )


def parse_lexicon(text: str | Iterable[str]) -> Lexicon:
    """Parse an interchange-format document into a Lexicon.

    Raises FormatError with the offending line number on any syntax
    problem, unknown token, empty realization set or duplicate entry_id.
    Each distinct slot token and redistribution field is parsed once per
    call, and each distinct lemma and provenance source is held once; the
    results are shared by the entries that repeat them.
    """
    parse_slot = functools.cache(_parse_slot)
    parse_redistributions = functools.cache(_parse_redistributions)
    strings: dict[str, str] = {}
    rows = parse_rows(text, lambda fields: _parse_entry(fields, parse_slot, parse_redistributions, strings))
    entries: list[LexicalEntry] = []
    seen_ids: dict[str, int] = {}
    for line, entry in rows:
        if entry.entry_id in seen_ids:
            raise FormatError(
                f"duplicate entry_id {entry.entry_id!r} (first seen on line {seen_ids[entry.entry_id]})",
                line,
            )
        seen_ids[entry.entry_id] = line
        entries.append(entry)
    return Lexicon.from_entries(entries)


def _entry_fields(entry: LexicalEntry, slot_token) -> list[str]:
    frame = ";".join(slot_token(slot) for slot in entry.frame)
    redistributions = ",".join(r.value for r in Redistribution if r in entry.redistributions)
    return [
        entry.lemma,
        entry.category.value,
        entry.entry_id,
        frame,
        redistributions,
        "coded" if entry.coded else "uncoded",
        ",".join(f"{source}:{orig_id}" for source, orig_id in entry.provenance),
        *entry.examples,
    ]


def serialize_lexicon(lexicon: Lexicon) -> Iterator[str]:
    """Canonical form, as text blocks: lemmas sorted, entries in entry_id order."""
    slot_token = functools.cache(FunctionSlot.token)  # the parser's memo makes equal slots repeat
    return write_rows(_entry_fields(entry, slot_token) for entry in lexicon.all_entries())


_TOP_K = 10  # lemmas in lexicon_stats's top list


def lexicon_stats(lexicon: Lexicon) -> StatsReport:
    """Count lemmas and entries and list the most ambiguous lemmas.

    The top list holds up to _TOP_K (lemma, entry count) pairs sorted by
    entry count descending, ties broken lexicographically.
    """
    counts = {lemma: len(group) for lemma, group in lexicon.entries.items()}
    top = sorted(counts.items(), key=lambda item: (-item[1], item[0]))[:_TOP_K]
    return StatsReport(
        lemma_count=len(counts),
        entry_count=sum(counts.values()),
        max_entries=max(counts.values(), default=0),
        top=tuple(top),
    )


def serialize_stats(stats: StatsReport) -> Iterator[str]:
    """Report rows: the lemma, entry and most-entries-per-lemma counts, then
    one 'top' row per listed lemma: rank, lemma, entry count."""
    return write_rows([
        ("lemmas", str(stats.lemma_count)),
        ("entries", str(stats.entry_count)),
        ("max_entries_per_lemma", str(stats.max_entries)),
        *(("top", str(rank), lemma, str(count)) for rank, (lemma, count) in enumerate(stats.top, start=1)),
    ])
