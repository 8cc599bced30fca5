"""Checking observed subcategorization frames against a lexicon.

An observed frame records, for one predicate occurrence in a sentence,
the lemma, the set of realized (function, realization) slots, and the
redistribution context the surface form exhibits.  Observations use deep
functions: under PASSIVE the patient is still listed as Obj, which is why
the subject slot alone is exempt from the obligatoriness check in
PASSIVE/IMPERSONAL contexts.

The corpus annotation format is line-based UTF-8, one observed frame per
line, frames of a sentence sharing its id:

    sentence_id<TAB>lemma<TAB>redistribution<TAB>obs_slots

where obs_slots is a ``;``-separated list of ``Function:Realization``
pairs (possibly empty).  Lines follow the shared line rule of
``valex.errors``; see "File formats" in the README.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import FormatError, Vocabulary, parse_rows, write_rows
from .lexicon import (
    LexicalEntry,
    Lexicon,
    Realization,
    Redistribution,
    SyntacticFunction,
    check_lemma,
    parse_realization,
)
from .mining import SentenceRecord

_FUNCTIONS = frozenset(SyntacticFunction)

# Contexts in which an unexpressed deep subject is not a coding failure.
_SUBJECT_EXEMPT_CONTEXTS = frozenset({Redistribution.PASSIVE, Redistribution.IMPERSONAL})

# The bit of every observed pair that no compiled entry holds, which no entry
# carries: the frame fails clause (a) for every entry of its lemma.
_UNHELD = 1


class FailureReason(Vocabulary):
    MISSING_LEMMA = "MISSING-LEMMA"
    UNCODED_ENTRY = "UNCODED-ENTRY"
    MISSING_REDISTRIBUTION = "MISSING-REDISTRIBUTION"
    MISSING_OBLIGATORY_COMPLEMENT = "MISSING-OBLIGATORY-COMPLEMENT"
    UNKNOWN_CONSTRUCTION = "UNKNOWN-CONSTRUCTION"


@dataclass(frozen=True, slots=True)
class ObservedFrame:
    """One predicate occurrence: lemma, realized slots, context."""

    lemma: str
    slots: frozenset[tuple[SyntacticFunction, Realization]]
    redistribution_context: Redistribution = Redistribution.ACTIVE

    def __post_init__(self):
        object.__setattr__(self, "slots", frozenset(self.slots))
        if "," in self.lemma:  # a record's forms are the lemmas of its frames
            raise ValueError(f"lemma {self.lemma!r} cannot be serialized")
        check_lemma(self.lemma)
        functions = {f for f, _ in self.slots}
        if not functions <= _FUNCTIONS:
            raise ValueError(f"observed slot function is not a SyntacticFunction for {self.lemma!r}")
        if len(functions) != len(self.slots):
            raise ValueError(f"duplicate function in observed frame for {self.lemma!r}")


@dataclass(frozen=True, slots=True)
class AnalyzabilityVerdict:
    analyzable: bool
    witness_entry_ids: tuple[str, ...] = ()
    failure_reason: FailureReason | None = None

    def __post_init__(self):
        object.__setattr__(self, "witness_entry_ids", tuple(self.witness_entry_ids))
        if self.analyzable == (self.failure_reason is not None):
            raise ValueError("exactly one of witness or failure_reason applies")
        if self.analyzable != bool(self.witness_entry_ids):
            raise ValueError("witnesses must be present exactly when analyzable")


class _Entry:
    """A lexical entry compiled for _clauses.  Entries compiled together
    share a dict `bits`, which gives each distinct (function, realization)
    pair its own bit, from bit 1 on, as they meet it, and a dict `shared`,
    which maps each distinct obligatory pair to itself, so that they hold
    one per distinct obligatory set, and each distinct FunctionSlot to its
    mask, the sum of its pairs' bits, so that each is compiled once per
    call.  `pairs` is the sum of the entry's slot masks."""

    __slots__ = ("entry_id", "pairs", "obligatory", "redistributions", "coded")

    def __init__(self, entry: LexicalEntry, bits: dict, shared: dict):
        # every slot is obligatory in an uncoded entry, which has no optional slots
        obligatory = frozenset(slot.function for slot in entry.frame if not slot.optional)
        obligatory_pair = (obligatory, obligatory - {SyntacticFunction.SUJ})  # as is, and Suj exempt
        self.entry_id = entry.entry_id
        pairs = 0  # a frame's functions differ, so its slot masks share no bit
        for slot in entry.frame:
            mask = shared.get(slot)
            if mask is None:
                mask = shared[slot] = sum({bits.setdefault((slot.function, r), 2 << len(bits))
                                           for r in slot.realizations})
            pairs += mask
        self.pairs = pairs
        self.obligatory = shared.setdefault(obligatory_pair, obligatory_pair)
        self.redistributions = entry.redistributions
        self.coded = entry.coded


def _clauses(entry: _Entry, obs: ObservedFrame, obs_pairs: int, obs_functions: set) -> tuple[bool, bool, bool]:
    """The three acceptance clauses, evaluated independently.

    (a) every observed slot exists in the frame with that realization:
        obs_pairs, the observed pairs' mask, has no bit the entry lacks;
    (b) every obligatory frame slot is observed: its function is in
        obs_functions, the observed slots' functions; Suj is exempt under
        PASSIVE/IMPERSONAL, and all slots are obligatory for uncoded entries;
    (c) the observed context is licensed by the entry.
    """
    subject_exempt = obs.redistribution_context in _SUBJECT_EXEMPT_CONTEXTS
    return (
        not obs_pairs & ~entry.pairs,
        entry.obligatory[subject_exempt] <= obs_functions,
        obs.redistribution_context in entry.redistributions,
    )


def _verdict(entries: tuple[_Entry, ...], obs: ObservedFrame, bits: dict) -> AnalyzabilityVerdict:
    if not entries:
        return AnalyzabilityVerdict(False, (), FailureReason.MISSING_LEMMA)
    obs_pairs = sum({bits.get(pair, _UNHELD) for pair in obs.slots})  # unheld pairs: one bit, once
    obs_functions = {function for function, _ in obs.slots}
    clauses = [(entry, _clauses(entry, obs, obs_pairs, obs_functions)) for entry in entries]
    witnesses = tuple(entry.entry_id for entry, (a, b, c) in clauses if a and b and c)
    if witnesses:
        return AnalyzabilityVerdict(True, witnesses, None)
    if all(not entry.coded for entry in entries):
        reason = FailureReason.UNCODED_ENTRY
    elif any(a and b and not c for _, (a, b, c) in clauses):
        reason = FailureReason.MISSING_REDISTRIBUTION
    elif any(a and c and not b for _, (a, b, c) in clauses):
        reason = FailureReason.MISSING_OBLIGATORY_COMPLEMENT
    else:
        reason = FailureReason.UNKNOWN_CONSTRUCTION
    return AnalyzabilityVerdict(False, (), reason)


def check_sentence(lexicon: Lexicon, obs: ObservedFrame) -> AnalyzabilityVerdict:
    """Check one observation against all entries of its lemma.

    On failure a single reason is reported, in precedence order:
    MISSING-LEMMA, UNCODED-ENTRY (every entry uncoded), then
    MISSING-REDISTRIBUTION over MISSING-OBLIGATORY-COMPLEMENT for
    near-miss entries, else UNKNOWN-CONSTRUCTION.
    """
    bits: dict = {}
    return _verdict(tuple(_Entry(entry, bits, {}) for entry in lexicon.entries.get(obs.lemma, ())), obs, bits)


def diagnose_corpus(lexicon: Lexicon, corpus) -> tuple[list[SentenceRecord], Counter]:
    """Check every frame of every sentence.

    corpus: iterable of (sentence_id, list of ObservedFrame).  A sentence
    is analyzable only if all its frames are; the histogram counts one
    failure reason per failed frame.  Each entry is compiled once, onto
    bits and values shared by the whole call, and each distinct frame is
    checked once, as check_sentence would; only its failure reason is kept.
    """
    compiled: dict[str, tuple[_Entry, ...]] = {}
    bits: dict = {}
    shared: dict = {}
    reasons: dict[ObservedFrame, FailureReason | None] = {}  # None: analyzable
    unchecked = object()
    records = []
    histogram: Counter = Counter()
    for sentence_id, frames in corpus:
        frames = list(frames)
        if not frames:
            raise ValueError(f"sentence {sentence_id!r} has no observed frames")
        analyzable = True
        for obs in frames:
            reason = reasons.get(obs, unchecked)
            if reason is unchecked:
                entries = compiled.get(obs.lemma)
                if entries is None:
                    entries = tuple(_Entry(entry, bits, shared) for entry in lexicon.entries.get(obs.lemma, ()))
                    compiled[obs.lemma] = entries
                reason = reasons[obs] = _verdict(entries, obs, bits).failure_reason
            if reason is not None:
                analyzable = False
                histogram[reason] += 1
        records.append(SentenceRecord(sentence_id, tuple(o.lemma for o in frames), analyzable))
    return records, histogram


def serialize_failures(histogram: Counter) -> Iterator[str]:
    """Report rows: reason, failed frames; one row per FailureReason, in
    declaration order, zeros included."""
    return write_rows((reason.value, str(histogram.get(reason, 0))) for reason in FailureReason)


def _parse_pair(pair: str) -> tuple[SyntacticFunction, Realization]:
    function_tok, sep, realization_tok = pair.partition(":")
    if not sep:
        raise FormatError(f"malformed observed slot: {pair!r}")
    function = SyntacticFunction.parse(function_tok, "function token")
    return function, parse_realization(realization_tok)


def parse_corpus(text: str | Iterable[str]) -> list[tuple[str, list[ObservedFrame]]]:
    """Parse the corpus annotation format, grouping frames by sentence id
    in first-appearance order.  Each distinct slot pair, slot set and frame
    is parsed once per call: lines whose slot tokens agree, in whatever
    order they are listed, share one slot set, lines whose lemma and
    redistribution agree too share one frame, and the frames of a lemma
    share one string."""
    parse_pair = functools.cache(_parse_pair)
    lemmas: dict[str, str] = {}
    slot_sets: dict[str, frozenset[tuple[SyntacticFunction, Realization]]] = {}
    frames: dict[str, ObservedFrame] = {}

    def parse_row(fields: list[str]) -> tuple[str, ObservedFrame]:
        if len(fields) != 4:
            raise FormatError(f"expected 4 tab-separated fields, got {len(fields)}")
        sentence_id, lemma, redist_tok, slots_tok = fields
        if not sentence_id:
            raise FormatError("empty sentence id")
        tokens = slots_tok.split(";") if slots_tok else ()
        sorted_tokens = ";".join(sorted(tokens))
        # one string: key tuples of many lengths would outlive the memo in tuple free lists
        key = f"{lemma}\t{redist_tok}\t{sorted_tokens}"
        frame = frames.get(key)
        if frame is None:
            # in line order, so that the first bad token of the line is the one reported
            context = Redistribution.parse(redist_tok, "redistribution")
            slots = slot_sets.get(sorted_tokens)
            if slots is None:
                slots = slot_sets[sorted_tokens] = frozenset([parse_pair(token) for token in tokens])
            frame = ObservedFrame(lemmas.setdefault(lemma, lemma), slots, context)
            if len(frame.slots) < len(tokens):  # a repeated token, which the set would hide
                raise FormatError(f"duplicate function in observed frame for {lemma!r}")
            frames[key] = frame
        return sentence_id, frame

    grouped: dict[str, list[ObservedFrame]] = {}
    for _, (sentence_id, frame) in parse_rows(text, parse_row):
        grouped.setdefault(sentence_id, []).append(frame)
    return list(grouped.items())


def _observation_fields(sentence_id: str, obs: ObservedFrame) -> tuple[str, str, str, str]:
    slots = ";".join(
        f"{function.value}:{realization.token()}"
        for function, realization in sorted(obs.slots, key=lambda s: (s[0].value, s[1].token()))
    )
    return sentence_id, obs.lemma, obs.redistribution_context.value, slots


def serialize_corpus(corpus: list[tuple[str, list[ObservedFrame]]]) -> Iterator[str]:
    """Inverse of parse_corpus; raises ValueError for an empty or repeated
    sentence id and for a sentence without frames, which would not read back."""
    for sentence_id, frames in corpus:
        if not sentence_id:
            raise ValueError("empty sentence id")
        if not frames:
            raise ValueError(f"sentence {sentence_id!r} has no frames")
    if len({sentence_id for sentence_id, _ in corpus}) < len(corpus):
        raise ValueError("duplicate sentence id")
    return write_rows(
        _observation_fields(sentence_id, obs) for sentence_id, frames in corpus for obs in frames
    )
