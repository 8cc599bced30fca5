"""Constituent and relation scoring for parser output.

Scoring counts true positives per type.  Relations match on exact
(type, src, tgt); constituents match under one of three relaxation modes:
exact span and shared left boundary as multiset intersections, non-empty
overlap by greedy alignment per sentence.
Precision, recall and f-measure are kept as exact rationals; display
formatting rounds half-up to two decimals, percentage style.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, zip_longest
from typing import Iterable, Iterator, Sequence

from .errors import write_rows
from .markup import (  # the model; Constituent, Relation, the reader and the writer are re-exported
    Constituent, ConstituentType, Relation, RelationType, SentenceAnnotation, parse_passage, serialize_passage,
)
from .relaxation import RelaxationMode  # re-exported


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


@dataclass(frozen=True, slots=True)
class Scores:
    """tp/gold/hyp counts with exact rational precision, recall, f."""

    tp: int
    gold_count: int
    hyp_count: int

    def __add__(self, other: Scores) -> Scores:
        return Scores(self.tp + other.tp, self.gold_count + other.gold_count, self.hyp_count + other.hyp_count)

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


# Sentence pairs per score_corpus intersection and per score_pairs block: one
# block's pairs and keys, under half a MiB, are alive, whatever the length.
_BLOCK = 256


@dataclass(frozen=True, slots=True)
class EvalScores:
    constituents: Scores
    relations: Scores
    per_constituent: dict[ConstituentType, Scores]
    per_relation: dict[RelationType, Scores]

    def __add__(self, other: EvalScores) -> EvalScores:
        return EvalScores(self.constituents + other.constituents, self.relations + other.relations,
                          {t: s + other.per_constituent[t] for t, s in self.per_constituent.items()},
                          {t: s + other.per_relation[t] for t, s in self.per_relation.items()})


class Misaligned(ValueError):
    """Gold and hypothesis sentences that do not pair up."""


def _aligned(pairs: Iterable[tuple[SentenceAnnotation | None, SentenceAnnotation | None]]):
    """Yield the (gold, hypothesis) sentence pairs, None past the end of the
    shorter side, up to the first that does not pair up; then draw the rest
    and raise Misaligned for the first position whose sentence ids differ,
    else for the two sentence counts, else for the first token count
    mismatch."""
    n_gold = n_hyp = 0
    ids = tokens = None  # the first pair whose sentence ids, or token counts, differ
    for g, h in pairs:
        n_gold, n_hyp = n_gold + (g is not None), n_hyp + (h is not None)
        if g is None or h is None:
            continue
        if ids is None and g.sentence_id != h.sentence_id:
            ids = (n_gold, g.sentence_id, h.sentence_id)
        elif tokens is None and len(g.tokens) != len(h.tokens):
            tokens = (g.sentence_id, len(g.tokens), len(h.tokens))
        if ids is tokens is None:
            yield g, h
    if ids is not None or n_gold != n_hyp:
        where = (f"gold has {n_gold} sentences, hypothesis {n_hyp}" if ids is None
                 else "sentence {} is {!r} in gold, {!r} in hypothesis".format(*ids))
        raise Misaligned(f"gold and hypothesis must list the same sentence ids in order: {where}")
    if tokens is not None:
        raise Misaligned("token count mismatch in {!r}: gold has {} tokens, hypothesis {}".format(*tokens))


def score_corpus(
    gold: Sequence[SentenceAnnotation],
    hyp: Sequence[SentenceAnnotation],
    mode: RelaxationMode = RelaxationMode.EXACT,
) -> EvalScores:
    """Micro-averaged scores over aligned gold/hypothesis corpora; Misaligned
    if they are not (see _aligned)."""
    deque(_aligned(zip_longest(gold, hyp)), maxlen=0)
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


def score_pairs(
    pairs: Iterable[tuple[SentenceAnnotation | None, SentenceAnnotation | None]],
    mode: RelaxationMode = RelaxationMode.EXACT,
) -> tuple[EvalScores, CoverageResult]:
    """Micro-averaged scores, and the coverage of the hypothesis, over
    (gold, hypothesis) sentence pairs, None past the end of the shorter
    side: the sums of score_corpus and coverage on each _BLOCK pairs as
    they are drawn.  Every pair is drawn before Misaligned is raised (see
    _aligned), so an error raised in drawing them comes first."""
    aligned = _aligned(pairs)
    scores, covered = score_corpus((), (), mode), CoverageResult(0, 0)
    while block := list(islice(aligned, _BLOCK)):
        gold, hyp = zip(*block)
        scores += score_corpus(gold, hyp, mode)
        covered += coverage(hyp)
        del block, gold, hyp  # not alive while the next block is drawn
    return scores, covered


@dataclass(frozen=True, slots=True)
class CoverageResult:
    """How many items carry a positive flag, with exact ratio."""

    covered: int
    total: int

    def __add__(self, other: CoverageResult) -> CoverageResult:
        return CoverageResult(self.covered + other.covered, self.total + other.total)

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.covered, self.total)

    @property
    def percent_display(self) -> str:
        return format_percent(self.ratio)


def coverage(records: Sequence[SentenceAnnotation]) -> CoverageResult:
    """Coverage over SentenceAnnotation.full_parse flags."""
    if not records:
        raise ValueError("coverage of an empty record list is undefined")
    return CoverageResult(sum(r.full_parse for r in records), len(records))


def format_fixed(value, places: int = 2) -> str:
    """Decimal string with the given places, rounding half away from zero."""
    q = Fraction(value)
    scale = 10**places
    n, d = abs(q * scale).numerator, abs(q * scale).denominator
    units = (2 * n + d) // (2 * d)
    sign = "-" if q < 0 and units else ""  # no negative zero
    whole, part = divmod(units, scale)
    return f"{sign}{whole}.{part:0{places}d}" if places else f"{sign}{whole}"


def format_percent(ratio) -> str:
    """Ratio in [0, 1] rendered as a percentage with two decimals."""
    return format_fixed(Fraction(ratio) * 100, 2)


def _scores_row(kind: str, label: str, scores: Scores) -> tuple[str, ...]:
    counts = (scores.tp, scores.gold_count, scores.hyp_count)
    ratios = (scores.precision, scores.recall, scores.f_measure)
    return (kind, label, *map(str, counts), *map(format_percent, ratios))


def serialize_eval_report(scores: EvalScores, covered: CoverageResult) -> Iterator[str]:
    """Report rows: five summary rows (sentences, coverage count and percent,
    constituent and relation f-measure), then for constituents and then
    relations an ALL row and one row per type in type order: kind, label,
    tp, gold and hypothesis counts, precision, recall and f-measure."""
    return write_rows([
        ("summary", "sentences", str(covered.total)),
        ("summary", "coverage_count", str(covered.covered)),
        ("summary", "coverage_pct", covered.percent_display),
        ("summary", "constituents_f", format_percent(scores.constituents.f_measure)),
        ("summary", "relations_f", format_percent(scores.relations.f_measure)),
        _scores_row("constituent", "ALL", scores.constituents),
        *(_scores_row("constituent", t.value, s) for t, s in scores.per_constituent.items()),
        _scores_row("relation", "ALL", scores.relations),
        *(_scores_row("relation", t.value, s) for t, s in scores.per_relation.items()),
    ])
