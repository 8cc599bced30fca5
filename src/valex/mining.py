"""Comparative error mining over analyzability records.

Given per-sentence records from a reference run and a hypothesis run, the
mining corpus keeps the sentences the reference analyzes and marks as
failed those the hypothesis loses.  A fixed point then distributes each
failed sentence's unit of suspicion over the forms it contains: a form's
suspicion is the average, over its occurrences, of the share of blame it
takes inside each failed sentence, where shares are proportional to the
current suspicions and renormalized per sentence.

Record files, written by the checker, hold one sentence per line,
following the shared line rule of ``valex.errors`` (see "File formats" in
the README); ``ok`` means analyzable:

    sentence_id<TAB>failed|ok<TAB>form1,form2,...
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import repeat
from operator import add, itemgetter, sub, truediv
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import FormatError, parse_rows, write_rows

# The fewest forms that get a blame round of their own in compute_suspicion:
# for fewer, one reduce per form costs less than the round's fixed cost.
_ROUND = 32


@dataclass(frozen=True, slots=True)
class _Sentence:
    """The fields and validator a record and a mining sentence share."""

    sentence_id: str
    forms: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "forms", tuple(self.forms))
        if not self.sentence_id:
            raise ValueError("empty sentence id")
        if not self.forms:
            raise ValueError(f"sentence {self.sentence_id!r} has no forms")
        if "" in self.forms:
            raise ValueError(f"empty form in sentence {self.sentence_id!r}")
        if "," in "".join(self.forms):  # forms are written comma-joined
            bad = next(form for form in self.forms if "," in form)
            raise ValueError(f"form {bad!r} cannot be serialized")


@dataclass(frozen=True, slots=True)
class SentenceRecord(_Sentence):
    analyzable: bool


@dataclass(frozen=True, slots=True)
class MiningSentence(_Sentence):
    failed: bool


@dataclass(frozen=True, slots=True)
class MiningCorpus:
    """Sentences in canonical order (sorted by id, ids unique)."""

    sentences: tuple[MiningSentence, ...]

    def __post_init__(self):
        ordered = tuple(sorted(self.sentences, key=lambda s: s.sentence_id))
        for previous, sentence in zip(ordered, ordered[1:]):
            if previous.sentence_id == sentence.sentence_id:
                raise ValueError(f"duplicate sentence id: {sentence.sentence_id!r}")
        object.__setattr__(self, "sentences", ordered)


@dataclass(frozen=True, slots=True)
class MiningParams:
    epsilon: float = 1e-9
    max_iterations: int = 200

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass(frozen=True, slots=True)
class SuspicionScore:
    form: str
    score: float
    occurrences: int
    failed_sentences: int
    sample_sentence_id: str | None


class MiningResult(NamedTuple):
    scores: list[SuspicionScore]
    iterations_used: int
    converged: bool
    final_delta: float  # largest score change of the last iteration


def build_mining_corpus(
    ref_records: Sequence[SentenceRecord], hyp_records: Sequence[SentenceRecord]
) -> MiningCorpus:
    """Pair reference and hypothesis records into a mining corpus.

    Both sides must cover the same sentence ids with identical forms.
    Sentences the reference cannot analyze are excluded; a kept sentence
    is failed when the hypothesis alone loses it.
    """
    by_id: dict[str, SentenceRecord] = {}
    for record in hyp_records:
        if record.sentence_id in by_id:
            raise ValueError(f"duplicate sentence id in hypothesis records: {record.sentence_id!r}")
        by_id[record.sentence_id] = record
    sentences = []
    seen = set()
    for ref in ref_records:
        if ref.sentence_id in seen:
            raise ValueError(f"duplicate sentence id in reference records: {ref.sentence_id!r}")
        seen.add(ref.sentence_id)
        hyp = by_id.get(ref.sentence_id)
        if hyp is None:
            raise ValueError(f"sentence {ref.sentence_id!r} missing from hypothesis records")
        if hyp.forms != ref.forms:
            raise ValueError(f"form mismatch for sentence {ref.sentence_id!r}")
        if ref.analyzable:
            sentences.append(
                MiningSentence(ref.sentence_id, ref.forms, failed=not hyp.analyzable)
            )
    if len(seen) != len(by_id):
        extra = sorted(set(by_id) - seen)[0]
        raise ValueError(f"sentence {extra!r} missing from reference records")
    return MiningCorpus(tuple(sentences))


def _check_blame_mass(shares: list[list[float]]) -> None:
    """Assert that the shares of every sentence sum to 1 within 1e-12, by
    fsum's verdict; shares holds sentences of one length, column by column.

    Shares lie in [0, 1], so a left-to-right sum of n of them near 1 is off
    the exact sum by less than n·2⁻⁵⁰.  A group whose plain row sums all
    lie inside the bound tightened by that much passes, as fsum would pass
    it.  Any other group, a NaN too, goes to the fsum rule itself.
    """
    rows = shares[0]
    for column in shares[1:]:
        rows = list(map(add, rows, column))
    slack = 1e-12 - len(shares) * 2.0**-50  # <= 0 from 1,126 shares on: fsum alone decides
    # min and max skip a NaN that is not first; sum carries any NaN
    if 1.0 - slack <= min(rows) and max(rows) <= 1.0 + slack and not math.isnan(sum(rows)):
        return
    # one fsum per sentence; all() fails on NaN, as the comparison does
    assert all(map((1e-12).__ge__, map(abs, map(sub, map(math.fsum, zip(*shares)), repeat(1.0))))), (
        "per-sentence blame must sum to 1"
    )


def _check_unit_interval(scores: list[float]) -> None:
    """Assert that every score lies in [0, 1]; a NaN anywhere fails."""
    # min and max skip a NaN that is not first; sum carries any NaN
    assert 0.0 <= min(scores, default=0.0) and max(scores, default=0.0) <= 1.0 and not math.isnan(sum(scores)), (
        "scores must stay in [0, 1]"
    )


def _take(indices: Sequence[int]) -> Callable[[Sequence[float]], Sequence[float]]:
    """A getter of the items at indices, in that order, as a sequence;
    itemgetter alone gives one index's item itself, and takes no empty list."""
    if len(indices) > 1:
        return itemgetter(*indices)
    return itemgetter(slice(indices[0], indices[0] + 1) if indices else slice(0))


def _step_plan(failed: list[list[int]], forms: int) -> tuple[list, Callable, list[tuple[int, slice]], list[slice]]:
    """How a step of compute_suspicion runs over the failed sentences, each
    a list of form indices; forms are numbered by share count, most first.

    groups holds the sentences of each length column by column (the forms at
    position 0 of every sentence, then at position 1, ...), as getters of
    their scores, so that a step is a few C-level passes per group.  Its
    shares come out group after group, column after column, into one list;
    gather takes them from there in the order of the blame sums.  Round r
    holds the r-th share of every form that has one, a prefix of the forms,
    for as long as a round holds at least _ROUND forms: rounds gives each
    round's width and slice of gather's result.  rests then gives the slice
    of the remaining shares of each form that has more.
    """
    positions = [k for sentence in failed for k in sentence]  # every share's form, in summation order
    by_length: dict[int, list[range]] = {}  # failed sentences, as ranges of positions
    start = 0
    for sentence in failed:
        by_length.setdefault(len(sentence), []).append(range(start, start + len(sentence)))
        start += len(sentence)
    layout = [[list(column) for column in zip(*spans)] for spans in by_length.values()]
    groups = [[_take(list(map(positions.__getitem__, column))) for column in columns] for columns in layout]
    flat_positions = [p for columns in layout for column in columns for p in column]
    places: list[list[int]] = [[] for _ in range(forms)]  # where each form's shares come out, in summation order
    for flat_index in sorted(range(len(flat_positions)), key=flat_positions.__getitem__):
        places[positions[flat_positions[flat_index]]].append(flat_index)
    sequence = [form_places[0] for form_places in places]  # round 0
    rounds: list[tuple[int, slice]] = []  # round 1 on
    depth = 1
    width = sum(len(form_places) > depth for form_places in places)
    while width >= _ROUND:
        rounds.append((width, slice(len(sequence), len(sequence) + width)))
        sequence += [form_places[depth] for form_places in places[:width]]
        depth += 1
        width = sum(len(form_places) > depth for form_places in places[:width])
    rests: list[slice] = []
    for form_places in places[:width]:
        rests.append(slice(len(sequence), len(sequence) + len(form_places) - depth))
        sequence += form_places[depth:]
    return groups, _take(sequence), rounds, rests


def compute_suspicion(
    corpus: MiningCorpus,
    params: MiningParams = MiningParams(),
    on_iteration: Callable[[int, dict[str, float]], None] | None = None,
) -> MiningResult:
    """Run the suspicion fixed point to convergence.

    Starts from each form's failure rate (failed occurrences over total
    occurrences).  One step redistributes, inside every failed sentence,
    one unit of blame proportionally to current scores, then averages per
    form over all its occurrences.
    Stops when the largest score change drops below epsilon, or after
    max_iterations steps.  on_iteration, if given, receives each new
    score vector.  The floats do not depend on how a step is laid out: a
    sentence's denominator is correctly rounded (the score itself for one
    form, one addition for two, fsum for more), each form's blame is summed
    in one fixed order (sentence id, then position), and the blame-mass
    check gives fsum's verdict on every sentence.
    """
    if not corpus.sentences:
        raise ValueError("cannot mine an empty corpus")
    # Forms outside failed sentences take no blame: they start at 0 and stay
    # there, so only the forms of failed sentences get an index and a score.
    occurrences: Counter[str] = Counter()  # every form, in first-appearance order
    failed_sentences: Counter[str] = Counter()
    failed_occurrences: Counter[str] = Counter()  # forms of failed sentences, as they first appear
    sample: dict[str, str] = {}  # id of the first failed sentence that holds the form
    for sentence in corpus.sentences:
        occurrences.update(sentence.forms)
        if sentence.failed:
            failed_sentences.update(set(sentence.forms))
            failed_occurrences.update(sentence.forms)
            for form in sentence.forms:
                sample.setdefault(form, sentence.sentence_id)
    # forms of failed sentences, numbered by failed occurrences, most first
    # (ties as they first appear), so that the forms with more than r shares
    # are a prefix of index for every r
    ranked = failed_occurrences.most_common()
    index = {form: k for k, (form, _) in enumerate(ranked)}
    active_occurrences = [occurrences[form] for form in index]
    scores = [count / o for (_, count), o in zip(ranked, active_occurrences)]
    failed = [[index[form] for form in s.forms] for s in corpus.sentences if s.failed]
    groups, gather, rounds, rests = _step_plan(failed, len(index))
    # No denominator is ever 0.0: every active form starts at a failure
    # rate > 0, and after any step each failed sentence S has given some
    # position a share >= 1/|S|, so that form scores >= 1/(|S|·occ) > 0.
    # A zero would raise ZeroDivisionError rather than spread blame.
    fsum = math.fsum
    for iteration in range(1, params.max_iterations + 1):
        flat: list[float] = []
        for columns in groups:
            values = [take(scores) for take in columns]
            # each correctly rounded, as fsum is, so independent of term order
            if len(values) == 1:
                denominators = values[0]
            elif len(values) == 2:
                denominators = list(map(add, *values))
            else:
                denominators = list(map(fsum, zip(*values)))
            shares = [list(map(truediv, column, denominators)) for column in values]
            _check_blame_mass(shares)
            for column in shares:
                flat += column
        in_order = gather(flat)
        # round 0: 0.0 plus a share is the share, and no share is -0.0
        blame = list(in_order[: len(index)])
        for width, piece in rounds:
            blame[:width] = map(add, blame, in_order[piece])
        blame[: len(rests)] = map(reduce, repeat(add), map(in_order.__getitem__, rests), blame)
        new_scores = list(map(truediv, blame, active_occurrences))
        _check_unit_interval(new_scores)
        delta = max(map(abs, map(sub, new_scores, scores)), default=0.0)
        scores = new_scores
        if on_iteration is not None:
            vector = dict.fromkeys(occurrences, 0.0)
            vector.update(zip(index, scores))
            on_iteration(iteration, vector)
        if delta < params.epsilon:
            break

    score_of_form = dict(zip(index, scores))
    results = [
        SuspicionScore(
            form=form,
            score=score_of_form.get(form, 0.0),
            occurrences=count,
            failed_sentences=failed_sentences[form],
            sample_sentence_id=sample.get(form),
        )
        for form, count in occurrences.items()
    ]
    # MiningParams allows no fewer than one iteration, so iteration and delta are bound.
    return MiningResult(results, iteration, delta < params.epsilon, delta)


def rank_suspects(scores: Sequence[SuspicionScore], top_k: int) -> list[SuspicionScore]:
    """Top suspects: score descending, then failed-sentence count
    descending, then form ascending."""
    if top_k < 1:
        raise ValueError("top_k must be at least 1")
    ranked = sorted(scores, key=lambda s: (-s.score, -s.failed_sentences, s.form))
    return ranked[:top_k]


def format_suspects(ranked: Sequence[SuspicionScore]) -> Iterator[str]:
    """Report rows: rank, form, score (6 decimals), failed sentences,
    sample sentence id."""
    return write_rows(
        (str(rank), s.form, f"{s.score:.6f}", str(s.failed_sentences), s.sample_sentence_id or "-")
        for rank, s in enumerate(ranked, start=1)
    )


def parse_records(text: str | Iterable[str]) -> list[SentenceRecord]:
    """Read a record file: ``ok`` marks a sentence as analyzable."""
    seen: set[str] = set()

    def parse_row(fields: list[str]) -> SentenceRecord:
        if len(fields) != 3:
            raise FormatError(f"expected 3 tab-separated fields, got {len(fields)}")
        sentence_id, tag, forms_tok = fields
        if tag not in ("failed", "ok"):
            raise FormatError(f"tag must be 'failed' or 'ok', got {tag!r}")
        if sentence_id in seen:
            raise FormatError(f"duplicate sentence id: {sentence_id!r}")
        seen.add(sentence_id)
        return SentenceRecord(sentence_id, tuple(forms_tok.split(",")), analyzable=tag == "ok")

    return [row for _, row in parse_rows(text, parse_row)]


def serialize_records(records: Sequence[SentenceRecord]) -> Iterator[str]:
    """Inverse of parse_records; raises ValueError for a repeated sentence id."""
    if len({r.sentence_id for r in records}) < len(records):
        raise ValueError("duplicate sentence id")
    return write_rows((r.sentence_id, "ok" if r.analyzable else "failed", ",".join(r.forms)) for r in records)
