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
from itertools import repeat
from operator import sub, truediv
from typing import Callable, NamedTuple, Sequence

from .errors import FormatError, parse_rows, write_rows


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class SentenceRecord(_Sentence):
    analyzable: bool


@dataclass(frozen=True)
class MiningSentence(_Sentence):
    failed: bool


@dataclass(frozen=True)
class MiningCorpus:
    """Sentences in canonical order (sorted by id, ids unique)."""

    sentences: tuple[MiningSentence, ...]

    def __post_init__(self):
        ordered = tuple(sorted(self.sentences, key=lambda s: s.sentence_id))
        for previous, sentence in zip(ordered, ordered[1:]):
            if previous.sentence_id == sentence.sentence_id:
                raise ValueError(f"duplicate sentence id: {sentence.sentence_id!r}")
        object.__setattr__(self, "sentences", ordered)


@dataclass(frozen=True)
class MiningParams:
    epsilon: float = 1e-9
    max_iterations: int = 200

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass(frozen=True)
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
    score vector; summation order is fixed (sentence id, then position).
    """
    if not corpus.sentences:
        raise ValueError("cannot mine an empty corpus")
    # Forms outside failed sentences take no blame: they start at 0 and stay
    # there, so only the forms of failed sentences get an index and a score.
    occurrences: Counter[str] = Counter()  # every form, in first-appearance order
    failed_sentences: Counter[str] = Counter()
    sample: dict[str, str] = {}  # id of the first failed sentence that holds the form
    index: dict[str, int] = {}  # forms of failed sentences, numbered as they first appear
    failed: list[list[int]] = []  # each failed sentence, as positions in index
    for sentence in corpus.sentences:
        occurrences.update(sentence.forms)
        if sentence.failed:
            failed_sentences.update(set(sentence.forms))
            for form in sentence.forms:
                sample.setdefault(form, sentence.sentence_id)
            failed.append([index.setdefault(form, len(index)) for form in sentence.forms])
    positions = [k for forms in failed for k in forms]  # every share's form, in summation order
    active_occurrences = [occurrences[form] for form in index]
    failed_occurrences = Counter(positions)
    scores = [failed_occurrences[k] / o for k, o in enumerate(active_occurrences)]
    # Each step works on the failed sentences of one length at a time, held
    # column by column (the forms at position 0 of every sentence, then at
    # position 1, ...), so that it is a few C-level maps per group.  Its
    # shares come out group after group, column after column; order maps
    # each position, in summation order, to its share in that layout, so
    # that every blame[k] stays the same left-to-right sum.
    by_length: dict[int, list[range]] = {}  # failed sentences, as ranges of positions
    start = 0
    for forms in failed:
        by_length.setdefault(len(forms), []).append(range(start, start + len(forms)))
        start += len(forms)
    layout = [[list(column) for column in zip(*spans)] for spans in by_length.values()]
    groups = [[list(map(positions.__getitem__, column)) for column in columns] for columns in layout]
    order = [0] * len(positions)
    for flat_index, position in enumerate(p for columns in layout for column in columns for p in column):
        order[position] = flat_index
    # No denominator is ever 0.0: every active form starts at a failure
    # rate > 0, and after any step each failed sentence S has given some
    # position a share >= 1/|S|, so that form scores >= 1/(|S|·occ) > 0.
    # A zero would raise ZeroDivisionError rather than spread blame.
    fsum = math.fsum
    for iteration in range(1, params.max_iterations + 1):
        score_of = scores.__getitem__
        flat: list[float] = []
        for columns in groups:
            values = [list(map(score_of, column)) for column in columns]
            denominators = list(map(fsum, zip(*values)))  # fsum is correctly rounded: order-free
            shares = [list(map(truediv, column, denominators)) for column in values]
            # one fsum per sentence; all() fails on NaN, as the comparison does
            assert all(map((1e-12).__ge__, map(abs, map(sub, map(fsum, zip(*shares)), repeat(1.0))))), (
                "per-sentence blame must sum to 1"
            )
            for column in shares:
                flat += column
        blame = [0.0] * len(index)
        for k, share in zip(positions, map(flat.__getitem__, order)):
            blame[k] += share
        new_scores = list(map(truediv, blame, active_occurrences))
        assert 0.0 <= min(new_scores, default=0.0) and max(new_scores, default=0.0) <= 1.0, (
            "scores must stay in [0, 1]"
        )
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


def format_suspects(ranked: Sequence[SuspicionScore]) -> str:
    """Report rows: rank, form, score (6 decimals), failed sentences,
    sample sentence id."""
    return write_rows(
        (str(rank), s.form, f"{s.score:.6f}", str(s.failed_sentences), s.sample_sentence_id or "-")
        for rank, s in enumerate(ranked, start=1)
    )


def parse_records(text: str) -> list[SentenceRecord]:
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


def serialize_records(records: Sequence[SentenceRecord]) -> str:
    """Inverse of parse_records; raises ValueError for a repeated sentence id."""
    if len({r.sentence_id for r in records}) < len(records):
        raise ValueError("duplicate sentence id")
    return write_rows((r.sentence_id, "ok" if r.analyzable else "failed", ",".join(r.forms)) for r in records)
