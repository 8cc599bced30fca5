"""Lemma frequencies from a form frequency table.

Inputs: a frequency table with ``form<TAB>count`` lines and a form-to-lemma
map with ``form<TAB>lemma`` lines.  The table is parsed into one dict over
its forms; the map is never held: lemma_counts folds its rows, as it reads
them, into lemma counts over the table.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FormatError, parse_rows, write_rows


@dataclass(frozen=True)
class FrequencyTable:
    """Form counts, by form."""

    counts: dict[str, int]

    def __post_init__(self):
        for form, count in self.counts.items():
            if count < 0:
                raise ValueError(f"negative count for form {form!r}")


def lemma_counts(table: FrequencyTable, map_text: str) -> tuple[dict[str, int], int]:
    """Aggregate the table's counts by lemma through the form-to-lemma map
    text, read row by row; returns (counts, table forms the map lacks).

    No form-to-lemma dict is built: a repeated map form is caught against
    the table's forms not yet mapped, or against the map forms it lacks.
    """
    unmapped = dict(table.counts)  # this call's marker: popped as mapped
    absent: set[str] = set()
    counts: dict[str, int] = {}
    for line, (form, lemma) in parse_rows(map_text, _lemma_row):
        count = unmapped.pop(form, None)
        if count is not None:
            counts[lemma] = counts.get(lemma, 0) + count
        elif form in absent or form in table.counts:
            raise FormatError(f"duplicate form in lemma map: {form!r}", line)
        else:
            absent.add(form)
    return counts, len(unmapped)


def rank_lemmas(counts: dict[str, int], n: int) -> list[str]:
    """The n lemmas with the highest counts, ties broken lexicographically."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return sorted(counts, key=lambda lemma: (-counts[lemma], lemma))[:n]


def serialize_top_lemmas(counts: dict[str, int], n: int) -> str:
    """Report rows: rank, lemma, count, for the n lemmas rank_lemmas ranks."""
    ranked = rank_lemmas(counts, n)
    return write_rows((str(rank), lemma, str(counts[lemma])) for rank, lemma in enumerate(ranked, start=1))


def _form_pair(second: str, fields: list[str]) -> list[str]:
    if len(fields) != 2:
        got = "\t".join(fields)
        raise FormatError(f"expected 'form<TAB>{second}', got {got!r}")
    if not fields[0]:
        raise FormatError("empty form")
    return fields


def _lemma_row(fields: list[str]) -> list[str]:
    form, lemma = _form_pair("lemma", fields)
    if not lemma:
        raise FormatError("empty lemma")
    return fields


def _count_row(fields: list[str]) -> tuple[str, int]:
    form, count_tok = _form_pair("count", fields)
    digits = count_tok.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise FormatError(f"count {count_tok!r} is not an integer")
    count = int(count_tok)
    if count < 0:
        raise FormatError(f"negative count for form {form!r}")
    return form, count


def parse_frequency_table(text: str) -> FrequencyTable:
    counts: dict[str, int] = {}
    for line, (form, count) in parse_rows(text, _count_row):
        if form in counts:
            raise FormatError(f"duplicate form in frequency table: {form!r}", line)
        counts[form] = count
    return FrequencyTable(counts)
