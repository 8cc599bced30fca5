"""Lemma frequencies from a form frequency table.

Inputs: a frequency table with ``form<TAB>count`` lines and a form-to-lemma
map with ``form<TAB>lemma`` lines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import FormatError, parse_rows


@dataclass(frozen=True)
class FrequencyTable:
    """Form counts plus a form-to-lemma map."""

    rows: tuple[tuple[str, int], ...]
    lemma_map: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple((f, c) for f, c in self.rows))
        for form, count in self.rows:
            if count < 0:
                raise ValueError(f"negative count for form {form!r}")


def lemma_counts(table: FrequencyTable) -> tuple[dict[str, int], int]:
    """Aggregate counts by mapped lemma; returns (counts, unmapped rows)."""
    counts: dict[str, int] = {}
    unmapped = 0
    for form, count in table.rows:
        lemma = table.lemma_map.get(form)
        if lemma is None:
            unmapped += 1
            continue
        counts[lemma] = counts.get(lemma, 0) + count
    return counts, unmapped


def rank_lemmas(counts: dict[str, int], n: int) -> list[str]:
    """The n lemmas with the highest counts, ties broken lexicographically."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return sorted(counts, key=lambda lemma: (-counts[lemma], lemma))[:n]


def top_lemmas(table: FrequencyTable, n: int) -> list[str]:
    """The n most frequent lemmas, ties broken lexicographically."""
    return rank_lemmas(lemma_counts(table)[0], n)


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


def _unique_forms(text: str, parse_row, what: str) -> dict:
    mapping: dict = {}
    for line, (form, value) in parse_rows(text, parse_row):
        if form in mapping:
            raise FormatError(f"duplicate form in {what}: {form!r}", line)
        mapping[form] = value
    return mapping


def parse_frequency_table(text: str) -> tuple[tuple[str, int], ...]:
    return tuple(_unique_forms(text, _count_row, "frequency table").items())


def parse_lemma_map(text: str) -> dict[str, str]:
    """The form-to-lemma map, holding one string per distinct lemma: each
    row's copy is dropped as it is read, which keeps the peak small."""
    lemmas: dict[str, str] = {}

    def row(fields: list[str]) -> tuple[str, str]:
        form, lemma = _lemma_row(fields)
        return form, lemmas.setdefault(lemma, lemma)

    return _unique_forms(text, row, "lemma map")
