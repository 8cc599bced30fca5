"""Lemma frequencies from a form frequency table.

Inputs: a frequency table with ``form<TAB>count`` lines and a form-to-lemma
map with ``form<TAB>lemma`` lines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import FormatError, iter_rows


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


def top_lemmas(table: FrequencyTable, n: int) -> list[str]:
    """The n most frequent lemmas, ties broken lexicographically."""
    if n < 1:
        raise ValueError("n must be at least 1")
    counts, _ = lemma_counts(table)
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return [lemma for lemma, _ in ranked[:n]]


def _pairs(text: str, second: str):
    """(line, form, second field) for each row of a two-column table."""
    for line, fields in iter_rows(text):
        if len(fields) != 2:
            got = "\t".join(fields)
            raise FormatError(f"expected 'form<TAB>{second}', got {got!r}", line)
        yield line, fields[0], fields[1]


def parse_frequency_table(text: str) -> tuple[tuple[str, int], ...]:
    rows = []
    for line, form, count_tok in _pairs(text, "count"):
        try:
            count = int(count_tok)
        except ValueError as exc:
            raise FormatError(f"count {count_tok!r} is not an integer", line) from exc
        if count < 0:
            raise FormatError(f"negative count for form {form!r}", line)
        rows.append((form, count))
    return tuple(rows)


def parse_lemma_map(text: str) -> dict[str, str]:
    mapping: dict[str, str] = {}
    for line, form, lemma in _pairs(text, "lemma"):
        if form in mapping:
            raise FormatError(f"duplicate form in lemma map: {form!r}", line)
        mapping[form] = lemma
    return mapping
