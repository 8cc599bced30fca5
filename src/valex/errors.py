"""Shared exception type, vocabulary base, text blocks and line layer of the tab formats.

Every reader takes its text as a str or as text blocks, through
text_blocks, and every report writer returns its body as text blocks, from
write_rows.  Every tab-separated format reads its rows with parse_rows and
writes them with write_rows, so one rule decides what a line is, and
parse_rows alone gives a row's parse error its line; see "File formats" in
the README.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

T = TypeVar("T")


class FormatError(ValueError):
    """Malformed input document.

    Carries the bare message and the 1-based line number of the offending
    line when known, so that callers can point at the exact spot in a file.
    """

    def __init__(self, message: str, line: int | None = None):
        self.message, self.line = message, line
        super().__init__(message if line is None else f"line {line}: {message}")


# Characters (or bytes) split, read or written at a time, so that no copy of
# a whole text is held.  Small blocks reuse the same heap memory block after
# block: 64 Ki left holes in the C heap that kept 4 MB more of `eval` resident.
BLOCK = 1 << 13


def text_blocks(text: str | Iterable[str]) -> Iterable[str]:
    """text as blocks: a str is cut every BLOCK characters, and an iterable
    of blocks, such as a file decoded a block at a time, is kept as it is."""
    if isinstance(text, str):
        return (text[start:start + BLOCK] for start in range(0, len(text), BLOCK))
    return text


def _lines(text: str | Iterable[str]) -> Iterator[tuple[bool, list[str]]]:
    """The lines of text, split at every LF, one list per block with
    whether that list may hold a CR.  A line that spans blocks is joined
    whole into the list of the block that ends it."""
    pieces: list[str] = []  # the line not yet ended, as the blocks it spans hold it
    for block in text_blocks(text):
        if "\n" not in block:
            pieces.append(block)
            continue
        lines = block.split("\n")
        if pieces:
            pieces.append(lines[0])
            lines[0] = "".join(pieces)
        pieces = [lines.pop()]
        yield "\r" in block or "\r" in lines[0], lines
    last = "".join(pieces)
    yield "\r" in last, [last]


def parse_rows(text: str | Iterable[str], parse_row: Callable[[list[str]], T]) -> Iterator[tuple[int, T]]:
    """Yield (line number, parse_row(tab-separated fields)) for every data line.

    text is a str or an iterable of text blocks, split anywhere.  Lines end
    at LF only and one trailing CR is dropped, so CRLF reads as LF; any
    other CR in a data line is a FormatError, as no field holds one.  Blank
    lines and lines starting with ``#`` are skipped.  A ValueError from
    parse_row becomes a FormatError at the row's line.  No list of all the
    lines is held: they are split a block at a time.
    """
    first = 1
    for has_cr, lines in _lines(text):  # one test per block spares a CR-free one both line tests
        for line, raw in enumerate(lines, start=first):
            if has_cr and raw.endswith("\r"):
                raw = raw[:-1]
            if not raw.strip(" \t") or raw.startswith("#"):
                continue
            if has_cr and "\r" in raw:
                bad = next(f for f in raw.split("\t") if "\r" in f)
                raise FormatError(f"field {bad!r} contains a CR that does not end its line", line)
            try:
                row = parse_row(raw.split("\t"))
            except ValueError as exc:
                raise FormatError(str(exc), line) from exc
            yield line, row
        first += len(lines)


def write_rows(rows: Iterable[Sequence[str]]) -> Iterator[str]:
    """Yield rows as LF-terminated tab-separated lines, joined into blocks of
    whole lines, each yielded once it holds BLOCK characters or more.

    Raises ValueError for a row parse_rows would not read back: a blank
    one, a field holding a tab, CR or LF, or a first field starting with
    ``#``.  Rows are checked as they are drawn, so the error comes after
    the blocks before its row's block are yielded, and that block is not.
    """
    lines, size = [], 0  # size: the characters in lines
    for fields in rows:
        text = "\t".join(fields)
        if not text.strip(" \t"):
            raise ValueError(f"row {tuple(fields)!r} is blank and cannot be serialized")
        if text.count("\t") != len(fields) - 1 or "\n" in text or "\r" in text:
            bad = next(f for f in fields if "\t" in f or "\n" in f or "\r" in f)
            raise ValueError(f"field {bad!r} contains a tab or line break and cannot be serialized")
        if text.startswith("#"):
            raise ValueError(f"first field {fields[0]!r} starts with '#' and cannot be serialized")
        lines.append(text + "\n")
        size += len(text) + 1
        if size >= BLOCK:
            yield "".join(lines)
            lines, size = [], 0
    if lines:
        yield "".join(lines)


class Vocabulary(Enum):
    """A closed token set: each member's value is the token that names it.

    Members hash by identity: they are singletons, and Enum's own __hash__
    is a Python-level call on every set and dict lookup.  No report depends
    on the iteration order of a set of members.
    """

    __hash__ = object.__hash__

    @classmethod
    def parse(cls, token: str | None, what: str):
        """The member token names, or a FormatError naming the unknown token."""
        try:
            return cls._value2member_map_[token]
        except KeyError:
            raise FormatError(f"unknown {what}: {token!r}") from None
