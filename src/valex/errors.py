"""Shared exception type and the line layer of the tab-separated formats.

Every tab-separated format reads its rows with iter_rows and writes them
with write_rows, so one rule decides what a line is; see "File formats"
in the README.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence


class FormatError(ValueError):
    """Malformed input document.

    Carries the bare message and the 1-based line number of the offending
    line when known, so that callers can point at the exact spot in a file.
    """

    def __init__(self, message: str, line: int | None = None):
        self.message = message
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


def iter_rows(text: str) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, tab-separated fields) for every data line.

    Lines end at LF only, and one trailing CR is dropped, so a CRLF
    document reads like its LF form.  Blank lines and lines starting with
    ``#`` are skipped.
    """
    for line, raw in enumerate(text.split("\n"), start=1):
        if raw.endswith("\r"):
            raw = raw[:-1]
        if not raw.strip() or raw.startswith("#"):
            continue
        yield line, raw.split("\t")


def write_rows(rows: Iterable[Sequence[str]]) -> str:
    """Join rows into a document of LF-terminated tab-separated lines.

    Raises ValueError for a field holding a tab, CR or LF, and for a first
    field starting with ``#``: iter_rows would not read either back.
    """
    lines = []
    for fields in rows:
        text = "\t".join(fields)
        if text.count("\t") != len(fields) - 1 or "\n" in text or "\r" in text:
            bad = next(f for f in fields if "\t" in f or "\n" in f or "\r" in f)
            raise ValueError(f"field {bad!r} contains a tab or line break and cannot be serialized")
        if text.startswith("#"):
            raise ValueError(f"first field {fields[0]!r} starts with '#' and cannot be serialized")
        lines.append(text + "\n")
    return "".join(lines)


def lookup(table: Mapping, token: str | None, what: str, line: int | None = None):
    """table[token], or a FormatError naming the unknown token."""
    try:
        return table[token]
    except KeyError:
        raise FormatError(f"unknown {what}: {token!r}", line) from None


def cached(memo: dict, key, parse, line: int):
    """memo[key], or parse(key, line) stored there.  Only successes are
    stored, so a bad key fails again, at its own line, wherever it occurs."""
    value = memo.get(key)
    if value is None:
        value = memo[key] = parse(key, line)
    return value
