"""The line layer's block split: errors.parse_rows reads a text BLOCK
characters at a time and must give the rows and line numbers that splitting
the whole text gives, wherever a line falls against a block boundary; and
errors.write_rows yields blocks of whole lines that join into the document
of every row."""

import random
import re

import pytest

from valex.cli import _parse_file, _write
from valex.errors import BLOCK, FormatError, parse_rows, write_rows


def parse_row(fields):
    if fields[0] == "bad":
        raise ValueError(f"bad row {fields!r}")
    return tuple(fields)


def reference(text):
    """(rows, line of the first failure or None), from the whole text split at once."""
    rows = []
    for line, raw in enumerate(text.split("\n"), start=1):
        raw = raw.removesuffix("\r")
        if not raw.strip(" \t") or raw.startswith("#"):
            continue
        if "\r" in raw:
            return rows, line
        try:
            rows.append((line, parse_row(raw.split("\t"))))
        except ValueError:
            return rows, line
    return rows, None


def block_split(text):
    """(rows, line of the first failure or None), from parse_rows."""
    rows = []
    try:
        for row in parse_rows(text, parse_row):
            rows.append(row)
    except FormatError as exc:
        return rows, exc.line
    return rows, None


def filler(n, eol):
    """Lines of n characters in all (n > 20), each ending in eol: rows,
    blank lines and ``#`` lines."""
    units = ["r\tk" + eol, eol, "# c" + eol, "r\t12\tv" + eol]
    lines = []
    while n > 20:
        lines.append(units[len(lines) % len(units)])
        n -= len(lines[-1])
    return "".join(lines) + "#" * (n - len(eol)) + eol


SEGMENT = BLOCK + 1  # a block of a text whose LF falls right at each search point


def text_with(special, where, boundary, eol="\n", final_eol=True):
    """A text of at least three blocks holding the line special: the last
    line of block number boundary, the first line of the next block, or a
    line that straddles their boundary (it starts two characters before the
    point from which the block's closing LF is sought)."""
    head = filler(SEGMENT, eol) * (boundary - 1)  # each ends with the LF that closes its block
    before = {"last": SEGMENT - len(special) - len(eol), "first": SEGMENT, "straddle": SEGMENT - 3}[where]
    tail = filler(2 * SEGMENT, eol) + "r\tend" + (eol if final_eol else "")
    return head + filler(before, eol) + special + eol + tail


@pytest.mark.parametrize("eol", ["\n", "\r\n"])
@pytest.mark.parametrize("final_eol", [True, False])
def test_rows_and_lines_equal_the_whole_text_split(eol, final_eol):
    text = text_with("r\tmid", "last", 1, eol, final_eol)
    assert len(text) > 3 * BLOCK
    rows, failure = block_split(text)
    assert (rows, failure) == reference(text)
    assert failure is None
    assert rows[-1] == (text.count("\n") + (not final_eol), ("r", "end"))


def test_text_shorter_than_a_block():
    for text in ("", "\n", "a\tb", "a\tb\n", "#\n\na\r\n"):
        assert block_split(text) == reference(text)


@pytest.mark.parametrize("boundary", [1, 2])
@pytest.mark.parametrize("where", ["last", "first", "straddle"])
@pytest.mark.parametrize("eol", ["\n", "\r\n"])
@pytest.mark.parametrize("special", ["r\tlone\rcr", "bad\trow"])
def test_failure_at_a_block_boundary_has_its_line(special, eol, where, boundary):
    text = text_with(special, where, boundary, eol)
    if where == "last":  # the LF that closes the block ends the special line
        assert text[boundary * SEGMENT - 1] == "\n"
        assert text[boundary * SEGMENT - len(eol) - len(special):].startswith(special)
    rows, failure = block_split(text)
    expected_rows, expected_failure = reference(text)
    assert rows == expected_rows
    assert failure == expected_failure == text[: text.index(special)].count("\n") + 1


@pytest.mark.parametrize("where", ["last", "first", "straddle"])
def test_failure_at_a_block_boundary_names_file_and_line(tmp_path, where):
    text = text_with("bad\trow", where, 2)
    path = tmp_path / "rows.tsv"
    path.write_text(text, encoding="utf-8")
    _, line = reference(text)
    with pytest.raises(ValueError) as err:
        _parse_file(str(path), lambda text: list(parse_rows(text, parse_row)))
    assert str(err.value) == f"{path}:{line}: bad row ['bad', 'row']"


def document(rows):
    """The rows as one text of LF-terminated tab-separated lines."""
    return "".join("\t".join(fields) + "\n" for fields in rows)


def random_rows(rng):
    """Up to 60 rows of 1-4 fields, some of a few characters, some longer than a block."""
    def field():
        n = rng.choice([0, 1, 5, 80, BLOCK // 3, BLOCK + 7])
        return "".join(rng.choice("ab é€\U0001f600") for _ in range(n))

    return [["r" + field(), *(field() for _ in range(rng.randint(0, 3)))] for _ in range(rng.randint(0, 60))]


def test_write_rows_blocks_join_to_the_document_of_whole_lines():
    rng = random.Random(37)
    for _ in range(60):
        rows = random_rows(rng)
        blocks = list(write_rows(rows))
        assert "".join(blocks) == document(rows)
        for k, block in enumerate(blocks):
            assert block.endswith("\n")
            assert block[:-1].rfind("\n") + 1 < BLOCK  # what precedes its last line: under BLOCK
            assert len(block) >= BLOCK or k == len(blocks) - 1  # only the last block is short


def test_write_rows_yields_the_blocks_before_a_refused_row():
    bad = "tab\there"
    rows = [("r", "x" * 100)] * 300 + [("r", bad)]
    blocks = []
    with pytest.raises(ValueError, match=re.escape(f"field {bad!r} contains a tab or line break")):
        for block in write_rows(rows):
            blocks.append(block)
    good = list(write_rows(rows[:-1]))
    assert len(good) > 2 and len(good[-1]) < BLOCK
    assert blocks == good[:-1]  # the block the refused row would close is not yielded


def test_no_rows_give_an_empty_body_and_a_header_only_report(tmp_path):
    assert list(write_rows([])) == []
    _write(str(tmp_path), ["# valex test"], {"empty.tsv": write_rows([])})
    assert (tmp_path / "empty.tsv").read_text(encoding="utf-8") == "# valex test\n"
