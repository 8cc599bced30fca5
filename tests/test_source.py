"""Guards on valex's source itself: no check is an assert statement, since
``python -O`` strips every one of them and the check with it."""

import ast
from pathlib import Path

import pytest

import valex

MODULES = sorted(Path(valex.__file__).parent.glob("**/*.py"))


def assert_lines(source: str) -> list[int]:
    """The line of every assert statement in source."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_the_walk_finds_every_module():
    assert {path.stem for path in MODULES} >= {
        "__init__", "checker", "cli", "errors", "freq", "lexicon", "markup", "merge", "mining", "passage", "relaxation",
    }


def test_an_assert_is_found_wherever_it_stands():
    source = "def f(x):\n    if x:\n        assert x, 'no'\n    return x\n\nassert True\n"
    assert sorted(assert_lines(source)) == [3, 6]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_check_is_an_assert_statement(path):
    assert assert_lines(path.read_text(encoding="utf-8")) == []
