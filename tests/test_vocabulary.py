"""Every closed token set in valex is a Vocabulary: one token table per set."""

import enum
import importlib
import pkgutil

import pytest

import valex
from valex.errors import FormatError, Vocabulary


def _enums_in_valex():
    found = set()
    for info in pkgutil.iter_modules(valex.__path__):
        module = importlib.import_module(f"valex.{info.name}")
        found.update(
            value for value in vars(module).values()
            if isinstance(value, type) and issubclass(value, enum.Enum)
            and value.__module__.startswith("valex.")
        )
    return sorted(found, key=lambda cls: cls.__qualname__)


ENUMS = _enums_in_valex()


def test_the_walk_finds_every_vocabulary():
    assert {cls.__qualname__ for cls in ENUMS} >= {
        "SyntacticFunction", "Category", "Redistribution", "Marker", "ConstituentType",
        "RelationType", "RelaxationMode", "FailureReason",
    }


@pytest.mark.parametrize("vocabulary", ENUMS, ids=lambda cls: cls.__qualname__)
def test_every_enum_is_a_vocabulary(vocabulary):
    assert issubclass(vocabulary, Vocabulary)
    assert vocabulary.__hash__ is object.__hash__
    for member in vocabulary:
        assert hash(member) == object.__hash__(member)
        assert vocabulary.parse(member.value, "x") is member
    for token in ("\x00", None, ""):
        with pytest.raises(FormatError) as err:
            vocabulary.parse(token, "x")
        assert err.value.message == f"unknown x: {token!r}"
        assert err.value.line is None
