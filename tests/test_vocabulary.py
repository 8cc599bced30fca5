"""The classes valex defines: every closed token set is a Vocabulary, one
token table per set, and every model a slotted dataclass."""

import dataclasses
import enum
import importlib
import pkgutil

import pytest

import valex
from valex.errors import FormatError, Vocabulary


def _classes_in_valex(kind):
    found = set()
    for info in pkgutil.iter_modules(valex.__path__):
        module = importlib.import_module(f"valex.{info.name}")
        found.update(
            value for value in vars(module).values()
            if isinstance(value, type) and kind(value) and value.__module__.startswith("valex.")
        )
    return sorted(found, key=lambda cls: cls.__qualname__)


ENUMS = _classes_in_valex(lambda cls: issubclass(cls, enum.Enum))
MODELS = _classes_in_valex(dataclasses.is_dataclass)


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


def test_the_walk_finds_every_model():
    assert {cls.__qualname__ for cls in MODELS} >= {
        "LexicalEntry", "Lexicon", "ObservedFrame", "SentenceRecord", "MiningSentence", "SentenceAnnotation",
        "Scores", "MergeReport", "FrequencyTable",
    }


@pytest.mark.parametrize("model", MODELS, ids=lambda cls: cls.__qualname__)
def test_every_model_is_slotted(model):
    # no instance carries a __dict__ beside its fields; tests/test_memory.py bounds one record's size
    assert "__slots__" in vars(model)
    assert not hasattr(object.__new__(model), "__dict__")
