"""Memory guards: what a layer allocates at its peak, traced with
tracemalloc, beyond what is live when it is called.  Unlike peak RSS, these
figures depend only on the code and the Python version, not on the machine."""

import gc
import os
import sys
import tracemalloc
from collections import deque

import pytest

from valex.checker import ObservedFrame, diagnose_corpus
from valex.cli import _write
from valex.errors import parse_rows
from valex.lexicon import (
    CLITIC,
    NP,
    Category,
    FunctionSlot,
    LexicalEntry,
    Lexicon,
    Redistribution,
    SyntacticFunction,
    pp,
)

F = SyntacticFunction
MiB = 1 << 20


def traced_peak(function, *args) -> int:
    """Bytes allocated by function(*args) at its peak, beyond those live before the call."""
    gc.collect()
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        function(*args)
        return tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()


def test_parse_rows_holds_no_line_list():
    # 4 MB of text; a list of its 400,000 lines would be about 26 MB
    text = "".join(f"w{k:06d}\t{k % 10}\n" for k in range(400_000))
    assert traced_peak(lambda: deque(parse_rows(text, lambda fields: None), maxlen=0)) < MiB


@pytest.mark.parametrize("to", ["out", "stdout"])
def test_write_makes_no_copy_of_the_report(tmp_path, monkeypatch, to):
    body = "donner\t12\n" * (16 * MiB // 10)
    with open(os.devnull, "w", encoding="utf-8") as devnull:
        monkeypatch.setattr(sys, "stdout", devnull)
        out_dir = str(tmp_path) if to == "out" else None
        assert traced_peak(_write, out_dir, "report.tsv", ["# valex test"], body) < MiB
    if to == "out":
        assert (tmp_path / "report.tsv").stat().st_size == len(body) + len("# valex test\n")


# A few frames that every lemma's entries repeat, as the entries of a real
# lexicon do: the compiled entries hold one set per distinct frame.
FRAMES = [
    ((F.SUJ, (NP,), False),),
    ((F.SUJ, (NP, CLITIC), False), (F.OBJ, (NP,), False)),
    ((F.SUJ, (NP,), False), (F.OBJ, (NP,), True), (F.OBJA, (pp("à"), CLITIC), False)),
    ((F.SUJ, (NP,), False), (F.OBJDE, (pp("de"),), True)),
]
ACTIVE = frozenset({Redistribution.ACTIVE})


def lexicon_and_corpus(n_lemmas: int):
    entries = [
        LexicalEntry(f"l{k}", Category.V, f"l{k}_{j}", tuple(FunctionSlot(*slot) for slot in FRAMES[(k + j) % 4]),
                     ACTIVE, True, (("src", f"l{k}_{j}"),))
        for k in range(n_lemmas) for j in range(3)
    ]
    frames = [ObservedFrame(f"l{k}", frozenset({(F.SUJ, NP)})) for k in range(n_lemmas)]
    corpus = [(f"s{k}", frames[k:k + 10]) for k in range(0, n_lemmas, 10)]
    return Lexicon.from_entries(entries), corpus


def test_diagnose_corpus_compiles_onto_shared_sets():
    # 6,000 entries over 4 frames: 0.81-0.85 MiB on CPython 3.10-3.13, so the
    # bound is twice the largest; 5.8-6.0 MiB when each entry holds its own sets
    lexicon, corpus = lexicon_and_corpus(2_000)
    records, histogram = diagnose_corpus(lexicon, corpus)
    assert len(records) == 200 and sum(histogram.values()) == 0
    assert traced_peak(diagnose_corpus, lexicon, corpus) < 1.7 * MiB
