"""Memory guards: what a layer allocates at its peak, traced with
tracemalloc, beyond what is live when it is called.  Unlike peak RSS, these
figures depend only on the code and the Python version, not on the machine."""

import dataclasses
import gc
import os
import sys
import tracemalloc
from collections import deque

import pytest

from valex.checker import ObservedFrame, diagnose_corpus
from valex.cli import _parse_file, _write, main
from valex.errors import parse_rows
from valex.markup import (
    Constituent,
    ConstituentType,
    Relation,
    RelationType,
    SentenceAnnotation,
    parse_passage,
    serialize_passage,
)
from valex.mining import parse_records
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


def traced_excess(function, *args) -> int:
    """Bytes allocated by function(*args) at its peak, beyond those live
    when it returns, the value it returns among them."""
    gc.collect()
    tracemalloc.start()
    try:
        value = function(*args)  # noqa: F841 - live until the figures are read
        live, peak = tracemalloc.get_traced_memory()
        return peak - live
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


def passage(n_sentences: int) -> list[SentenceAnnotation]:
    """Sentences of 20 tokens, one of them "œuvre", so that a text holding
    them takes 2 bytes a character; their items repeat, as a corpus's do."""
    words = ["le", "chat", "dort", "sur", "la", "porte", "œuvre", "du", "vieux", "mur", "qui", "tombe"]
    ctypes, rtypes = list(ConstituentType), list(RelationType)
    return [
        SentenceAnnotation(
            f"E{k}", tuple(words[(k + i) % len(words)] for i in range(20)),
            tuple(Constituent(ctypes[(k + j) % 6], j, j + 2) for j in range(0, 12, 3)),
            tuple(Relation(rtypes[(k + j) % 14], j, j + 1) for j in range(6)),
        )
        for k in range(n_sentences)
    ]


# serialize_passage's line shape, which the line matcher reads, and three that
# expat reads from the first sentence on
LAYOUTS = {
    "lines": lambda text: text,
    "lines without full": lambda text: text.replace(' full="yes"', ""),
    "one line per sentence": lambda text: text.replace("\n  <", "<").replace("\n</S>", "</S>"),
    "one line": lambda text: text.replace("\n", ""),
}


@pytest.mark.parametrize("layout", LAYOUTS)
def test_parse_file_holds_no_whole_passage_text(tmp_path, layout):
    # about 4 MB; the whole text alone would take 7-8 MB at 2 bytes a character
    path = tmp_path / "gold.xml"
    path.write_text(LAYOUTS[layout](serialize_passage(passage(5_000))), encoding="utf-8")
    assert path.stat().st_size > 3_500_000
    assert traced_excess(_parse_file, str(path), parse_passage) < MiB


def test_parse_file_holds_no_whole_tab_text(tmp_path):
    # about 4 MB of records of 100 forms each
    path = tmp_path / "records.tsv"
    forms = ",".join(f"forme{k}" for k in range(100))
    path.write_text("".join(f"s{k}\tok\t{forms}\n" for k in range(5_200)), encoding="utf-8")
    assert path.stat().st_size > 4_000_000
    assert traced_excess(_parse_file, str(path), parse_records) < MiB


def test_equal_items_in_different_blocks_are_one_object(tmp_path):
    path = tmp_path / "gold.xml"
    path.write_text(serialize_passage(passage(400)), encoding="utf-8")  # some 40 blocks
    annotations = _parse_file(str(path), parse_passage)
    assert annotations == passage(400)
    first, far = annotations[0].constituents[0], annotations[396].constituents[0]  # some 300,000 characters apart
    assert first == far and first is far
    items = [x for a in annotations for x in a.constituents + a.relations]
    assert len({id(x) for x in items}) == len(set(items))


def eval_pair(tmp_path, n_sentences: int) -> list[str]:
    """Gold and hypothesis files of passage(n_sentences), the hypothesis
    lacking each sentence's first constituent."""
    gold = passage(n_sentences)
    hyp = [dataclasses.replace(a, constituents=a.constituents[1:]) for a in gold]
    paths = [tmp_path / f"gold{n_sentences}.xml", tmp_path / f"hyp{n_sentences}.xml"]
    for path, annotations in zip(paths, (gold, hyp)):
        path.write_text(serialize_passage(annotations), encoding="utf-8")
    return [str(path) for path in paths]


@pytest.mark.parametrize("mode", ["exact", "overlap"])
def test_eval_holds_neither_model_whole(tmp_path, mode):
    # gold and hypothesis are read and scored a sentence pair at a time, so
    # only a block of pairs and each file's set of ids are held: 2.72-2.76
    # MiB at 5,000 sentences, each file about 4 MB, on CPython 3.11, so the
    # bound is twice the largest; 16.2-16.3 MiB when both models are held whole
    small, large = eval_pair(tmp_path, 1_000), eval_pair(tmp_path, 5_000)
    out = str(tmp_path / "out")
    assert main(["eval", *small, "--out", out]) == 0  # loads the modules eval runs
    peaks = [traced_peak(main, ["eval", *pair, "--mode", mode, "--out", out]) for pair in (small, large)]
    assert peaks[1] < 5.5 * MiB
    # from 1,000 to 5,000 sentences the peak grows by the two id sets alone,
    # 0.80-0.90 MiB; by 12.5 MiB when the models are held whole
    assert peaks[1] - peaks[0] < 1.8 * MiB


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
