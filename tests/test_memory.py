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

from valex.checker import ObservedFrame, diagnose_corpus, parse_corpus
from valex.cli import _parse_file, _write, main
from valex.errors import parse_rows, text_blocks
from valex.markup import (
    Constituent,
    ConstituentType,
    Relation,
    RelationType,
    SentenceAnnotation,
    parse_passage,
    serialize_passage,
)
from valex.mining import SentenceRecord, parse_records
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
    serialize_lexicon,
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


FORMS, SLOTS = ("donner", "voir"), frozenset({(F.SUJ, NP)})


@pytest.mark.parametrize("make", [
    lambda: SentenceRecord("s1", FORMS, True),
    lambda: ObservedFrame("donner", SLOTS),
], ids=["SentenceRecord", "ObservedFrame"])
def test_one_record_holds_no_dict(make):
    # fields shared, so only the objects and the list's pointers count:
    # 64.6 B an object on CPython 3.11-3.13 and 64.9-80.8 B on 3.10, whose
    # subclass repeats its base's slots; with a __dict__ beside the fields,
    # 96.8-104.9 B on 3.11-3.13 and 160.8-160.9 B on 3.10
    assert traced_peak(lambda: [make() for _ in range(10_000)]) / 10_000 < 88


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
        assert traced_peak(_write, out_dir, ["# valex test"], {"report.tsv": text_blocks(body)}) < MiB
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
    # only a block of pairs and each file's set of ids are held: 2.71-2.73
    # MiB at 5,000 sentences, each file about 4 MB, on CPython 3.11, so the
    # bound is twice the largest; 16.2-16.3 MiB when both models are held whole
    small, large = eval_pair(tmp_path, 1_000), eval_pair(tmp_path, 5_000)
    out = str(tmp_path / "out")
    assert main(["eval", *small, "--out", out]) == 0  # loads the modules eval runs
    peaks = [traced_peak(main, ["eval", *pair, "--mode", mode, "--out", out]) for pair in (small, large)]
    assert peaks[1] < 5.5 * MiB
    # from 1,000 to 5,000 sentences the peak grows by the two id sets alone,
    # 0.81-0.91 MiB; by 12.5 MiB when the models are held whole
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


def lexicon_and_corpus(n_lemmas: int, frame_of=lambda k, j: FRAMES[(k + j) % 4]):
    entries = [
        LexicalEntry(f"l{k}", Category.V, f"l{k}_{j}", tuple(FunctionSlot(*slot) for slot in frame_of(k, j)),
                     ACTIVE, True, (("src", f"l{k}_{j}"),))
        for k in range(n_lemmas) for j in range(3)
    ]
    frames = [ObservedFrame(f"l{k}", frozenset({(F.SUJ, NP)})) for k in range(n_lemmas)]
    corpus = [(f"s{k}", frames[k:k + 10]) for k in range(0, n_lemmas, 10)]
    return Lexicon.from_entries(entries), corpus


def test_write_streams_a_lexicon_body(tmp_path):
    # 5.5 MB of canonical lines, drawn from serialize_lexicon a block at a
    # time: 0.04 MiB on CPython 3.11; 12.4 MiB with every line and then
    # their join held before the first write
    lexicon, _ = lexicon_and_corpus(10_000)
    example = "une phrase d'exemple assez longue pour allonger chaque ligne " * 2
    lexicon = Lexicon.from_entries(dataclasses.replace(e, examples=(example,)) for e in lexicon.all_entries())
    header = ["# valex test"]
    assert traced_peak(lambda: _write(str(tmp_path), header, {"merged.lex": serialize_lexicon(lexicon)})) < MiB
    text = (tmp_path / "merged.lex").read_text(encoding="utf-8")
    assert len(text) > 4_000_000
    assert text == "# valex test\n" + "".join(serialize_lexicon(lexicon))


def test_diagnose_corpus_compiles_onto_shared_sets():
    # 6,000 entries over 4 frames, each entry with FunctionSlot objects of
    # its own: 0.80-0.82 MiB on CPython 3.10-3.13 (0.80 on 3.11, also with
    # one mask per distinct slot on the call's memo), with pair masks as with
    # one frozenset per distinct pair set, so the bound is twice the largest;
    # 5.8-6.0 MiB when each entry holds its own sets
    lexicon, corpus = lexicon_and_corpus(2_000)
    records, histogram = diagnose_corpus(lexicon, corpus)
    assert len(records) == 200 and sum(histogram.values()) == 0
    assert traced_peak(diagnose_corpus, lexicon, corpus) < 1.7 * MiB


PREPOSITIONS = ("à", "de", "sur", "dans", "par", "pour", "avec", "contre", "sous", "vers", "chez", "entre", "devant")


def one_pair_set(n: int):
    """A frame whose optional Obl takes the prepositions of n's set bits:
    a distinct pair set for each n from 1 to 2 ** 13 - 1."""
    return (F.SUJ, (NP,), False), (F.OBL, tuple(pp(p) for i, p in enumerate(PREPOSITIONS) if n >> i & 1), True)


def test_diagnose_corpus_compiles_distinct_pair_sets_onto_masks():
    # 6,000 entries with 6,000 distinct pair sets of 2-13 pairs: 1.51 MiB on
    # CPython 3.11, with a mask of its pairs per entry and one per distinct
    # slot on the call's memo, here one per entry; 0.98-1.00 MiB on 3.10-3.13
    # with the entry masks alone, for which the bound was set at twice the
    # largest; 5.09-5.11 MiB with a frozenset per entry
    lexicon, corpus = lexicon_and_corpus(2_000, lambda k, j: one_pair_set(3 * k + j + 1))
    records, histogram = diagnose_corpus(lexicon, corpus)
    assert len(records) == 200 and sum(histogram.values()) == 0
    assert traced_peak(diagnose_corpus, lexicon, corpus) < 2 * MiB


def test_frames_of_a_lemma_hold_one_lemma_string():
    # distinct frames of one lemma, in several contexts and slot lists, among another lemma's
    lines = [
        f"{lemma}\t{context}\t{slots}"
        for context in ("ACTIVE", "PASSIVE", "IMPERSONAL")
        for slots in ("Suj:NP", "Obj:NP;Suj:NP", "", "Suj:CLITIC;Obja:PP(à)")
        for lemma in ("dormir", "voir")
    ]
    text = "".join(f"s{k}\t{line}\n" for k, line in enumerate(lines))
    frames = [frame for _, group in parse_corpus(text) for frame in group]
    assert len(set(frames)) == len(frames) == 24
    for lemma in ("dormir", "voir"):
        held = [frame.lemma for frame in frames if frame.lemma == lemma]
        assert len(held) == 12 and all(string is held[0] for string in held)
