import errno
import functools
import gc
import io
import itertools
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import valex
from valex import __version__, cli
from valex.cli import _manifest_lines, _parse_file, main
from valex.checker import parse_corpus
from valex.errors import BLOCK, FormatError, write_rows
from valex.freq import FrequencyTable, lemma_counts, parse_frequency_table, rank_lemmas
from valex.lexicon import Category, LexicalEntry, Lexicon, parse_lexicon, serialize_lexicon
from valex.mining import (
    MiningParams,
    build_mining_corpus,
    compute_suspicion,
    parse_records,
)
from valex.markup import (
    Constituent,
    ConstituentType,
    Relation,
    RelationType,
    SentenceAnnotation,
    parse_passage,
    serialize_passage,
)
from valex.passage import RelaxationMode, coverage, score_corpus, serialize_eval_report

from gen import LINE_BREAK_LOOKALIKES

LEXICON = (
    "# toy lexicon\n"
    "donner\tV\tdonner__1\tSuj:NP|CLITIC;Obj:NP;Obja?:PP(à)|CLITIC\tACTIVE,PASSIVE\tcoded\tlefff:1380\n"
    "dormir\tV\tdormir__1\tSuj:NP\tACTIVE\tcoded\tlefff:10\n"
)

OTHER_LEXICON = (
    "donner\tV\tlg.1\tSuj:NP;Obj:NP;Obja:PP(à);Loc:PP(à)\tACTIVE\tcoded\tlglex:7\n"
    "mijoter\tV\tlg.2\tSuj:NP;Obj?:NP\tACTIVE\tcoded\tlglex:8\n"
)

CORPUS = (
    "s1\tdonner\tACTIVE\tSuj:NP;Obj:NP\n"
    "s2\tdonner\tPASSIVE\tObj:NP\n"
    "s3\tdormir\tACTIVE\tSuj:NP\n"
    "s4\tvouloir\tACTIVE\tSuj:NP\n"
)

GOLD_DOC = (
    '<S id="E1">\n'
    '  <W ix="0">le</W>\n'
    '  <W ix="1">chat</W>\n'
    '  <W ix="2">dort</W>\n'
    '  <G type="GN" start="0" end="2"/>\n'
    '  <R type="SUJ-V" src="1" tgt="2"/>\n'
    "</S>\n"
)

SHIFTED_DOC = GOLD_DOC.replace('end="2"/>', 'end="1"/>', 1)

REF_RECORDS = "s1\tok\ta,b\ns2\tok\ta\ns3\tok\tb\n"
HYP_RECORDS = "s1\tfailed\ta,b\ns2\tfailed\ta\ns3\tok\tb\n"

FREQ_TABLE = "donne\t5\ndonnes\t3\nva\t2\nxyz\t7\n"
LEMMA_MAP = "donne\tdonner\ndonnes\tdonner\nva\taller\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def body_lines(path):
    text = path.read_text(encoding="utf-8")
    return [l for l in text.splitlines() if not l.startswith("#")]


def header_lines(path):
    text = path.read_text(encoding="utf-8")
    return [l for l in text.splitlines() if l.startswith("#")]


def lemma_map_text(rows):
    return "".join(f"{form}\t{lemma}\n" for form, lemma in rows)


def fold_lemma_map(text):
    """The lemma map read through the fold, with the FREQ_TABLE table bound."""
    return lemma_counts(parse_frequency_table(FREQ_TABLE), text)


class TestFrequency:
    def table(self):
        return parse_frequency_table(FREQ_TABLE)

    def test_lemma_counts(self):
        counts, unmapped = lemma_counts(self.table(), LEMMA_MAP)
        assert counts == {"donner": 8, "aller": 2}
        assert unmapped == 1

    def test_top_lemmas(self):
        assert rank_lemmas(lemma_counts(self.table(), LEMMA_MAP)[0], 1) == ["donner"]
        assert rank_lemmas(lemma_counts(self.table(), LEMMA_MAP)[0], 10) == ["donner", "aller"]

    def test_ties_break_lexicographically(self):
        table = FrequencyTable({"x": 5, "y": 5, "z": 9})
        mapping = lemma_map_text([("x", "beta"), ("y", "alpha"), ("z", "gamma")])
        assert rank_lemmas(lemma_counts(table, mapping)[0], 3) == ["gamma", "alpha", "beta"]

    def test_aggregation_oracle(self):
        rng = random.Random(139)
        for _ in range(20):
            forms = [f"f{k}" for k in range(rng.randint(1, 15))]
            table = {f: rng.randint(0, 9) for f in forms if rng.random() < 0.8}
            mapping = {f: f"l{rng.randint(0, 3)}" for f in forms if rng.random() < 0.8}
            expected = {}
            missing = 0
            for form, count in table.items():
                if form in mapping:
                    lemma = mapping[form]
                    expected[lemma] = expected.get(lemma, 0) + count
                else:
                    missing += 1
            assert lemma_counts(FrequencyTable(table), lemma_map_text(mapping.items())) == (expected, missing)

    def test_fold_oracle(self):
        # forms only in the table, forms only in the map, and a repeated map
        # form that the table has or lacks, against a plain-dict reference
        rng = random.Random(211)
        repeats = {True: 0, False: 0}  # by whether the table has the repeated form
        for _ in range(300):
            forms = [f"f{k}" for k in range(rng.randint(1, 12))]
            table = {f: rng.randint(0, 99) for f in forms if rng.random() < 0.7}
            rows = [(f, f"l{rng.randint(0, 3)}") for f in forms if rng.random() < 0.7]
            if rows and rng.random() < 0.5:
                rows.insert(rng.randint(1, len(rows)), (rng.choice(rows)[0], "l9"))
            rng.shuffle(rows)
            mapping, repeat = {}, None
            for line, (form, lemma) in enumerate(rows, start=1):
                if form in mapping:
                    repeat = (line, form)
                    break
                mapping[form] = lemma
            expected = {}
            for form, count in table.items():
                if form in mapping:
                    expected[mapping[form]] = expected.get(mapping[form], 0) + count
            reference = (expected, sum(form not in mapping for form in table))
            frozen = FrequencyTable(dict(table))
            text = lemma_map_text(rows)
            if repeat is None:
                assert lemma_counts(frozen, text) == reference
            else:
                line, form = repeat
                repeats[form in table] += 1
                with pytest.raises(FormatError) as err:
                    lemma_counts(frozen, text)
                assert (err.value.line, err.value.message) == (line, f"duplicate form in lemma map: {form!r}")
            # a second fold of the same table, after a whole or an aborted one, counts alike
            assert lemma_counts(frozen, lemma_map_text(mapping.items())) == reference
            assert frozen.counts == table
        assert min(repeats.values()) >= 10

    def test_validation(self):
        with pytest.raises(ValueError):
            FrequencyTable({"a": -1})
        with pytest.raises(ValueError):
            rank_lemmas(lemma_counts(self.table(), LEMMA_MAP)[0], 0)

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("a\tb\tc", "form<TAB>count"),
            ("a\tx", "not an integer"),
            ("a\t-3", "negative count"),
            ("a\t1_000", "not an integer"),
            ("a\t +3 ", "not an integer"),
            ("a\t\u0665", "not an integer"),
        ],
    )
    def test_table_parse_errors(self, text, fragment):
        with pytest.raises(FormatError) as err:
            parse_frequency_table("# head\n" + text + "\n")
        assert "line 2" in str(err.value)
        assert fragment in str(err.value)

    def test_map_rejects_duplicate_form(self):
        for table in ("", "a\t1\n"):  # a form the table lacks, then one it has
            with pytest.raises(FormatError, match="duplicate form") as err:
                lemma_counts(parse_frequency_table(table), "a\tx\na\ty\n")
            assert err.value.line == 2

    def test_map_rows_after_a_comment_are_counted(self):
        table = parse_frequency_table(FREQ_TABLE + "donnait\t4\nallez\t1\n")
        counts = lemma_counts(table, LEMMA_MAP + "# c\ndonnait\tdonner\nallez\taller\n")
        assert counts == ({"donner": 12, "aller": 3}, 1)


class TestManifest:
    def test_header_lines(self):
        pairs = [("input gold", "g.xml"), ("input hyp", "h.xml"), ("mode", "left")]
        assert _manifest_lines(pairs) == ["# input gold: g.xml", "# input hyp: h.xml", "# mode: left"]

    @pytest.mark.parametrize("pairs", [
        [("input lexicon", "x\ny.lex")],
        [("input lexicon", "x.lex"), ("mode", "left\n")],
        [("input lexicon\n", "x.lex")],
    ])
    def test_value_holding_lf_refused(self, pairs):
        # a "#" line ends at LF, and what followed one would read back as a data line
        with pytest.raises(ValueError, match="holds an LF and cannot be written"):
            _manifest_lines(pairs)

    @pytest.mark.parametrize("pairs", [
        [("input lexicon", "a\udcff.lex")],  # the path bytes b"a\xff.lex", decoded by the OS layer
        [("input lexicon", "x.lex"), ("mode", "\ud800")],
    ])
    def test_value_utf8_cannot_encode_refused(self, pairs):
        with pytest.raises(ValueError, match="is not valid UTF-8 and cannot be written"):
            _manifest_lines(pairs)

    def test_value_holding_cr_reads_back_as_a_comment(self):
        lines = _manifest_lines([("input lexicon", "x\ry.lex")])
        assert parse_records("".join(line + "\n" for line in lines)) == []


def _mine_params(max_iterations):
    corpus = build_mining_corpus(parse_records(REF_RECORDS), parse_records(HYP_RECORDS))
    result = compute_suspicion(corpus, MiningParams(max_iterations=max_iterations))
    return [
        "# epsilon: 1e-09",
        f"# max_iterations: {max_iterations}",
        f"# iterations_used: {result.iterations_used}",
        f"# converged: {'yes' if result.converged else 'no'}",
        f"# final_delta: {result.final_delta!r}",
    ]


@pytest.mark.parametrize(
    "command, inputs, options, params, reports",
    [
        ("lex parse", (("lexicon", LEXICON),), [], [], ["canonical.lex"]),
        ("lex stats", (("lexicon", LEXICON),), [], [], ["stats.tsv"]),
        (
            "merge", (("ref", LEXICON), ("other", OTHER_LEXICON)), [], [],
            ["merge_report.tsv", "merged.lex"],
        ),
        (
            "check", (("lexicon", LEXICON), ("corpus", CORPUS)), [], [],
            ["failures.tsv", "records.tsv"],
        ),
        (
            "eval", (("gold", GOLD_DOC), ("hyp", SHIFTED_DOC)), ["--mode", "left"],
            ["# mode: left"], ["eval_report.tsv"],
        ),
        (
            "mine", (("ref_records", REF_RECORDS), ("hyp_records", HYP_RECORDS)),
            ["--max-iter", "3"], _mine_params(3), ["suspects.tsv"],
        ),
        (
            "freq", (("freq_table", FREQ_TABLE), ("lemma_map", LEMMA_MAP)), ["--n", "1"],
            ["# n: 1"], ["top_lemmas.tsv"],
        ),
    ],
)
def test_every_report_header_is_version_then_inputs_then_params(
    tmp_path, command, inputs, options, params, reports
):
    paths = [write(tmp_path, f"{name}.in", text) for name, text in inputs]
    out = tmp_path / "out"
    assert main([*command.split(), *paths, *options, "--out", str(out)]) == 0
    expected = [
        f"# valex {__version__}",
        *(f"# input {name}: {path}" for (name, _), path in zip(inputs, paths)),
        *params,
    ]
    assert sorted(p.name for p in out.iterdir()) == reports
    for name in reports:
        lines = (out / name).read_text(encoding="utf-8").splitlines()
        assert list(itertools.takewhile(lambda l: l.startswith("#"), lines)) == expected


class TestLexCommands:
    def test_parse_canonicalizes(self, tmp_path, capsys):
        lex_path = write(tmp_path, "toy.lex", LEXICON)
        out = tmp_path / "out"
        assert main(["lex", "parse", lex_path, "--out", str(out)]) == 0
        report = out / "canonical.lex"
        assert header_lines(report)[0] == f"# valex {__version__}"
        assert f"# input lexicon: {lex_path}" in header_lines(report)
        lines = body_lines(report)
        assert lines[0].split("\t")[3] == "Suj:CLITIC|NP;Obj:NP;Obja?:CLITIC|PP(à)"
        assert parse_lexicon(report.read_text(encoding="utf-8")) == parse_lexicon(LEXICON)

    def test_parse_to_stdout(self, tmp_path, capsys):
        lex_path = write(tmp_path, "toy.lex", LEXICON)
        assert main(["lex", "parse", lex_path]) == 0
        captured = capsys.readouterr()
        assert "donner\tV\tdonner__1" in captured.out

    def test_stdout_report_is_utf8_whatever_the_locale(self, tmp_path, monkeypatch):
        lex_path = write(tmp_path, "toy.lex", LEXICON.replace("lefff:10\n", "lefff:10\tà 日本\n"))
        assert main(["lex", "parse", lex_path, "--out", str(tmp_path / "out")]) == 0
        report = (tmp_path / "out" / "canonical.lex").read_bytes()
        assert "\tà 日本\n".encode() in report
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="latin-1")
        monkeypatch.setattr(sys, "stdout", stdout)
        stdout.write("before\n")  # text written earlier comes out first
        assert main(["lex", "parse", lex_path]) == 0
        stdout.flush()
        assert stdout.buffer.getvalue() == b"before\n" + report
        text_only = io.StringIO()  # a stream with no byte layer takes the text
        monkeypatch.setattr(sys, "stdout", text_only)
        assert main(["lex", "parse", lex_path]) == 0
        assert text_only.getvalue() == report.decode("utf-8")

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
    def test_out_report_mode_follows_the_umask(self, tmp_path, umask, mode):
        # as a shell redirection creates a file: 0o666 less the umask
        lex_path = write(tmp_path, "toy.lex", LEXICON)
        out = tmp_path / "out"
        caller_umask = os.umask(umask)
        try:
            assert main(["lex", "parse", lex_path, "--out", str(out)]) == 0
        finally:
            os.umask(caller_umask)
        assert [(p.name, p.stat().st_mode & 0o777) for p in out.iterdir()] == [("canonical.lex", mode)]

    def test_stats(self, tmp_path):
        lex_path = write(tmp_path, "toy.lex", LEXICON)
        out = tmp_path / "out"
        assert main(["lex", "stats", lex_path, "--out", str(out)]) == 0
        assert body_lines(out / "stats.tsv") == [
            "lemmas\t2",
            "entries\t2",
            "max_entries_per_lemma\t1",
            "top\t1\tdonner\t1",
            "top\t2\tdormir\t1",  # ties by lemma
        ]


class TestMergeCommand:
    def test_outputs(self, tmp_path):
        ref = write(tmp_path, "ref.lex", LEXICON)
        other = write(tmp_path, "other.lex", OTHER_LEXICON)
        out = tmp_path / "out"
        assert main(["merge", ref, other, "--out", str(out)]) == 0
        merged = parse_lexicon((out / "merged.lex").read_text(encoding="utf-8"))
        assert sorted(merged.entries) == ["donner", "dormir", "mijoter"]
        # ref donner absorbs the other donner: Loc slot and provenance fused
        (donner,) = merged.entries["donner"]
        assert donner.entry_id == "donner__1"
        assert ("lglex", "7") in donner.provenance
        report_lines = body_lines(out / "merge_report.tsv")
        assert "donner\t1\t1\t1\tno" in report_lines
        last = (out / "merge_report.tsv").read_text(encoding="utf-8").splitlines()[-1]
        assert last.startswith("#TOTALS ")
        assert "lemmas=3" in last

    def test_deterministic_reruns(self, tmp_path):
        ref = write(tmp_path, "ref.lex", LEXICON)
        other = write(tmp_path, "other.lex", OTHER_LEXICON)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["merge", ref, other, "--out", str(out1)]) == 0
        assert main(["merge", ref, other, "--out", str(out2)]) == 0
        assert (out1 / "merged.lex").read_bytes() == (out2 / "merged.lex").read_bytes()
        assert (out1 / "merge_report.tsv").read_bytes() == (
            out2 / "merge_report.tsv"
        ).read_bytes()


class TestCheckCommand:
    def test_records_and_failures(self, tmp_path):
        lex_path = write(tmp_path, "toy.lex", LEXICON)
        corpus_path = write(tmp_path, "corpus.tsv", CORPUS)
        out = tmp_path / "out"
        assert main(["check", lex_path, corpus_path, "--out", str(out)]) == 0
        records = parse_records((out / "records.tsv").read_text(encoding="utf-8"))
        assert [(r.sentence_id, r.analyzable) for r in records] == [
            ("s1", True),
            ("s2", True),
            ("s3", True),
            ("s4", False),
        ]
        # one row per reason, in FailureReason order, zeros included
        assert body_lines(out / "failures.tsv") == [
            "MISSING-LEMMA\t1",
            "UNCODED-ENTRY\t0",
            "MISSING-REDISTRIBUTION\t0",
            "MISSING-OBLIGATORY-COMPLEMENT\t0",
            "UNKNOWN-CONSTRUCTION\t0",
        ]

    def test_frames_that_list_a_slot_their_lemma_lacks(self, tmp_path):
        lex_path = write(tmp_path, "two.lex", (
            "dormir\tV\td__1\tSuj:NP\tACTIVE\tcoded\tl:1\n"
            "voir\tV\tv__1\tSuj:NP;Obj:NP\tACTIVE\tcoded\tl:2\n"
        ))
        corpus_path = write(tmp_path, "three.tsv", (
            "s1\tdormir\tACTIVE\tSuj:NP;Obj:NP\n"
            "s2\tdormir\tACTIVE\tSuj:NP;Obj:CLITIC\n"
            "s3\tvoir\tACTIVE\tSuj:NP;Obj:NP\n"
        ))
        out = tmp_path / "out"
        assert main(["check", lex_path, corpus_path, "--out", str(out)]) == 0
        assert "UNKNOWN-CONSTRUCTION\t2" in body_lines(out / "failures.tsv")
        assert body_lines(out / "records.tsv") == ["s1\tfailed\tdormir", "s2\tfailed\tdormir", "s3\tok\tvoir"]

    def test_leading_bom_is_dropped(self, tmp_path):
        # a BOM read as text would make the first lemma "\ufeffdonner"
        lex_path = write(tmp_path, "toy.lex", "\ufeff" + LEXICON.split("\n", 1)[1])
        corpus_path = write(tmp_path, "corpus.tsv", "\ufeff" + CORPUS)
        out = tmp_path / "out"
        assert main(["check", lex_path, corpus_path, "--out", str(out)]) == 0
        assert body_lines(out / "records.tsv")[0] == "s1\tok\tdonner"
        assert "MISSING-LEMMA\t1" in body_lines(out / "failures.tsv")  # s4's vouloir only


class TestEvalCommand:
    def test_identical_annotations(self, tmp_path):
        gold = write(tmp_path, "gold.xml", GOLD_DOC)
        out = tmp_path / "out"
        assert main(["eval", gold, gold, "--out", str(out)]) == 0
        perfect = "\t100.00" * 3  # precision, recall and f-measure; 0 of 0 scores 100
        # the summary, then per kind one ALL row and one row per type, in type order
        assert body_lines(out / "eval_report.tsv") == [
            "summary\tsentences\t1",
            "summary\tcoverage_count\t1",
            "summary\tcoverage_pct\t100.00",
            "summary\tconstituents_f\t100.00",
            "summary\trelations_f\t100.00",
            "constituent\tALL\t1\t1\t1" + perfect,
            "constituent\tGN\t1\t1\t1" + perfect,
            *(f"constituent\t{t}\t0\t0\t0" + perfect for t in ("NV", "GA", "GR", "GP", "PV")),
            "relation\tALL\t1\t1\t1" + perfect,
            "relation\tSUJ-V\t1\t1\t1" + perfect,
            *(f"relation\t{t}\t0\t0\t0" + perfect for t in (
                "AUX-V", "COD-V", "CPL-V", "MOD-V", "COMP", "ATB-SO", "MOD-N",
                "MOD-A", "MOD-R", "MOD-P", "COORD", "APPOS", "JUXT")),
        ]

    def test_mode_changes_scores(self, tmp_path, capsys):
        gold = write(tmp_path, "gold.xml", GOLD_DOC)
        hyp = write(tmp_path, "hyp.xml", SHIFTED_DOC)
        assert main(["eval", gold, hyp]) == 0
        exact = capsys.readouterr().out
        assert "summary\tconstituents_f\t0.00" in exact
        assert main(["eval", gold, hyp, "--mode", "left"]) == 0
        left = capsys.readouterr().out
        assert "summary\tconstituents_f\t100.00" in left
        assert "# mode: left" in left

    @pytest.mark.parametrize("token", ["le", "l'", "&amp;"])
    @pytest.mark.parametrize(
        "mode, counts, percent",
        [("exact", "1\t2\t2", "50.00"), ("left", "1\t2\t2", "50.00"), ("overlap", "2\t2\t2", "100.00")],
        ids=["exact", "left", "overlap"],
    )
    def test_report_is_the_same_in_every_layout(self, tmp_path, monkeypatch, token, mode, counts, percent):
        # The serializer's layout is read by the line matcher, up to a token
        # written "&amp;", and the others by the XML reader; the hypothesis
        # shifts the second span, which only overlap mode still matches.
        def sentence(sentence_id, first, start):
            return [
                f'<S id="{sentence_id}" full="yes">',
                f'  <W ix="0">{first}</W>', '  <W ix="1">chat</W>', '  <W ix="2">dort</W>',
                f'  <G type="GN" start="{start}" end="2"/>', '  <R type="SUJ-V" src="1" tgt="2"/>',
                "</S>",
            ]

        def lines(doc, end="\n"):
            return "".join(line + end for s in doc for line in s)

        layouts = {
            "serializer": lines,
            "crlf": lambda doc: lines(doc, "\r\n"),
            "one line": lambda doc: "".join(line.strip() for s in doc for line in s) + "\n",
            "words on the <S> line": lambda doc: lines(
                [["".join(line.strip() for line in s[:4]), *map(str.strip, s[4:])] for s in doc]),
            "<G> and <R> before <W>": lambda doc: lines([[s[0], *s[4:6], *s[1:4], s[6]] for s in doc]),
        }
        reports = {}
        for name, layout in layouts.items():
            run_dir = tmp_path / str(len(reports))
            run_dir.mkdir()
            for doc, start in (("gold.xml", 0), ("hyp.xml", 1)):
                (run_dir / doc).write_bytes(layout([sentence("a", "le", 0), sentence("b", token, start)]).encode())
            monkeypatch.chdir(run_dir)
            assert main(["eval", "gold.xml", "hyp.xml", "--mode", mode, "--out", "out"]) == 0
            reports[name] = (run_dir / "out" / "eval_report.tsv").read_text(encoding="utf-8")
        assert len(set(reports.values())) == 1, reports
        assert f"constituent\tALL\t{counts}" + f"\t{percent}" * 3 in reports["serializer"].splitlines()


class TestMineCommand:
    def test_suspects_report(self, tmp_path):
        ref = write(tmp_path, "ref.tsv", REF_RECORDS)
        hyp = write(tmp_path, "hyp.tsv", HYP_RECORDS)
        out = tmp_path / "out"
        assert main(["mine", ref, hyp, "--out", str(out)]) == 0
        report = out / "suspects.tsv"
        headers = header_lines(report)
        assert "# epsilon: 1e-09" in headers
        assert "# max_iterations: 200" in headers
        assert "# converged: yes" in headers
        rows = [l.split("\t") for l in body_lines(report)]
        assert [r[1] for r in rows] == ["a", "b"]
        assert rows[0][2] == "1.000000"
        assert rows[0][3] == "2" and rows[0][4] == "s1"
        assert float(rows[1][2]) <= 1e-6

    def test_manifest_records_final_delta(self, tmp_path):
        ref = write(tmp_path, "ref.tsv", REF_RECORDS)
        hyp = write(tmp_path, "hyp.tsv", HYP_RECORDS)
        out = tmp_path / "out"
        assert main(["mine", ref, hyp, "--max-iter", "3", "--out", str(out)]) == 0
        corpus = build_mining_corpus(parse_records(REF_RECORDS), parse_records(HYP_RECORDS))
        result = compute_suspicion(corpus, MiningParams(max_iterations=3))
        assert 0.0 < result.final_delta
        headers = header_lines(out / "suspects.tsv")
        assert headers[-2:] == ["# converged: no", f"# final_delta: {result.final_delta!r}"]

    @pytest.mark.parametrize("options, pins", [
        ([], ["# iterations_used: 200", "# final_delta: 3.7018986427741346e-05"]),
        (["--max-iter", "3"], ["# iterations_used: 3", "# final_delta: 0.06120963560139003"]),
    ], ids=["default", "max-iter-3"])
    def test_final_delta_is_pinned(self, tmp_path, capsys, options, pins):
        # the same floats on every supported Python, read through the report
        ref = write(tmp_path, "ref.tsv", "s1\tok\ta,b\ns2\tok\ta\ns3\tok\tb,c\ns4\tok\tc,d,a\n")
        hyp = write(tmp_path, "hyp.tsv", "s1\tfailed\ta,b\ns2\tfailed\ta\ns3\tok\tb,c\ns4\tfailed\tc,d,a\n")
        assert main(["mine", ref, hyp, *options]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [pin in lines for pin in pins] == [True, True]

    def test_non_convergence_warning(self, tmp_path, capsys):
        ref = write(tmp_path, "ref.tsv", REF_RECORDS)
        hyp = write(tmp_path, "hyp.tsv", HYP_RECORDS)
        assert main(["mine", ref, hyp, "--max-iter", "1"]) == 0
        captured = capsys.readouterr()
        assert "warning: fixed point not converged" in captured.err
        assert "# converged: no" in captured.out

    def test_bad_top_k_fails_before_mining(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the fixed point ran")

        monkeypatch.setattr(valex.mining, "compute_suspicion", refuse)
        ref = write(tmp_path, "ref.tsv", REF_RECORDS)
        hyp = write(tmp_path, "hyp.tsv", HYP_RECORDS)
        out = tmp_path / "out"
        assert main(["mine", ref, hyp, "--top-k", "0", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "valex: error: top_k must be at least 1\n"
        assert not (out / "suspects.tsv").exists()

    def test_check_output_feeds_mine(self, tmp_path):
        # records written by `check` are valid `mine` input as-is
        lex_path = write(tmp_path, "toy.lex", LEXICON)
        hyp_lex = write(
            tmp_path, "hyp.lex",
            "dormir\tV\tdormir__1\tSuj:NP\tACTIVE\tcoded\tlefff:10\n",
        )
        corpus_path = write(tmp_path, "corpus.tsv", CORPUS[: CORPUS.rindex("s4")])
        ref_out, hyp_out = tmp_path / "ref", tmp_path / "hyp"
        assert main(["check", lex_path, corpus_path, "--out", str(ref_out)]) == 0
        assert main(["check", hyp_lex, corpus_path, "--out", str(hyp_out)]) == 0
        out = tmp_path / "mine"
        assert main([
            "mine", str(ref_out / "records.tsv"), str(hyp_out / "records.tsv"),
            "--out", str(out),
        ]) == 0
        rows = [l.split("\t") for l in body_lines(out / "suspects.tsv")]
        assert rows[0][1] == "donner"
        assert rows[0][2] == "1.000000"


class TestFreqCommand:
    def test_report_and_warning(self, tmp_path, capsys):
        table = write(tmp_path, "freq.tsv", FREQ_TABLE)
        mapping = write(tmp_path, "map.tsv", LEMMA_MAP)
        out = tmp_path / "out"
        assert main(["freq", table, mapping, "--out", str(out)]) == 0
        assert "1 unmapped forms ignored" in capsys.readouterr().err
        assert body_lines(out / "top_lemmas.tsv") == ["1\tdonner\t8", "2\taller\t2"]

    @pytest.mark.parametrize("bom_table, bom_map", [(True, False), (False, True)])
    def test_leading_bom_is_dropped(self, tmp_path, capsys, bom_table, bom_map):
        # a BOM read as text would leave the first form "\ufeffdonne" unmapped
        table = write(tmp_path, "freq.tsv", "\ufeff" * bom_table + FREQ_TABLE)
        mapping = write(tmp_path, "map.tsv", "\ufeff" * bom_map + LEMMA_MAP)
        out = tmp_path / "out"
        assert main(["freq", table, mapping, "--out", str(out)]) == 0
        assert "1 unmapped forms ignored" in capsys.readouterr().err  # xyz only
        assert body_lines(out / "top_lemmas.tsv") == ["1\tdonner\t8", "2\taller\t2"]

    def test_lone_cr_is_refused_at_its_line(self, tmp_path, capsys):
        # lines end at LF only, and no field holds a CR, in the library as on the command line
        table_text, map_text = "va\t2\ndo\rnne\t5\n", "do\rnne\tdonner\nva\taller\n"
        message = "field 'do\\rnne' contains a CR that does not end its line"
        fold = functools.partial(lemma_counts, parse_frequency_table("va\t2\n"))
        for parse, text, line in ((parse_frequency_table, table_text, 2), (fold, map_text, 1)):
            with pytest.raises(FormatError) as err:
                parse(text)
            assert (err.value.line, err.value.message) == (line, message)
        (tmp_path / "freq.tsv").write_bytes(table_text.encode())
        (tmp_path / "map.tsv").write_bytes(map_text.encode())
        out = tmp_path / "out"
        assert main(["freq", str(tmp_path / "freq.tsv"), str(tmp_path / "map.tsv"), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"valex: error: {tmp_path / 'freq.tsv'}:2: {message}\n"
        assert not out.exists()

    def test_n_limits_rows(self, tmp_path):
        table = write(tmp_path, "freq.tsv", FREQ_TABLE)
        mapping = write(tmp_path, "map.tsv", LEMMA_MAP)
        out = tmp_path / "out"
        assert main(["freq", table, mapping, "--n", "1", "--out", str(out)]) == 0
        assert body_lines(out / "top_lemmas.tsv") == ["1\tdonner\t8"]
        assert "# n: 1" in header_lines(out / "top_lemmas.tsv")


REFUSED_FIELD = "tab\there"
REFUSED_MESSAGE = f"field {REFUSED_FIELD!r} contains a tab or line break and cannot be serialized"


def refused_lexicon(n_good: int) -> Lexicon:
    """n_good entries, then, sorted last, one whose example holds a tab,
    which the model accepts and serialize_lexicon refuses."""
    text = "".join(f"l{k:05d}\tV\tl{k}\tSuj:NP\tACTIVE\tcoded\tlefff:{k}\n" for k in range(n_good))
    bad = LexicalEntry("zzz", Category.V, "z1", (), frozenset(), False, (("lefff", "0"),), (REFUSED_FIELD,))
    return Lexicon.from_entries([*parse_lexicon(text).all_entries(), bad])


class TestErrors:
    def test_missing_file(self, tmp_path, capsys):
        assert main(["lex", "parse", str(tmp_path / "absent.lex")]) == 1
        assert capsys.readouterr().err.startswith("valex: error: cannot read")

    def test_malformed_input_names_file_and_line(self, tmp_path, capsys):
        bad = write(tmp_path, "bad.lex", "# ok\ndonner\tV\n")
        assert main(["lex", "parse", bad]) == 1
        err = capsys.readouterr().err
        assert err.startswith("valex: error: ")
        assert f"{bad}:2: " in err

    def test_eval_sentence_mismatch(self, tmp_path, capsys):
        gold = write(tmp_path, "gold.xml", GOLD_DOC)
        hyp = write(tmp_path, "hyp.xml", GOLD_DOC.replace('id="E1"', 'id="E2"'))
        assert main(["eval", gold, hyp]) == 1
        assert capsys.readouterr().err == (
            f"valex: error: {gold} vs {hyp}: gold and hypothesis must list the same sentence "
            "ids in order: sentence 1 is 'E1' in gold, 'E2' in hypothesis\n"
        )
        gold = write(tmp_path, "one.xml", '<S id="a"><W ix="0">le</W></S>\n')
        hyp = write(tmp_path, "two.xml", '<S id="a"><W ix="0">le</W><W ix="1">chat</W></S>\n')
        for mode in ("exact", "left", "overlap"):
            assert main(["eval", gold, hyp, "--mode", mode]) == 1
            assert capsys.readouterr().err == (
                f"valex: error: {gold} vs {hyp}: "
                "token count mismatch in 'a': gold has 1 tokens, hypothesis 2\n"
            )

    def test_mine_record_mismatch(self, tmp_path, capsys):
        ref = write(tmp_path, "ref.tsv", REF_RECORDS)
        hyp = write(tmp_path, "hyp.tsv", "s1\tfailed\ta,b\n")
        assert main(["mine", ref, hyp]) == 1
        assert "missing from hypothesis" in capsys.readouterr().err

    def test_merge_conflict_names_both_files(self, tmp_path, capsys):
        ref = write(tmp_path, "a.lex", "garde\tV\tg__1\tSuj:NP\tACTIVE\tcoded\tl:1\n")
        other = write(tmp_path, "b.lex", "garde\tN-PRED\tg__1\tSuj:NP\tACTIVE\tcoded\tl:2\n")
        assert main(["merge", ref, other, "--out", str(tmp_path / "out")]) == 1
        message = f"valex: error: {ref} vs {other}: mixed lemmas or categories: ['garde']\n"
        assert capsys.readouterr().err == message
        # a parse error is one file's alone, and keeps its one prefix
        bad = write(tmp_path, "bad.lex", "garde\tV\n")
        assert main(["merge", ref, bad, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"valex: error: {bad}:1: ")
        assert not (tmp_path / "out").exists()

    def test_mine_mismatch_names_both_files(self, tmp_path, capsys):
        ref = write(tmp_path, "r1.tsv", REF_RECORDS)
        for text, message in [
            ("s1\tfailed\ta,b\n", "sentence 's2' missing from hypothesis records"),
            (HYP_RECORDS.replace("s2\tfailed\ta", "s2\tfailed\tx"), "form mismatch for sentence 's2'"),
        ]:
            hyp = write(tmp_path, "r2.tsv", text)
            assert main(["mine", ref, hyp]) == 1
            assert capsys.readouterr().err == f"valex: error: {ref} vs {hyp}: {message}\n"
        bad = write(tmp_path, "bad.tsv", "s1\tmaybe\ta\n")
        assert main(["mine", ref, bad]) == 1
        assert capsys.readouterr().err.startswith(f"valex: error: {bad}:1: ")

    def test_mine_empty_corpus_names_both_files(self, tmp_path, capsys):
        ref, hyp = write(tmp_path, "e1.tsv", ""), write(tmp_path, "e2.tsv", "# no records\n")
        assert main(["mine", ref, hyp]) == 1
        assert capsys.readouterr().err == f"valex: error: {ref} vs {hyp}: cannot mine an empty corpus\n"

    def test_mine_with_no_analyzable_reference_sentence_names_both_files(self, tmp_path, capsys):
        # the reference analyzes none of the sentences, so none is kept
        ref = write(tmp_path, "r1.tsv", HYP_RECORDS.replace("\tok\t", "\tfailed\t"))
        hyp = write(tmp_path, "r2.tsv", REF_RECORDS)
        assert main(["mine", ref, hyp, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"valex: error: {ref} vs {hyp}: cannot mine an empty corpus\n"
        assert not (tmp_path / "out").exists()

    def test_parse_error_gives_its_line_once(self, tmp_path, capsys):
        bad = write(
            tmp_path, "bad.tsv", "# ok\ndonner\tV\td__1\tSuj:NP\tWEIRD\tcoded\tlefff:1\n"
        )
        assert main(["lex", "parse", bad]) == 1
        err = capsys.readouterr().err
        assert "bad.tsv:2: unknown" in err
        assert "line 2" not in err

    @pytest.mark.parametrize(
        "bad, message",
        [
            ('<G type="GN" start="1" end="1"/>', "invalid span [1, 1)"),
            ('<G type="GN" start="-1" end="1"/>', "invalid span [-1, 1)"),
            ('<R type="COORD" src="1" tgt="1"/>', "COORD relation with source == target"),
            ('<R type="COORD" src="-1" tgt="1"/>', "negative token index"),
            ('<R type="X" src="0" tgt="1"/>', "unknown relation type: 'X'"),
        ],
    )
    def test_eval_bad_span_or_relation_names_file_and_line(self, tmp_path, capsys, bad, message):
        span = write(tmp_path, "span.xml", GOLD_DOC.replace('<G type="GN" start="0" end="2"/>', bad))
        assert main(["eval", span, span]) == 1
        assert capsys.readouterr().err == f"valex: error: {span}:5: {message}\n"

    @pytest.mark.parametrize("empty", ["", "just text\n", "<!-- nothing -->\n"])
    @pytest.mark.parametrize("side", ["gold", "hyp"])
    def test_eval_document_without_sentences_names_file(self, tmp_path, capsys, empty, side):
        docs = {"gold": GOLD_DOC, "hyp": GOLD_DOC, side: empty}
        gold, hyp = (write(tmp_path, f"{name}.xml", docs[name]) for name in ("gold", "hyp"))
        assert main(["eval", gold, hyp]) == 1
        path = gold if side == "gold" else hyp
        assert capsys.readouterr().err == f"valex: error: {path}: no <S> sentence to evaluate\n"

    def test_eval_duplicate_sentence_id_names_file_and_line(self, tmp_path, capsys):
        doubled = write(tmp_path, "doubled.xml", GOLD_DOC + GOLD_DOC)
        assert main(["eval", doubled, doubled]) == 1
        assert capsys.readouterr().err == f"valex: error: {doubled}:8: duplicate sentence id: 'E1'\n"

    def test_undecodable_input_names_file(self, tmp_path, capsys):
        binary = tmp_path / "bin.lex"
        binary.write_bytes(b"\xff\n")
        assert main(["lex", "parse", str(binary)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"valex: error: cannot read {binary}: 'utf-8' codec can't decode")
        assert err.count("\n") == 1

    def test_undecodable_byte_after_bom_gives_its_file_offset(self, tmp_path, capsys):
        # utf-8-sig would count from after the BOM and report position 0
        binary = tmp_path / "bom.lex"
        binary.write_bytes(b"\xef\xbb\xbf\xff\n")
        assert main(["lex", "parse", str(binary)]) == 1
        assert "can't decode byte 0xff in position 3: " in capsys.readouterr().err

    # Files are read BLOCK bytes at a time; these read them 4 bytes at a time,
    # and a decode failure must give the whole-file decode's message.
    @pytest.mark.parametrize(
        "data",
        [
            LEXICON.encode() + b"\xff\n",  # past the first read
            LEXICON.encode() + b"\xc3(\n",  # a bad continuation byte
            LEXICON.encode() + b"\xe2\x82",  # a sequence cut off at the end of the file
            b"\xef\xbb\xbf" + LEXICON.encode() + b"\xf0\x9f\x98",  # the same after a BOM
            b"donner\tV\n" * 4 + b"\xff\n",  # reported in place of the format error at line 1
        ],
        ids=["past-first-read", "bad-continuation", "cut-at-eof", "cut-at-eof-after-bom", "after-format-error"],
    )
    @pytest.mark.parametrize("command", ["lex", "eval", "check", "freq"])
    def test_undecodable_input_read_in_blocks_gives_the_whole_file_message(
        self, tmp_path, capsys, monkeypatch, data, command
    ):
        if command == "eval":  # the same bytes after a passage: the line matcher, then expat, draw the blocks
            data = GOLD_DOC.encode() + data.removeprefix(b"\xef\xbb\xbf")
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            message = str(exc)
        binary = tmp_path / "bad.in"
        binary.write_bytes(data)
        monkeypatch.setattr(cli, "BLOCK", 4)
        if command == "lex":
            argv = ["lex", "parse", str(binary)]
        elif command == "eval":
            argv = ["eval", str(binary), str(binary)]
        else:  # the second input: check's corpus, freq's lemma map
            good = write(tmp_path, "good.in", LEXICON if command == "check" else FREQ_TABLE)
            argv = [command, good, str(binary), "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"valex: error: cannot read {binary}: {message}\n"

    # The BOM is dropped after a plain utf-8 decode: utf-8-sig's incremental
    # decoder would read a file cut after EF or EF BB as empty text.
    @pytest.mark.parametrize("data", [b"\xef", b"\xef\xbb"], ids=["EF", "EF-BB"])
    @pytest.mark.parametrize("block", [1, BLOCK])
    def test_file_cut_within_a_bom_gives_the_whole_file_message(self, tmp_path, capsys, monkeypatch, data, block):
        with pytest.raises(UnicodeDecodeError) as exc:
            data.decode("utf-8")
        binary = tmp_path / "cut.lex"
        binary.write_bytes(data)
        monkeypatch.setattr(cli, "BLOCK", block)
        assert main(["lex", "parse", str(binary)]) == 1
        assert capsys.readouterr().err == f"valex: error: cannot read {binary}: {exc.value}\n"

    @pytest.mark.parametrize("block", [1, BLOCK])
    def test_file_holding_only_a_bom_parses_as_empty(self, tmp_path, capsys, monkeypatch, block):
        binary = tmp_path / "bom.lex"
        binary.write_bytes(b"\xef\xbb\xbf")
        monkeypatch.setattr(cli, "BLOCK", block)
        assert main(["lex", "parse", str(binary)]) == 0
        assert capsys.readouterr() == (f"# valex {__version__}\n# input lexicon: {binary}\n", "")

    @pytest.mark.parametrize("block", [1, 2, 3, 5, BLOCK])  # the last: a file shorter than one read
    def test_characters_split_across_reads_decode(self, tmp_path, capsys, monkeypatch, block):
        text = LEXICON.replace("lefff:10", "lefff:œuvre😀é")  # characters of 2, 3 and 4 bytes
        for bom, status in (("", 0), ("\ufeff", 0), ("\ufeff\ufeff", 1)):  # one BOM is dropped, and only one
            path = write(tmp_path, "multi.lex", bom + text)
            monkeypatch.setattr(cli, "BLOCK", block)
            assert main(["lex", "parse", path]) == status
            out, err = capsys.readouterr()
            if status == 0:
                assert "lefff:œuvre😀é" in out and err == ""
            else:  # the second BOM starts the comment line, which is then a data line
                assert err.startswith(f"valex: error: {path}:1: ")

    def test_format_error_in_a_multi_block_file_leaves_no_handle_open(self, tmp_path, capsys, monkeypatch):
        # main runs with the cyclic collector off: a handle dropped open would
        # stay open, or warn wherever it is collected
        handles = []

        def recording_open(*args, **kwargs):
            handles.append(open(*args, **kwargs))
            return handles[-1]

        path = write(tmp_path, "bad.lex", LEXICON.replace("\tV\t", "\tZ\t", 1) + LEXICON.split("\n", 1)[1] * 50)
        monkeypatch.setattr(cli, "BLOCK", 64)
        monkeypatch.setattr(cli, "open", recording_open, raising=False)
        assert main(["lex", "parse", path]) == 1
        assert capsys.readouterr().err.startswith(f"valex: error: {path}:2: ")
        assert len(handles) == 1 and handles[0].closed

    @pytest.mark.parametrize(
        "command, flags, message",
        [
            ("mine", ["--top-k", "0"], "top_k must be at least 1"),
            ("mine", ["--max-iter", "0"], "max_iterations must be at least 1"),
            ("mine", ["--epsilon", "0"], "epsilon must be positive"),
            ("freq", ["--n", "0"], "n must be at least 1"),
        ],
        ids=["top-k", "max-iter", "epsilon", "n"],
    )
    def test_bad_count_flag_fails_before_any_read(self, tmp_path, capsys, command, flags, message):
        absent = [str(tmp_path / "absent1.tsv"), str(tmp_path / "absent2.tsv")]
        assert main([command, *absent, *flags]) == 1
        assert capsys.readouterr().err == f"valex: error: {message}\n"

    @pytest.mark.parametrize("out", [[], ["--out", "out"]], ids=["stdout", "out"])
    def test_input_path_holding_lf_fails_before_any_read(self, tmp_path, capsys, monkeypatch, out):
        monkeypatch.chdir(tmp_path)
        path = "x\ny.lex"  # absent, so a read would fail with "cannot read"
        assert main(["lex", "parse", path, *out]) == 1
        message = f"valex: error: manifest value {path!r} holds an LF and cannot be written\n"
        assert capsys.readouterr() == ("", message)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("out", [[], ["--out", "out"]], ids=["stdout", "out"])
    def test_input_path_not_utf8_fails_before_any_read(self, tmp_path, capsys, monkeypatch, out):
        monkeypatch.chdir(tmp_path)
        path = os.fsdecode(b"a\xff.lex")  # absent, so a read would fail with "cannot read"
        assert main(["lex", "parse", path, *out]) == 1
        message = f"valex: error: manifest value {path!r} is not valid UTF-8 and cannot be written\n"
        assert capsys.readouterr() == ("", message)
        assert list(tmp_path.iterdir()) == []

    def test_stdout_write_error_is_reported(self, tmp_path, capsys, monkeypatch):
        class FullBuffer(io.BytesIO):
            def write(self, data):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        stdout = io.TextIOWrapper(FullBuffer(), encoding="utf-8")
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["lex", "parse", write(tmp_path, "ok.lex", LEXICON)]) == 1
        assert capsys.readouterr().err == f"valex: error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"
        assert stdout.closed  # nothing is left buffered for exit to write again

    def test_unusable_out_directory(self, tmp_path, capsys):
        lexicon = write(tmp_path, "ok.lex", LEXICON)
        blocker = write(tmp_path, "afile", "")
        assert main(["lex", "parse", lexicon, "--out", str(Path(blocker) / "sub")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("valex: error: cannot write")
        assert err.count("\n") == 1

    def test_failed_rename_leaves_no_temporary_file(self, tmp_path, capsys):
        # the report's name is taken by a directory: the temporary file is
        # written, its rename over the report fails, and it is removed
        lexicon = write(tmp_path, "ok.lex", LEXICON)
        out = tmp_path / "out"
        (out / "stats.tsv").mkdir(parents=True)
        assert main(["lex", "stats", lexicon, "--out", str(out)]) == 1
        message = f"valex: error: cannot write {out / 'stats.tsv'}: {os.strerror(errno.EISDIR)}\n"
        assert capsys.readouterr().err == message
        assert [(p.name, p.is_dir()) for p in out.iterdir()] == [("stats.tsv", True)]

    def test_refused_body_under_out_lands_no_report(self, tmp_path, capsys, monkeypatch):
        # merged.lex, merge's first report, is refused past its first block
        monkeypatch.setattr(valex.lexicon, "parse_lexicon", lambda blocks: refused_lexicon(1_000))
        out = tmp_path / "out"
        out.mkdir()
        inputs = [write(tmp_path, "ref.lex", LEXICON), write(tmp_path, "other.lex", LEXICON)]
        assert main(["merge", *inputs, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"valex: error: {REFUSED_MESSAGE}\n"
        assert list(out.iterdir()) == []  # neither report, and no temporary file

    def test_refused_second_report_lands_neither(self, tmp_path, capsys, monkeypatch):
        # records.tsv is written whole before failures.tsv is refused; it is not renamed into place
        monkeypatch.setattr(valex.checker, "serialize_failures", lambda histogram: write_rows([(REFUSED_FIELD, "1")]))
        out = tmp_path / "out"
        out.mkdir()
        inputs = [write(tmp_path, "toy.lex", LEXICON), write(tmp_path, "corpus.tsv", CORPUS)]
        assert main(["check", *inputs, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"valex: error: {REFUSED_MESSAGE}\n"
        assert list(out.iterdir()) == []  # neither report, and no temporary file

    def test_refused_body_on_stdout_leaves_the_blocks_before_its_row(self, tmp_path, capsys, monkeypatch):
        # as the README states: the manifest lines and the whole blocks of
        # lines written before the one that holds the refused row
        refused = refused_lexicon(1_000)
        monkeypatch.setattr(valex.lexicon, "parse_lexicon", lambda blocks: refused)
        path = write(tmp_path, "toy.lex", LEXICON)
        assert main(["lex", "parse", path]) == 1
        out, err = capsys.readouterr()
        assert err == f"valex: error: {REFUSED_MESSAGE}\n"
        blocks = list(serialize_lexicon(Lexicon.from_entries(list(refused.all_entries())[:-1])))
        assert len(blocks) > 2 and len(blocks[-1]) < BLOCK  # the refused row, last, joins the last block
        assert out == f"# valex {__version__}\n# input lexicon: {path}\n" + "".join(blocks[:-1])


# Two good lines of each tab format, and the formats of each command's inputs.
GOOD_ROWS = {
    "lexicon": (
        "donner\tV\td__1\tSuj:NP;Obj:NP\tACTIVE\tcoded\tlefff:1\n"
        "voir\tV\tv__1\tSuj:NP;Obj:NP\tACTIVE\tcoded\tlefff:2\n"
    ),
    "corpus": "s1\tdonner\tACTIVE\tSuj:NP;Obj:NP\ns2\tdonner\tACTIVE\tSuj:NP;Obj:NP\n",
    "records": "s1\tok\ta,b\ns2\tfailed\tb\n",
    "freq_table": "donne\t5\nva\t2\n",
    "lemma_map": "donne\tdonner\nva\taller\n",
}
COMMAND_INPUTS = {
    "lex parse": ("lexicon",),
    "merge": ("lexicon", "lexicon"),
    "check": ("lexicon", "corpus"),
    "mine": ("records", "records"),
    "freq": ("freq_table", "lemma_map"),
}


LONE_CR = "contains a CR that does not end its line"


@pytest.mark.parametrize(
    "command, bad_input, bad_line, message",
    [
        # line 3 reuses the slot tokens of lines 1 and 2; the entry model refuses it
        ("lex parse", 0, "donner\tV\td__3\tSuj:NP;Obj:NP\tPASSIVE\tcoded\tlefff:3",
         "coded entry d__3 must license ACTIVE"),
        ("lex parse", 0, "voir\tV\tv__2\tSuj:NP;Zzz:NP\tACTIVE\tcoded\tlefff:3",
         "unknown function token: 'Zzz'"),
        ("lex parse", 0, "voir\tX\tv__2\tSuj:NP\tACTIVE\tcoded\tlefff:3", "unknown category: 'X'"),
        ("lex parse", 0, "voir\tV\tv__1\tSuj:NP\tACTIVE\tcoded\tlefff:3",
         "duplicate entry_id 'v__1' (first seen on line 2)"),
        ("lex parse", 0, "voir\tV\tv__2\tSuj:NP;Obj:PP(a)b)\tACTIVE\tcoded\tlefff:3",
         "preposition 'a)b' cannot be serialized"),
        ("check", 0, "voir\tV\tv__2\tSuj:NP;Obj:PP(a)b)\tACTIVE\tcoded\tlefff:3",
         "preposition 'a)b' cannot be serialized"),
        ("check", 1, "s3\tdonner\tACTIVE\tSuj:NP;Obj:PP(a|b)", "preposition 'a|b' cannot be serialized"),
        # the same fields as lines 1 and 2, whose frame is already parsed
        ("check", 1, "\tdonner\tACTIVE\tSuj:NP;Obj:NP", "empty sentence id"),
        ("check", 1, "s3\tdonner\tACTIVE\tSuj:NP;Obj:NP;Suj:CLITIC",
         "duplicate function in observed frame for 'donner'"),
        ("check", 1, "s3\tdonner\tACTIVE\tSuj:NP;Obj:NP;Suj:NP",
         "duplicate function in observed frame for 'donner'"),
        ("check", 1, "s3\tdonner\tWEIRD\tSuj:NP", "unknown redistribution: 'WEIRD'"),
        ("check", 1, "s3\t\tACTIVE\tSuj:NP;Obj:NP", "empty lemma"),
        ("check", 1, "s3\tdor,mir\tACTIVE\tSuj:NP", "lemma 'dor,mir' cannot be serialized"),
        ("mine", 0, "\tok\ta", "empty sentence id"),
        ("mine", 1, "\tok\ta", "empty sentence id"),
        ("mine", 0, "s3\tmaybe\ta", "tag must be 'failed' or 'ok', got 'maybe'"),
        ("mine", 1, "s1\tok\ta,b", "duplicate sentence id: 's1'"),
        ("freq", 0, "donnes\tx", "count 'x' is not an integer"),
        ("freq", 0, "donnes\t-1", "negative count for form 'donnes'"),
        ("freq", 0, "donne\t3", "duplicate form in frequency table: 'donne'"),
        ("freq", 0, "donnes\t1_000", "count '1_000' is not an integer"),
        ("freq", 1, "donne\tdonner", "duplicate form in lemma map: 'donne'"),
        ("freq", 1, "donnes\tdonner\tx", "expected 'form<TAB>lemma', got 'donnes\\tdonner\\tx'"),
        ("freq", 0, "\t3", "empty form"),
        ("freq", 1, "\tdonner", "empty form"),
        ("freq", 1, "donnes\t", "empty lemma"),
        # a CR that does not end its line is refused by the one line layer
        ("lex parse", 0, "dor\rmir\tV\td__1\tSuj:NP\tACTIVE\tcoded\tl:1", "field 'dor\\rmir' " + LONE_CR),
        ("check", 1, "s\r3\tdonner\tACTIVE\tSuj:NP;Obj:NP", "field 's\\r3' " + LONE_CR),
        ("check", 1, "s3\tdon\rner\tACTIVE\tSuj:NP;Obj:NP", "field 'don\\rner' " + LONE_CR),
        ("mine", 0, "a\rb\tok\ta", "field 'a\\rb' " + LONE_CR),
        ("freq", 0, "do\rnne\t5", "field 'do\\rnne' " + LONE_CR),
        ("freq", 1, "donnes\tdon\rner", "field 'don\\rner' " + LONE_CR),
    ],
)
def test_tab_format_error_names_file_and_line(tmp_path, capsys, command, bad_input, bad_line, message):
    paths = [
        write(tmp_path, f"{k}.{fmt}", GOOD_ROWS[fmt] + (bad_line + "\n" if k == bad_input else ""))
        for k, fmt in enumerate(COMMAND_INPUTS[command])
    ]
    assert main([*command.split(), *paths, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"valex: error: {paths[bad_input]}:3: {message}\n"


@pytest.mark.parametrize("command", ["merge", "check", "eval", "mine", "freq"])
def test_inputs_are_read_in_argument_order(tmp_path, capsys, command):
    # both inputs hold a bad line: only the first is read when it fails
    if command == "eval":
        texts, line = [GOLD_DOC + "</X>\n"] * 2, 8  # a mismatched tag
    else:
        texts, line = [GOOD_ROWS[fmt] + "a\rb\t1\n" for fmt in COMMAND_INPUTS[command]], 3  # refused in every tab format
    first, second = (write(tmp_path, f"{k}.in", text) for k, text in enumerate(texts))
    assert main([command, first, second, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"valex: error: {first}:{line}: ")


# eval reads gold and hypothesis at once.  Its errors must still come as if
# each file were parsed whole in turn: gold's own error (it cannot be read, an
# undecodable byte anywhere, its first format error), then the hypothesis's,
# then a file with no sentence, gold first, then the first sentence id that
# differs, else the two lengths, then the first token count mismatch.
EVAL_WORDS = ["le", "chat", "dort", "sur", "la", "porte", "œuvre", "du", "vieux", "mur"]
EVAL_MUTATIONS = ["delete", "duplicate", "swap", "id", "ix", "type", "span", "cut", "byte", "collapse", "missing"]
EVAL_ATTRIBUTES = {"id": ['id="'], "ix": ['ix="'], "type": ['type="'], "span": ['start="', 'end="', 'src="', 'tgt="']}


def random_sentence(rng, sentence_id, length=None):
    n = length or rng.randint(1, 6)
    spans = [(s, rng.randint(s + 1, n)) for s in (rng.randrange(n) for _ in range(rng.randint(0, 4)))]
    pairs = [rng.sample(range(n), 2) for _ in range(rng.randint(0, 3) if n > 1 else 0)]
    return SentenceAnnotation(
        sentence_id, tuple(rng.choice(EVAL_WORDS) for _ in range(n)),
        tuple(Constituent(rng.choice(list(ConstituentType)), s, e) for s, e in spans),
        tuple(Relation(rng.choice(list(RelationType)), a, b) for a, b in pairs), rng.random() < 0.7,
    )


def mutate_line(rng, data: bytes) -> bytes | None:
    """data with one seeded mutation of one line, or None for no file."""
    kind = rng.choices(EVAL_MUTATIONS, weights=[10] * 10 + [2])[0]
    if kind == "missing":
        return None
    if kind == "byte":
        pos = rng.randint(0, len(data))
        return data[:pos] + rng.choice([b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80"]) + data[pos:]
    text = data.decode("utf-8")
    lines = text.splitlines(keepends=True)
    i = rng.randrange(len(lines))
    if kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "swap":
        j = rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "cut":
        return text[:rng.choice([0, rng.randint(0, len(text))])].encode("utf-8")
    elif kind == "collapse":  # one sentence on one line: expat reads from there on
        start = rng.choice([k for k, line in enumerate(lines) if line.startswith("<S ")] or [i])
        end = next((k for k in range(start, len(lines)) if lines[k].startswith("</S>")), start)
        lines[start:end + 1] = ["".join(line.strip() for line in lines[start:end + 1]) + "\n"]
    else:
        attributes = EVAL_ATTRIBUTES[kind]
        i = rng.choice([k for k, line in enumerate(lines) if any(a in line for a in attributes)] or [i])
        present = [a for a in attributes if a in lines[i]]
        if present:
            attribute = rng.choice(present)
            head, rest = lines[i].split(attribute, 1)
            value, tail = rest.split('"', 1)
            new = {
                "id": lambda: rng.choice([f"E{rng.randint(0, 6)}", value + "x", ""]),
                "ix": lambda: rng.choice([str(int(value) + rng.choice([-1, 1, 2])), "x", "-1", " 0"]),
                "type": lambda: rng.choice([t.value for t in [*ConstituentType, *RelationType]] + ["ZZ", "gn"]),
                "span": lambda: rng.choice([str(rng.randint(-1, 8)), "x", ""]),
            }[kind]()
            lines[i] = f'{head}{attribute}{new}"{tail}'
    return "".join(lines).encode("utf-8")


def eval_case(rng):
    """A gold and hypothesis pair, a mode and a read size.  The pair may
    differ in a sentence's length or in the sentence count, either may hold
    no sentence, and one or both files take a mutation."""
    gold = [random_sentence(rng, f"E{k}") for k in range(rng.randint(1, 5))]
    hyp = [random_sentence(rng, a.sentence_id, len(a.tokens)) for a in gold]
    if rng.random() < 0.2:
        k = rng.randrange(len(hyp))
        hyp[k] = random_sentence(rng, hyp[k].sentence_id, len(hyp[k].tokens) % 6 + 1)
    if rng.random() < 0.1:
        hyp = hyp[:-1] if rng.random() < 0.5 else hyp + [random_sentence(rng, f"E{len(hyp)}")]
    docs = [serialize_passage(gold).encode("utf-8"), serialize_passage(hyp).encode("utf-8")]
    docs = [b"<!-- none -->\n" if not data or rng.random() < 0.05 else data for data in docs]
    side = rng.choices([0, 1, None, -1], weights=[4, 4, 3, 1])[0]  # gold, hypothesis, both, neither
    docs = [mutate_line(rng, data) if side in (k, None) else data for k, data in enumerate(docs)]
    return docs, rng.choice(["exact", "left", "overlap"]), rng.choice([BLOCK, 5, 13, 64])


def two_pass_eval(gold: str, hyp: str, mode: str) -> tuple[int, str, str]:
    """eval's status, stderr and report as reading each file whole in turn gives them."""
    try:
        annotations = [_parse_file(path, parse_passage) for path in (gold, hyp)]
        for path, sentences in zip((gold, hyp), annotations):
            if not sentences:
                raise ValueError(f"{path}: no <S> sentence to evaluate")
        gold_ids, hyp_ids = ([a.sentence_id for a in sentences] for sentences in annotations)
        if gold_ids != hyp_ids:
            k = next((k for k, (g, h) in enumerate(zip(gold_ids, hyp_ids)) if g != h), None)
            where = (f"gold has {len(gold_ids)} sentences, hypothesis {len(hyp_ids)}" if k is None
                     else f"sentence {k + 1} is {gold_ids[k]!r} in gold, {hyp_ids[k]!r} in hypothesis")
            raise ValueError(f"{gold} vs {hyp}: gold and hypothesis must list the same sentence ids in order: {where}")
        for g, h in zip(*annotations):
            if len(g.tokens) != len(h.tokens):
                raise ValueError(f"{gold} vs {hyp}: token count mismatch in {g.sentence_id!r}: "
                                 f"gold has {len(g.tokens)} tokens, hypothesis {len(h.tokens)}")
    except ValueError as exc:
        return 1, f"valex: error: {exc}\n", ""
    scores = score_corpus(*annotations, RelaxationMode(mode))
    report = "".join(serialize_eval_report(scores, coverage(annotations[1])))
    return 0, "", f"# valex {__version__}\n# input gold: {gold}\n# input hyp: {hyp}\n# mode: {mode}\n{report}"


@pytest.mark.parametrize("seed", range(10))
def test_eval_errors_come_in_the_two_pass_order(tmp_path, capsys, monkeypatch, seed):
    rng = random.Random(2900 + seed)
    gold, hyp = str(tmp_path / "gold.xml"), str(tmp_path / "hyp.xml")
    for case in range(30):
        docs, mode, block = eval_case(rng)
        for path, data in zip((gold, hyp), docs):
            Path(path).unlink(missing_ok=True)
            if data is not None:
                Path(path).write_bytes(data)
        monkeypatch.setattr(cli, "BLOCK", block)
        expected = two_pass_eval(gold, hyp, mode)
        status = main(["eval", gold, hyp, "--mode", mode])
        captured = capsys.readouterr()
        assert (status, captured.err, captured.out) == expected, (case, docs, mode, block)


THREE = "".join(GOLD_DOC.replace('"E1"', f'"E{k}"') for k in (1, 2, 3))  # 21 lines
EXTRA_TOKEN = '  <W ix="3">.</W>\n</S>'


@pytest.mark.parametrize(
    "gold_doc, hyp_doc, message",
    [
        (THREE + "</X>\n", THREE + "</Y>\n", "{gold}:22: malformed markup"),
        (THREE, THREE + "</Y>\n", "{hyp}:22: malformed markup"),
        (THREE, None, "cannot read {hyp}"),
        (THREE + "\udcff", THREE, "cannot read {gold}: 'utf-8' codec can't decode"),
        (THREE, THREE.replace('"E2"', '"E9"'), "{gold} vs {hyp}: gold and hypothesis must list"),
        (THREE, THREE.replace("</S>", EXTRA_TOKEN, 2).replace(EXTRA_TOKEN, "</S>", 1), "{gold} vs {hyp}: token count"),
    ],
    ids=["gold-error", "hyp-error", "missing-hyp", "undecodable", "id-mismatch", "token-mismatch"],
)
def test_eval_error_leaves_no_file_open(tmp_path, capsys, gold_doc, hyp_doc, message):
    # both files are open at once; whichever error is reported, both are
    # closed before main returns
    paths = {}
    for name, doc in (("gold", gold_doc), ("hyp", hyp_doc)):
        paths[name] = str(tmp_path / f"{name}.xml")
        if doc is not None:
            Path(paths[name]).write_bytes(doc.encode("utf-8", "surrogateescape"))
    fds = set(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else set()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["eval", paths["gold"], paths["hyp"]]) == 1
        if fds:
            assert set(os.listdir("/proc/self/fd")) <= fds
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert capsys.readouterr().err.startswith("valex: error: " + message.format(**paths))


@pytest.mark.parametrize("command", COMMAND_INPUTS)
def test_crlf_input_gives_the_lf_report(tmp_path, monkeypatch, command):
    reports = {}
    for ending in ("\n", "\r\n"):
        run_dir = tmp_path / repr(ending)
        run_dir.mkdir()
        names = [f"{k}.{fmt}" for k, fmt in enumerate(COMMAND_INPUTS[command])]
        for name, fmt in zip(names, COMMAND_INPUTS[command]):
            (run_dir / name).write_bytes(GOOD_ROWS[fmt].replace("\n", ending).encode())
        monkeypatch.chdir(run_dir)
        assert main([*command.split(), *names, "--out", "out"]) == 0
        reports[ending] = {path.name: path.read_bytes() for path in (run_dir / "out").iterdir()}
    assert reports["\n"] == reports["\r\n"]


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_lexicon, GOOD_ROWS["lexicon"]),
        (parse_corpus, GOOD_ROWS["corpus"] + CORPUS),
        (parse_records, REF_RECORDS),
        (parse_frequency_table, FREQ_TABLE),
        (fold_lemma_map, LEMMA_MAP),
    ],
)
def test_tab_parse_leaves_no_cyclic_garbage(parse, text):
    # valex.cli runs commands with the cyclic collector off
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        assert parse(text)
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("enabled", [True, False])
def test_main_restores_the_callers_gc_setting(tmp_path, monkeypatch, enabled):
    lexicon = write(tmp_path, "ok.lex", LEXICON)
    seen = []
    original = valex.lexicon.parse_lexicon
    monkeypatch.setattr(valex.lexicon, "parse_lexicon", lambda text: seen.append(gc.isenabled()) or original(text))
    was_enabled = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        for argv in (["lex", "stats", lexicon], ["lex", "stats", str(tmp_path / "absent.lex")]):
            main(argv)
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert seen == [False]  # the command ran with the collector off


@pytest.mark.parametrize(
    "parse",
    [parse_lexicon, parse_corpus, parse_records, parse_frequency_table, fold_lemma_map],
    ids=lambda parse: parse.__name__,
)
@pytest.mark.parametrize("char", LINE_BREAK_LOOKALIKES)
def test_only_spaces_and_tabs_make_a_line_blank(parse, char):
    parse(" \t \r\n\n")
    # a line-break look-alike is field content, so its line is a data line
    with pytest.raises(FormatError) as err:
        parse(f"{char}\t\n")
    assert err.value.line == 1


def _loaded_after_import(module, prefix):
    """The modules under prefix that a fresh interpreter holds after
    importing module."""
    src = str(Path(valex.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = f"import sys, {module}; print(*sorted(m for m in sys.modules if m.startswith({prefix!r})))"
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return result.stdout.split()


def test_import_leaves_xml_sax_unloaded():
    # xml.sax.saxutils pulls in urllib; only serialize_passage needs it
    assert _loaded_after_import("valex.cli", "xml.sax") == []


def test_import_leaves_xml_etree_unloaded():
    # parse_passage streams expat events and builds no element tree
    assert _loaded_after_import("valex.cli", "xml.etree") == []


def test_mining_import_loads_neither_checker_nor_lexicon():
    # mine needs only each sentence's forms and flag, nothing of the lexicon
    assert _loaded_after_import("valex.mining", "valex") == ["valex", "valex.errors", "valex.mining"]


def test_markup_import_loads_neither_the_scorer_nor_fractions():
    # the annotation format needs nothing of valex but valex.errors
    assert _loaded_after_import("valex.markup", "valex") == ["valex", "valex.errors", "valex.markup"]
    assert _loaded_after_import("valex.markup", "fractions") == []


BENCH = Path(__file__).resolve().parents[1] / "bench"


def _fresh_env(**variables):
    """The environment of a fresh interpreter importing valex from this tree."""
    src = str(Path(valex.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, str(BENCH)]), **variables}


def _run_fresh(code, cwd=None):
    """stdout of code run in a fresh interpreter importing valex from this tree."""
    result = subprocess.run(
        [sys.executable, "-c", code], env=_fresh_env(), cwd=cwd, capture_output=True, text=True, check=True
    )
    return result.stdout


# An empty PYTHONUNBUFFERED leaves stdout block-buffered, so what could not
# be written is still buffered when the interpreter flushes stdout at exit.
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_full_stdout_fails_with_one_error_line(tmp_path, unbuffered):
    argv = [sys.executable, "-m", "valex.cli", "lex", "parse", write(tmp_path, "ok.lex", LEXICON)]
    env = _fresh_env(PYTHONUNBUFFERED=unbuffered)
    with open("/dev/full", "wb") as full:
        result = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE, env=env, text=True)
    message = f"valex: error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"
    assert (result.returncode, result.stderr) == (1, message)


def test_stdout_report_is_utf8_under_a_latin1_stdout_encoding(tmp_path):
    lex_path = write(tmp_path, "toy.lex", LEXICON.replace("lefff:10\n", "lefff:10\tà 日本\n"))
    assert main(["lex", "parse", lex_path, "--out", str(tmp_path / "out")]) == 0
    argv = [sys.executable, "-m", "valex.cli", "lex", "parse", lex_path]
    result = subprocess.run(argv, capture_output=True, env=_fresh_env(PYTHONIOENCODING="latin-1"))
    assert (result.returncode, result.stderr) == (0, b"")
    assert result.stdout == (tmp_path / "out" / "canonical.lex").read_bytes()


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_stdout_pipe_fails_with_one_error_line(tmp_path, unbuffered):
    argv = [sys.executable, "-m", "valex.cli", "lex", "parse", write(tmp_path, "ok.lex", LEXICON)]
    env = _fresh_env(PYTHONUNBUFFERED=unbuffered)
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True) as proc:
        proc.stdout.close()  # nothing reads the report
        err = proc.stderr.read()
    assert (proc.returncode, err) == (1, f"valex: error: cannot write stdout: {os.strerror(errno.EPIPE)}\n")


# The valex modules each command loads; valex.errors and valex.relaxation
# come with valex.cli, for the token table of eval --mode.
BASE_MODULES = ["valex", "valex.cli", "valex.errors", "valex.relaxation"]
COMMAND_MODULES = {
    "lex parse": ["valex.lexicon"],
    "lex stats": ["valex.lexicon"],
    "merge": ["valex.lexicon", "valex.merge"],
    "check": ["valex.checker", "valex.lexicon", "valex.mining"],
    "eval": ["valex.markup", "valex.passage"],
    "mine": ["valex.mining"],
    "freq": ["valex.freq"],
}
COMMAND_FILES = {
    "lex parse": (LEXICON,),
    "lex stats": (LEXICON,),
    "merge": (LEXICON, OTHER_LEXICON),
    "check": (LEXICON, CORPUS),
    "eval": (GOLD_DOC, SHIFTED_DOC),
    "mine": (REF_RECORDS, HYP_RECORDS),
    "freq": (FREQ_TABLE, LEMMA_MAP),
}


# The domain modules importing valex.cli registers; each runs on its first use.
DOMAIN_MODULES = sorted({m for modules in COMMAND_MODULES.values() for m in modules})


def _loaded_by_main(argv, cwd):
    """The modules whose code ran in a fresh interpreter, beyond those it
    holds at start-up, after main returns status 0.  A module registered
    but not yet run is still an importlib.util._LazyModule."""
    code = (
        "import sys, types\n"
        "before = set(sys.modules)\n"
        "def new(ran):\n"
        "    return sorted(m for m in set(sys.modules) - before if (type(sys.modules[m]) is types.ModuleType) is ran)\n"
        "from valex.cli import main\n"
        "print(*new(False))\n"
        "try:\n"
        f"    status = main({argv!r})\n"
        "except SystemExit as exc:\n"
        "    status = exc.code\n"
        "assert status == 0, status\n"
        "print(*new(True))\n"
    )
    lines = _run_fresh(code, cwd).splitlines()  # --version prints its own line between
    registered, loaded = lines[0], lines[-1]
    # importing valex.cli registers the domain modules and runs none of them;
    # only valex's own count, as the standard library may register non-module
    # objects too (CPython 3.12's typing puts typing.io and typing.re there)
    assert [m for m in registered.split() if m == "valex" or m.startswith("valex.")] == DOMAIN_MODULES
    return set(loaded.split())


@pytest.mark.parametrize("command", [None, *COMMAND_MODULES], ids=lambda c: c or "--version")
def test_each_command_loads_only_the_modules_it_runs(tmp_path, command):
    if command is None:
        argv, expected = ["--version"], BASE_MODULES
    else:
        paths = [write(tmp_path, f"in{k}", text) for k, text in enumerate(COMMAND_FILES[command])]
        argv, expected = [*command.split(), *paths, "--out", "out"], sorted(BASE_MODULES + COMMAND_MODULES[command])
    loaded = _loaded_by_main(argv, tmp_path)
    assert sorted(m for m in loaded if m == "valex" or m.startswith("valex.")) == expected
    if command is None:  # valex.cli itself needs no dataclass, nor the inspect that dataclasses imports
        assert not {"dataclasses", "inspect"} & loaded
    # the scorer's rationals and the annotation reader's expat are eval's alone
    eval_only = {"fractions", "xml.parsers.expat"}
    assert eval_only & loaded == (eval_only if command == "eval" else set())


def test_tracer_finds_every_layer_function_on_its_home_module():
    # as the traced pass does, in a process that has imported only valex.cli
    code = (
        "import importlib, valex.cli\n"
        "from layertrace import LAYER_FUNCTIONS, Tracer, patched\n"
        "with patched(Tracer()) as (originals, missing):\n"
        "    assert missing == [], missing\n"
        "for layer, name, _ in LAYER_FUNCTIONS:\n"
        "    assert originals[name] is getattr(importlib.import_module('valex.' + layer), name), name\n"
        "print(len(originals))\n"
    )
    assert int(_run_fresh(code)) == 14


def test_function_replaced_on_its_home_module_before_main_is_called(tmp_path):
    lexicon = write(tmp_path, "ok.lex", LEXICON)
    code = (
        "import sys, types, valex.cli as cli\n"
        "calls = []\n"
        "def stub(text):\n"
        "    calls.append(text)\n"
        "    return text\n"
        "def stats(lexicon):\n"
        "    raise ValueError('stubbed')\n"
        "cli.lexicon.parse_lexicon, cli.lexicon.lexicon_stats = stub, stats\n"
        "assert type(sys.modules['valex.lexicon']) is not types.ModuleType  # replaced before its code ran\n"
        f"assert cli.main(['lex', 'stats', {lexicon!r}]) == 1\n"
        "import valex.lexicon\n"
        "assert valex.lexicon.parse_lexicon is stub and valex.lexicon.lexicon_stats is stats\n"
        "assert len(calls) == 1\n"
        "print('ok')\n"
    )
    assert _run_fresh(code) == "ok\n"


def test_eval_help_lists_the_relaxation_modes(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["eval", "--help"])
    assert exc_info.value.code == 0
    choices = "{" + ",".join(mode.value for mode in RelaxationMode) + "}"
    assert f"--mode {choices}" in capsys.readouterr().out
    assert choices == "{exact,left,overlap}"
