import gc
import random
from collections import Counter
from fractions import Fraction

import pytest

from valex import passage
from valex.errors import FormatError
from valex.passage import (
    Constituent,
    ConstituentType,
    CoverageResult,
    EvalScores,
    Relation,
    RelationType,
    RelaxationMode,
    Scores,
    SentenceAnnotation,
    coverage,
    format_fixed,
    format_percent,
    parse_passage,
    score_corpus,
    serialize_passage,
)

from gen import rand_annotation

C = ConstituentType
RT = RelationType
M = RelaxationMode

SMALL_DOC = """
<S id="E1">
  <W ix="0">le</W>
  <W ix="1">chat</W>
  <W ix="2">qui</W>
  <W ix="3">dort</W>
  <G type="GN" start="0" end="2"/>
  <R type="SUJ-V" src="1" tgt="3"/>
</S>
"""

# "Depuis quelques semaines, les rapports entre les deux camps se
# dégradent." as constituent/relation markup
NEWSPAPER_DOC = """
<S id="frmg.1" full="yes">
  <W ix="0">Depuis</W>
  <W ix="1">quelques</W>
  <W ix="2">semaines</W>
  <W ix="3">,</W>
  <W ix="4">les</W>
  <W ix="5">rapports</W>
  <W ix="6">entre</W>
  <W ix="7">les</W>
  <W ix="8">deux</W>
  <W ix="9">camps</W>
  <W ix="10">se</W>
  <W ix="11">dégradent</W>
  <W ix="12">.</W>
  <G type="GP" start="0" end="3"/>
  <G type="GN" start="4" end="6"/>
  <G type="GP" start="6" end="10"/>
  <G type="NV" start="10" end="12"/>
  <R type="SUJ-V" src="5" tgt="11"/>
  <R type="MOD-V" src="0" tgt="11"/>
  <R type="MOD-N" src="6" tgt="5"/>
</S>
"""


def sentence(constituents=(), relations=(), n_tokens=8, sentence_id="s", full=True):
    return SentenceAnnotation(
        sentence_id=sentence_id,
        tokens=tuple(f"w{i}" for i in range(n_tokens)),
        constituents=tuple(constituents),
        relations=tuple(relations),
        full_parse=full,
    )


class TestParse:
    def test_small_document(self):
        annotations = parse_passage(SMALL_DOC)
        assert len(annotations) == 1
        ann = annotations[0]
        assert ann.sentence_id == "E1"
        assert ann.tokens == ("le", "chat", "qui", "dort")
        assert ann.constituents == (Constituent(C.GN, 0, 2),)
        assert ann.relations == (Relation(RT.SUJ_V, 1, 3),)
        assert ann.full_parse is True

    def test_empty_document(self):
        assert parse_passage("") == []
        assert parse_passage("  \n ") == []
        assert parse_passage("<!-- nothing -->\n") == []

    def test_newspaper_sentence(self):
        (ann,) = parse_passage(NEWSPAPER_DOC)
        assert len(ann.tokens) == 13
        assert Counter(c.ctype for c in ann.constituents) == Counter(
            {C.GP: 2, C.GN: 1, C.NV: 1}
        )
        assert Relation(RT.SUJ_V, 5, 11) in ann.relations

    def test_full_attribute(self):
        partial = '<S id="p" full="no"><W ix="0">mot</W></S>'
        assert parse_passage(partial)[0].full_parse is False

    @pytest.mark.parametrize(
        "doc, fragment",
        [
            ('<X id="a"/>', "unexpected element"),
            ('<S><W ix="0">a</W></S>', "missing 'id'"),
            ('<S id="a" full="maybe"><W ix="0">a</W></S>', "full attribute"),
            ('<S id="a"><W ix="1">a</W></S>', "consecutive"),
            ('<S id="a"><W ix="0">a</W><Q/></S>', "unexpected element"),
            ('<S id="a"><W ix="0">a</W><G type="ZZ" start="0" end="1"/></S>',
             "unknown constituent type"),
            ('<S id="a"><W ix="0">a</W><R type="ZZ" src="0" tgt="1"/></S>',
             "unknown relation type"),
            ('<S id="a"><W ix="0">a</W><G type="GN" start="0"/></S>', "missing"),
            ('<S id="a"><W ix="0">a</W><G type="GN" start="x" end="1"/></S>',
             "not an integer"),
            ('<S id="a"><W ix="0">a</W><G type="GN" start="0" end="2"/></S>',
             "exceeds"),
            ('<S id="a"><W ix="0">a</W><W ix="1">b</W>'
             '<R type="COORD" src="0" tgt="5"/></S>', "out of range"),
            ("<S id='a'><W ix='0'>a</W>", "malformed markup"),
            ('<x:S id="a"><W ix="0">a</W></x:S>', "malformed markup: unbound prefix"),
            ('<x:S xmlns:x="u" id="a"><W ix="0">a</W></x:S>', "unexpected element <{u}S>"),
        ],
    )
    def test_errors(self, doc, fragment):
        with pytest.raises(FormatError) as err:
            parse_passage(doc)
        assert fragment in str(err.value)
        assert err.value.line == 1

    @pytest.mark.parametrize(
        "bad, line, fragment",
        [
            ('<Q/>', 5, "unexpected element"),
            ('<W ix="3">x</W>', 5, "consecutive"),
            ('<G type="ZZ" start="0" end="1"/>', 5, "unknown constituent type"),
            ('<G start="0" end="1"/>', 5, "<G> missing 'type' attribute"),
            ('<G type="GN"\n   start="x" end="1"/>', 5, "not an integer"),
            ('<G type="GN" start="1" end="1"/>', 5, "invalid span"),
            ('<R type="COORD" src="1" tgt="1"/>', 5, "source == target"),
            ('<R type="COORD" src="-1" tgt="1"/>', 5, "negative token index"),
            ('<G type="GN" start="0" end="9"/>', 7, "exceeds"),
            ('<R type="COORD" src="0" tgt="9"/>', 7, "out of range"),
            # the same attribute strings on another element are read again
            ('<G type="GN" start="0" end="1"/>\n  <R type="GN" src="0" tgt="1"/>', 6,
             "unknown relation type: 'GN'"),
        ],
    )
    def test_error_line_is_the_element_or_its_sentence(self, bad, line, fragment):
        # a sentence-level error gives the line of the closing </S>
        doc = '<S id="a">\n  <W ix="0">a</W>\n</S>\n<S id="b">\n  %s\n  <W ix="0">b</W>\n</S>\n'
        with pytest.raises(FormatError) as err:
            parse_passage(doc % bad)
        assert fragment in str(err.value)
        assert err.value.line == line

    @pytest.mark.parametrize(
        "bad, fragment",
        [
            ('<G type="GN" start="1" end="1"/>', "invalid span [1, 1)"),
            ('<G type="GN" start="x" end="1"/>', "attribute start='x' is not an integer"),
            ('<G type="ZZ" start="0" end="1"/>', "unknown constituent type: 'ZZ'"),
            ('<R type="COORD" src="1" tgt="1"/>', "COORD relation with source == target"),
            ('<R type="COORD" src="0"/>', "<R> missing 'tgt' attribute"),
        ],
    )
    def test_a_repeated_bad_element_fails_at_its_first_line(self, bad, fragment):
        doc = f'<S id="a"><W ix="0">a</W><W ix="1">b</W>\n{bad}\n{bad}\n</S>\n'
        with pytest.raises(FormatError) as err:
            parse_passage(doc)
        assert err.value.message == fragment
        assert err.value.line == 2

    def test_a_repeated_element_is_checked_against_each_sentence(self):
        # the second <G> is the first one again, but its sentence is too short for it
        doc = (
            '<S id="a"><W ix="0">a</W><W ix="1">b</W><G type="GN" start="0" end="2"/></S>\n'
            '<S id="b"><W ix="0">a</W><G type="GN" start="0" end="2"/>\n</S>\n'
        )
        with pytest.raises(FormatError) as err:
            parse_passage(doc)
        assert err.value.message == "constituent span [0, 2) exceeds 1 tokens"
        assert err.value.line == 3

    def test_repeated_elements_parse_to_equal_items(self):
        line = '<G type="GP" start="0" end="2"/><R type="MOD-N" src="1" tgt="0"/>'
        doc = (f'<S id="a"><W ix="0">a</W><W ix="1">b</W>{line}{line}</S>'
               f'<S id="b"><W ix="0">c</W><W ix="1">d</W>{line}</S>')
        first, second = parse_passage(doc)
        assert first.constituents == (Constituent(C.GP, 0, 2),) * 2
        assert first.relations == (Relation(RT.MOD_N, 1, 0),) * 2
        assert (second.constituents, second.relations) == (first.constituents[:1], first.relations[:1])
        # one object per distinct item in a file
        assert second.constituents[0] is first.constituents[0] is first.constituents[1]
        assert second.relations[0] is first.relations[0] is first.relations[1]

    @pytest.mark.parametrize(
        "word, item",
        [
            ('<W ix="00">a</W><W ix="1">b</W>', '<G type="GN" start="0" end="2"/>'),
            ('<W ix="0">a</W><W ix=" 1">b</W>', '<G type="GN" start="0" end="2"/>'),
            ('<W ix="0">a</W><W ix="01 ">b</W>', '<G type="GN" start="+0" end="2"/>'),
            ('<W ix="0">a</W><W ix="1">b</W>', '<G type="GN" start="+0" end=" 2"/>'),
        ],
    )
    def test_integer_attributes_read_as_int_reads_them(self, word, item):
        (ann,) = parse_passage(f'<S id="a">{word}{item}<R type="COORD" src="+1" tgt="00"/></S>')
        assert ann.tokens == ("a", "b")
        assert ann.constituents == (Constituent(C.GN, 0, 2),)
        assert ann.relations == (Relation(RT.COORD, 1, 0),)

    def test_indices_of_a_long_sentence(self):
        words = "".join(f'<W ix="{i}">w</W>' for i in range(300))
        (ann,) = parse_passage(f'<S id="a">{words}<G type="GN" start="0" end="300"/></S>')
        assert ann.tokens == ("w",) * 300
        with pytest.raises(FormatError, match="consecutive"):
            parse_passage(f'<S id="a">{words}<W ix="301">w</W></S>')

    def test_duplicate_sentence_id_fails_at_the_second_block(self):
        doc = '<S id="a">\n<W ix="0">a</W>\n</S>\n<S id="b"><W ix="0">b</W></S>\n<S id="a">\n</S>\n'
        with pytest.raises(FormatError) as err:
            parse_passage(doc)
        assert err.value.message == "duplicate sentence id: 'a'"
        assert err.value.line == 5

    def test_parse_leaves_no_cyclic_garbage(self):
        # valex.cli runs commands with the cyclic collector off
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            assert len(parse_passage(SMALL_DOC)) == 1
            assert gc.collect() == 0
        finally:
            if was_enabled:
                gc.enable()

    def test_first_error_in_document_order(self):
        doc = '<S id="a">\n<W ix="0">a</W><G type="ZZ" start="0" end="1"/>\n</S>\n<S id="b">'
        with pytest.raises(FormatError) as err:
            parse_passage(doc)
        assert "unknown constituent type" in str(err.value)
        assert err.value.line == 2

    @pytest.mark.parametrize("char", ["\ud800", "\udfff"])
    @pytest.mark.parametrize("where", ["token", "id"])
    def test_lone_surrogate_is_malformed_markup_at_its_line(self, char, where):
        # a str may hold one though no UTF-8 file can; expat refuses it like any bad character
        second = f'<S id="b{char}"><W ix="0">b</W></S>' if where == "id" else f'<S id="b"><W ix="0">b{char}</W></S>'
        with pytest.raises(FormatError) as err:
            parse_passage(f'<S id="a"><W ix="0">a</W></S>\n{second}\n')
        assert err.value.message.startswith("malformed markup: not well-formed (invalid token)")
        assert err.value.line == 2
        # an earlier error in the document is still the one reported
        with pytest.raises(FormatError) as err:
            parse_passage(f'<S id="a"><W ix="0">a</W><G type="ZZ" start="0" end="1"/></S>\n{second}\n')
        assert err.value.message == "unknown constituent type: 'ZZ'"
        assert err.value.line == 1

    @pytest.mark.parametrize(
        "word, token",
        [
            ("a<!-- note -->b", "ab"),
            ("&amp;&#233;", "&\u00e9"),
            ("<![CDATA[<x>&]]>", "<x>&"),
            ("a<X/>b", "a"),
            ("a<X>c</X>b", "a"),
            ("", ""),
        ],
    )
    def test_token_text(self, word, token):
        (ann,) = parse_passage(f'<S id="a"><W ix="0">{word}</W></S>')
        assert ann.tokens == (token,)

    def test_children_of_spans_and_relations_are_ignored(self):
        doc = (
            '<S id="a"><W ix="0">a</W><W ix="1">b</W>'
            '<G type="GN" start="0" end="1"><W ix="7">z</W></G>'
            '<R type="COORD" src="0" tgt="1"><Q/></R></S>'
        )
        (ann,) = parse_passage(doc)
        assert ann.tokens == ("a", "b")
        assert ann.constituents == (Constituent(C.GN, 0, 1),)
        assert ann.relations == (Relation(RT.COORD, 0, 1),)

    def test_model_rejects_bad_spans(self):
        with pytest.raises(ValueError):
            Constituent(C.GN, 2, 2)
        with pytest.raises(ValueError):
            Constituent(C.GN, -1, 2)
        with pytest.raises(ValueError):
            Relation(RT.COORD, 3, 3)
        with pytest.raises(ValueError):
            SentenceAnnotation("s", ())


class TestRoundTrip:
    def test_small(self):
        annotations = parse_passage(SMALL_DOC)
        assert parse_passage(serialize_passage(annotations)) == annotations

    def test_escaping(self):
        ann = sentence(n_tokens=1, sentence_id='we"ird<&')
        tricky = SentenceAnnotation(ann.sentence_id, ("<a&b>",))
        assert parse_passage(serialize_passage([tricky])) == [tricky]

    def test_carriage_return_round_trips(self):
        # a raw CR in markup would read back as LF
        ann = SentenceAnnotation("s", ("a\rb", "c\r\nd", "\r"))
        assert "\r" not in serialize_passage([ann])
        assert parse_passage(serialize_passage([ann])) == [ann]

    @pytest.mark.parametrize("char", ["\x00", "\x01", "\x08", "\x0b", "\x0c", "\x1f"])
    @pytest.mark.parametrize("field", ["token", "id"])
    def test_control_character_rejected(self, char, field):
        if field == "id":
            ann = SentenceAnnotation(f"s{char}", ("a",))
        else:
            ann = SentenceAnnotation("s", (f"a{char}b",))
        with pytest.raises(ValueError) as err:
            serialize_passage([ann])
        assert str(err.value) == f"character {char!r} cannot be serialized"

    def test_repeated_sentence_id_rejected(self):
        # parse_passage would refuse the second <S> with that id
        ann = SentenceAnnotation("s", ("a",))
        with pytest.raises(ValueError, match="^duplicate sentence id$"):
            serialize_passage([ann, SentenceAnnotation("t", ("b",)), ann])

    @pytest.mark.parametrize("char", ["\ud800", "\udfff", "\ufffe", "\uffff"])
    @pytest.mark.parametrize("field", ["token", "id"])
    def test_character_xml_cannot_carry_rejected(self, char, field):
        # written as is, each would read back as malformed markup
        ann = SentenceAnnotation(f"s{char}", ("a",)) if field == "id" else SentenceAnnotation("s", (f"a{char}b",))
        with pytest.raises(ValueError) as err:
            serialize_passage([ann])
        assert str(err.value) == f"character {char!r} cannot be serialized"

    def test_random(self):
        rng = random.Random(71)
        for _ in range(25):
            annotations = [
                rand_annotation(rng, f"s{i}") for i in range(rng.randint(1, 6))
            ]
            assert parse_passage(serialize_passage(annotations)) == annotations


def compatible(mode, g, h):
    # independent restatement of the relaxation modes
    if g.ctype is not h.ctype:
        return False
    if mode is M.EXACT:
        return (g.start, g.end) == (h.start, h.end)
    if mode is M.LEFT:
        return g.start == h.start
    return max(g.start, h.start) < min(g.end, h.end)


def optimal_tp(gold, hyp, mode):
    """Maximum one-to-one matching size by exhaustive search."""
    best = 0

    def extend(i, used, count):
        nonlocal best
        if count + (len(gold.constituents) - i) <= best:
            return
        if i == len(gold.constituents):
            best = max(best, count)
            return
        extend(i + 1, used, count)
        g = gold.constituents[i]
        for j, h in enumerate(hyp.constituents):
            if j not in used and compatible(mode, g, h):
                extend(i + 1, used | {j}, count + 1)

    extend(0, frozenset(), 0)
    return best


def constituent_tp(gold, hyp, mode):
    """True positives per constituent type in one sentence, as score_corpus counts them."""
    scores = score_corpus((gold,), (hyp,), mode).per_constituent
    return Counter({t: s.tp for t, s in scores.items() if s.tp})


def relation_tp(gold, hyp):
    """True positives per relation type in one sentence, as score_corpus counts them."""
    scores = score_corpus((gold,), (hyp,)).per_relation
    return Counter({t: s.tp for t, s in scores.items() if s.tp})


class TestMatchConstituents:
    def test_identity(self):
        ann = sentence([Constituent(C.GN, 0, 2), Constituent(C.NV, 2, 4)])
        for mode in M:
            assert constituent_tp(ann, ann, mode) == Counter({C.GN: 1, C.NV: 1})

    def test_mode_definitions(self):
        gold = sentence([Constituent(C.GN, 0, 3)])
        hyp = sentence([Constituent(C.GN, 0, 2)])
        assert constituent_tp(gold, hyp, M.EXACT) == Counter()
        assert constituent_tp(gold, hyp, M.LEFT) == Counter({C.GN: 1})
        assert constituent_tp(gold, hyp, M.OVERLAP) == Counter({C.GN: 1})

    def test_type_must_agree(self):
        gold = sentence([Constituent(C.GN, 0, 2)])
        hyp = sentence([Constituent(C.GP, 0, 2)])
        for mode in M:
            assert constituent_tp(gold, hyp, mode) == Counter()

    def test_disjoint_spans_never_overlap(self):
        gold = sentence([Constituent(C.GN, 0, 2)])
        hyp = sentence([Constituent(C.GN, 2, 4)])
        assert constituent_tp(gold, hyp, M.OVERLAP) == Counter()

    def test_tie_break_takes_earliest_hypothesis(self):
        # gold GN[0,2) ties between hyp GN[0,3) and GN[1,2) at distance 1;
        # consuming the earlier one starves gold GN[2,4)
        gold = sentence([Constituent(C.GN, 0, 2), Constituent(C.GN, 2, 4)])
        hyp = sentence([Constituent(C.GN, 0, 3), Constituent(C.GN, 1, 2)])
        assert constituent_tp(gold, hyp, M.OVERLAP) == Counter({C.GN: 1})
        assert optimal_tp(gold, hyp, M.OVERLAP) == 2

    def test_sentence_mismatch_is_error(self):
        with pytest.raises(ValueError):
            score_corpus([sentence(sentence_id="a")], [sentence(sentence_id="b")], M.EXACT)
        with pytest.raises(ValueError):
            score_corpus([sentence(n_tokens=3)], [sentence(n_tokens=4)], M.EXACT)

    def test_greedy_against_exhaustive_matching(self):
        rng = random.Random(73)
        for _ in range(150):
            tokens = tuple("t" for _ in range(8))
            gold = rand_annotation(rng, "s", max_constituents=6)
            hyp = SentenceAnnotation(
                "s",
                gold.tokens,
                tuple(
                    Constituent(
                        rng.choice(list(C)),
                        start := rng.randrange(len(gold.tokens)),
                        rng.randint(start + 1, len(gold.tokens)),
                    )
                    for _ in range(rng.randint(0, 6))
                ),
            )
            for mode in M:
                greedy = sum(constituent_tp(gold, hyp, mode).values())
                optimal = optimal_tp(gold, hyp, mode)
                assert greedy <= optimal
                assert greedy >= optimal - 1
                if mode in (M.EXACT, M.LEFT):
                    assert greedy == optimal
                    per_type = constituent_tp(gold, hyp, mode)
                    for t in C:  # each type alone, against the exhaustive oracle
                        gold_t, hyp_t = (SentenceAnnotation("s", a.tokens, [c for c in a.constituents
                                                                           if c.ctype is t])
                                         for a in (gold, hyp))
                        assert per_type[t] == optimal_tp(gold_t, hyp_t, mode)

    def test_mode_monotonicity(self):
        rng = random.Random(79)
        for _ in range(100):
            gold = rand_annotation(rng, "s")
            hyp = SentenceAnnotation(
                "s", gold.tokens, tuple(
                    Constituent(rng.choice(list(C)), s := rng.randrange(len(gold.tokens)),
                                rng.randint(s + 1, len(gold.tokens)))
                    for _ in range(rng.randint(0, 5))
                ),
            )
            exact = sum(constituent_tp(gold, hyp, M.EXACT).values())
            left = sum(constituent_tp(gold, hyp, M.LEFT).values())
            overlap = sum(constituent_tp(gold, hyp, M.OVERLAP).values())
            assert exact <= left <= overlap
            assert overlap <= min(len(gold.constituents), len(hyp.constituents))


class TestMatchRelations:
    def test_identity(self):
        ann = sentence(relations=[Relation(RT.SUJ_V, 0, 1), Relation(RT.COD_V, 2, 1)])
        assert relation_tp(ann, ann) == Counter({RT.SUJ_V: 1, RT.COD_V: 1})

    def test_disjoint(self):
        gold = sentence(relations=[Relation(RT.SUJ_V, 0, 1)])
        hyp = sentence(relations=[Relation(RT.SUJ_V, 0, 2)])
        assert relation_tp(gold, hyp) == Counter()

    def test_duplicates_consume_one_match_each(self):
        dup = Relation(RT.SUJ_V, 0, 1)
        gold = sentence(relations=[dup, dup, Relation(RT.MOD_V, 2, 1)])
        hyp = sentence(relations=[dup, dup, dup])
        assert relation_tp(gold, hyp) == Counter({RT.SUJ_V: 2})

    def test_multiset_intersection_oracle(self):
        rng = random.Random(83)
        for _ in range(100):
            gold = rand_annotation(rng, "s")
            n = len(gold.tokens)
            candidates = tuple(
                r for r in rand_annotation(rng, "s").relations
                if r.source < n and r.target < n
            )
            hyp = SentenceAnnotation("s", gold.tokens, (), candidates)
            tp = relation_tp(gold, hyp)
            expected = Counter()
            hyp_pool = Counter(hyp.relations)
            for r in gold.relations:
                if hyp_pool[r] > 0:
                    hyp_pool[r] -= 1
                    expected[r.rtype] += 1
            assert tp == expected


class TestScores:
    def test_conventions(self):
        empty = Scores(0, 0, 0)
        assert empty.precision == 1 and empty.recall == 1 and empty.f_measure == 1
        no_hyp = Scores(0, 5, 0)
        assert no_hyp.precision == 1
        assert no_hyp.recall == 0
        assert no_hyp.f_measure == 0
        no_gold = Scores(0, 0, 5)
        assert no_gold.recall == 1 and no_gold.precision == 0

    def test_harmonic_mean_is_exact(self):
        s = Scores(1, 1, 2)
        assert s.precision == Fraction(1, 2)
        assert s.recall == 1
        assert s.f_measure == Fraction(2, 3)

    def test_tp_bounds_enforced(self):
        with pytest.raises(ValueError):
            Scores(3, 2, 5)
        with pytest.raises(ValueError):
            Scores(-1, 2, 5)

    def test_f_between_p_and_r(self):
        rng = random.Random(89)
        for _ in range(200):
            gold_n = rng.randint(0, 10)
            hyp_n = rng.randint(0, 10)
            tp = rng.randint(0, min(gold_n, hyp_n))
            s = Scores(tp, gold_n, hyp_n)
            p, r, f = s.precision, s.recall, s.f_measure
            assert 0 <= f <= 1
            if p + r > 0:
                assert min(p, r) <= f <= max(p, r)
            if p == r:
                assert f == p


class TestScoreCorpus:
    def test_hyp_equals_gold(self):
        rng = random.Random(97)
        gold = [rand_annotation(rng, f"s{i}") for i in range(10)]
        scores = score_corpus(gold, gold, M.EXACT)
        assert scores.constituents.f_measure == 1
        assert scores.relations.f_measure == 1
        for table in (scores.per_constituent, scores.per_relation):
            for per_type in table.values():
                assert per_type.precision == 1
                assert per_type.recall == 1
                assert per_type.f_measure == 1
        assert set(scores.per_constituent) == set(C)
        assert set(scores.per_relation) == set(RT)

    def test_empty_hypothesis_convention(self):
        gold = [sentence([Constituent(C.GN, 0, 2)], [Relation(RT.SUJ_V, 0, 1)])]
        hyp = [sentence()]
        scores = score_corpus(gold, hyp, M.EXACT)
        assert scores.constituents.precision == 1
        assert scores.constituents.recall == 0
        assert scores.constituents.f_measure == 0

    def test_half_precision_full_recall(self):
        gold = [sentence([Constituent(C.GN, 0, 2)])]
        hyp = [sentence([Constituent(C.GN, 0, 2), Constituent(C.GN, 4, 6)])]
        scores = score_corpus(gold, hyp, M.EXACT)
        assert scores.constituents.precision == Fraction(1, 2)
        assert scores.constituents.recall == 1
        assert scores.constituents.f_measure == Fraction(2, 3)

    @staticmethod
    def aligned_corpora(seed, n):
        """Random gold sentences, and hypotheses cut to fit their tokens."""
        rng = random.Random(seed)
        gold = [rand_annotation(rng, f"s{i}") for i in range(n)]
        hyp = [rand_annotation(rng, f"s{i}") for i in range(n)]
        hyp = [
            SentenceAnnotation(g.sentence_id, g.tokens, h.constituents
                               if all(c.end <= len(g.tokens) for c in h.constituents) else (),
                               tuple(r for r in h.relations
                                     if r.source < len(g.tokens) and r.target < len(g.tokens)))
            for g, h in zip(gold, hyp)
        ]
        return gold, hyp

    def test_aggregate_is_sum_of_per_type(self):
        gold, hyp = self.aligned_corpora(101, 8)
        for mode in M:
            scores = score_corpus(gold, hyp, mode)
            assert scores.constituents.tp == sum(
                s.tp for s in scores.per_constituent.values()
            )
            assert scores.relations.tp == sum(s.tp for s in scores.per_relation.values())
            assert scores.constituents.gold_count == sum(
                s.gold_count for s in scores.per_constituent.values()
            )

    @staticmethod
    def with_repeats(gold, hyp, seed):
        """The corpora with the items of some sentences doubled, and some
        sentence pairs carrying the items of the pair before them, as they
        are or with gold and hypothesis swapped."""
        rng = random.Random(seed)
        pairs = []
        for g, h in zip(gold, hyp):
            roll = rng.random()
            if pairs and roll < 0.3:
                before = pairs[-1] if roll < 0.15 else pairs[-1][::-1]
                g, h = (SentenceAnnotation(a.sentence_id, b.tokens, b.constituents, b.relations)
                        for a, b in zip((g, h), before))
            elif roll < 0.6:
                g = SentenceAnnotation(g.sentence_id, g.tokens, g.constituents * 2, g.relations * 2)
                h = SentenceAnnotation(h.sentence_id, h.tokens, h.constituents + g.constituents[:3],
                                       h.relations + g.relations[:3])
            pairs.append((g, h))
        return [g for g, _ in pairs], [h for _, h in pairs]

    @pytest.mark.parametrize("seed", [101, 107, 109])
    def test_counts_match_a_fold_over_the_sentences(self, seed):
        gold, hyp = self.with_repeats(*self.aligned_corpora(seed, 40), seed)
        for mode in M:
            scores = score_corpus(gold, hyp, mode)
            assert list(scores.per_constituent) == list(C)
            assert list(scores.per_relation) == list(RT)
            for t in C:
                expected = Scores(
                    sum(constituent_tp(g, h, mode)[t] for g, h in zip(gold, hyp)),
                    sum(c.ctype is t for g in gold for c in g.constituents),
                    sum(c.ctype is t for h in hyp for c in h.constituents),
                )
                assert scores.per_constituent[t] == expected
            for t in RT:
                expected = Scores(
                    sum(relation_tp(g, h)[t] for g, h in zip(gold, hyp)),
                    sum(r.rtype is t for g in gold for r in g.relations),
                    sum(r.rtype is t for h in hyp for r in h.relations),
                )
                assert scores.per_relation[t] == expected
            assert scores.constituents == Scores(
                sum(sum(constituent_tp(g, h, mode).values()) for g, h in zip(gold, hyp)),
                sum(len(g.constituents) for g in gold),
                sum(len(h.constituents) for h in hyp),
            )
            assert scores.relations == Scores(
                sum(sum(relation_tp(g, h).values()) for g, h in zip(gold, hyp)),
                sum(len(g.relations) for g in gold),
                sum(len(h.relations) for h in hyp),
            )

    @pytest.mark.parametrize("block", [1, 3, 7, 40])
    def test_scores_do_not_depend_on_the_block_size(self, block, monkeypatch):
        # score_pairs sums one score_corpus call per block; the sums equal
        # one call over the whole corpus, for blocks of 1 to all 40 pairs
        gold, hyp = self.with_repeats(*self.aligned_corpora(113, 40), 113)
        whole = {mode: score_corpus(gold, hyp, mode) for mode in M}
        monkeypatch.setattr(passage, "_BLOCK", block)
        for mode in M:
            assert passage.score_pairs(zip(gold, hyp), mode) == (whole[mode], coverage(hyp))

    def test_permutation_invariance(self):
        rng = random.Random(103)
        gold = [rand_annotation(rng, f"s{i}") for i in range(6)]
        hyp = [SentenceAnnotation(g.sentence_id, g.tokens, g.constituents[:1]) for g in gold]
        base = score_corpus(gold, hyp, M.EXACT)
        order = list(range(6))
        rng.shuffle(order)
        permuted = score_corpus([gold[i] for i in order], [hyp[i] for i in order], M.EXACT)
        assert permuted == base

    def test_id_sequence_mismatch_is_error(self):
        gold = [sentence(sentence_id="a"), sentence(sentence_id="b")]
        prefix = "gold and hypothesis must list the same sentence ids in order: "
        with pytest.raises(ValueError) as err:
            score_corpus(gold, list(reversed(gold)), M.EXACT)
        assert str(err.value) == prefix + "sentence 1 is 'a' in gold, 'b' in hypothesis"
        with pytest.raises(ValueError) as err:
            score_corpus(gold, gold[:1], M.EXACT)
        assert str(err.value) == prefix + "gold has 2 sentences, hypothesis 1"
        with pytest.raises(ValueError) as err:
            score_corpus(gold[:1], [gold[0], sentence(sentence_id="c")], M.EXACT)
        assert str(err.value) == prefix + "gold has 1 sentences, hypothesis 2"
        for mode in M:
            with pytest.raises(ValueError) as err:
                score_corpus(gold, [gold[0], sentence(sentence_id="b", n_tokens=3)], mode)
            assert str(err.value) == "token count mismatch in 'b': gold has 8 tokens, hypothesis 3"


class TestCoverage:
    def test_all_covered(self):
        result = coverage([sentence(full=True)] * 10)
        assert (result.covered, result.total) == (10, 10)
        assert result.percent_display == "100.00"

    def test_none_covered(self):
        result = coverage([sentence(full=False)] * 4)
        assert (result.covered, result.total) == (0, 4)
        assert result.percent_display == "0.00"

    def test_three_of_eight(self):
        flags = [True, False, True, False, False, True, False, False]
        result = coverage([sentence(full=f) for f in flags])
        assert result.covered == 3
        assert result.ratio == Fraction(3, 8)
        assert result.percent_display == "37.50"

    def test_empty_is_error(self):
        with pytest.raises(ValueError):
            coverage([])


class TestFormatting:
    def test_fixed_half_up(self):
        assert format_fixed(Fraction(1, 8), 2) == "0.13"
        assert format_fixed(Fraction(1, 8), 3) == "0.125"
        assert format_fixed(Fraction(1, 4), 1) == "0.3"
        assert format_fixed(Fraction(2, 3), 2) == "0.67"
        assert format_fixed(Fraction(1, 3), 2) == "0.33"
        assert format_fixed(Fraction(7), 0) == "7"
        assert format_fixed(Fraction(8921, 100), 2) == "89.21"
        # a negative value that rounds to zero carries no sign
        assert format_fixed(Fraction(-1, 1000), 2) == "0.00"
        assert format_fixed(Fraction(-2, 5), 0) == "0"
        assert format_fixed(Fraction(-1, 200), 2) == "-0.01"

    def test_percent(self):
        assert format_percent(Fraction(2, 3)) == "66.67"
        assert format_percent(Fraction(3, 8)) == "37.50"
        assert format_percent(1) == "100.00"
        assert format_percent(0) == "0.00"
        assert format_percent(Fraction(6636, 10000)) == "66.36"
