import dataclasses
import random
import re

import pytest

from valex.errors import FormatError
from valex.lexicon import (
    CLITIC,
    FUNCTION_BIT,
    NP,
    Category,
    FunctionSlot,
    LexicalEntry,
    Lexicon,
    Marker,
    Realization,
    Redistribution,
    SyntacticFunction,
    lexicon_stats,
    parse_lexicon,
    pp,
    serialize_lexicon,
)
from valex.merge import _BASE, BASE_FUNCTIONS, OBLIQUE_FUNCTIONS

from gen import LINE_BREAK_LOOKALIKES, rand_lexicon

DONNER_LINE = (
    "donner\tV\tdonner__1\tSuj:NP|CLITIC;Obj:NP;Obja?:PP(à)|CLITIC\t"
    "ACTIVE,PASSIVE\tcoded\tlefff:1380"
)


def entry(lemma="donner", entry_id="e1", frame=(), coded=True, **kwargs):
    defaults = dict(
        lemma=lemma,
        category=Category.V,
        entry_id=entry_id,
        frame=frame,
        redistributions={Redistribution.ACTIVE} if coded else set(),
        coded=coded,
        provenance=(("src", entry_id),),
    )
    defaults.update(kwargs)
    return LexicalEntry(**defaults)


def slot(function, realizations=(NP,), optional=False):
    return FunctionSlot(function, frozenset(realizations), optional)


def base_set(e):
    """Set of base functions subcategorized by the entry."""
    return frozenset(s.function for s in e.frame if s.function in BASE_FUNCTIONS)


def oblique_set(e):
    """Set of oblique functions subcategorized by the entry."""
    return frozenset(s.function for s in e.frame if s.function not in BASE_FUNCTIONS)


class TestParse:
    def test_example_line(self):
        lex = parse_lexicon(DONNER_LINE + "\n")
        assert list(lex.entries) == ["donner"]
        (e,) = lex.entries["donner"]
        assert e.category is Category.V
        assert e.entry_id == "donner__1"
        assert [s.function for s in e.frame] == [
            SyntacticFunction.SUJ,
            SyntacticFunction.OBJ,
            SyntacticFunction.OBJA,
        ]
        assert [s.optional for s in e.frame] == [False, False, True]
        assert e.frame[0].realizations == frozenset({NP, CLITIC})
        assert e.frame[2].realizations == frozenset({pp("à"), CLITIC})
        assert e.redistributions == frozenset({Redistribution.ACTIVE, Redistribution.PASSIVE})
        assert e.coded
        assert e.provenance == (("lefff", "1380"),)
        assert e.examples == ()

    def test_empty_document(self):
        assert parse_lexicon("") == Lexicon({})
        assert parse_lexicon("# only a comment\n\n   \n") == Lexicon({})

    def test_comments_and_blanks_ignored(self):
        text = "# header\n\n" + DONNER_LINE + "\n# trailing\n"
        assert len(list(parse_lexicon(text).all_entries())) == 1

    def test_examples_fields(self):
        lex = parse_lexicon(DONNER_LINE + "\telle donne un livre\til donne\n")
        (e,) = lex.entries["donner"]
        assert e.examples == ("elle donne un livre", "il donne")

    def test_uncoded_entry(self):
        line = "susciter\tV\tsusciter__1\tSuj:NP;Obj:NP\tACTIVE\tuncoded\tlglex:204"
        (e,) = parse_lexicon(line).entries["susciter"]
        assert not e.coded
        assert all(not s.optional for s in e.frame)

    def test_empty_frame(self):
        line = "pleuvoir\tV\tpleuvoir__1\t\tACTIVE,IMPERSONAL\tcoded\tlefff:9"
        (e,) = parse_lexicon(line).entries["pleuvoir"]
        assert e.frame == ()

    def test_n_pred_category(self):
        line = "peur\tN-PRED\tpeur__1\tSuj:NP\tACTIVE\tcoded\tlglex:77"
        (e,) = parse_lexicon(line).entries["peur"]
        assert e.category is Category.N_PRED

    def test_multiple_provenance(self):
        line = "voir\tV\tvoir__1\tSuj:NP\tACTIVE\tcoded\tlefff:3,dicoval:81002"
        (e,) = parse_lexicon(line).entries["voir"]
        assert e.provenance == (("lefff", "3"), ("dicoval", "81002"))


class TestParseErrors:
    @pytest.mark.parametrize(
        "line, fragment",
        [
            ("donner\tV\te1", "at least 7"),
            ("donner\tX\te1\tSuj:NP\tACTIVE\tcoded\ts:1", "unknown category"),
            ("donner\tV\te1\tZzz:NP\tACTIVE\tcoded\ts:1", "unknown function"),
            ("donner\tV\te1\tSuj:XX\tACTIVE\tcoded\ts:1", "unknown realization"),
            ("donner\tV\te1\tSuj:\tACTIVE\tcoded\ts:1", "empty realization"),
            ("donner\tV\te1\tSuj\tACTIVE\tcoded\ts:1", "malformed frame slot"),
            ("donner\tV\te1\tSuj:NP\tWEIRD\tcoded\ts:1", "unknown redistribution"),
            ("donner\tV\te1\tSuj:NP\tACTIVE\tmaybe\ts:1", "coded flag"),
            ("donner\tV\te1\tSuj:NP\tACTIVE\tcoded\tnocolon", "provenance"),
            ("donner\tV\te1\tSuj:NP\tACTIVE\tcoded\t", "provenance"),
            ("donner\tV\te1\tSuj:NP\tACTIVE\tcoded\ts:", "provenance item ('s', '') cannot be serialized"),
            ("donner\tV\te1\tSuj:NP;Obj:PP(x;y)\tACTIVE\tcoded\ts:1", "unknown realization token: 'PP(x'"),
            ("donner\tV\te1\tSuj:NP;Obj:PP(x)y)\tACTIVE\tcoded\ts:1", "preposition 'x)y' cannot be"),
            ("don\rner\tV\te1\tSuj:NP\tACTIVE\tcoded\ts:1", "field 'don\\rner' contains a CR"),
            ("donner\tV\te1\tSuj:NP;Suj:CLITIC\tACTIVE\tcoded\ts:1", "duplicate function"),
            ("donner\tV\te1\tSuj:NP\tPASSIVE\tcoded\ts:1", "must license ACTIVE"),
            ("donner\tV\te1\tSuj?:NP\tACTIVE\tuncoded\ts:1", "optional"),
            ("Donner\tV\te1\tSuj:NP\tACTIVE\tcoded\ts:1", "lowercase"),
        ],
    )
    def test_bad_line_reports_line_number(self, line, fragment):
        with pytest.raises(FormatError) as err:
            parse_lexicon("# comment\n" + line + "\n")
        assert "line 2" in str(err.value)
        assert fragment in str(err.value)

    @pytest.mark.parametrize(
        "frame, redistributions, fragment",
        [
            ("Suj:NP;Obj:XX", "ACTIVE", "unknown realization"),
            ("Suj:NP;Zzz:NP", "ACTIVE", "unknown function"),
            ("Suj:NP;Obj", "ACTIVE", "malformed frame slot"),
            ("Suj:NP;Obj:", "ACTIVE", "empty realization"),
            ("Suj:NP;Suj:NP", "ACTIVE", "duplicate function"),
            ("Suj:NP", "ACTIVE,WEIRD", "unknown redistribution"),
            ("Suj:NP", "PASSIVE", "must license ACTIVE"),
        ],
    )
    def test_bad_token_on_two_lines_fails_at_the_first(self, frame, redistributions, fragment):
        # line 1 parses the good tokens of the bad lines first
        good = "donner\tV\te0\tSuj:NP\tACTIVE\tcoded\ts:0\n"
        bad = [f"donner\tV\te{k}\t{frame}\t{redistributions}\tcoded\ts:{k}\n" for k in (1, 2)]
        with pytest.raises(FormatError) as err:
            parse_lexicon(good + "".join(bad))
        assert err.value.line == 2
        assert fragment in err.value.message

    def test_repeated_tokens_parse_to_equal_slots(self):
        second = DONNER_LINE.replace("donner__1", "donner__2").replace("lefff:1380", "lefff:1381")
        lexicon = parse_lexicon(DONNER_LINE + "\n" + second + "\n")
        first, again = lexicon.entries["donner"]
        (alone,) = parse_lexicon(DONNER_LINE + "\n").entries["donner"]
        assert first.frame == again.frame == alone.frame
        assert first.redistributions == again.redistributions == alone.redistributions
        assert parse_lexicon(serialize_lexicon(lexicon)) == lexicon

    def test_lemmas_and_provenance_sources_are_one_string_each(self):
        text = (
            "donner\tV\tdonner__1\tSuj:NP\tACTIVE\tcoded\tlefff:1,dicovalence:7\n"
            "voir\tV\tvoir__1\tSuj:NP\tACTIVE\tcoded\tdicovalence:8\n"
            "donner\tV\tdonner__2\tSuj:NP;Obj:NP\tACTIVE\tcoded\tlefff:2\n"
        )
        lexicon = parse_lexicon(text)
        (d1, d2), (v1,) = lexicon.entries["donner"], lexicon.entries["voir"]
        assert d1.lemma is d2.lemma
        assert all(e.lemma is lemma for lemma, group in lexicon.entries.items() for e in group)
        assert d1.provenance[0][0] is d2.provenance[0][0]  # lefff
        assert d1.provenance[1][0] is v1.provenance[0][0]  # dicovalence
        suj, obj = slot(SyntacticFunction.SUJ), slot(SyntacticFunction.OBJ)
        assert [d1, d2, v1] == [
            entry("donner", "donner__1", (suj,), provenance=(("lefff", "1"), ("dicovalence", "7"))),
            entry("donner", "donner__2", (suj, obj), provenance=(("lefff", "2"),)),
            entry("voir", "voir__1", (suj,), provenance=(("dicovalence", "8"),)),
        ]

    def test_duplicate_entry_id(self):
        text = DONNER_LINE + "\n" + DONNER_LINE + "\n"
        with pytest.raises(FormatError) as err:
            parse_lexicon(text)
        assert "duplicate entry_id" in str(err.value)
        assert "line 2" in str(err.value)


class TestModelInvariants:
    def test_duplicate_function_rejected(self):
        with pytest.raises(ValueError):
            entry(frame=(slot(SyntacticFunction.SUJ), slot(SyntacticFunction.SUJ, (CLITIC,))))

    def test_empty_realizations_rejected(self):
        with pytest.raises(ValueError):
            FunctionSlot(SyntacticFunction.SUJ, frozenset())

    def test_slot_function_must_be_a_syntactic_function(self):
        with pytest.raises(ValueError):
            FunctionSlot("Suj", frozenset([NP]))

    def test_pp_needs_preposition(self):
        with pytest.raises(ValueError):
            pp("")
        with pytest.raises(ValueError):
            pp("À")
        with pytest.raises(ValueError, match="NP realization takes no preposition"):
            Realization(Marker.NP, "x")  # and only a PP takes one

    @pytest.mark.parametrize("prep", ["x;y", "x)y", "x|y"])
    def test_unwritable_preposition_rejected(self, prep):
        # written PP(x;y), it would split into two slots; the model refuses it
        with pytest.raises(ValueError, match=f"preposition '{re.escape(prep)}' cannot be serialized"):
            pp(prep)

    @pytest.mark.parametrize("item", [("", "1"), ("lefff", ""), ("a:b", "1"), ("a,b", "1"), ("lefff", "1,2")])
    def test_unwritable_provenance_rejected(self, item):
        with pytest.raises(ValueError, match=re.escape(f"provenance item {item!r} cannot be serialized")):
            entry(provenance=(("lefff", "0"), item))

    def test_coded_requires_active(self):
        with pytest.raises(ValueError):
            entry(coded=True, redistributions={Redistribution.PASSIVE})

    def test_uncoded_slots_all_obligatory(self):
        with pytest.raises(ValueError):
            entry(coded=False, frame=(slot(SyntacticFunction.OBJ, optional=True),))

    def test_provenance_required(self):
        with pytest.raises(ValueError):
            entry(provenance=())

    def test_lexicon_rejects_duplicate_ids(self):
        with pytest.raises(ValueError):
            Lexicon.from_entries([entry(lemma="a", entry_id="x"), entry(lemma="b", entry_id="x")])

    def test_lexicon_rejects_misfiled_entry(self):
        with pytest.raises(ValueError):
            Lexicon({"autre": (entry(lemma="donner"),)})

    def test_lexicon_rejects_empty_group(self):
        with pytest.raises(ValueError):
            Lexicon({"donner": ()})

    def test_canonical_order(self):
        lex = Lexicon.from_entries(
            [entry(lemma="zèbre", entry_id="z1"), entry(lemma="aube", entry_id="a2"),
             entry(lemma="aube", entry_id="a1")]
        )
        assert list(lex.entries) == ["aube", "zèbre"]
        assert [e.entry_id for e in lex.entries["aube"]] == ["a1", "a2"]


class TestSignatures:
    def test_base_signature_ignores_optionality(self):
        e = entry(
            frame=(
                slot(SyntacticFunction.SUJ),
                slot(SyntacticFunction.OBJ),
                slot(SyntacticFunction.OBJA, optional=True),
            )
        )
        assert base_set(e) == frozenset(
            {SyntacticFunction.SUJ, SyntacticFunction.OBJ, SyntacticFunction.OBJA}
        )
        assert oblique_set(e) == frozenset()

    def test_oblique_signature(self):
        e = entry(frame=(slot(SyntacticFunction.SUJ), slot(SyntacticFunction.LOC)))
        assert base_set(e) == frozenset({SyntacticFunction.SUJ})
        assert oblique_set(e) == frozenset({SyntacticFunction.LOC})

    def test_empty_frame(self):
        e = entry(frame=())
        assert base_set(e) == frozenset()
        assert oblique_set(e) == frozenset()

    def test_partition_is_total_and_disjoint(self):
        assert BASE_FUNCTIONS | OBLIQUE_FUNCTIONS == frozenset(SyntacticFunction)
        assert not BASE_FUNCTIONS & OBLIQUE_FUNCTIONS

    def test_signatures_partition_frame_functions(self):
        rng = random.Random(11)
        for _ in range(200):
            lex = rand_lexicon(rng, 2)
            for e in lex.all_entries():
                functions = frozenset(s.function for s in e.frame)
                assert base_set(e) | oblique_set(e) == functions
                assert not base_set(e) & oblique_set(e)

    @staticmethod
    def assert_masks_agree(entries):
        # Each function's bit, read off a one-slot entry, must be its
        # FUNCTION_BIT, a distinct power of two, inside merge's base bits
        # exactly when the function is base; an entry's mask is then the sum
        # of its functions' bits, and its base and oblique parts the sums of
        # its signatures' bits.
        bits = {}
        for f in SyntacticFunction:
            bits[f] = entry(frame=(slot(f),)).function_mask
            assert bits[f] == FUNCTION_BIT[f]
            assert bits[f].bit_count() == 1
            assert bits[f] & _BASE == (bits[f] if f in BASE_FUNCTIONS else 0)
        assert len(set(bits.values())) == len(SyntacticFunction)
        for e in entries:
            assert e.function_mask == sum(bits[s.function] for s in e.frame)
            assert e.function_mask & _BASE == sum(bits[f] for f in base_set(e))
            assert e.function_mask & ~_BASE == sum(bits[f] for f in oblique_set(e))

    def test_cached_masks_agree_with_signatures(self):
        rng = random.Random(11)
        for _ in range(200):
            lex = rand_lexicon(rng, 2)
            entries = list(lex.all_entries())
            self.assert_masks_agree(entries)
            # merge_lexicons renames colliding ids through dataclasses.replace
            renamed = [dataclasses.replace(e, entry_id=e.entry_id + "~2") for e in entries]
            self.assert_masks_agree(renamed)
            # replacing the frame recomputes the mask
            reframed = [dataclasses.replace(e, frame=e.frame[1:]) for e in entries]
            self.assert_masks_agree(reframed)


class TestRoundTrip:
    def test_single_entry_line(self):
        # realizations are a set; canonical form sorts them by token
        canonical = (
            "donner\tV\tdonner__1\tSuj:CLITIC|NP;Obj:NP;Obja?:CLITIC|PP(à)\t"
            "ACTIVE,PASSIVE\tcoded\tlefff:1380"
        )
        lex = parse_lexicon(DONNER_LINE)
        assert "".join(serialize_lexicon(lex)).rstrip("\n") == canonical
        assert parse_lexicon(canonical) == lex

    def test_parse_serialize_identity_random(self):
        rng = random.Random(7)
        for _ in range(25):
            lex = rand_lexicon(rng, rng.randint(1, 12))
            text = serialize_lexicon(lex)
            assert parse_lexicon(text) == lex

    def test_serialize_parse_idempotent_after_one_cycle(self):
        shuffled = (
            "zoner\tV\tz1\tSuj:NP\tACTIVE\tcoded\ts:1\n"
            "aboyer\tV\ta2\tSuj:NP\tACTIVE\tcoded\ts:2\n"
            "aboyer\tV\ta1\tSuj:CLITIC\tACTIVE\tcoded\ts:3\n"
        )
        once = "".join(serialize_lexicon(parse_lexicon(shuffled)))
        assert "".join(serialize_lexicon(parse_lexicon(once))) == once
        assert once.index("aboyer\tV\ta1") < once.index("aboyer\tV\ta2") < once.index("zoner")

    def test_unserializable_example_rejected(self):
        e = entry(examples=("tab\there",))
        with pytest.raises(ValueError):
            "".join(serialize_lexicon(Lexicon.from_entries([e])))

    @pytest.mark.parametrize("char", LINE_BREAK_LOOKALIKES)
    def test_example_with_line_break_lookalike_round_trips(self, char):
        lex = Lexicon.from_entries([entry(examples=(f"a{char}b", char))])
        assert parse_lexicon(serialize_lexicon(lex)) == lex

    def test_crlf_document_parses_like_lf(self):
        text = "".join(serialize_lexicon(rand_lexicon(random.Random(11), 6)))
        assert parse_lexicon(text.replace("\n", "\r\n")) == parse_lexicon(text)

    @pytest.mark.parametrize(
        "fields",
        [
            dict(lemma="#foo"),
            dict(entry_id="e\r1"),
            dict(examples=("a\rb",)),
            dict(provenance=(("", "1"),)),
            dict(provenance=(("lefff", ""),)),
        ],
        ids=[
            "hash-lemma", "cr-entry-id", "cr-example", "empty-provenance-source",
            "empty-provenance-id",
        ],
    )
    def test_unreadable_field_rejected(self, fields):
        with pytest.raises(ValueError):
            "".join(serialize_lexicon(Lexicon.from_entries([entry(**fields)])))


class TestStats:
    def test_small_example(self):
        lex = Lexicon.from_entries(
            [entry(lemma="aimer", entry_id="a1")]
            + [entry(lemma="tenir", entry_id=f"t{k}") for k in range(3)]
        )
        stats = lexicon_stats(lex)
        assert stats.lemma_count == 2
        assert stats.entry_count == 4
        assert stats.max_entries == 3
        assert stats.top == (("tenir", 3), ("aimer", 1))

    def test_empty_lexicon(self):
        stats = lexicon_stats(Lexicon({}))
        assert (stats.lemma_count, stats.entry_count, stats.max_entries) == (0, 0, 0)
        assert stats.top == ()

    def test_tie_break_lexicographic(self):
        # 13 lemmas: the two-entry lemma leads, then nine of the twelve
        # one-entry lemmas in lemma order, whatever order they came in
        lemmas = [f"l{k:02d}" for k in reversed(range(12))]
        lex = Lexicon.from_entries(
            [entry(lemma=lemma, entry_id=lemma) for lemma in lemmas]
            + [entry(lemma="z", entry_id="z1"), entry(lemma="z", entry_id="z2")]
        )
        stats = lexicon_stats(lex)
        assert stats.lemma_count == 13
        assert stats.top == (("z", 2), *((f"l{k:02d}", 1) for k in range(9)))

    @pytest.mark.parametrize("n", [9, 10, 11])
    def test_top_is_cut_at_ten_lemmas(self, n):
        lex = Lexicon.from_entries([entry(lemma=f"l{k:02d}", entry_id=f"e{k}") for k in range(n)])
        assert [lemma for lemma, _ in lexicon_stats(lex).top] == [f"l{k:02d}" for k in range(min(n, 10))]

    def test_recount_oracle(self):
        rng = random.Random(23)
        for _ in range(20):
            lex = rand_lexicon(rng, rng.randint(1, 20))
            # independent recount straight off the entry objects
            counts = {}
            for e in lex.all_entries():
                counts[e.lemma] = counts.get(e.lemma, 0) + 1
            stats = lexicon_stats(lex)
            assert stats.lemma_count == len(counts)
            assert stats.entry_count == sum(counts.values())
            assert stats.max_entries == max(counts.values())
            expected_top = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
            assert list(stats.top) == expected_top
