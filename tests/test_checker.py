import random
from collections import Counter

import pytest

from valex.checker import (
    AnalyzabilityVerdict,
    FailureReason,
    ObservedFrame,
    SentenceRecord,
    check_sentence,
    diagnose_corpus,
    parse_corpus,
    serialize_corpus,
)
from valex.errors import FormatError
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

from gen import LINE_BREAK_LOOKALIKES, rand_entry, rand_lexicon, rand_observed_frame

F = SyntacticFunction
R = Redistribution


def entry(lemma="kidnapper", entry_id="k1", slots=((F.SUJ, (NP,), False),),
          redistributions=(R.ACTIVE,), coded=True):
    frame = tuple(FunctionSlot(f, frozenset(reals), opt) for f, reals, opt in slots)
    return LexicalEntry(
        lemma=lemma,
        category=Category.V,
        entry_id=entry_id,
        frame=frame,
        redistributions=frozenset(redistributions),
        coded=coded,
        provenance=(("src", entry_id),),
    )


def obs(lemma="kidnapper", slots=(), context=R.ACTIVE):
    return ObservedFrame(lemma, frozenset(slots), context)


def accepts(e, observation):
    """Whether the entry, alone in a lexicon, licenses the observation."""
    return check_sentence(Lexicon.from_entries([e]), observation).analyzable


TRANSITIVE = entry(
    slots=((F.SUJ, (NP,), False), (F.OBJ, (NP,), False)),
    redistributions=(R.ACTIVE, R.PASSIVE),
)


class TestEntryAccepts:
    def test_exact_match(self):
        assert accepts(TRANSITIVE, obs(slots={(F.SUJ, NP), (F.OBJ, NP)}))

    def test_missing_obligatory_complement(self):
        # three-slot entry, second complement obligatory, clause (b) fails
        three = entry(
            slots=((F.SUJ, (NP,), False), (F.OBJ, (NP,), False), (F.OBJA, (pp("à"),), False)),
        )
        assert not accepts(three, obs(slots={(F.SUJ, NP), (F.OBJ, NP)}))

    def test_missing_redistribution(self):
        active_only = entry(slots=((F.SUJ, (NP,), False), (F.OBJ, (NP,), False)))
        assert not accepts(
            active_only, obs(slots={(F.OBJ, NP)}, context=R.PASSIVE)
        )

    def test_optional_slot_may_be_absent(self):
        with_optional = entry(
            slots=((F.SUJ, (NP,), False), (F.OBJA, (pp("à"), CLITIC), True)),
        )
        assert accepts(with_optional, obs(slots={(F.SUJ, NP)}))
        assert accepts(with_optional, obs(slots={(F.SUJ, NP), (F.OBJA, CLITIC)}))

    def test_unknown_function_fails_clause_a(self):
        assert not accepts(TRANSITIVE, obs(slots={(F.SUJ, NP), (F.LOC, pp("sur"))}))

    def test_realization_must_be_listed(self):
        assert not accepts(TRANSITIVE, obs(slots={(F.SUJ, CLITIC), (F.OBJ, NP)}))

    def test_pp_preposition_exact_match(self):
        with_pp = entry(slots=((F.SUJ, (NP,), False), (F.OBJA, (pp("à"),), False)))
        assert accepts(with_pp, obs(slots={(F.SUJ, NP), (F.OBJA, pp("à"))}))
        assert not accepts(with_pp, obs(slots={(F.SUJ, NP), (F.OBJA, pp("de"))}))

    def test_subject_exempt_under_passive_and_impersonal(self):
        assert accepts(TRANSITIVE, obs(slots={(F.OBJ, NP)}, context=R.PASSIVE))
        impersonal = entry(
            slots=((F.SUJ, (NP,), False), (F.OBJ, (NP,), False)),
            redistributions=(R.ACTIVE, R.IMPERSONAL),
        )
        assert accepts(impersonal, obs(slots={(F.OBJ, NP)}, context=R.IMPERSONAL))
        # no exemption under ACTIVE
        assert not accepts(TRANSITIVE, obs(slots={(F.OBJ, NP)}))

    def test_uncoded_entry_has_no_optional_omissions(self):
        uncoded = entry(
            slots=((F.SUJ, (NP,), False), (F.OBJ, (NP,), False)),
            coded=False,
        )
        assert accepts(uncoded, obs(slots={(F.SUJ, NP), (F.OBJ, NP)}))
        assert not accepts(uncoded, obs(slots={(F.SUJ, NP)}))

    def test_cliticized_object_needs_clitic_realization(self):
        clitic_ok = entry(
            slots=((F.SUJ, (NP,), False), (F.OBJ, (NP, CLITIC), False)),
            redistributions=(R.ACTIVE, R.OBJ_CLITICIZATION),
        )
        observation = obs(slots={(F.SUJ, NP), (F.OBJ, CLITIC)}, context=R.OBJ_CLITICIZATION)
        assert accepts(clitic_ok, observation)
        np_only = entry(
            slots=((F.SUJ, (NP,), False), (F.OBJ, (NP,), False)),
            redistributions=(R.ACTIVE, R.OBJ_CLITICIZATION),
        )
        assert not accepts(np_only, observation)

    def test_own_frame_always_accepted(self):
        rng = random.Random(13)
        for k in range(300):
            e = rand_entry(rng, "tester", f"e{k}", coded=True)
            full = ObservedFrame(
                "tester",
                frozenset(
                    (s.function, sorted(s.realizations, key=lambda r: r.token())[0])
                    for s in e.frame
                ),
                R.ACTIVE,
            )
            assert accepts(e, full)


class TestCheckSentence:
    def lexicon(self):
        return Lexicon.from_entries(
            [
                TRANSITIVE,
                entry(
                    lemma="susciter",
                    entry_id="s1",
                    slots=((F.SUJ, (NP,), False), (F.OBJ, (NP,), False)),
                    coded=False,
                ),
                entry(
                    lemma="camper",
                    entry_id="c1",
                    slots=((F.SUJ, (NP,), False), (F.LOC, (pp("dans"),), True)),
                ),
                entry(
                    lemma="camper",
                    entry_id="c2",
                    slots=((F.SUJ, (NP,), False), (F.OBJ, (NP,), False)),
                ),
            ]
        )

    def test_missing_lemma(self):
        verdict = check_sentence(self.lexicon(), obs(lemma="réaffirmer"))
        assert verdict == AnalyzabilityVerdict(False, (), FailureReason.MISSING_LEMMA)

    def test_uncoded_entry(self):
        # construction beyond the base: the optional-less base requires both slots
        verdict = check_sentence(self.lexicon(), obs(lemma="susciter", slots={(F.SUJ, NP)}))
        assert verdict.failure_reason is FailureReason.UNCODED_ENTRY

    def test_analyzable_lists_all_witnesses(self):
        verdict = check_sentence(self.lexicon(), obs(lemma="camper", slots={(F.SUJ, NP)}))
        assert verdict.analyzable
        assert verdict.witness_entry_ids == ("c1",)
        both = check_sentence(
            Lexicon.from_entries(
                [
                    entry(entry_id="w1", slots=((F.SUJ, (NP,), False),)),
                    entry(entry_id="w2", slots=((F.SUJ, (NP, CLITIC), False),)),
                ]
            ),
            obs(slots={(F.SUJ, NP)}),
        )
        assert both.witness_entry_ids == ("w1", "w2")

    def test_missing_redistribution(self):
        verdict = check_sentence(
            self.lexicon(),
            obs(slots={(F.SUJ, NP), (F.OBJ, NP)}, context=R.SE_MIDDLE),
        )
        assert verdict.failure_reason is FailureReason.MISSING_REDISTRIBUTION

    def test_missing_obligatory_complement(self):
        verdict = check_sentence(self.lexicon(), obs(slots={(F.SUJ, NP)}))
        assert verdict.failure_reason is FailureReason.MISSING_OBLIGATORY_COMPLEMENT

    def test_unknown_construction(self):
        verdict = check_sentence(
            self.lexicon(), obs(slots={(F.SUJ, NP), (F.OBL, pp("contre"))})
        )
        assert verdict.failure_reason is FailureReason.UNKNOWN_CONSTRUCTION

    def test_redistribution_precedes_obligatory_complement(self):
        lex = Lexicon.from_entries(
            [
                # passes (a) and (b), fails (c)
                entry(entry_id="p1", slots=((F.SUJ, (NP,), False),)),
                # passes (a) and (c), fails (b)
                entry(
                    entry_id="p2",
                    slots=((F.SUJ, (NP,), False), (F.OBJ, (NP,), False)),
                    redistributions=(R.ACTIVE, R.SE_MIDDLE),
                ),
            ]
        )
        verdict = check_sentence(lex, obs(slots={(F.SUJ, NP)}, context=R.SE_MIDDLE))
        assert verdict.failure_reason is FailureReason.MISSING_REDISTRIBUTION

    def test_exactly_one_reason_per_failure(self):
        rng = random.Random(37)
        lex = rand_lexicon(rng, 10)
        lemmas = list(lex.entries) + ["absent"]
        for _ in range(400):
            lemma = rng.choice(lemmas)
            source = rand_entry(rng, lemma, "tmp")
            frame = rand_observed_frame(rng, source, rng.choice(list(R)))
            verdict = check_sentence(lex, frame)
            assert verdict.analyzable == (verdict.failure_reason is None)
            assert verdict.analyzable == bool(verdict.witness_entry_ids)
            if not verdict.analyzable:
                assert isinstance(verdict.failure_reason, FailureReason)

    def test_observed_slot_function_must_be_a_syntactic_function(self):
        with pytest.raises(ValueError):
            ObservedFrame("donner", frozenset({("Suj", NP)}))

    def test_verdict_consistency_enforced(self):
        with pytest.raises(ValueError):
            AnalyzabilityVerdict(True, (), None)
        with pytest.raises(ValueError):
            AnalyzabilityVerdict(False, ("e",), FailureReason.MISSING_LEMMA)
        with pytest.raises(ValueError, match="exactly one of witness or failure_reason applies"):
            AnalyzabilityVerdict(False, (), None)


class TestProperties:
    def test_adding_entries_never_breaks_analyzability(self):
        rng = random.Random(53)
        for _ in range(40):
            lex = rand_lexicon(rng, 6)
            frames = []
            for lemma, group in lex.entries.items():
                for e in group:
                    frames.append(rand_observed_frame(rng, e))
            extra_lemma = rng.choice(list(lex.entries))
            bigger = Lexicon.from_entries(
                list(lex.all_entries()) + [rand_entry(rng, extra_lemma, "extra")]
            )
            for frame in frames:
                if check_sentence(lex, frame).analyzable:
                    assert check_sentence(bigger, frame).analyzable

    def test_loosening_a_slot_never_shrinks_acceptance(self):
        rng = random.Random(59)
        tried = 0
        while tried < 60:
            e = rand_entry(rng, "tester", "e", coded=True)
            obligatory = [i for i, s in enumerate(e.frame) if not s.optional]
            if not obligatory:
                continue
            tried += 1
            i = rng.choice(obligatory)
            loosened_frame = list(e.frame)
            loosened_frame[i] = FunctionSlot(
                e.frame[i].function, e.frame[i].realizations, True
            )
            loosened = LexicalEntry(
                lemma=e.lemma,
                category=e.category,
                entry_id=e.entry_id,
                frame=tuple(loosened_frame),
                redistributions=e.redistributions,
                coded=True,
                provenance=e.provenance,
            )
            for _ in range(25):
                probe_source = rand_entry(rng, "tester", "probe")
                probe = rand_observed_frame(rng, probe_source, rng.choice(list(R)))
                if accepts(e, probe):
                    assert accepts(loosened, probe)


class TestDiagnose:
    def test_all_analyzable(self):
        lex = Lexicon.from_entries([TRANSITIVE])
        corpus = [
            ("s1", [obs(slots={(F.SUJ, NP), (F.OBJ, NP)})]),
            ("s2", [obs(slots={(F.OBJ, NP)}, context=R.PASSIVE)]),
        ]
        records, histogram = diagnose_corpus(lex, corpus)
        assert all(r.analyzable for r in records)
        assert histogram == Counter()

    def test_single_missing_lemma(self):
        lex = Lexicon.from_entries([TRANSITIVE])
        records, histogram = diagnose_corpus(lex, [("s1", [obs(lemma="réaffirmer")])])
        assert records == [SentenceRecord("s1", ("réaffirmer",), False)]
        assert histogram == Counter({FailureReason.MISSING_LEMMA: 1})

    def test_sentence_fails_if_any_frame_fails(self):
        lex = Lexicon.from_entries([TRANSITIVE])
        good = obs(slots={(F.SUJ, NP), (F.OBJ, NP)})
        bad = obs(lemma="inconnu")
        records, histogram = diagnose_corpus(lex, [("s1", [good, bad])])
        assert records[0].analyzable is False
        assert records[0].forms == ("kidnapper", "inconnu")
        assert histogram == Counter({FailureReason.MISSING_LEMMA: 1})

    def test_empty_frame_list_is_error(self):
        with pytest.raises(ValueError):
            diagnose_corpus(Lexicon({}), [("s1", [])])

    def test_histogram_matches_per_frame_recount(self):
        rng = random.Random(61)
        lex = rand_lexicon(rng, 8)
        corpus = []
        lemmas = list(lex.entries) + ["fantôme"]
        for k in range(20):
            frames = []
            for _ in range(rng.randint(1, 3)):
                lemma = rng.choice(lemmas)
                source = rand_entry(rng, lemma, "tmp")
                frames.append(rand_observed_frame(rng, source, rng.choice(list(R))))
            corpus.append((f"s{k:02d}", frames))
        records, histogram = diagnose_corpus(lex, corpus)
        recount = Counter()
        for (sentence_id, frames), record in zip(corpus, records):
            verdicts = [check_sentence(lex, f) for f in frames]
            assert record.analyzable == all(v.analyzable for v in verdicts)
            for v in verdicts:
                if not v.analyzable:
                    recount[v.failure_reason] += 1
        assert histogram == recount

    @pytest.mark.parametrize("seed", [71, 73, 79, 83])
    def test_repeated_frames_match_a_per_frame_fold_of_check_sentence(self, seed):
        # a small pool of frames, drawn over and over, as equal copies or as
        # the same object: diagnose_corpus decides each distinct frame once
        rng = random.Random(seed)
        lex = rand_lexicon(rng, 6)
        lemmas = list(lex.entries) + ["fantôme"]
        pool = []
        for _ in range(12):
            source = rand_entry(rng, rng.choice(lemmas), "tmp", coded=rng.random() < 0.8)
            frame = rand_observed_frame(rng, source, rng.choice(list(R)))
            if frame.slots and rng.random() < 0.3:  # drop a slot: an obligatory one may go missing
                frame = obs(frame.lemma, sorted(frame.slots, key=str)[1:], frame.redistribution_context)
            pool.append(frame)
        corpus = []
        for k in range(300):
            frames = [rng.choice(pool) for _ in range(rng.randint(1, 4))]
            frames = [obs(f.lemma, set(f.slots), f.redistribution_context) if rng.random() < 0.5 else f
                      for f in frames]
            corpus.append((f"s{k:03d}", frames))
        records, histogram = diagnose_corpus(lex, corpus)
        expected_records, expected_histogram = [], Counter()
        for sentence_id, frames in corpus:
            verdicts = [check_sentence(lex, f) for f in frames]
            expected_records.append(
                SentenceRecord(sentence_id, tuple(f.lemma for f in frames), all(v.analyzable for v in verdicts))
            )
            expected_histogram.update(v.failure_reason for v in verdicts if not v.analyzable)
        assert records == expected_records
        assert histogram == expected_histogram
        assert len(set(histogram)) >= 2  # the pool mixes failure reasons


CORPUS_TEXT = (
    "# corpus header\n"
    "s1\tkidnapper\tACTIVE\tSuj:NP;Obj:NP\n"
    "s1\tdonner\tPASSIVE\tObj:NP;Obja:PP(à)\n"
    "s2\tpleuvoir\tIMPERSONAL\t\n"
)


class TestCorpusFormat:
    def test_parse_groups_by_sentence(self):
        corpus = parse_corpus(CORPUS_TEXT)
        assert [sid for sid, _ in corpus] == ["s1", "s2"]
        s1 = corpus[0][1]
        assert len(s1) == 2
        assert s1[0].slots == frozenset({(F.SUJ, NP), (F.OBJ, NP)})
        assert s1[1].redistribution_context is R.PASSIVE
        assert s1[1].slots == frozenset({(F.OBJ, NP), (F.OBJA, pp("à"))})
        assert corpus[1][1][0].slots == frozenset()

    def test_round_trip(self):
        corpus = parse_corpus(CORPUS_TEXT)
        assert parse_corpus(serialize_corpus(corpus)) == corpus

    def test_round_trip_random(self):
        rng = random.Random(67)
        for _ in range(20):
            corpus = []
            for k in range(rng.randint(1, 10)):
                frames = []
                for _ in range(rng.randint(1, 3)):
                    source = rand_entry(rng, f"lemme{rng.randint(0, 5)}", "tmp")
                    frames.append(rand_observed_frame(rng, source, rng.choice(list(R))))
                corpus.append((f"s{k:02d}", frames))
            assert parse_corpus(serialize_corpus(corpus)) == corpus

    @pytest.mark.parametrize(
        "line, fragment",
        [
            ("s1\tdonner\tACTIVE", "expected 4"),
            ("s1\tdonner\tWEIRD\tSuj:NP", "unknown redistribution"),
            ("s1\tdonner\tACTIVE\tZzz:NP", "unknown function"),
            ("s1\tdonner\tACTIVE\tSuj:XX", "unknown realization"),
            ("s1\tdonner\tACTIVE\tSuj", "malformed observed slot"),
            ("s1\tdonner\tACTIVE\tSuj:NP;Suj:CLITIC", "duplicate function"),
            ("s1\tdonner\tACTIVE\tSuj:NP;Suj:NP", "duplicate function in observed frame for 'donner'"),
            ("\tdonner\tACTIVE\tSuj:NP", "empty sentence id"),
        ],
    )
    def test_errors_carry_line_numbers(self, line, fragment):
        with pytest.raises(FormatError) as err:
            parse_corpus("# ok\n" + line + "\n")
        assert "line 2" in str(err.value)
        assert fragment in str(err.value)

    @pytest.mark.parametrize("char", LINE_BREAK_LOOKALIKES)
    def test_lemma_with_line_break_lookalike_round_trips(self, char):
        corpus = [("s1", [obs(lemma=f"a{char}b", slots={(F.SUJ, NP)})]), ("s2", [obs(lemma=char)])]
        assert parse_corpus(serialize_corpus(corpus)) == corpus

    def test_crlf_document_parses_like_lf(self):
        assert parse_corpus(CORPUS_TEXT.replace("\n", "\r\n")) == parse_corpus(CORPUS_TEXT)

    @pytest.mark.parametrize(
        "sentence_id, lemma", [("#s1", "donner"), ("s\r1", "donner"), ("s1", "don\rner"), ("", "donner")]
    )
    def test_unreadable_field_rejected(self, sentence_id, lemma):
        with pytest.raises(ValueError):
            serialize_corpus([(sentence_id, [obs(lemma=lemma)])])

    @pytest.mark.parametrize(
        "corpus, message",
        [
            ([("s1", [])], "sentence 's1' has no frames"),  # it would vanish
            ([("s1", [obs()]), ("s2", [obs()]), ("s1", [obs()])], "duplicate sentence id"),  # merged
        ],
    )
    def test_unreadable_sentence_rejected(self, corpus, message):
        with pytest.raises(ValueError, match=message):
            serialize_corpus(corpus)

    def test_unreadable_preposition_rejected(self):
        # written as Obj:PP(x;y), it would read back as the token 'PP(x'
        with pytest.raises(ValueError, match="preposition 'x;y' cannot be serialized"):
            serialize_corpus([("s1", [obs(slots={(F.OBJ, pp("x;y"))})])])

    def test_uppercase_lemma_rejected_at_its_line(self):
        with pytest.raises(FormatError, match="line 2: lemma must be lowercase: 'Donner'"):
            parse_corpus("# ok\ns1\tDonner\tACTIVE\tSuj:NP\n")

    @pytest.mark.parametrize(
        "bad, fragment",
        [
            ("s\tdonner\tACTIVE\tSuj:NP;Obj:XX", "unknown realization"),
            ("s\tdonner\tACTIVE\tSuj:NP;Zzz:NP", "unknown function"),
            ("s\tdonner\tACTIVE\tSuj:NP;Obj", "malformed observed slot"),
            ("s\tdonner\tWEIRD\tSuj:NP", "unknown redistribution"),
            ("s\tdonner\tACTIVE\tSuj:NP;Suj:CLITIC", "duplicate function"),
            # the frame of line 1 with its token repeated
            ("s\tdonner\tACTIVE\tSuj:NP;Suj:NP", "duplicate function in observed frame for 'donner'"),
            ("s\tDonner\tACTIVE\tSuj:NP", "lowercase"),
        ],
    )
    def test_bad_token_on_two_lines_fails_at_the_first(self, bad, fragment):
        # line 1 parses the good slot of the bad lines first
        text = f"s0\tdonner\tACTIVE\tSuj:NP\n{bad}\n{bad}\n"
        with pytest.raises(FormatError) as err:
            parse_corpus(text)
        assert err.value.line == 2
        assert fragment in err.value.message

    def test_repeated_line_parses_to_an_equal_frame(self):
        line = "kidnapper\tPASSIVE\tObj:NP;Obja:PP(à)"
        text = f"s1\t{line}\ns1\tdormir\tACTIVE\tSuj:NP\ns2\t{line}\ns3\t{line}\n"
        corpus = parse_corpus(text)
        (alone,) = parse_corpus(f"s1\t{line}\n")[0][1]
        assert [frames[0] for _, frames in corpus] == [alone, alone, alone]
        assert corpus[0][1][1] == obs("dormir", {(F.SUJ, NP)})
        assert parse_corpus(serialize_corpus(corpus)) == corpus

    def test_one_frame_per_frame_value_whatever_the_slot_order(self):
        text = (
            "s1\tdonner\tACTIVE\tSuj:NP;Obj:NP;Obja:PP(à)\n"
            "s2\tdonner\tACTIVE\tObja:PP(à);Obj:NP;Suj:NP\n"
            "s3\tdonner\tACTIVE\tObj:NP;Suj:NP;Obja:PP(à)\n"
            "s4\tdonner\tPASSIVE\tObj:NP;Suj:NP;Obja:PP(à)\n"
        )
        frames = [frames[0] for _, frames in parse_corpus(text)]
        assert frames[0] is frames[1] is frames[2]
        assert frames[3] is not frames[0]
        assert frames[3] == obs("donner", frames[0].slots, R.PASSIVE)

    @pytest.mark.parametrize(
        "slots, fragment",
        [("Zzz:NP;Suj:XX", "unknown function token: 'Zzz'"), ("Suj:XX;Zzz:NP", "unknown realization token: 'XX'")],
    )
    def test_first_bad_slot_token_of_a_line_is_reported(self, slots, fragment):
        # both lines hold the same set of slot tokens
        with pytest.raises(FormatError) as err:
            parse_corpus(f"s0\tdonner\tACTIVE\tSuj:NP\ns1\tdonner\tACTIVE\t{slots}\n")
        assert (err.value.line, err.value.message) == (2, fragment)

    def test_duplicate_function_across_lines_is_fine(self):
        # duplicates only matter inside one frame
        text = "s1\tdonner\tACTIVE\tSuj:NP\ns1\tdonner\tACTIVE\tSuj:CLITIC\n"
        corpus = parse_corpus(text)
        assert len(corpus[0][1]) == 2
