import random

import pytest

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
from valex.merge import (
    MergedLemmaResult,
    merge_lemma,
    merge_lexicons,
    serialize_merge_report,
)

from gen import rand_entry, rand_lexicon

F = SyntacticFunction


def entry(lemma="donner", entry_id="e1", functions=(), optional=(), realizations=None,
          redistributions=None, coded=True, category=Category.V, provenance=None,
          examples=()):
    frame = []
    for f in functions:
        reals = (realizations or {}).get(f, (NP,))
        frame.append(FunctionSlot(f, frozenset(reals), f in optional))
    return LexicalEntry(
        lemma=lemma,
        category=category,
        entry_id=entry_id,
        frame=tuple(frame),
        redistributions=frozenset(redistributions or {Redistribution.ACTIVE}),
        coded=coded,
        provenance=tuple(provenance) if provenance else (("src", entry_id),),
        examples=examples,
    )


# Independent implementation of the matching policy, used as oracle.
BASE_TOKENS = {"Suj", "Obj", "Obja", "Objde"}


def oracle_signatures(e):
    tokens = [s.function.value for s in e.frame]
    return (
        frozenset(t for t in tokens if t in BASE_TOKENS),
        frozenset(t for t in tokens if t not in BASE_TOKENS),
    )


def oracle_matches(ref, other):
    rb, ro = oracle_signatures(ref)
    ob, oo = oracle_signatures(other)
    return rb == ob and ro <= oo


def oracle_merged_count(ref_entries, other_entries):
    consumed = [False] * len(other_entries)
    for r in ref_entries:
        for j, o in enumerate(other_entries):
            if not consumed[j] and oracle_matches(r, o):
                consumed[j] = True
    return len(ref_entries) + consumed.count(False)


def fuses(ref, other):
    """Whether merge_lemma fuses the two entries into one."""
    return merge_lemma([ref], [other]).merged_count == 1


class TestEntryMatches:
    def test_equal_bases_and_included_obliques(self):
        ref = entry(entry_id="r", functions=(F.SUJ, F.OBJ))
        other = entry(entry_id="o", functions=(F.SUJ, F.OBJ, F.LOC))
        assert fuses(ref, other)

    def test_base_mismatch(self):
        ref = entry(entry_id="r", functions=(F.SUJ, F.OBJ))
        other = entry(entry_id="o", functions=(F.SUJ, F.OBJA))
        assert not fuses(ref, other)

    def test_oblique_not_included(self):
        ref = entry(entry_id="r", functions=(F.SUJ, F.OBJ, F.LOC))
        other = entry(entry_id="o", functions=(F.SUJ, F.OBJ, F.DLOC))
        assert not fuses(ref, other)

    def test_base_mismatch_with_obliques_not_included(self):
        ref = entry(entry_id="r", functions=(F.SUJ, F.LOC))
        other = entry(entry_id="o", functions=(F.SUJ, F.OBJ, F.DLOC))
        assert not fuses(ref, other)

    def test_directional_on_strict_inclusion(self):
        narrow = entry(entry_id="n", functions=(F.SUJ, F.LOC))
        wide = entry(entry_id="w", functions=(F.SUJ, F.LOC, F.DLOC))
        assert fuses(narrow, wide)
        assert not fuses(wide, narrow)

    def test_realizations_and_optionality_ignored(self):
        ref = entry(entry_id="r", functions=(F.SUJ, F.OBJ), optional=(F.OBJ,),
                    realizations={F.OBJ: (CLITIC,)})
        other = entry(entry_id="o", functions=(F.SUJ, F.OBJ), realizations={F.OBJ: (pp("à"),)})
        assert fuses(ref, other)

    # One function on one side only, alone and beside every other function:
    # each bit of both masks, and no two bits shared, in the one predicate.
    @pytest.mark.parametrize("f", list(F), ids=lambda f: f.value)
    def test_a_function_only_the_other_side_has(self, f):
        for common in ((), tuple(g for g in F if g is not f)):
            ref = entry(entry_id="r", functions=common)
            other = entry(entry_id="o", functions=(*common, f))
            # an extra base function breaks base equality; an extra oblique is included
            assert fuses(ref, other) == (f.value not in BASE_TOKENS)

    @pytest.mark.parametrize("f", list(F), ids=lambda f: f.value)
    def test_a_function_only_the_reference_has(self, f):
        for common in ((), tuple(g for g in F if g is not f)):
            ref = entry(entry_id="r", functions=(*common, f))
            other = entry(entry_id="o", functions=common)
            assert not fuses(ref, other)

    def test_agreement_with_oracle(self):
        rng = random.Random(3)
        for k in range(500):
            ref = rand_entry(rng, "tester", f"r{k}")
            other = rand_entry(rng, "tester", f"o{k}")
            assert fuses(ref, other) == oracle_matches(ref, other)


class TestMergeLemma:
    def test_other_empty_copies_ref(self):
        a, b = entry(entry_id="a"), entry(entry_id="b", functions=(F.SUJ,))
        result = merge_lemma([a, b], [])
        assert result.entries == (a, b)
        assert (result.ref_count, result.other_count, result.merged_count) == (2, 0, 2)
        assert not result.needs_validation

    def test_ref_empty_copies_other(self):
        o = entry(entry_id="o")
        result = merge_lemma([], [o])
        assert result.entries == (o,)
        assert (result.ref_count, result.other_count, result.merged_count) == (0, 1, 1)
        assert not result.needs_validation

    def test_both_empty_is_error(self):
        with pytest.raises(ValueError):
            merge_lemma([], [])

    def test_mixed_lemma_is_error(self):
        with pytest.raises(ValueError):
            merge_lemma([entry(lemma="voir")], [entry(lemma="dire", entry_id="e2")])

    def test_mixed_category_is_error(self):
        with pytest.raises(ValueError):
            merge_lemma([entry()], [entry(entry_id="e2", category=Category.N_PRED)])

    def test_fusion_content(self):
        ref = entry(
            entry_id="r",
            functions=(F.SUJ, F.OBJ),
            optional=(F.OBJ,),
            realizations={F.OBJ: (NP,)},
            redistributions={Redistribution.ACTIVE, Redistribution.PASSIVE},
            examples=("il donne",),
        )
        other = entry(
            entry_id="o",
            functions=(F.OBJ, F.SUJ, F.LOC),
            realizations={F.OBJ: (CLITIC,)},
            redistributions={Redistribution.ACTIVE, Redistribution.SE_MIDDLE},
            examples=("il le donne là",),
        )
        result = merge_lemma([ref], [other])
        assert result.merged_count == 1
        (fused,) = result.entries
        assert fused.entry_id == "r"
        # other side is the superset: its slot order wins
        assert [s.function for s in fused.frame] == [F.OBJ, F.SUJ, F.LOC]
        obj_slot = fused.frame[0]
        assert obj_slot.realizations == frozenset({NP, CLITIC})
        assert obj_slot.optional  # optional in ref, obligatory in other
        assert fused.redistributions == frozenset(
            {Redistribution.ACTIVE, Redistribution.PASSIVE, Redistribution.SE_MIDDLE}
        )
        assert fused.provenance == (("src", "r"), ("src", "o"))
        assert fused.examples == ("il donne", "il le donne là")
        assert not result.needs_validation

    def test_one_ref_absorbs_all_matching_others(self):
        ref = entry(entry_id="r", functions=(F.SUJ, F.OBJ))
        o1 = entry(entry_id="o1", functions=(F.SUJ, F.OBJ, F.LOC))
        o2 = entry(entry_id="o2", functions=(F.SUJ, F.OBJ, F.DLOC))
        result = merge_lemma([ref], [o1, o2])
        assert result.merged_count == 1
        (fused,) = result.entries
        assert {s.function for s in fused.frame} == {F.SUJ, F.OBJ, F.LOC, F.DLOC}
        assert fused.provenance == (("src", "r"), ("src", "o1"), ("src", "o2"))
        assert not result.needs_validation

    def test_earlier_ref_entry_consumes_first(self):
        r1 = entry(entry_id="r1", functions=(F.SUJ, F.OBJ))
        r2 = entry(entry_id="r2", functions=(F.SUJ, F.OBJ))
        o = entry(entry_id="o", functions=(F.SUJ, F.OBJ))
        result = merge_lemma([r1, r2], [o])
        assert result.merged_count == 2
        assert result.entries[0].provenance == (("src", "r1"), ("src", "o"))
        assert result.entries[1] == r2

    def test_no_match_copies_both_sides(self):
        ref = entry(entry_id="r", functions=(F.SUJ,))
        other = entry(entry_id="o", functions=(F.SUJ, F.OBJ))
        result = merge_lemma([ref], [other])
        assert result.entries == (ref, other)
        assert result.needs_validation  # 2 > max(1, 1)

    def test_uncoded_fused_with_coded_is_coded(self):
        ref = entry(entry_id="r", functions=(F.SUJ, F.OBJ), coded=False,
                    redistributions={Redistribution.ACTIVE})
        other = entry(entry_id="o", functions=(F.SUJ, F.OBJ, F.LOC), optional=(F.LOC,))
        (fused,) = merge_lemma([ref], [other]).entries
        assert fused.coded

    def test_counts_match_oracle_random(self):
        rng = random.Random(17)
        for _ in range(400):
            ref = [rand_entry(rng, "tester", f"r{j}") for j in range(rng.randint(0, 4))]
            other = [rand_entry(rng, "tester", f"o{j}") for j in range(rng.randint(0, 4))]
            if not ref and not other:
                continue
            result = merge_lemma(ref, other)
            assert result.merged_count == oracle_merged_count(ref, other)
            # every ref entry yields one output, leftovers add to it
            assert len(ref) <= result.merged_count <= len(ref) + len(other)
            assert result.merged_count >= min(len(ref), len(other))
            assert result.needs_validation == (
                result.merged_count > max(len(ref), len(other))
            )

    def test_result_invariant_enforced(self):
        with pytest.raises(ValueError):
            MergedLemmaResult("x", (), needs_validation=False, ref_count=1,
                              other_count=1, merged_count=3)
        with pytest.raises(ValueError, match="validation flag inconsistent for a"):
            MergedLemmaResult("a", (), True, 1, 1, 1)  # flagged, but no count exceeds the larger side


class TestMergeLexicons:
    def test_empty_other_returns_ref(self):
        rng = random.Random(5)
        ref = rand_lexicon(rng, 6, name="ref")
        merged, report = merge_lexicons(ref, Lexicon({}))
        assert merged == ref
        assert report.flagged_lemmas == 0
        assert report.total_entries == len(list(ref.all_entries()))

    def test_disjoint_lemmas_concatenate(self):
        a = Lexicon.from_entries([entry(lemma="aimer", entry_id="a1")])
        b = Lexicon.from_entries([entry(lemma="boire", entry_id="b1")])
        merged, report = merge_lexicons(a, b)
        assert sorted(merged.entries) == ["aimer", "boire"]
        assert report.total_lemmas == 2
        assert report.flagged_lemmas == 0

    def test_identical_lexicons_fuse_with_doubled_provenance(self):
        # entries with pairwise distinct base signatures: self-match only
        entries = [
            entry(lemma="poser", entry_id="p1", functions=(F.SUJ,)),
            entry(lemma="poser", entry_id="p2", functions=(F.SUJ, F.OBJ)),
            entry(lemma="poser", entry_id="p3", functions=(F.SUJ, F.OBJ, F.OBJA)),
        ]
        lex = Lexicon.from_entries(entries)
        merged, report = merge_lexicons(lex, lex)
        assert report.flagged_lemmas == 0
        assert report.total_entries == 3
        for original, fused in zip(entries, merged.entries["poser"]):
            assert fused.entry_id == original.entry_id
            assert fused.provenance == original.provenance * 2
            assert fused.frame == original.frame

    def test_every_source_id_in_exactly_one_provenance(self):
        rng = random.Random(29)
        for _ in range(15):
            ref = rand_lexicon(rng, rng.randint(1, 8), name="ref")
            other = rand_lexicon(rng, rng.randint(1, 8), name="oth")
            merged, _ = merge_lexicons(ref, other)
            source_ids = [p for e in ref.all_entries() for p in e.provenance]
            source_ids += [p for e in other.all_entries() for p in e.provenance]
            merged_ids = [p for e in merged.all_entries() for p in e.provenance]
            assert sorted(merged_ids) == sorted(source_ids)

    def test_count_bounds_per_lemma(self):
        rng = random.Random(31)
        ref = rand_lexicon(rng, 25, name="ref")
        other = rand_lexicon(rng, 25, name="oth")
        merged, report = merge_lexicons(ref, other)
        for result in report.results:
            low = min(result.ref_count, result.other_count)
            assert low <= result.merged_count <= result.ref_count + result.other_count
            assert result.merged_count == len(merged.entries[result.lemma])

    def test_id_collision_gets_suffix(self):
        a = Lexicon.from_entries([entry(lemma="voir", entry_id="x", functions=(F.SUJ,))])
        b = Lexicon.from_entries([entry(lemma="voir", entry_id="x", functions=(F.SUJ, F.OBJ))])
        merged, report = merge_lexicons(a, b)
        assert [e.entry_id for e in merged.entries["voir"]] == ["x", "x~2"]
        assert report.results[0].merged_count == 2

    def test_reference_id_is_kept_against_an_earlier_lemma(self):
        # the other side's "a" comes first in lemma order, yet only its id is renamed
        ref = Lexicon.from_entries([entry(lemma="b", entry_id="x", functions=(F.SUJ,))])
        other = Lexicon.from_entries([entry(lemma="a", entry_id="x", functions=(F.SUJ,))])
        merged, _ = merge_lexicons(ref, other)
        assert [e.entry_id for e in merged.entries["a"]] == ["x~2"]
        assert [e.entry_id for e in merged.entries["b"]] == ["x"]

    def test_renamed_id_is_clear_of_every_input_id(self):
        # "x~2" is an other-side input id: the renamed "x" skips it, and that
        # entry, which collides with no reference id, keeps it
        ref = Lexicon.from_entries([entry(lemma="a", entry_id="x", functions=(F.SUJ,))])
        other = Lexicon.from_entries([
            entry(lemma="a", entry_id="x", functions=(F.SUJ, F.OBJ)),
            entry(lemma="b", entry_id="x~2", functions=(F.SUJ,)),
        ])
        merged, _ = merge_lexicons(ref, other)
        assert [(e.lemma, e.entry_id) for e in merged.all_entries()] == [
            ("a", "x"), ("a", "x~3"), ("b", "x~2")
        ]

    def test_mixed_categories_for_lemma_is_error(self):
        a = Lexicon.from_entries([entry(lemma="garde", entry_id="g1", category=Category.V)])
        b = Lexicon.from_entries([entry(lemma="garde", entry_id="g2", category=Category.N_PRED)])
        with pytest.raises(ValueError):
            merge_lexicons(a, b)


class TestReport:
    def make_report(self):
        a = Lexicon.from_entries(
            [entry(lemma="murer", entry_id="m1", functions=(F.SUJ,)),
             entry(lemma="noter", entry_id="n1", functions=(F.SUJ,))]
        )
        b = Lexicon.from_entries(
            [entry(lemma="murer", entry_id="m2", functions=(F.SUJ, F.OBJ)),
             entry(lemma="noter", entry_id="n2", functions=(F.SUJ,))]
        )
        return merge_lexicons(a, b)[1]

    def test_serialized_rows_and_totals(self):
        report = self.make_report()
        text = serialize_merge_report(report)
        lines = text.splitlines()
        assert lines[0] == "murer\t1\t1\t2\tyes"
        assert lines[1] == "noter\t1\t1\t1\tno"
        assert lines[2] == "#TOTALS lemmas=2 entries=3 flagged_lemmas=1 flagged_entries=2"

    def test_totals_recompute(self):
        rng = random.Random(41)
        ref = rand_lexicon(rng, 12, name="ref")
        other = rand_lexicon(rng, 12, name="oth")
        _, report = merge_lexicons(ref, other)
        assert report.total_lemmas == len(report.results)
        assert report.total_entries == sum(r.merged_count for r in report.results)
        assert report.flagged_lemmas == sum(1 for r in report.results if r.needs_validation)
        assert report.flagged_entries == sum(
            r.merged_count for r in report.results if r.needs_validation
        )
