"""Acceptance suite: one test per criterion, tolerances pinned inline.

Each test prints a single PASS line (visible with -s) naming the bound it
enforced; pytest -v adds the usual pass/fail line per criterion.
"""

import itertools
import math
import random
import time
from collections import Counter
from fractions import Fraction

from valex.checker import parse_corpus, serialize_corpus
from valex.cli import main
from valex.lexicon import (
    NP,
    Category,
    FunctionSlot,
    LexicalEntry,
    Redistribution,
    SyntacticFunction,
    parse_lexicon,
    serialize_lexicon,
)
from valex.merge import merge_lemma
from valex.mining import compute_suspicion, parse_records, serialize_records
from valex.passage import (
    Constituent,
    ConstituentType,
    Relation,
    RelationType,
    RelaxationMode,
    SentenceAnnotation,
    Scores,
    format_percent,
    parse_passage,
    score_corpus,
    serialize_passage,
)

from gen import (
    rand_annotation,
    rand_entry,
    rand_lexicon,
    rand_mining_corpus,
    rand_observed_frame,
    rand_records,
)
from test_mining import THREE_SENTENCES, brute_force
from test_passage import constituent_tp, optimal_tp

F = SyntacticFunction
BASE = [F.SUJ, F.OBJ, F.OBJA, F.OBJDE]
OBLIQUE = [F.ATT, F.LOC, F.DLOC, F.OBL, F.OBL2]


def test_criterion_1_merge_count_bounds():
    rng = random.Random(211)
    started = time.perf_counter()

    # unrestricted pairs: one entry may absorb several counterparts, so
    # the merged count can drop to the smaller side (never below it)
    for k in range(1000):
        ref_n, other_n = rng.randint(0, 6), rng.randint(0, 6)
        if ref_n == other_n == 0:
            ref_n = 1
        ref = [rand_entry(rng, "verbe", f"r{k}.{i}") for i in range(ref_n)]
        other = [rand_entry(rng, "verbe", f"o{k}.{i}") for i in range(other_n)]
        result = merge_lemma(ref, other)
        low, high = min(ref_n, other_n), ref_n + other_n
        assert low <= result.merged_count <= high
        assert result.needs_validation == (result.merged_count > max(ref_n, other_n))

    # with pairwise-distinct base signatures per side no entry can absorb
    # two counterparts, and the larger side becomes the lower bound
    base_subsets = [
        [f for k, f in enumerate(BASE) if ix >> k & 1] for ix in range(16)
    ]
    for k in range(1000):
        sides = []
        for prefix in ("r", "o"):
            entries = []
            for i, ix in enumerate(rng.sample(range(16), rng.randint(1, 6))):
                functions = base_subsets[ix] + rng.sample(OBLIQUE, rng.randint(0, 2))
                entries.append(
                    rand_entry(rng, "verbe", f"{prefix}{k}.{i}", functions=functions)
                )
            sides.append(entries)
        ref, other = sides
        result = merge_lemma(ref, other)
        assert max(len(ref), len(other)) <= result.merged_count <= len(ref) + len(other)
        assert result.needs_validation == (
            result.merged_count > max(len(ref), len(other))
        )

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(
        f"CRITERION 1: PASS (2000 pairs, min<=merged<=sum always, "
        f"max<=merged under distinct base signatures, {elapsed:.1f}s < 10s)"
    )


def test_criterion_2_merge_oracle_exhaustive():
    started = time.perf_counter()
    functions = [F.SUJ, F.OBJ, F.LOC, F.DLOC]
    base_bits = sum(1 << k for k, f in enumerate(functions) if f in BASE)

    def build(prefix, ix):
        frame = tuple(
            FunctionSlot(f, frozenset([NP]), False)
            for k, f in enumerate(functions)
            if ix >> k & 1
        )
        return LexicalEntry(
            lemma="verbe",
            category=Category.V,
            entry_id=f"{prefix}{ix}",
            frame=frame,
            redistributions=frozenset([Redistribution.ACTIVE]),
            coded=True,
            provenance=((prefix, str(ix)),),
        )

    refs = [build("r", ix) for ix in range(16)]
    others = [build("o", ix) for ix in range(16)]
    # ref ix matches other jx iff base parts equal and ref obliques are
    # included in the other's
    match = [
        [(ix & base_bits) == (jx & base_bits) and ix & ~base_bits & ~jx == 0
         for jx in range(16)]
        for ix in range(16)
    ]

    def oracle_count(ref_ixs, other_ixs):
        consumed = [False] * len(other_ixs)
        for ix in ref_ixs:
            row = match[ix]
            for j, jx in enumerate(other_ixs):
                if not consumed[j] and row[jx]:
                    consumed[j] = True
        return len(ref_ixs) + consumed.count(False)

    combos = [
        combo
        for size in range(4)
        for combo in itertools.combinations_with_replacement(range(16), size)
    ]
    ref_sides = [(combo, tuple(refs[ix] for ix in combo)) for combo in combos]
    other_sides = [(combo, tuple(others[ix] for ix in combo)) for combo in combos]

    pairs = 0
    for ref_ixs, ref_side in ref_sides:
        for other_ixs, other_side in other_sides:
            if not ref_side and not other_side:
                continue
            result = merge_lemma(ref_side, other_side)
            assert result.merged_count == oracle_count(ref_ixs, other_ixs)
            pairs += 1

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(
        f"CRITERION 2: PASS ({pairs} lemma pairs, exact count equality, "
        f"{elapsed:.1f}s < 30s)"
    )


def _random_pair(rng):
    gold = rand_annotation(rng, "s", max_constituents=6)
    n = len(gold.tokens)
    constituents = tuple(
        Constituent(
            rng.choice(list(ConstituentType)),
            start := rng.randrange(n),
            rng.randint(start + 1, n),
        )
        for _ in range(rng.randint(0, 6))
    )
    relations = tuple(
        Relation(rng.choice(list(RelationType)), *rng.sample(range(n), 2))
        for _ in range(rng.randint(0, 6))
        if n >= 2
    )
    return gold, SentenceAnnotation("s", gold.tokens, constituents, relations)


def test_criterion_3_metric_algebra():
    rng = random.Random(223)

    def f_checks(scores):
        # F = 2PR/(P+R) collapses to 2tp/(gold+hyp); exact rationals
        if scores.gold_count + scores.hyp_count:
            assert scores.f_measure == Fraction(
                2 * scores.tp, scores.gold_count + scores.hyp_count
            )
        else:
            assert scores.f_measure == 1

    for _ in range(1000):
        gold, hyp = _random_pair(rng)
        tps = {
            mode: sum(constituent_tp(gold, hyp, mode).values())
            for mode in RelaxationMode
        }
        assert tps[RelaxationMode.EXACT] <= tps[RelaxationMode.LEFT]
        assert tps[RelaxationMode.LEFT] <= tps[RelaxationMode.OVERLAP]
        result = score_corpus([gold], [hyp], RelaxationMode.OVERLAP)
        f_checks(result.constituents)
        f_checks(result.relations)
        for table in (result.per_constituent, result.per_relation):
            for scores in table.values():
                f_checks(scores)

    # every constituent and relation type present, hypothesis identical
    tokens = tuple(f"w{i}" for i in range(16))
    constituents = tuple(
        Constituent(ctype, i, i + 2) for i, ctype in enumerate(ConstituentType)
    )
    relations = tuple(
        Relation(rtype, i, i + 1) for i, rtype in enumerate(RelationType)
    )
    full = SentenceAnnotation("all", tokens, constituents, relations)
    result = score_corpus([full], [full], RelaxationMode.EXACT)
    for table, types in ((result.per_constituent, ConstituentType),
                         (result.per_relation, RelationType)):
        for t in types:
            assert table[t].gold_count == 1
            assert table[t].f_measure == 1
    print("CRITERION 3: PASS (1000 pairs, tp monotone, F identity exact, 20 types F=1)")


def test_criterion_4_matching_optimality():
    rng = random.Random(227)
    tight = Counter()
    for _ in range(600):
        gold, hyp = _random_pair(rng)
        for mode in RelaxationMode:
            greedy = sum(constituent_tp(gold, hyp, mode).values())
            optimal = optimal_tp(gold, hyp, mode)
            if mode is RelaxationMode.EXACT:
                assert greedy == optimal
            else:
                assert optimal - 1 <= greedy <= optimal
                if greedy == optimal - 1:
                    tight[mode] += 1

    # the bound is attainable: a distance tie sends gold GN[0,2) to the
    # earlier hypothesis GN[0,3), starving gold GN[2,4)
    tokens = tuple(f"w{i}" for i in range(8))
    gold = SentenceAnnotation(
        "t", tokens, (Constituent(ConstituentType.GN, 0, 2),
                      Constituent(ConstituentType.GN, 2, 4)))
    hyp = SentenceAnnotation(
        "t", tokens, (Constituent(ConstituentType.GN, 0, 3),
                      Constituent(ConstituentType.GN, 1, 2)))
    greedy = sum(constituent_tp(gold, hyp, RelaxationMode.OVERLAP).values())
    assert greedy == 1
    assert optimal_tp(gold, hyp, RelaxationMode.OVERLAP) == 2
    print(
        f"CRITERION 4: PASS (600 instances, EXACT greedy==optimal, "
        f"LEFT/OVERLAP >= optimal-1; bound tight on "
        f"{dict((m.value, c) for m, c in tight.items()) or 'constructed instance only'})"
    )


def test_criterion_5_mining_fixed_point():
    started = time.perf_counter()

    result = compute_suspicion(THREE_SENTENCES)
    by_form = {s.form: s.score for s in result.scores}
    assert result.converged
    assert abs(by_form["a"] - 1.0) <= 1e-9
    assert by_form["b"] <= 1e-9

    rng = random.Random(229)
    for _ in range(200):
        corpus = rand_mining_corpus(rng)
        occurrences = Counter()
        failed_occurrences = Counter()
        for sentence in corpus.sentences:
            for form in sentence.forms:
                occurrences[form] += 1
                if sentence.failed:
                    failed_occurrences[form] += 1
        failed_count = sum(1 for s in corpus.sentences if s.failed)
        prev = {f: failed_occurrences[f] / occurrences[f] for f in occurrences}

        def validate(iteration, scores):
            nonlocal prev
            blame = dict.fromkeys(occurrences, 0.0)
            for sentence in corpus.sentences:
                if not sentence.failed:
                    continue
                denominator = math.fsum(prev[f] for f in sentence.forms)
                if denominator == 0.0:
                    locals_ = [1.0 / len(sentence.forms)] * len(sentence.forms)
                else:
                    locals_ = [prev[f] / denominator for f in sentence.forms]
                assert abs(math.fsum(locals_) - 1.0) <= 1e-12
                for form, local in zip(sentence.forms, locals_):
                    blame[form] += local
            for form, score in scores.items():
                assert 0.0 <= score <= 1.0
                assert abs(score - blame[form] / occurrences[form]) <= 1e-9
            mass = math.fsum(score * occurrences[f] for f, score in scores.items())
            assert abs(mass - failed_count) <= 1e-9
            prev = scores

        result = compute_suspicion(corpus, on_iteration=validate)
        expected, _, _ = brute_force(corpus)
        for s in result.scores:
            assert abs(s.score - expected[s.form]) <= 1e-8

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(
        f"CRITERION 5: PASS (3-sentence limit within 1e-9; 200 corpora: "
        f"mass 1e-12/iter, range [0,1], global mass 1e-9, brute force 1e-8; "
        f"{elapsed:.1f}s < 60s)"
    )


REF_LEXICON = """\
donner\tV\tdonner.1\tSuj:NP;Obj:NP\tACTIVE,PASSIVE\tcoded\tref:1
vouloir\tV\tvouloir.1\tSuj:NP;Obj?:NP\tACTIVE\tcoded\tref:2
casser\tV\tcasser.1\tSuj:NP;Obj:NP\tACTIVE,PASSIVE\tcoded\tref:3
parler\tV\tparler.1\tSuj:NP;Obl?:PP(de)\tACTIVE\tcoded\tref:4
dormir\tV\tdormir.1\tSuj:NP\tACTIVE\tcoded\tref:5
manger\tV\tmanger.1\tSuj:NP;Obj?:NP\tACTIVE\tcoded\tref:6
courir\tV\tcourir.1\tSuj:NP\tACTIVE\tcoded\tref:7
tomber\tV\ttomber.1\tSuj:NP\tACTIVE\tcoded\tref:8
"""

# four planted defects: donner deleted, vouloir uncoded, casser loses
# PASSIVE, parler's optional oblique made obligatory
HYP_LEXICON = """\
vouloir\tV\tvouloir.1\tSuj:NP;Obj:NP\tACTIVE\tuncoded\tref:2
casser\tV\tcasser.1\tSuj:NP;Obj:NP\tACTIVE\tcoded\tref:3
parler\tV\tparler.1\tSuj:NP;Obl:PP(de)\tACTIVE\tcoded\tref:4
dormir\tV\tdormir.1\tSuj:NP\tACTIVE\tcoded\tref:5
manger\tV\tmanger.1\tSuj:NP;Obj?:NP\tACTIVE\tcoded\tref:6
courir\tV\tcourir.1\tSuj:NP\tACTIVE\tcoded\tref:7
tomber\tV\ttomber.1\tSuj:NP\tACTIVE\tcoded\tref:8
"""


def _planted_corpus():
    lines = []

    def add(lemma, context, slots, repeat):
        for _ in range(repeat):
            lines.append(f"s{len(lines):02d}\t{lemma}\t{context}\t{slots}")

    add("donner", "ACTIVE", "Suj:NP;Obj:NP", 8)      # hyp: lemma gone
    add("vouloir", "ACTIVE", "Suj:NP", 5)            # hyp: uncoded entry
    add("vouloir", "ACTIVE", "Suj:NP;Obj:NP", 3)
    add("casser", "PASSIVE", "Obj:NP", 5)            # hyp: no PASSIVE
    add("casser", "ACTIVE", "Suj:NP;Obj:NP", 3)
    add("parler", "ACTIVE", "Suj:NP", 5)             # hyp: oblique now required
    add("parler", "ACTIVE", "Suj:NP;Obl:PP(de)", 3)
    add("dormir", "ACTIVE", "Suj:NP", 5)
    add("manger", "ACTIVE", "Suj:NP;Obj:NP", 3)
    add("manger", "ACTIVE", "Suj:NP", 2)
    add("courir", "ACTIVE", "Suj:NP", 4)
    add("tomber", "ACTIVE", "Suj:NP", 4)
    assert len(lines) == 50
    return "".join(line + "\n" for line in lines)


def test_criterion_6_end_to_end_defect_planting(tmp_path):
    ref_lex = tmp_path / "ref.lex"
    hyp_lex = tmp_path / "hyp.lex"
    corpus = tmp_path / "corpus.tsv"
    ref_lex.write_text(REF_LEXICON, encoding="utf-8")
    hyp_lex.write_text(HYP_LEXICON, encoding="utf-8")
    corpus.write_text(_planted_corpus(), encoding="utf-8")

    ref_out, hyp_out, mine_out = tmp_path / "ref", tmp_path / "hyp", tmp_path / "mine"
    assert main(["check", str(ref_lex), str(corpus), "--out", str(ref_out)]) == 0
    assert main(["check", str(hyp_lex), str(corpus), "--out", str(hyp_out)]) == 0

    ref_records = parse_records((ref_out / "records.tsv").read_text(encoding="utf-8"))
    assert len(ref_records) == 50
    assert all(r.analyzable for r in ref_records)

    histogram = dict(
        line.split("\t")
        for line in (hyp_out / "failures.tsv").read_text(encoding="utf-8").splitlines()
        if not line.startswith("#")
    )
    assert histogram["MISSING-LEMMA"] == "8"
    assert histogram["UNCODED-ENTRY"] == "5"
    assert histogram["MISSING-REDISTRIBUTION"] == "5"
    assert histogram["MISSING-OBLIGATORY-COMPLEMENT"] == "5"

    assert main([
        "mine",
        str(ref_out / "records.tsv"),
        str(hyp_out / "records.tsv"),
        "--top-k", "5",
        "--out", str(mine_out),
    ]) == 0
    rows = [
        line.split("\t")
        for line in (mine_out / "suspects.tsv").read_text(encoding="utf-8").splitlines()
        if not line.startswith("#")
    ]
    top5 = [row[1] for row in rows[:5]]
    assert {"donner", "vouloir", "casser", "parler"} <= set(top5)
    assert top5[0] == "donner"
    print(
        "CRITERION 6: PASS (all four planted lemmas in top-5 suspects, "
        "all four failure classes in the histogram)"
    )


def test_criterion_7_round_trips():
    rng = random.Random(233)
    for _ in range(100):
        lexicon = rand_lexicon(rng, rng.randint(1, 5))
        assert parse_lexicon(serialize_lexicon(lexicon)) == lexicon
    for _ in range(100):
        annotations = [rand_annotation(rng, f"s{i}") for i in range(rng.randint(1, 4))]
        assert parse_passage(serialize_passage(annotations)) == annotations
    for _ in range(100):
        corpus = []
        for k in range(rng.randint(1, 6)):
            frames = [
                rand_observed_frame(
                    rng,
                    rand_entry(rng, f"lemme{rng.randint(0, 4)}", "tmp"),
                    rng.choice(list(Redistribution)),
                )
                for _ in range(rng.randint(1, 3))
            ]
            corpus.append((f"s{k:02d}", frames))
        assert parse_corpus(serialize_corpus(corpus)) == corpus
    for _ in range(100):
        records = rand_records(rng)
        assert parse_records(serialize_records(records)) == records
    print("CRITERION 7: PASS (4 formats x 100 instances, parse(serialize(x)) == x)")


def test_criterion_8_display_formatting():
    assert format_percent(Fraction(3, 8)) == "37.50"
    assert Scores(1, 1, 2).precision == Fraction(1, 2)
    assert Scores(1, 1, 2).recall == 1
    assert format_percent(Scores(1, 1, 2).f_measure) == "66.67"
    print('CRITERION 8: PASS (3/8 -> "37.50"; P=0.5, R=1 -> F "66.67")')
