import math
import random
from collections import Counter
from functools import reduce
from operator import add
from types import SimpleNamespace

import pytest

import valex.mining
from valex.checker import SentenceRecord
from valex.errors import FormatError
from valex.mining import (
    _ROUND,
    MiningCorpus,
    MiningParams,
    MiningSentence,
    SuspicionScore,
    _check_blame_mass,
    _check_unit_interval,
    build_mining_corpus,
    compute_suspicion,
    format_suspects,
    parse_records,
    rank_suspects,
    serialize_records,
)

from gen import LINE_BREAK_LOOKALIKES, rand_mining_corpus, rand_records


def corpus(*sentences):
    return MiningCorpus(tuple(MiningSentence(i, forms, failed) for i, forms, failed in sentences))


# s1 and s2 fail, s3 succeeds; `a` should absorb all suspicion
THREE_SENTENCES = corpus(
    ("s1", ("a", "b"), True),
    ("s2", ("a",), True),
    ("s3", ("b",), False),
)


def brute_force(corpus, epsilon=1e-9, max_iterations=200):
    """Dict-based restatement of the fixed point, coded independently."""
    occ = Counter()
    failed_occ = Counter()
    for s in corpus.sentences:
        for f in s.forms:
            occ[f] += 1
            if s.failed:
                failed_occ[f] += 1
    scores = {f: failed_occ[f] / occ[f] for f in occ}
    iterations = 0
    converged = False
    for _ in range(max_iterations):
        blame = dict.fromkeys(occ, 0.0)
        for s in corpus.sentences:
            if not s.failed:
                continue
            denominator = sum(scores[f] for f in s.forms)
            for f in s.forms:
                blame[f] += scores[f] / denominator if denominator else 1 / len(s.forms)
        new = {f: blame[f] / occ[f] for f in occ}
        delta = max(abs(new[f] - scores[f]) for f in occ)
        scores = new
        iterations += 1
        if delta < epsilon:
            converged = True
            break
    return scores, iterations, converged


def seed_fixed_point(corpus, params=MiningParams(), on_iteration=None):
    """The fixed point as first written, looping over every sentence and
    every form; kept verbatim as an oracle for the compiled kernel.  Only
    the return differs: a plain tuple that also holds the last delta."""
    if not corpus.sentences:
        raise ValueError("cannot mine an empty corpus")
    form_index: dict[str, int] = {}
    for sentence in corpus.sentences:
        for form in sentence.forms:
            form_index.setdefault(form, len(form_index))
    names = list(form_index)
    n = len(names)
    occurrences = [0] * n
    failed_occurrences = [0] * n
    sentences = [
        ([form_index[f] for f in s.forms], s.failed) for s in corpus.sentences
    ]
    for forms, failed in sentences:
        for fi in forms:
            occurrences[fi] += 1
            if failed:
                failed_occurrences[fi] += 1

    scores = [failed_occurrences[fi] / occurrences[fi] for fi in range(n)]
    iterations_used = 0
    converged = False
    for iteration in range(1, params.max_iterations + 1):
        blame = [0.0] * n
        for forms, failed in sentences:
            if not failed:
                continue
            denominator = math.fsum(scores[fi] for fi in forms)
            if denominator == 0.0:
                share = 1.0 / len(forms)
                locals_ = [share] * len(forms)
            else:
                locals_ = [scores[fi] / denominator for fi in forms]
            assert abs(math.fsum(locals_) - 1.0) <= 1e-12, "per-sentence blame must sum to 1"
            for fi, local in zip(forms, locals_):
                blame[fi] += local
        new_scores = [blame[fi] / occurrences[fi] for fi in range(n)]
        assert all(0.0 <= s <= 1.0 for s in new_scores), "scores must stay in [0, 1]"
        delta = max(
            (abs(a - b) for a, b in zip(new_scores, scores)), default=0.0
        )
        scores = new_scores
        iterations_used = iteration
        if on_iteration is not None:
            on_iteration(iteration, dict(zip(names, scores)))
        if delta < params.epsilon:
            converged = True
            break

    failed_sentence_count = [0] * n
    sample: list[str | None] = [None] * n
    for sentence in corpus.sentences:
        if not sentence.failed:
            continue
        for fi in sorted({form_index[f] for f in sentence.forms}):
            failed_sentence_count[fi] += 1
            if sample[fi] is None:
                sample[fi] = sentence.sentence_id
    results = [
        SuspicionScore(
            form=names[fi],
            score=scores[fi],
            occurrences=occurrences[fi],
            failed_sentences=failed_sentence_count[fi],
            sample_sentence_id=sample[fi],
        )
        for fi in range(n)
    ]
    return results, iterations_used, converged, delta


class TestModel:
    @pytest.mark.parametrize("model", [MiningSentence, SentenceRecord])
    def test_sentence_validation(self, model):
        with pytest.raises(ValueError, match="^empty sentence id$"):
            model("", ("a",), False)
        with pytest.raises(ValueError, match="^sentence 's1' has no forms$"):
            model("s1", (), False)
        # forms are written comma-joined, so the model refuses what would not read back
        with pytest.raises(ValueError, match="^empty form in sentence 's1'$"):
            model("s1", ("a", ""), False)
        for forms, bad in [(("a,b",), "'a,b'"), (("a", "b", ","), "','")]:
            with pytest.raises(ValueError, match=f"^form {bad} cannot be serialized$"):
                model("s1", forms, False)

    def test_record_lives_in_mining(self):
        assert SentenceRecord is valex.mining.SentenceRecord
        record = SentenceRecord("s1", ["a"], True)
        assert repr(record) == "SentenceRecord(sentence_id='s1', forms=('a',), analyzable=True)"
        assert record != MiningSentence("s1", ("a",), True)

    def test_corpus_sorts_and_rejects_duplicates(self):
        out_of_order = corpus(("s2", ("a",), False), ("s1", ("b",), True))
        assert [s.sentence_id for s in out_of_order.sentences] == ["s1", "s2"]
        with pytest.raises(ValueError):
            corpus(("s1", ("a",), False), ("s1", ("b",), True))

    def test_params_validation(self):
        with pytest.raises(ValueError):
            MiningParams(epsilon=0)
        with pytest.raises(ValueError):
            MiningParams(max_iterations=0)


class TestBuild:
    def record(self, sid, forms, analyzable):
        return SentenceRecord(sid, tuple(forms), analyzable)

    def test_classification(self):
        ref = [
            self.record("s1", ["a"], False),   # ref-fail: excluded
            self.record("s2", ["b"], True),    # both ok
            self.record("s3", ["c"], True),    # hyp loses it
        ]
        hyp = [
            self.record("s1", ["a"], True),
            self.record("s2", ["b"], True),
            self.record("s3", ["c"], False),
        ]
        built = build_mining_corpus(ref, hyp)
        assert built == corpus(("s2", ("b",), False), ("s3", ("c",), True))

    def test_order_of_inputs_does_not_matter(self):
        ref = [self.record("s2", ["b"], True), self.record("s1", ["a"], True)]
        hyp = [self.record("s1", ["a"], False), self.record("s2", ["b"], True)]
        built = build_mining_corpus(ref, hyp)
        assert [s.sentence_id for s in built.sentences] == ["s1", "s2"]
        assert built.sentences[0].failed

    def test_mismatches_are_errors(self):
        ok = self.record("s1", ["a"], True)
        with pytest.raises(ValueError, match="missing from hypothesis"):
            build_mining_corpus([ok], [])
        with pytest.raises(ValueError, match="missing from reference"):
            build_mining_corpus([ok], [ok, self.record("s2", ["a"], True)])
        with pytest.raises(ValueError, match="form mismatch"):
            build_mining_corpus([ok], [self.record("s1", ["b"], True)])
        with pytest.raises(ValueError, match="duplicate"):
            build_mining_corpus([ok, ok], [ok])
        with pytest.raises(ValueError, match="duplicate"):
            build_mining_corpus([ok], [ok, ok])


class TestFixedPoint:
    def test_lone_failed_form(self):
        result = compute_suspicion(corpus(("s1", ("f",), True)))
        assert result.converged
        assert result.iterations_used == 1
        (score,) = result.scores
        assert score == SuspicionScore("f", 1.0, 1, 1, "s1")

    def test_form_outside_failed_sentences_scores_zero(self):
        result = compute_suspicion(
            corpus(("s1", ("f",), True), ("s2", ("g",), False), ("s3", ("g",), False))
        )
        by_form = {s.form: s for s in result.scores}
        assert by_form["g"].score == 0.0
        assert by_form["g"].failed_sentences == 0
        assert by_form["g"].sample_sentence_id is None
        assert by_form["f"].score == 1.0

    def test_three_sentence_corpus_trace_and_limit(self):
        trace = {}
        result = compute_suspicion(
            THREE_SENTENCES, on_iteration=lambda i, scores: trace.update({i: scores})
        )
        assert trace[1]["a"] == pytest.approx(5 / 6, abs=1e-12)
        assert trace[1]["b"] == pytest.approx(1 / 6, abs=1e-12)
        assert trace[2]["a"] == pytest.approx(11 / 12, abs=1e-12)
        assert trace[2]["b"] == pytest.approx(1 / 12, abs=1e-12)
        assert result.converged
        by_form = {s.form: s for s in result.scores}
        assert abs(by_form["a"].score - 1.0) <= 1e-9
        assert by_form["b"].score <= 1e-9
        assert by_form["a"].occurrences == 2
        assert by_form["a"].failed_sentences == 2
        assert by_form["a"].sample_sentence_id == "s1"
        assert by_form["b"].occurrences == 2
        assert by_form["b"].failed_sentences == 1

    def test_no_failed_sentences(self):
        result = compute_suspicion(corpus(("s1", ("a", "b"), False)))
        assert result.converged and result.iterations_used == 1
        assert all(s.score == 0.0 for s in result.scores)

    def test_iteration_budget_respected(self):
        result = compute_suspicion(THREE_SENTENCES, MiningParams(max_iterations=1))
        assert result.iterations_used == 1
        assert not result.converged

    def test_callback_sees_consecutive_iterations(self):
        seen = []
        compute_suspicion(THREE_SENTENCES, on_iteration=lambda i, _: seen.append(i))
        assert seen == list(range(1, len(seen) + 1))

    def test_empty_corpus_is_error(self):
        with pytest.raises(ValueError):
            compute_suspicion(MiningCorpus(()))

    def test_global_mass_equals_failed_count(self):
        rng = random.Random(107)
        for _ in range(50):
            sample = rand_mining_corpus(rng)
            result = compute_suspicion(sample)
            failed = sum(1 for s in sample.sentences if s.failed)
            mass = sum(s.score * s.occurrences for s in result.scores)
            assert abs(mass - failed) <= 1e-9
            for s in result.scores:
                assert 0.0 <= s.score <= 1.0
                assert s.failed_sentences <= s.occurrences

    def test_input_order_invariance(self):
        rng = random.Random(109)
        for _ in range(20):
            sample = rand_mining_corpus(rng)
            shuffled = list(sample.sentences)
            rng.shuffle(shuffled)
            again = compute_suspicion(MiningCorpus(tuple(shuffled)))
            base = compute_suspicion(sample)
            assert base == again

    def test_agrees_with_brute_force(self):
        rng = random.Random(113)
        for _ in range(50):
            sample = rand_mining_corpus(rng)
            result = compute_suspicion(sample)
            expected, _, _ = brute_force(sample)
            for s in result.scores:
                assert abs(s.score - expected[s.form]) <= 1e-8


class TestKernelAgainstSeedLoop:
    """compute_suspicion must reproduce the original loop bit for bit."""

    def assert_same_run(self, sample, params):
        ours, theirs = [], []
        result = compute_suspicion(sample, params, lambda i, v: ours.append((i, list(v.items()))))
        scores, iterations, converged, delta = seed_fixed_point(
            sample, params, lambda i, v: theirs.append((i, list(v.items())))
        )
        assert result.scores == scores
        assert (result.iterations_used, result.converged) == (iterations, converged)
        assert result.final_delta == delta
        assert ours == theirs  # every iteration's vector, in form order, with == on floats
        return ours

    @pytest.mark.parametrize("seed", [3, 5, 8, 13, 21])
    def test_random_corpora(self, seed):
        rng = random.Random(seed)
        for _ in range(15):
            sample = rand_mining_corpus(rng, max_sentences=rng.choice([5, 60, 300]),
                                        vocabulary=rng.choice([3, 20, 80]))
            params = MiningParams(epsilon=rng.choice([1e-9, 1e-4, 0.05]),
                                  max_iterations=rng.choice([1, 7, 200]))
            self.assert_same_run(sample, params)

    def test_without_on_iteration(self):
        sample = rand_mining_corpus(random.Random(17), max_sentences=200, vocabulary=40)
        assert compute_suspicion(sample)[:3] == seed_fixed_point(sample)[:3]

    @pytest.mark.parametrize("failed", [False, True])
    def test_no_failed_or_only_failed_sentences(self, failed):
        sample = corpus(("s1", ("a", "b", "a"), failed), ("s2", ("b",), failed), ("s3", ("c",), failed))
        self.assert_same_run(sample, MiningParams())

    def test_score_underflowing_to_zero(self):
        # b's score halves each step, through the subnormals, to exactly 0.0
        # (at iteration 1074); s1's denominator still holds a's score
        sample = corpus(("s1", ("a", "b"), True), ("s2", ("b",), False))
        vectors = self.assert_same_run(sample, MiningParams(epsilon=5e-324, max_iterations=1200))
        b_scores = [dict(vector)["b"] for _, vector in vectors]
        assert 0.0 < min(b for b in b_scores if b) < 2.2250738585072014e-308  # a subnormal
        assert b_scores.index(0.0) == 1073
        assert len(vectors) == 1075

    @pytest.mark.parametrize("params", [MiningParams(), MiningParams(max_iterations=7)])
    def test_failed_sentences_of_mixed_lengths(self, params):
        # every length from 1 to 8, interleaved in id order, 8 only once, and
        # forms repeated inside a sentence: the by-length groups and the
        # return of their shares to summation order
        rng = random.Random(29)
        sentences = [("s00", ("a", "b", "a"), True)]
        for n, length in enumerate([3, 1, 8, 2, 5, 3, 7, 4, 1, 6, 2, 4, 7, 5, 6, 3], start=1):
            forms = tuple(rng.choice("abcdef") for _ in range(length))
            sentences.append((f"s{n:02}", forms, True))
            if n % 3 == 0:
                sentences.append((f"s{n:02}ok", forms[:2] + ("g",), False))
        sample = corpus(*sentences)
        assert {len(s.forms) for s in sample.sentences if s.failed} == set(range(1, 9))
        self.assert_same_run(sample, params)


    def test_bench_shaped_corpus(self):
        # the shape of the bench's failed sentences: one form in more of them
        # than the blame rounds cover, so that it sums the rest of its shares
        # in one reduce, hundreds of forms failed once, forms failed often
        # enough for several rounds, and failed sentences of 1-4 forms
        rng = random.Random(37)
        medium = [f"m{k}" for k in range(60)]
        once = iter(f"u{k}" for k in range(300))
        sentences = []
        for n in range(400):
            forms = ["h"] * (n % 8 < 3) + ["h"] * (n % 40 == 0)  # h twice in a sentence, now and then
            while len(forms) < 1 + n % 4:
                forms.append(next(once, None) or rng.choice(medium))
            rng.shuffle(forms)
            sentences.append((f"s{n:03}", tuple(forms), True))
        for n in range(300):
            sentences.append((f"t{n:03}", ("h", rng.choice(medium), f"ok{n % 50}"), False))
        sample = corpus(*sentences)
        failed = Counter(form for s in sample.sentences if s.failed for form in s.forms)
        assert failed["h"] == 160 and sum(count == 1 for count in failed.values()) == 300
        assert {len(s.forms) for s in sample.sentences if s.failed} == {1, 2, 3, 4}
        # rounds run while _ROUND forms have another share: to depth 5 or more
        deepest = sorted(failed.values(), reverse=True)[_ROUND - 1]
        assert 5 <= deepest < failed["h"]
        self.assert_same_run(sample, MiningParams(max_iterations=30))


def fsum_rule(shares):
    """The per-sentence rule as first written: one fsum per sentence."""
    return all(abs(math.fsum(row) - 1.0) <= 1e-12 for row in zip(*shares))


def blame_mass_passes(shares):
    try:
        _check_blame_mass(shares)
    except AssertionError as error:
        assert str(error) == "per-sentence blame must sum to 1"
        return False
    return True


def columns(*rows):
    return [list(column) for column in zip(*rows)]


def plain(row):
    return reduce(add, row)  # left to right, as the check's row sums


def crossing_rows():
    """Rows on which the plain sum and fsum fall on opposite sides of 1e-12,
    below 1 and above it, as (row, fsum's verdict)."""
    below = 1.0 - 1e-12  # the largest float below 1 that the rule rejects
    while 1.0 - below <= 1e-12:
        below = math.nextafter(below, 0.0)
    while 1.0 - math.nextafter(below, 1.0) > 1e-12:
        below = math.nextafter(below, 1.0)
    above = 1.0 + 1e-12  # the smallest float above 1 that the rule rejects
    while above - 1.0 <= 1e-12:
        above = math.nextafter(above, 2.0)
    while math.nextafter(above, 0.0) - 1.0 > 1e-12:
        above = math.nextafter(above, 0.0)
    low, high = math.ulp(below), math.ulp(above)
    return [
        ([below, low / 4, low / 4, low / 4, low / 4], True),  # each quarter ulp rounds away
        ([below - low, low / 2 + low / 2**20, low / 2 + low / 2**20], False),  # each rounds up
        ([0.5, above - high - 0.5, high / 2 - high / 2**20, high / 2 - high / 2**20], False),
        ([0.5, above - 2 * high - 0.5, high / 2 + high / 2**20, high / 2 + high / 2**20], True),
    ]


class TestKernelChecks:
    """compute_suspicion's two asserts, each called on its own."""

    @pytest.mark.parametrize("row, verdict", crossing_rows())
    def test_rows_where_the_plain_sum_and_fsum_disagree(self, row, verdict):
        assert (abs(math.fsum(row) - 1.0) <= 1e-12) is verdict
        assert (abs(plain(row) - 1.0) <= 1e-12) is not verdict
        assert blame_mass_passes(columns(row)) is verdict
        # among rows that pass on any sum, in either place
        ones = [1.0 / len(row)] * len(row)
        assert blame_mass_passes(columns(ones, row, ones)) is verdict
        assert blame_mass_passes(columns(row, ones)) is verdict

    @pytest.mark.parametrize("width", range(1, 9))
    def test_groups_agree_with_the_fsum_rule(self, width):
        rng = random.Random(width)
        verdicts = Counter()
        for _ in range(300):
            rows = []
            for _ in range(rng.randint(1, 6)):
                weights = [rng.random() + 1e-3 for _ in range(width)]
                total = math.fsum(weights)
                row = [w / total for w in weights]  # as the kernel's shares
                if rng.random() < 0.5:  # off by a few 1e-13, around the bound
                    row[rng.randrange(width)] += rng.randint(-15, 15) * 1e-13
                rows.append(row)
            group = columns(*rows)
            verdicts[fsum_rule(group)] += 1
            assert blame_mass_passes(group) is fsum_rule(group)
        assert verdicts[True] > 30 and verdicts[False] > 30

    def test_long_rows_take_the_exact_path(self, monkeypatch):
        # from 1,126 shares on, the tightened bound is <= 0 and no row passes
        # on its plain sum, so the rule's fsum runs on every row
        assert 1e-12 - 1126 * 2.0**-50 <= 0.0 < 1e-12 - 1125 * 2.0**-50
        calls = []

        def fsum(values):
            calls.append(len(values) if isinstance(values, list) else None)
            return math.fsum(values)

        monkeypatch.setattr(valex.mining, "math", SimpleNamespace(fsum=fsum, isnan=math.isnan))
        short = [0.25] * 4
        assert blame_mass_passes(columns(short, short))
        assert calls == []
        long = [2.0**-11] * 2048
        assert plain(long) == 1.0
        assert blame_mass_passes(columns(long, long))
        assert calls == [None, None]  # one fsum per row, over its tuple of shares
        long[7] += 2e-12
        assert not blame_mass_passes(columns(long))

    @pytest.mark.parametrize("where", [0, 1, 2], ids=["first", "middle", "last"])
    def test_a_nan_fails_both_checks_anywhere(self, where):
        scores = [0.25, 0.5, 0.75]
        scores[where] = math.nan
        # min and max alone skip a NaN that is not first
        assert (0.0 <= min(scores) and max(scores) <= 1.0) is (where != 0)
        with pytest.raises(AssertionError, match=r"^scores must stay in \[0, 1\]$"):
            _check_unit_interval(scores)
        rows = [[0.5, 0.5], [0.25, 0.75], [1.0, 0.0]]
        rows[where][1] = math.nan
        with pytest.raises(AssertionError, match="^per-sentence blame must sum to 1$"):
            _check_blame_mass(columns(*rows))

    @pytest.mark.parametrize("scores, verdict", [
        ([], True),
        ([0.0, 1.0, 0.5], True),
        ([-0.0], True),
        ([0.5, 1.0000000000000002], False),
        ([0.5, -5e-324], False),
        ([0.5, math.inf], False),
    ])
    def test_unit_interval(self, scores, verdict):
        try:
            _check_unit_interval(scores)
        except AssertionError:
            assert not verdict
        else:
            assert verdict


class TestRank:
    def score(self, form, value, failed=0, sample=None):
        return SuspicionScore(form, value, max(failed, 1), failed, sample)

    def test_top_one(self):
        scores = [self.score("a", 1.0, 2, "s1"), self.score("b", 0.0)]
        assert [s.form for s in rank_suspects(scores, 1)] == ["a"]

    def test_k_larger_than_form_count(self):
        scores = [self.score("a", 0.5, 1, "s1")]
        assert rank_suspects(scores, 10) == scores

    def test_tie_breaks(self):
        scores = [
            self.score("b", 0.5, 1, "s1"),
            self.score("a", 0.5, 2, "s1"),
            self.score("c", 0.5, 2, "s1"),
        ]
        assert [s.form for s in rank_suspects(scores, 3)] == ["a", "c", "b"]

    def test_sort_oracle(self):
        rng = random.Random(127)
        for _ in range(50):
            scores = [
                self.score(f"f{k}", rng.choice([0.0, 0.25, 0.5, 1.0]), rng.randint(0, 3),
                           "s1")
                for k in range(rng.randint(1, 12))
            ]
            k = rng.randint(1, 15)
            expected = sorted(
                scores, key=lambda s: (-s.score, -s.failed_sentences, s.form)
            )[:k]
            assert rank_suspects(scores, k) == expected

    def test_bad_k(self):
        with pytest.raises(ValueError):
            rank_suspects([], 0)


class TestFormat:
    def test_rows(self):
        ranked = [
            SuspicionScore("réaffirmer", 1.0, 28, 28, "s07"),
            SuspicionScore("neutre", 0.0, 3, 0, None),
        ]
        assert "".join(format_suspects(ranked)) == (
            "1\tréaffirmer\t1.000000\t28\ts07\n"
            "2\tneutre\t0.000000\t0\t-\n"
        )


RECORDS_FILE = (
    "# records\n"
    "\n"
    "s1\tfailed\ta,b\n"
    "s2\tok\tb\n"
)


class TestFiles:
    def test_parse_records(self):
        assert parse_records(RECORDS_FILE) == [
            SentenceRecord("s1", ("a", "b"), False),
            SentenceRecord("s2", ("b",), True),
        ]

    def test_records_round_trip(self):
        rng = random.Random(137)
        for _ in range(25):
            records = rand_records(rng)
            assert parse_records(serialize_records(records)) == records

    def test_mining_round_trip(self):
        # mine's read path: two records files, written and read back, build
        # the corpus of the reference-analyzable sentences the hypothesis loses
        rng = random.Random(131)
        for _ in range(25):
            ref = rand_records(rng)
            hyp = [SentenceRecord(r.sentence_id, r.forms, rng.random() < 0.5) for r in ref]
            rng.shuffle(hyp)
            lost = {h.sentence_id for h in hyp if not h.analyzable}
            expected = corpus(*((r.sentence_id, r.forms, r.sentence_id in lost) for r in ref if r.analyzable))
            read = [parse_records(serialize_records(records)) for records in (ref, hyp)]
            assert build_mining_corpus(*read) == expected

    def test_records_tag_inversion(self):
        records = parse_records("s1\tok\ta\ns2\tfailed\tb\n")
        assert records == [
            SentenceRecord("s1", ("a",), True),
            SentenceRecord("s2", ("b",), False),
        ]
        assert "".join(serialize_records(records)) == "s1\tok\ta\ns2\tfailed\tb\n"

    @pytest.mark.parametrize(
        "line, fragment",
        [
            ("s1\tfailed", "expected 3"),
            ("s1\tmaybe\ta", "tag must be"),
            ("s1\tfailed\t", "empty form"),
            ("s1\tfailed\ta,,b", "empty form"),
            ("\tfailed\ta", "empty sentence id"),
        ],
    )
    def test_parse_errors(self, line, fragment):
        with pytest.raises(FormatError) as err:
            parse_records("# head\n" + line + "\n")
        assert "line 2" in str(err.value)
        assert fragment in str(err.value)

    def test_duplicate_id_rejected(self):
        with pytest.raises(FormatError, match="duplicate"):
            parse_records("s1\tok\ta\ns1\tok\ta\n")

    @pytest.mark.parametrize("char", LINE_BREAK_LOOKALIKES)
    def test_id_with_line_break_lookalike_round_trips(self, char):
        records = [SentenceRecord(f"s{char}1", ("a",), True), SentenceRecord(char, ("b",), False)]
        assert parse_records(serialize_records(records)) == records

    def test_crlf_document_parses_like_lf(self):
        assert parse_records(RECORDS_FILE.replace("\n", "\r\n")) == parse_records(RECORDS_FILE)

    @pytest.mark.parametrize(
        "sentence_id, form", [("#s1", "a"), ("s\r1", "a"), ("s1", "a\rb"), ("s1", ""), ("", "a")]
    )
    def test_unreadable_field_rejected(self, sentence_id, form):
        with pytest.raises(ValueError):
            "".join(serialize_records([SentenceRecord(sentence_id, (form,), True)]))

    def test_repeated_record_id_rejected(self):
        with pytest.raises(ValueError, match="duplicate sentence id"):
            serialize_records([SentenceRecord("s1", ("a",), True), SentenceRecord("s1", ("b",), False)])

    def test_serialize_rejects_delimiters(self):
        with pytest.raises(ValueError):
            "".join(serialize_records([SentenceRecord("s\t1", ("a",), True)]))
        with pytest.raises(ValueError):
            "".join(serialize_records([SentenceRecord("s1", ("a,b",), True)]))
