"""Tests of the benchmark itself, on the tiny input size.

    PYTHONPATH=src python -m pytest bench/test_bench.py
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import reportcheck  # noqa: E402
import run  # noqa: E402
import workgen  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
OWN_LAYER_TIMES = {
    "lexicon": ("lexicon.parse_s", "lexicon.serialize_s", "merge.merge_s"),
    "diagnose": ("checker.parse_corpus_s", "checker.diagnose_s", "mining.fixed_point_s"),
    "eval": ("passage.parse_s", "passage.score_exact_s", "passage.score_overlap_s"),
}


def _bench(workload: str, trace: int) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", workgen.WORKLOADS)
def test_tiny_run_is_correct_and_prints_every_metric_with_its_unit(workload, trace):
    lines = _bench(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in section
    }
    printed = {line.split()[1]: line.split()[3] for line in lines if line.startswith("metric ")}
    for m in section:
        assert printed[m["name"]] == m["unit"]
    if trace:
        for name in OWN_LAYER_TIMES[workload]:
            assert result["metrics"][name]["value"] > 0
        accounted = [line for line in lines if line.startswith("traced command ")]
        assert len(accounted) == {"lexicon": 4, "diagnose": 3, "eval": 2}[workload]
        for line in accounted:
            # In process, a command skips the interpreter start and imports
            # that its subprocess pays; a traced pass that repeated or
            # stalled work would exceed the untraced wall.
            walls = re.search(r"wall (\S+) s;.* untraced (\S+) s,", line).groups()
            traced_wall, untraced_wall = map(float, walls)
            assert 0 < traced_wall < untraced_wall, line


def _inputs(workload):
    return {
        "lexicon": ("ref.lex", "other.lex", "freq.tsv", "lemma_map.tsv"),
        "diagnose": ("ref.lex", "hyp.lex", "corpus.tsv"),
        "eval": ("gold.xml", "hyp.xml"),
    }[workload]


@pytest.mark.parametrize("workload", workgen.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    runs = {}
    for label, seed in (("a", 3), ("b", 3), ("c", 4)):
        (tmp_path / label).mkdir()
        runs[label] = workgen.generate(workload, seed, "tiny", tmp_path / label)
    assert set(runs["a"].digests) == set(_inputs(workload))
    assert runs["a"].digests == runs["b"].digests
    assert runs["a"].expected == runs["b"].expected
    for name in runs["a"].files:
        assert runs["a"].files[name].read_bytes() == runs["b"].files[name].read_bytes()
        assert runs["a"].digests[name] != runs["c"].digests[name]


@pytest.mark.parametrize("workload", workgen.WORKLOADS)
def test_recorded_canary_matches_the_generator(workload, tmp_path):
    recorded = run.load_digests()["inputs"][f"{workload}/tiny/0"]
    assert workgen.generate(workload, 0, "tiny", tmp_path).digests == recorded


# (workload, command, report) with a reference of its own
CHECKED_REPORTS = (
    ("lexicon", "lex_parse", "canonical.lex"),
    ("lexicon", "lex_stats", "stats.tsv"),
    ("lexicon", "merge", "merge_report.tsv"),
    ("lexicon", "freq", "top_lemmas.tsv"),
    ("diagnose", "check_hyp", "records.tsv"),
    ("diagnose", "check_hyp", "failures.tsv"),
    ("diagnose", "mine", "suspects.tsv"),
    ("eval", "eval_exact", "eval_report.tsv"),
    ("eval", "eval_overlap", "eval_report.tsv"),
)


@pytest.mark.parametrize("workload", workgen.WORKLOADS)
def test_a_corrupted_report_fails_its_check(workload, tmp_path):
    generated = workgen.generate(workload, 2, "tiny", tmp_path)
    out = tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for name, argv in run.commands(workload, generated.files, out):
        subprocess.run([sys.executable, "-m", "valex.cli", *argv], cwd=ROOT, env=env,
                       check=True, capture_output=True, timeout=120)
        assert reportcheck.check_command(name, out / name, generated, None)[0] == []
    for _, command, report in (r for r in CHECKED_REPORTS if r[0] == workload):
        path = out / command / report
        original = path.read_text(encoding="utf-8")
        lines = original.splitlines(keepends=True)
        first = next(n for n, line in enumerate(lines) if not line.startswith("#"))
        lines[first] = lines[first].rstrip("\n") + "9\n"
        path.write_text("".join(lines), encoding="utf-8")
        failures, _ = reportcheck.check_command(command, out / command, generated, None)
        assert failures, f"{command}/{report} corrupted but accepted"
        path.write_text(original, encoding="utf-8")
