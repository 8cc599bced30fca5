#!/usr/bin/env python3
"""valex benchmark: seeded workloads, every CLI command timed end to end.

    python3 bench/run.py --workload {lexicon,diagnose,eval} --seed N --seconds T --trace {0,1}

Run from anywhere; paths resolve against the checkout that holds this file.
The harness generates the workload's inputs from the seed (workgen.py),
then runs the workload's command sequence as subprocesses
(``python -m valex.cli`` with the checkout's ``src/`` on the path) in a
closed loop: one process at a time, each started after the previous one
exited, cycling through the sequence until T seconds are used.  Each command is timed from
outside and its peak RSS read from ``os.wait4``; every report is checked
(reportcheck.py).  With ``--trace 1`` one untraced cycle is followed
by traced in-process passes (layertrace.py) that give the per-layer
metrics.  The last line of standard output is one JSON object with the
metrics named in BENCHMARK.json.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = BENCH / "digests.json"
sys.path.insert(0, str(BENCH))

import layertrace  # noqa: E402
import reportcheck  # noqa: E402
import workgen  # noqa: E402

# `valex --version` runs per cycle through the commands; setup_s is their
# median.  Each is followed by one run of REFERENCE, and setup_ref is the
# median of the ratios of these pairs.
SETUP_SAMPLES_PER_CYCLE = 3
CLI = [sys.executable, "-m", "valex.cli"]
# The interpreter starting and importing the standard-library modules valex
# uses, and no valex code.  It also runs after every command, and job_ref
# divides each cycle's job time by the median of that cycle's REFERENCE
# times: on a shared machine both slow down together, so the ratio holds
# still where seconds drift by 20% from one run, or one cycle, to the next.
REFERENCE = [sys.executable, "-c", "import argparse, dataclasses, enum, fractions, re, tempfile, xml.etree.ElementTree"]
IMPORT_SAMPLES = 5

# Per-command end-to-end times, printed with the metadata; a metric sums the
# commands mapped to it.
COMMAND_METRICS = {
    "lex_parse": "lex_parse_s",
    "lex_stats": "lex_stats_s",
    "merge": "merge_s",
    "freq": "freq_s",
    "check_ref": "check_s",
    "check_hyp": "check_s",
    "mine": "mine_s",
    "eval_exact": "eval_s",
    "eval_overlap": "eval_s",
}


class Refused(Exception):
    """The benchmark cannot run here: no program, or generator drift."""


def commands(workload: str, files: dict[str, Path], out: Path) -> list[tuple[str, list[str]]]:
    """The workload's command sequence, as valex CLI argument lists."""
    f = {name: os.path.relpath(path, ROOT) for name, path in files.items()}
    o = os.path.relpath(out, ROOT)
    if workload == "lexicon":
        return [
            ("lex_parse", ["lex", "parse", f["ref.lex"], "--out", f"{o}/lex_parse"]),
            ("lex_stats", ["lex", "stats", f["ref.lex"], "--out", f"{o}/lex_stats"]),
            ("merge", ["merge", f["ref.lex"], f["other.lex"], "--out", f"{o}/merge"]),
            ("freq", ["freq", f["freq.tsv"], f["lemma_map.tsv"], "--out", f"{o}/freq"]),
        ]
    if workload == "diagnose":
        return [
            ("check_ref", ["check", f["ref.lex"], f["corpus.tsv"], "--out", f"{o}/check_ref"]),
            ("check_hyp", ["check", f["hyp.lex"], f["corpus.tsv"], "--out", f"{o}/check_hyp"]),
            ("mine", ["mine", f"{o}/check_ref/records.tsv", f"{o}/check_hyp/records.tsv",
                      "--out", f"{o}/mine"]),
        ]
    return [
        ("eval_exact", ["eval", f["gold.xml"], f["hyp.xml"], "--mode", "exact", "--out", f"{o}/eval_exact"]),
        ("eval_overlap", ["eval", f["gold.xml"], f["hyp.xml"], "--mode", "overlap", "--out", f"{o}/eval_overlap"]),
    ]


def _env() -> dict[str, str]:
    # A fixed hash seed keeps set and dict layouts, and so timings, the
    # same from run to run; reports do not depend on it.
    return {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"}


class Launcher:
    """The small process that forks every measured command (launcher.py)."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py")], cwd=ROOT, env=_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list[str], stderr_path: Path) -> tuple[float, int, int]:
        """One closed-loop command: (wall seconds, peak RSS in KiB, exit code)."""
        request = {"argv": argv, "stderr": str(stderr_path)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process ended")
        wall, rss_kib, code = json.loads(line)
        return wall, rss_kib, code

    def close(self, abort: bool = False) -> None:
        """Let the launcher finish and exit; on abort, stop it and its command now."""
        if abort:
            self.proc.terminate()
        else:
            self.proc.stdin.close()
        self.proc.wait(timeout=120)


def spread(values: list[float]) -> str:
    """Interquartile range over the median with four samples or more, else
    the full range over the median."""
    if len(values) < 2:
        return "n/a"
    mid = statistics.median(values)
    if not mid:
        return "n/a"
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        return f"iqr/median {(q3 - q1) / mid:.4f}"
    return f"range/median {(max(values) - min(values)) / mid:.4f}"


# --- metadata and digests ---------------------------------------------------


def resolve_valex() -> str:
    """Path of the valex package a command imports; must be the checkout's."""
    if not (SRC / "valex" / "__init__.py").is_file():
        raise Refused(f"no valex package under {SRC}")
    proc = subprocess.run(
        [sys.executable, "-c", "import valex; print(valex.__file__)"],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=60,
    )
    path = Path(proc.stdout.strip()).resolve() if proc.returncode == 0 else None
    if path is None or SRC.resolve() not in path.parents:
        raise Refused(f"valex resolves to {path}, not under {SRC}: {proc.stderr.strip()[-200:]}")
    return str(path)


def git_commit() -> str:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown (git unavailable)"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "valex").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def check_inputs(workload: str, size: str, seed: int, generated, recorded: dict) -> str:
    """Refuse to run when the generator's bytes drifted: the seed's own
    inputs when recorded, and always the tiny seed-0 canary."""
    key = f"{workload}/{size}/{seed}"
    want = recorded["inputs"].get(key)
    if want is not None and want != generated.digests:
        raise Refused(f"inputs of {key} differ from the recorded digests: the generator changed")
    canary = f"{workload}/tiny/0"
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        got = workgen.generate(workload, 0, "tiny", Path(tmp)).digests
    if recorded["inputs"].get(canary) != got:
        raise Refused(f"canary inputs {canary} differ from the recorded digests: the generator changed")
    return "match" if want is not None else "not recorded for this seed (canary matched)"


# --- the untraced closed loop ----------------------------------------------


@dataclass
class Outcome:
    """Samples, failure counts and report body digests of one run."""

    samples: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.extend(f"{what}: {p}" for p in problems)


def _stderr_tail(path: Path) -> str:
    return path.read_text(encoding="utf-8", errors="replace").strip()[-300:]


def changed_bodies(outcome: Outcome, name: str, out: Path) -> list[str]:
    """Reports of the command whose body differs from its first run's."""
    changed = []
    for report in reportcheck.REPORTS[name]:
        key = f"{name}/{report}"
        text = (out / name / report).read_text(encoding="utf-8")
        if reportcheck.body_digest(text) != outcome.digests.get(key):
            changed.append(f"{key}: body differs from the first run")
    return changed


def run_command(outcome: Outcome, launcher: Launcher, name: str, argv: list[str], out: Path,
                generated, recorded_reports) -> float:
    """Run one command, check its reports and record its samples; returns
    its wall time.  The first run of a command is checked against the
    references; later runs must reproduce its report bodies."""
    err = out / "stderr.txt"
    wall, rss_kib, code = launcher.run([*CLI, *argv], err)
    problems = [] if code == 0 else [f"exit {code}: {_stderr_tail(err)}"]
    if code == 0 and not any(key.startswith(f"{name}/") for key in outcome.digests):
        found, digests = reportcheck.check_command(name, out / name, generated, recorded_reports)
        problems += found
        outcome.digests.update(digests)
    elif code == 0:
        problems += changed_bodies(outcome, name, out)
    outcome.record(name, problems)
    outcome.samples[name].append(wall)
    outcome.samples[f"rss_mb.{name}"].append(rss_kib / 1024)
    return wall


def _timed(outcome: Outcome, launcher: Launcher, metric: str, argv: list[str], err: Path) -> float:
    """One set-up or reference sample."""
    wall, _, code = launcher.run(argv, err)
    outcome.record(metric, [] if code == 0 else [f"exit {code}: {_stderr_tail(err)}"])
    outcome.samples[metric].append(wall)
    return wall


def measure(launcher: Launcher, seconds: float, cmds, out: Path, generated, recorded_reports,
            once: bool = False) -> Outcome:
    """Cycle through the command sequence, each cycle opened by set-up
    samples and each command followed by a reference sample, until seconds
    have passed.  Time is checked after every command, so the whole window
    is used; the first cycle always completes, and with once it is the only
    one.  Each complete cycle gives one job_ref sample."""
    outcome = Outcome()
    err = out / "stderr.txt"
    start = time.perf_counter()
    for cycle in itertools.count():
        references = []
        for _ in range(SETUP_SAMPLES_PER_CYCLE):
            setup = _timed(outcome, launcher, "setup_s", [*CLI, "--version"], err)
            references.append(_timed(outcome, launcher, "reference_s", REFERENCE, err))
            outcome.samples["setup_ref"].append(setup / references[-1])
        job = 0.0
        for k, (name, argv) in enumerate(cmds):
            job += run_command(outcome, launcher, name, argv, out, generated, recorded_reports)
            references.append(_timed(outcome, launcher, "reference_s", REFERENCE, err))
            if k == len(cmds) - 1:
                outcome.samples["job_ref"].append(job / statistics.median(references))
            if (cycle or k == len(cmds) - 1) and (once or time.perf_counter() - start >= seconds):
                return outcome


def end_to_end(outcome: Outcome, cmds) -> dict[str, tuple[float, list[float], str]]:
    """Every untraced metric: name -> (value, samples, unit).

    A command's time is the median of its runs and job_s sums those
    medians over the sequence; job_ref and setup_ref are the medians of
    their samples (see measure), and peak_rss_mb is the largest command's
    median RSS.  The samples (one per complete cycle for sums) only serve
    the printed spread."""
    names = [name for name, _ in cmds]
    cycles = min(len(outcome.samples[name]) for name in names)

    def per_cycle(group, combine=sum):
        return [combine(outcome.samples[n][c] for n in group) for c in range(cycles)]

    medians = {name: statistics.median(outcome.samples[name]) for name in names}
    rss = {name: statistics.median(outcome.samples[f"rss_mb.{name}"]) for name in names}
    metrics = {
        name: (statistics.median(outcome.samples[name]), outcome.samples[name], unit)
        for name, unit in (("setup_s", "s"), ("setup_ref", "ref"), ("job_ref", "ref"))
    }
    metrics["peak_rss_mb"] = (max(rss.values()), per_cycle([f"rss_mb.{n}" for n in names], max), "MB")
    metrics["job_s"] = (sum(medians.values()), per_cycle(names), "s")
    references = outcome.samples["reference_s"]
    metrics["reference_s"] = (statistics.median(references), references, "s")
    for metric in dict.fromkeys(COMMAND_METRICS[name] for name in names):
        group = [name for name in names if COMMAND_METRICS[name] == metric]
        metrics[metric] = (sum(medians[name] for name in group), per_cycle(group), "s")
    for name in names:
        metrics[f"rss_mb.{name}"] = (rss[name], outcome.samples[f"rss_mb.{name}"], "MB")
    return metrics


def import_time() -> list[float]:
    code = "import time; t = time.perf_counter(); import valex.cli; print(time.perf_counter() - t)"
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_env(),
                              capture_output=True, text=True, timeout=60)
        if proc.returncode == 0:
            samples.append(float(proc.stdout.strip()))
    return samples


# --- reporting --------------------------------------------------------------


def metric_line(name: str, value: float, samples: list[float], unit: str) -> str:
    return f"metric {name:<28} {value:>14.6g} {unit:<6} n={len(samples):<3} {spread(samples)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workgen.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=tuple(workgen.SIZES),
                        help="input size (tiny serves the benchmark's own tests)")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    key = f"{args.workload}/{args.size}/{args.seed}"
    run_dir = WORK / f"{args.workload}-{args.size}-{args.seed}-{os.getpid()}"
    launcher = None
    try:
        valex_path = resolve_valex()
        launcher = Launcher()
        run_dir.mkdir(parents=True)
        recorded = load_digests()
        generated = workgen.generate(args.workload, args.seed, args.size, run_dir)
        input_state = check_inputs(args.workload, args.size, args.seed, generated, recorded)
        print(f"# valex benchmark: workload {args.workload}, seed {args.seed}, size {args.size}, "
              f"seconds {args.seconds:g}, trace {args.trace}")
        print(f"python {platform.python_version()} ({platform.python_implementation()}) {sys.executable}")
        print(f"nproc {len(os.sched_getaffinity(0))} (cpu_count {os.cpu_count()})")
        print(f"valex {valex_path} (under the checkout's src/)")
        print(f"commit {git_commit()}; valex source sha256 {source_digest()}")
        print(f"closed loop, 1 client; PYTHONHASHSEED=0; per cycle {SETUP_SAMPLES_PER_CYCLE} setup samples, "
              f"a reference sample after each setup sample and each command; "
              f"reference: {' '.join(REFERENCE[1:])}")
        for name, path in generated.files.items():
            print(f"input {name} {path.stat().st_size} B sha256 {generated.digests[name]}")
        print(f"input digests: {input_state}")

        out = run_dir / "out"
        out.mkdir()
        cmds = commands(args.workload, generated.files, out)
        recorded_reports = recorded["reports"].get(key)
        launcher.run([*CLI, "--version"], run_dir / "warmup.txt")  # compiles bytecode in a fresh checkout
        outcome = measure(launcher, args.seconds, cmds, out, generated, recorded_reports, once=bool(args.trace))

        if args.trace:
            metrics = traced(args, cmds, out, outcome, units)
        else:
            measured = end_to_end(outcome, cmds)
            metrics = {name: measured[name][0] for name in units}
            for name, (value, samples, unit) in measured.items():
                print(metric_line(name, value, samples, unit))

        for report_key, digest in sorted(outcome.digests.items()):
            want = (recorded_reports or {}).get(report_key)
            state = "not recorded" if want is None else ("match" if want == digest else "MISMATCH")
            print(f"body-digest {key} {report_key} {digest} ({state})")
            if want is None and report_key in reportcheck.DIGEST_ONLY:
                print(f"WARNING unchecked: {reportcheck.DIGEST_ONLY[report_key]} in {report_key}; "
                      f"no body digest recorded for {key} (not counted as a failure)")
        for failure in outcome.failures:
            print(f"FAILED {failure}")
        ratio = outcome.failed / outcome.attempted
        print(f"failed_ratio {ratio:.6f} ({outcome.failed} of {outcome.attempted} commands)")
        print(json.dumps({
            "correct": outcome.failed == 0,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }))
        return 0
    except Refused as exc:
        print(f"bench: refused: {exc}", file=sys.stderr)
        return 2
    finally:
        if launcher is not None:
            launcher.close(abort=sys.exc_info()[0] is not None)
        shutil.rmtree(run_dir, ignore_errors=True)


def traced(args, cmds, out: Path, outcome: Outcome, units: dict[str, str]) -> dict[str, float]:
    """Traced passes until the run's seconds are used; medians per metric."""
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    passes = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        result = layertrace.traced_pass(f"{args.workload}-{args.seed}/pass{len(passes)}", cmds, out)
        passes.append(result)
        outcome.record("traced pass", result.errors)
        for note in dict.fromkeys(result.notes):
            print(f"note: {note}")
        for name, _ in cmds:
            outcome.record(f"traced {name}", changed_bodies(outcome, name, out))
        elapsed = time.perf_counter() - start
        if elapsed + (time.perf_counter() - pass_start) > args.seconds:
            break

    samples: dict[str, list[float]] = defaultdict(list)
    for result in passes:
        for name, value in result.metrics.items():
            samples[name].append(value)
    samples["cli.import_s"] = import_time()
    metrics = {name: statistics.median(samples[name]) for name in units if samples.get(name)}
    for name in units:
        if name in metrics:
            print(metric_line(name, metrics[name], samples[name], units[name]))
        else:
            print(f"metric {name:<28} missing (layer function not found or not countable)")
    # A pass's self times add up to its traced wall by construction.  What
    # shows whether the traced pass does a command's work is the comparison
    # of its wall with the untraced run's wall minus set-up.
    untraced = end_to_end(outcome, cmds)
    setup = untraced["setup_s"][0]
    for k, (name, _) in enumerate(cmds):
        runs = [result.commands[k] for result in passes]
        wall = statistics.median(run[1] for run in runs)
        layers = " ".join(f"{layer}={statistics.median(run[2].get(layer, 0.0) for run in runs):.4f}"
                          for layer in sorted(runs[0][2]))
        status = next((run[3] for run in runs if run[3] != 0), 0)
        command = statistics.median(outcome.samples[name])
        ratio = f"{wall / (command - setup):.3f}" if command > setup else "n/a"
        print(f"traced command {name}: wall {wall:.4f} s; self times {layers} (medians of {len(runs)} "
              f"passes); untraced {command:.4f} s, minus setup_s {command - setup:.4f} s, "
              f"traced/that {ratio}; exit {status}")
    traced_job = [sum(wall for _, wall, _, _ in p.commands) for p in passes]
    untraced_job = untraced["job_s"][0]
    print(f"untraced job_s {untraced_job:.4f} s (subprocesses, incl. start-up); traced job "
          f"{statistics.median(traced_job):.4f} s (in-process, median of {len(traced_job)})")
    trace_file = WORK / f"trace-{args.workload}-{args.size}-{args.seed}.jsonl"
    with open(trace_file, "w", encoding="utf-8") as handle:
        for result in passes:
            index = {id(span): n for n, span in enumerate(result.spans)}
            for span in result.spans:
                handle.write(json.dumps({
                    "run_id": span.run_id, "name": span.name, "layer": span.layer,
                    "parent": index.get(id(span.parent)), "start": span.start, "end": span.end,
                }) + "\n")
    print(f"spans written to {os.path.relpath(trace_file, ROOT)}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
