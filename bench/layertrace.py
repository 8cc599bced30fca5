"""Traced in-process pass: per-layer self times and counts.

The pass runs each command of a workload through ``valex.cli.main`` in this
process.  Every function of LAYER_FUNCTIONS is replaced, wherever a valex
module binds it, by a wrapper that records a span (name, start, end, parent
span, and the run id shared by the spans of one command) and keeps the
call's arguments and result.  Counts are computed from those after the
command's span has closed, so counting costs no traced time.  Spans stay in
memory; the harness writes them out when the run ends.

A layer's self time is the time of its spans minus the part covered by
their child spans.  The command span belongs to the ``cli`` layer, so for
every command the layer self times plus ``cli.self_s`` add up to the
command's traced wall time.
"""

from __future__ import annotations

import contextlib
import io
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

# (layer, function, metrics fed by its span and boundary counts).  A function
# is looked up in its home module valex.<layer>, else in valex.cli's
# namespace.  One found in neither is reported missing with the metrics it
# feeds, and the pass goes on without it.
LAYER_FUNCTIONS = (
    ("lexicon", "parse_lexicon", ("lexicon.parse_s", "lexicon.entries")),
    ("lexicon", "serialize_lexicon", ("lexicon.serialize_s",)),
    ("lexicon", "lexicon_stats", ("lexicon.stats_s",)),
    ("merge", "merge_lexicons", (
        "merge.merge_s", "merge.candidate_pairs", "merge.fused_entries",
        "merge.fuse_ratio", "merge.flagged_lemmas",
    )),
    ("merge", "serialize_merge_report", ("merge.report_s",)),
    ("checker", "parse_corpus", ("checker.parse_corpus_s",)),
    ("checker", "diagnose_corpus", (
        "checker.diagnose_s", "checker.frames", "checker.entry_tests",
        "checker.failed_frames", "checker.analyzable_ratio",
    )),
    ("mining", "parse_records", ("mining.parse_records_s",)),
    ("mining", "build_mining_corpus", (
        "mining.build_s", "mining.failed_sentences", "mining.forms", "mining.active_forms",
    )),
    ("mining", "compute_suspicion", (
        "mining.fixed_point_s", "mining.iteration_ms", "mining.iterations",
        "mining.converged", "mining.final_delta",
    )),
    ("mining", "rank_suspects", ("mining.rank_s",)),
    ("passage", "parse_passage", ("passage.parse_s", "passage.sentences")),
    ("passage", "score_corpus", (
        "passage.score_exact_s", "passage.score_overlap_s", "passage.constituent_pairs",
    )),
    ("passage", "coverage", ("passage.coverage_s",)),
)

# Span name -> time metric: the first metric of each function's entry
# (score_corpus splits by mode instead).
_SPAN_METRIC = {
    f"{layer}.{name}": metrics[0] for layer, name, metrics in LAYER_FUNCTIONS if name != "score_corpus"
}


@dataclass(eq=False)
class Span:
    run_id: str
    name: str
    layer: str
    parent: "Span | None"
    start: float
    end: float = 0.0
    boundary: tuple = ()

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    run_id: str = ""
    spans: list[Span] = field(default_factory=list)
    _stack: list[Span] = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, layer: str, name: str):
        span = Span(self.run_id, name, layer, self._stack[-1] if self._stack else None,
                    time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, layer: str, function):
        name = f"{layer}.{function.__name__}"

        def traced(*args, **kwargs):
            with self.span(layer, name) as span:
                result = function(*args, **kwargs)
            span.boundary = (args, result)
            return result

        return traced


def self_times(spans: list[Span]) -> dict[int, float]:
    covered: Counter = Counter()
    for span in spans:
        if span.parent is not None:
            covered[id(span.parent)] += span.duration
    return {id(span): span.duration - covered[id(span)] for span in spans}


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Install the wrappers; yields {function name: original} and the list
    of missing function names.  Restores every binding on exit."""
    import valex.cli as cli

    modules = [m for name, m in list(sys.modules.items()) if name == "valex" or name.startswith("valex.")]
    originals, missing, undo = {}, [], []
    for layer, name, _ in LAYER_FUNCTIONS:
        function = getattr(sys.modules.get(f"valex.{layer}"), name, None) or getattr(cli, name, None)
        if not callable(function):
            missing.append(name)
            continue
        originals[name] = function
        wrapper = tracer.wrap(layer, function)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is function:
                    undo.append((module, attr, value))
                    setattr(module, attr, wrapper)
    try:
        yield originals, missing
    finally:
        for module, attr, value in reversed(undo):
            setattr(module, attr, value)


@dataclass
class PassResult:
    metrics: dict[str, float]
    commands: list[tuple[str, float, dict[str, float], int]]  # name, wall, self by layer, status
    spans: list[Span]
    errors: list[str]  # commands that failed
    notes: list[str]  # boundaries that could not be counted; their metrics are missing


def _run_main(main, argv: list[str]) -> tuple[int, str]:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crashing command is a failed command, not a crashed benchmark
            traceback.print_exc()
            status = 1
    return status, sink.getvalue()


def _final_delta(compute_suspicion, corpus, params) -> float:
    """Largest score change of the last iteration, via the on_iteration hook.

    The hook copies a dict each iteration, so this is a second call kept out
    of mining.fixed_point_s."""
    last: list = [None, 0.0]

    def hook(_iteration, scores):
        previous = last[0]
        if previous is not None:
            last[1] = max((abs(scores[f] - previous[f]) for f in scores), default=0.0)
        last[0] = scores

    compute_suspicion(corpus, params, on_iteration=hook)
    return last[1]


def _count(span: Span, counts: Counter, state: dict) -> None:
    """Counts at one layer boundary, from the call's arguments and result."""
    args, result = span.boundary
    if span.name == "lexicon.parse_lexicon":
        counts["lexicon.entries"] += sum(len(group) for group in result.entries.values())
    elif span.name == "merge.merge_lexicons":
        for r in result[1].results:
            counts["merge.candidate_pairs"] += r.ref_count * r.other_count
            counts["merge.fused_entries"] += r.ref_count + r.other_count - r.merged_count
            counts["merge.other_entries"] += r.other_count
            counts["merge.flagged_lemmas"] += r.needs_validation
    elif span.name == "checker.diagnose_corpus":
        lexicon, corpus = args[0], args[1]
        records, histogram = result
        for _, frames in corpus:
            counts["checker.frames"] += len(frames)
            counts["checker.entry_tests"] += sum(len(lexicon.entries.get(o.lemma, ())) for o in frames)
        counts["checker.failed_frames"] += sum(histogram.values())
        counts["checker.sentences"] += len(records)
        counts["checker.analyzable"] += sum(1 for r in records if r.analyzable)
    elif span.name == "mining.build_mining_corpus":
        failed = [s for s in result.sentences if s.failed]
        counts["mining.failed_sentences"] += len(failed)
        counts["mining.forms"] += len({f for s in result.sentences for f in s.forms})
        counts["mining.active_forms"] += len({f for s in failed for f in s.forms})
    elif span.name == "mining.compute_suspicion":
        counts["mining.iterations"] += result.iterations_used
        counts["mining.runs"] += 1
        counts["mining.converged_runs"] += bool(result.converged)
        state["suspicion_call"] = (args[0], args[1])
    elif span.name == "passage.parse_passage":
        counts["passage.sentences"] += len(result)
    elif span.name == "passage.score_corpus":
        gold, hyp, mode = args[0], args[1], args[2]
        state["score_modes"][id(span)] = mode.value
        for g, h in zip(gold, hyp):
            hyp_types = Counter(c.ctype for c in h.constituents)
            counts["passage.constituent_pairs"] += sum(
                n * hyp_types[t] for t, n in Counter(c.ctype for c in g.constituents).items()
            )


def traced_pass(run_id: str, commands: list[tuple[str, list[str]]], out_dir: Path) -> PassResult:
    """Run every command once in this process, traced."""
    import valex.cli as cli

    tracer = Tracer()
    counts: Counter = Counter()
    state: dict = {"score_modes": {}}
    accounting, errors, notes, uncounted = [], [], [], set()
    final_delta = 0.0
    with patched(tracer) as (originals, missing):
        for name, argv in commands:
            tracer.run_id = f"{run_id}/{name}"
            first = len(tracer.spans)
            with tracer.span("cli", f"cli.{name}"):
                status, output = _run_main(cli.main, argv)
            if status != 0:
                errors.append(f"traced {name}: exit {status}: {output.strip()[-300:]}")
            spans = tracer.spans[first:]
            for span in spans:
                if span.boundary:
                    try:
                        _count(span, counts, state)
                    except (AttributeError, IndexError, TypeError, ValueError) as exc:
                        uncounted.add(span.name)
                        notes.append(f"traced {name}: cannot count at {span.name}: {exc!r}")
                    span.boundary = ()
            selfs = self_times(spans)
            by_layer: Counter = Counter()
            for span in spans:
                by_layer[span.layer] += selfs[id(span)]
            accounting.append((name, spans[0].duration, dict(by_layer), status))
            counts["cli.output_bytes"] += sum(
                p.stat().st_size for p in (out_dir / name).glob("*") if p.is_file()
            )
            call = state.pop("suspicion_call", None)
            if call is not None:
                tracer.run_id = f"{run_id}/{name}/final-delta"
                with tracer.span("mining", "mining.compute_suspicion.on_iteration"):
                    final_delta = _final_delta(originals["compute_suspicion"], *call)

    selfs = self_times(tracer.spans)
    times: Counter = Counter()
    for span in tracer.spans:
        if span.run_id.endswith("/final-delta"):
            continue
        if span.layer == "cli":
            times["cli.self_s"] += selfs[id(span)]
        elif span.name == "passage.score_corpus":
            times[f"passage.score_{state['score_modes'].get(id(span), 'unknown')}_s"] += selfs[id(span)]
        elif span.name in _SPAN_METRIC:
            times[_SPAN_METRIC[span.name]] += selfs[id(span)]

    other = counts["merge.other_entries"]
    sentences = counts["checker.sentences"]
    iterations = counts["mining.iterations"]
    derived = {
        "merge.fuse_ratio": counts["merge.fused_entries"] / other if other else 0.0,
        "checker.analyzable_ratio": counts["checker.analyzable"] / sentences if sentences else 0.0,
        "mining.iteration_ms": 1000 * times["mining.fixed_point_s"] / iterations if iterations else 0.0,
        "mining.converged": int(counts["mining.runs"] > 0 and counts["mining.converged_runs"] == counts["mining.runs"]),
        "mining.final_delta": final_delta,
    }
    metrics = {"cli.self_s": times["cli.self_s"], "cli.output_bytes": counts["cli.output_bytes"]}
    for _, _, names in LAYER_FUNCTIONS:
        for m in names:
            metrics[m] = derived[m] if m in derived else times[m] if m.endswith("_s") else counts[m]

    lost = {m for _, name, ms in LAYER_FUNCTIONS if name in missing for m in ms}
    lost |= {m for layer, name, ms in LAYER_FUNCTIONS if f"{layer}.{name}" in uncounted for m in ms if not m.endswith("_s")}
    if missing:
        lost.add("cli.self_s")  # time of an untraced function would land in the cli layer
    for metric in lost:
        metrics.pop(metric, None)
    return PassResult(metrics, accounting, tracer.spans, errors, notes)
