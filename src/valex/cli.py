"""Command-line front end.

Subcommands: ``lex parse``, ``lex stats``, ``merge``, ``check``, ``eval``,
``mine``, ``freq``.  Every report is tab-separated UTF-8 with ``#``
header lines recording the run manifest (tool version, input paths and
parameters).  Reports go to stdout, or into the directory given with
``--out`` as whole files written atomically (write then rename).
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .checker import FailureReason, diagnose_corpus, parse_corpus
from .errors import FormatError
from .freq import FrequencyTable, lemma_counts, parse_frequency_table, parse_lemma_map, top_lemmas
from .lexicon import lexicon_stats, parse_lexicon, serialize_lexicon
from .merge import merge_lexicons, serialize_merge_report
from .mining import (
    MiningParams,
    build_mining_corpus,
    compute_suspicion,
    format_suspects,
    parse_records,
    rank_suspects,
    serialize_records,
)
from .passage import RelaxationMode, coverage, format_percent, parse_passage, score_corpus


class CliError(Exception):
    """User-facing failure: bad file, bad format, bad data."""


@dataclass(frozen=True)
class RunManifest:
    """What produced a report: inputs and parameters, recorded verbatim."""

    inputs: tuple[tuple[str, str], ...]
    params: tuple[tuple[str, str], ...] = ()

    def header_lines(self) -> list[str]:
        lines = [f"# valex {__version__}"]
        lines.extend(f"# input {label}: {path}" for label, path in self.inputs)
        lines.extend(f"# {key}: {value}" for key, value in self.params)
        return lines


def _parse_file(path: str, parser):
    """Read a UTF-8 file and parse it; failures name the file and line."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    try:
        return parser(text)
    except FormatError as exc:
        location = f"{path}:{exc.line}" if exc.line is not None else path
        raise CliError(f"{location}: {exc.message}") from exc


def _write(out_dir: str | None, filename: str, manifest: RunManifest, body: str) -> None:
    """Manifest header plus body, written atomically into out_dir, or to
    stdout when out_dir is None."""
    text = "".join(line + "\n" for line in manifest.header_lines()) + body
    if out_dir is None:
        sys.stdout.write(text)
        return
    target = Path(out_dir) / filename
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(prefix=filename + ".", dir=target.parent)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp_path, target)
        except BaseException:
            os.unlink(tmp_path)
            raise
    except OSError as exc:
        raise CliError(f"cannot write {target}: {exc.strerror or exc}") from exc


def _cmd_lex_parse(args) -> int:
    lexicon = _parse_file(args.lexicon, parse_lexicon)
    manifest = RunManifest(inputs=(("lexicon", args.lexicon),))
    _write(args.out, "canonical.lex", manifest, serialize_lexicon(lexicon))
    return 0


def _cmd_lex_stats(args) -> int:
    lexicon = _parse_file(args.lexicon, parse_lexicon)
    stats = lexicon_stats(lexicon)
    manifest = RunManifest(inputs=(("lexicon", args.lexicon),))
    body_lines = [
        f"lemmas\t{stats.lemma_count}",
        f"entries\t{stats.entry_count}",
        f"max_entries_per_lemma\t{stats.max_entries}",
    ]
    body_lines.extend(
        f"top\t{rank}\t{lemma}\t{count}"
        for rank, (lemma, count) in enumerate(stats.top, start=1)
    )
    _write(args.out, "stats.tsv", manifest, "".join(l + "\n" for l in body_lines))
    return 0


def _cmd_merge(args) -> int:
    ref = _parse_file(args.ref, parse_lexicon)
    other = _parse_file(args.other, parse_lexicon)
    ref.name, other.name = args.ref, args.other
    merged, report = merge_lexicons(ref, other)
    manifest = RunManifest(inputs=(("ref", args.ref), ("other", args.other)))
    _write(args.out, "merged.lex", manifest, serialize_lexicon(merged))
    _write(args.out, "merge_report.tsv", manifest, serialize_merge_report(report))
    return 0


def _cmd_check(args) -> int:
    lexicon = _parse_file(args.lexicon, parse_lexicon)
    corpus = _parse_file(args.corpus, parse_corpus)
    records, histogram = diagnose_corpus(lexicon, corpus)
    manifest = RunManifest(inputs=(("lexicon", args.lexicon), ("corpus", args.corpus)))
    _write(args.out, "records.tsv", manifest, serialize_records(records))
    failure_lines = [f"{reason.value}\t{histogram.get(reason, 0)}" for reason in FailureReason]
    _write(args.out, "failures.tsv", manifest, "".join(l + "\n" for l in failure_lines))
    return 0


def _scores_row(label: str, kind: str, scores) -> str:
    return (
        f"{kind}\t{label}\t{scores.tp}\t{scores.gold_count}\t{scores.hyp_count}\t"
        f"{format_percent(scores.precision)}\t{format_percent(scores.recall)}\t"
        f"{format_percent(scores.f_measure)}"
    )


def _cmd_eval(args) -> int:
    gold = _parse_file(args.gold, parse_passage)
    hyp = _parse_file(args.hyp, parse_passage)
    for path, annotations in ((args.gold, gold), (args.hyp, hyp)):
        if not annotations:
            raise CliError(f"{path}: no <S> sentence to evaluate")
    mode = RelaxationMode(args.mode)
    scores = score_corpus(gold, hyp, mode)
    covered = coverage(hyp)
    manifest = RunManifest(
        inputs=(("gold", args.gold), ("hyp", args.hyp)), params=(("mode", mode.value),)
    )
    lines = [
        f"summary\tsentences\t{covered.total}",
        f"summary\tcoverage_count\t{covered.covered}",
        f"summary\tcoverage_pct\t{covered.percent_display}",
        f"summary\tconstituents_f\t{format_percent(scores.constituents.f_measure)}",
        f"summary\trelations_f\t{format_percent(scores.relations.f_measure)}",
        _scores_row("ALL", "constituent", scores.constituents),
    ]
    lines.extend(
        _scores_row(t.value, "constituent", scores.per_constituent[t])
        for t in scores.per_constituent
    )
    lines.append(_scores_row("ALL", "relation", scores.relations))
    lines.extend(
        _scores_row(t.value, "relation", scores.per_relation[t]) for t in scores.per_relation
    )
    _write(args.out, "eval_report.tsv", manifest, "".join(l + "\n" for l in lines))
    return 0


def _cmd_mine(args) -> int:
    ref_records = _parse_file(args.ref_records, parse_records)
    hyp_records = _parse_file(args.hyp_records, parse_records)
    params = MiningParams(epsilon=args.epsilon, max_iterations=args.max_iter)
    corpus = build_mining_corpus(ref_records, hyp_records)
    result = compute_suspicion(corpus, params)
    ranked = rank_suspects(result.scores, args.top_k)
    if not result.converged:
        print(
            f"valex: warning: fixed point not converged after {result.iterations_used} iterations",
            file=sys.stderr,
        )
    manifest = RunManifest(
        inputs=(("ref_records", args.ref_records), ("hyp_records", args.hyp_records)),
        params=(
            ("epsilon", repr(params.epsilon)),
            ("max_iterations", str(params.max_iterations)),
            ("iterations_used", str(result.iterations_used)),
            ("converged", "yes" if result.converged else "no"),
            ("final_delta", repr(result.final_delta)),
        ),
    )
    _write(args.out, "suspects.tsv", manifest, format_suspects(ranked))
    return 0


def _cmd_freq(args) -> int:
    rows = _parse_file(args.freq_table, parse_frequency_table)
    mapping = _parse_file(args.lemma_map, parse_lemma_map)
    table = FrequencyTable(rows, mapping)
    counts, unmapped = lemma_counts(table)
    top = top_lemmas(table, args.n)
    if unmapped:
        print(f"valex: warning: {unmapped} unmapped forms ignored", file=sys.stderr)
    manifest = RunManifest(
        inputs=(("freq_table", args.freq_table), ("lemma_map", args.lemma_map)),
        params=(("n", str(args.n)),),
    )
    lines = [f"{rank}\t{lemma}\t{counts[lemma]}" for rank, lemma in enumerate(top, start=1)]
    _write(args.out, "top_lemmas.tsv", manifest, "".join(l + "\n" for l in lines))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="valex", description=__doc__)
    parser.add_argument("--version", action="version", version=f"valex {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    lex = sub.add_parser("lex", help="inspect a lexicon file")
    lex_sub = lex.add_subparsers(dest="lex_command", required=True)
    lex_parse = lex_sub.add_parser("parse", help="validate and re-emit canonical form")
    lex_parse.add_argument("lexicon")
    lex_parse.add_argument("--out", default=None, help="output directory (default stdout)")
    lex_parse.set_defaults(run=_cmd_lex_parse)
    lex_stats = lex_sub.add_parser("stats", help="lemma/entry counts and ambiguity top list")
    lex_stats.add_argument("lexicon")
    lex_stats.add_argument("--out", default=None)
    lex_stats.set_defaults(run=_cmd_lex_stats)

    merge = sub.add_parser("merge", help="merge two lexicons")
    merge.add_argument("ref")
    merge.add_argument("other")
    merge.add_argument("--out", required=True, help="output directory")
    merge.set_defaults(run=_cmd_merge)

    check = sub.add_parser("check", help="check an observed-frame corpus against a lexicon")
    check.add_argument("lexicon")
    check.add_argument("corpus")
    check.add_argument("--out", required=True, help="output directory")
    check.set_defaults(run=_cmd_check)

    evaluate = sub.add_parser("eval", help="score hypothesis annotations against gold")
    evaluate.add_argument("gold")
    evaluate.add_argument("hyp")
    evaluate.add_argument(
        "--mode", choices=[m.value for m in RelaxationMode], default="exact"
    )
    evaluate.add_argument("--out", default=None)
    evaluate.set_defaults(run=_cmd_eval)

    mine = sub.add_parser("mine", help="mine suspicious forms from two record files")
    mine.add_argument("ref_records")
    mine.add_argument("hyp_records")
    mine.add_argument("--epsilon", type=float, default=1e-9)
    mine.add_argument("--max-iter", type=int, default=200)
    mine.add_argument("--top-k", type=int, default=20)
    mine.add_argument("--out", default=None)
    mine.set_defaults(run=_cmd_mine)

    freq = sub.add_parser("freq", help="most frequent lemmas from a form frequency table")
    freq.add_argument("freq_table")
    freq.add_argument("lemma_map")
    freq.add_argument("--n", type=int, default=100)
    freq.add_argument("--out", default=None)
    freq.set_defaults(run=_cmd_freq)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # A command builds an acyclic model and exits, so the cyclic collector
    # would only re-scan it; the caller's setting is restored on return.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.run(args)
    except (CliError, ValueError) as exc:
        print(f"valex: error: {exc}", file=sys.stderr)
        return 1
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
