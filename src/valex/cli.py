"""Command-line front end.

Subcommands: ``lex parse``, ``lex stats``, ``merge``, ``check``, ``eval``,
``mine``, ``freq``.  Every report is tab-separated UTF-8 with ``#``
header lines recording the run manifest (tool version, input paths and
parameters).  Reports go to stdout, or into the directory given with
``--out`` as whole files written atomically (write then rename).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import importlib.util
import os
import sys
from pathlib import Path

from . import __version__
from .errors import FormatError, write_rows
from .relaxation import RelaxationMode

def _lazy(name: str):
    """valex.<name>, registered but not run until its first attribute
    access, so each command runs only the modules it uses."""
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[fullname] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)  # as an import binds valex.<name>
    return module


# Domain functions are called as lexicon.parse_lexicon, ..., looked up at
# each call, so a function replaced on its home module is the one main calls.
checker, freq, lexicon, markup, merge, mining, passage = map(
    _lazy, ("checker", "freq", "lexicon", "markup", "merge", "mining", "passage"))


def _manifest_lines(pairs) -> list[str]:
    """'# KEY: VALUE' header lines recording a run's inputs or parameters
    verbatim; a key or value that such a line cannot hold is refused."""
    for value in (v for pair in pairs for v in pair):
        if "\n" in value:
            raise ValueError(f"manifest value {value!r} holds an LF and cannot be written")
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:  # a lone surrogate, such as a path byte that is not UTF-8
            raise ValueError(f"manifest value {value!r} is not valid UTF-8 and cannot be written") from None
    return [f"# {key}: {value}" for key, value in pairs]


def _parse_file(path: str, parser):
    """Read a UTF-8 file, less a leading BOM, and parse it; failures name
    the file and line."""
    try:
        # Bytes decoded as plain utf-8, the BOM dropped after: lines end at LF
        # only, not at every universal newline, and a decode error gives its
        # file offset (utf-8-sig would count from after the BOM).
        text = Path(path).read_bytes().decode("utf-8").removeprefix("\ufeff")
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    try:
        return parser(text)
    except FormatError as exc:
        location = f"{path}:{exc.line}" if exc.line is not None else path
        raise ValueError(f"{location}: {exc.message}") from exc


def _write(out_dir: str | None, filename: str, header: list[str], body: str) -> None:
    """Header lines plus body, written atomically into out_dir, or to
    stdout when out_dir is None."""
    text = "".join(line + "\n" for line in header) + body
    data = text.encode("utf-8")
    if out_dir is None:
        try:
            if hasattr(sys.stdout, "buffer"):  # UTF-8 whatever the locale, as --out writes
                sys.stdout.flush()
                sys.stdout.buffer.write(data)
            else:  # a text-only stream, such as io.StringIO
                sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:  # a full disk, a closed pipe
            with contextlib.suppress(OSError):  # drop what is still buffered, or exit fails on it again
                sys.stdout.close()
            raise ValueError(f"cannot write stdout: {exc.strerror or exc}") from exc
        return
    target = Path(out_dir) / filename
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        # created 0o666 less the umask, as a shell redirection creates a file
        # (mkstemp would give 0o600); O_EXCL refuses a name another run holds
        tmp_path = target.with_name(f"{filename}.{os.urandom(6).hex()}")
        fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp_path, target)
        except BaseException:
            os.unlink(tmp_path)
            raise
    except OSError as exc:
        raise ValueError(f"cannot write {target}: {exc.strerror or exc}") from exc


def _across(args, function, *call_args):
    """function(*call_args) on both inputs, parsed by then; its ValueError names both files."""
    first, second = (getattr(args, name) for name, *_ in args.inputs)
    try:
        return function(*call_args)
    except ValueError as exc:
        raise ValueError(f"{first} vs {second}: {exc}") from exc


def _lex_parse(args, inputs):
    return {"canonical.lex": lexicon.serialize_lexicon(*inputs)}, ()


def _lex_stats(args, inputs):
    stats = lexicon.lexicon_stats(*inputs)
    rows = [
        ("lemmas", str(stats.lemma_count)),
        ("entries", str(stats.entry_count)),
        ("max_entries_per_lemma", str(stats.max_entries)),
        *(("top", str(rank), lemma, str(count))
          for rank, (lemma, count) in enumerate(stats.top, start=1)),
    ]
    return {"stats.tsv": write_rows(rows)}, ()


def _merge(args, inputs):
    merged, report = _across(args, merge.merge_lexicons, *inputs)
    reports = {"merged.lex": lexicon.serialize_lexicon(merged), "merge_report.tsv": merge.serialize_merge_report(report)}
    return reports, ()


def _check(args, inputs):
    records, histogram = checker.diagnose_corpus(*inputs)
    failures = write_rows((reason.value, str(histogram.get(reason, 0))) for reason in checker.FailureReason)
    return {"records.tsv": mining.serialize_records(records), "failures.tsv": failures}, ()


def _scores_row(kind: str, label: str, scores) -> tuple[str, ...]:
    counts = (scores.tp, scores.gold_count, scores.hyp_count)
    ratios = (scores.precision, scores.recall, scores.f_measure)
    return (kind, label, *map(str, counts), *map(passage.format_percent, ratios))


def _eval(args, inputs):
    gold, hyp = inputs
    for path, annotations in ((args.gold, gold), (args.hyp, hyp)):
        if not annotations:
            raise ValueError(f"{path}: no <S> sentence to evaluate")
    mode = RelaxationMode(args.mode)
    scores = _across(args, passage.score_corpus, gold, hyp, mode)  # the sentence ids or token counts differ
    covered = passage.coverage(hyp)
    rows = [
        ("summary", "sentences", str(covered.total)),
        ("summary", "coverage_count", str(covered.covered)),
        ("summary", "coverage_pct", covered.percent_display),
        ("summary", "constituents_f", passage.format_percent(scores.constituents.f_measure)),
        ("summary", "relations_f", passage.format_percent(scores.relations.f_measure)),
        _scores_row("constituent", "ALL", scores.constituents),
        *(_scores_row("constituent", t.value, s) for t, s in scores.per_constituent.items()),
        _scores_row("relation", "ALL", scores.relations),
        *(_scores_row("relation", t.value, s) for t, s in scores.per_relation.items()),
    ]
    return {"eval_report.tsv": write_rows(rows)}, (("mode", mode.value),)


def _mine(args, inputs):
    if args.top_k < 1:  # rank_suspects refuses it too, but only after the fixed point
        raise ValueError("top_k must be at least 1")
    params = mining.MiningParams(epsilon=args.epsilon, max_iterations=args.max_iter)
    result = _across(args, mining.compute_suspicion, _across(args, mining.build_mining_corpus, *inputs), params)
    ranked = mining.rank_suspects(result.scores, args.top_k)
    if not result.converged:
        print(
            f"valex: warning: fixed point not converged after {result.iterations_used} iterations",
            file=sys.stderr,
        )
    return {"suspects.tsv": mining.format_suspects(ranked)}, (
        ("epsilon", repr(params.epsilon)),
        ("max_iterations", str(params.max_iterations)),
        ("iterations_used", str(result.iterations_used)),
        ("converged", "yes" if result.converged else "no"),
        ("final_delta", repr(result.final_delta)),
    )


def _freq(args, inputs):
    if args.n < 1:  # rank_lemmas refuses it too, but only after every input is read
        raise ValueError("n must be at least 1")
    (table,) = inputs
    # the map is read through the fold, with the table bound, so no form-to-lemma dict is held
    counts, unmapped = _parse_file(args.lemma_map, functools.partial(freq.lemma_counts, table))
    top = freq.rank_lemmas(counts, args.n)
    if unmapped:
        print(f"valex: warning: {unmapped} unmapped forms ignored", file=sys.stderr)
    ranked = ((str(rank), lemma, str(counts[lemma])) for rank, lemma in enumerate(top, start=1))
    return {"top_lemmas.tsv": write_rows(ranked)}, (("n", str(args.n)),)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="valex", description=__doc__)
    parser.add_argument("--version", action="version", version=f"valex {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    lex = sub.add_parser("lex", help="inspect a lexicon file")
    lex_sub = lex.add_subparsers(dest="lex_command", required=True)

    def command(parent, name, help, run, inputs, out_required=False):
        """Register a command: its positional inputs as (name, module,
        parser name) triples, whether --out is required, and its run
        function, which takes the arguments and an iterator that reads and
        parses each input as it is drawn, so that flags fail before any
        read, and returns ({filename: body}, manifest params).  An input
        whose parser name is None is left to the run function, which reads
        it with _parse_file."""
        subparser = parent.add_parser(name, help=help)
        for input_name, *_ in inputs:
            subparser.add_argument(input_name)
        out_help = "output directory" if out_required else "output directory (default stdout)"
        subparser.add_argument("--out", required=out_required, help=out_help)
        subparser.set_defaults(run=run, inputs=inputs)
        return subparser

    lex_input = ("lexicon", lexicon, "parse_lexicon")
    command(lex_sub, "parse", "validate and re-emit canonical form", _lex_parse, (lex_input,))
    command(lex_sub, "stats", "lemma/entry counts and ambiguity top list", _lex_stats, (lex_input,))
    command(sub, "merge", "merge two lexicons", _merge,
            (("ref", lexicon, "parse_lexicon"), ("other", lexicon, "parse_lexicon")), out_required=True)
    command(sub, "check", "check an observed-frame corpus against a lexicon", _check,
            (lex_input, ("corpus", checker, "parse_corpus")), out_required=True)
    evaluate = command(sub, "eval", "score hypothesis annotations against gold", _eval,
                       (("gold", markup, "parse_passage"), ("hyp", markup, "parse_passage")))
    evaluate.add_argument("--mode", choices=[m.value for m in RelaxationMode], default="exact")
    mine = command(sub, "mine", "mine suspicious forms from two record files", _mine,
                   (("ref_records", mining, "parse_records"), ("hyp_records", mining, "parse_records")))
    mine.add_argument("--epsilon", type=float, default=1e-9)
    mine.add_argument("--max-iter", type=int, default=200)
    mine.add_argument("--top-k", type=int, default=20)
    top = command(sub, "freq", "most frequent lemmas from a form frequency table", _freq,
                  (("freq_table", freq, "parse_frequency_table"), ("lemma_map", None, None)))
    top.add_argument("--n", type=int, default=100)
    return parser


def main(argv=None) -> int:
    """Parse the command's inputs, run it, and write each report it returns
    under one manifest: the inputs by argument name, then its parameters."""
    args = _build_parser().parse_args(argv)
    # A command builds an acyclic model and exits, so the cyclic collector
    # would only re-scan it; the caller's setting is restored on return.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        paths = [(name, getattr(args, name)) for name, *_ in args.inputs]
        # a path that its manifest line cannot hold fails before any read
        header = [f"# valex {__version__}", *_manifest_lines([(f"input {n}", path) for n, path in paths])]
        # The parser is looked up as its input is drawn, which runs its module.
        parsed = (_parse_file(getattr(args, name), getattr(module, parser)) for name, module, parser in args.inputs if parser)
        reports, params = args.run(args, parsed)
        header += _manifest_lines(params)
        for filename, body in reports.items():
            _write(args.out, filename, header, body)
        return 0
    except ValueError as exc:
        print(f"valex: error: {exc}", file=sys.stderr)
        return 1
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
