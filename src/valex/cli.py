"""Command-line front end.

Subcommands: ``lex parse``, ``lex stats``, ``merge``, ``check``, ``eval``,
``mine``, ``freq``.  Every report is tab-separated UTF-8: a body written
by one function of the domain module it reports, under ``#`` header lines
recording the run manifest (tool version, input paths and parameters).
Reports go to stdout, or into the directory given with ``--out``, where
all of a command's reports are written, then renamed into place together.
"""

from __future__ import annotations

import argparse
import codecs
import collections
import contextlib
import functools
import gc
import importlib.util
import itertools
import os
import sys
from pathlib import Path

from . import __version__
from .errors import BLOCK, FormatError, text_blocks
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


def _read_file(path: str, parser):
    """Yield what parser yields from a UTF-8 file, less a leading BOM,
    given its text decoded a block at a time; failures name the file and
    line.

    codecs.iterdecode decodes the file's BLOCK-byte reads as the parser
    draws them, so no whole file is held as bytes or as text.  It decodes
    plain utf-8, and one BOM is dropped from the first text after: lines
    end at LF only, not at every universal newline, and a file cut after
    EF or EF BB fails, which utf-8-sig would read as empty.  An
    undecodable byte is reported before any parse error, as a whole-file
    decode would, and with the whole-file decode's message, which gives its
    file offset (utf-8-sig would count from after the BOM).  The file is
    closed before any error leaves, and when the generator is closed.
    """
    try:
        with open(path, "rb") as handle:
            blocks = codecs.iterdecode(iter(functools.partial(handle.read, BLOCK), b""), "utf-8")
            try:
                try:
                    yield from parser(itertools.chain([next(blocks, "").removeprefix("\ufeff")], blocks))
                except FormatError as exc:
                    collections.deque(blocks, maxlen=0)  # an undecodable byte further on is reported instead
                    location = f"{path}:{exc.line}" if exc.line is not None else path
                    raise ValueError(f"{location}: {exc.message}") from exc
            except UnicodeDecodeError:  # its position counts from the failed read: decode again whole
                handle.seek(0)
                handle.read().decode("utf-8")
                raise
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc


def _parse_file(path: str, parser):
    """parser's value for a whole file, read by _read_file's rules.  Every
    command but eval reads each of its inputs so, in argument order."""
    (value,) = _read_file(path, lambda blocks: [parser(blocks)])
    return value


def _sentence_pairs(gold: str, hyp: str):
    """Yield (gold, hypothesis) pairs of the sentences of two passage files,
    read at once, a sentence of each at a time; None past the end of the
    shorter.  Errors come in argument order, as if each file were parsed
    whole in turn: on the hypothesis file's own error, the gold file is
    read to its end first, and its own error, if any, is raised instead; a
    file with no sentence fails once both are read."""
    n_gold = n_hyp = 0
    with contextlib.closing(_read_file(gold, markup.iter_passage)) as golds, \
            contextlib.closing(_read_file(hyp, markup.iter_passage)) as hyps:
        for g in golds:
            try:
                h = next(hyps, None)
            except ValueError:
                collections.deque(golds, maxlen=0)  # each sentence is dropped as it is built
                raise
            n_gold, n_hyp = n_gold + 1, n_hyp + (h is not None)
            yield g, h
        for h in hyps:
            n_hyp += 1
            yield None, h
    for path, n in ((gold, n_gold), (hyp, n_hyp)):
        if not n:
            raise ValueError(f"{path}: no <S> sentence to evaluate")


def _write(out_dir: str | None, header: list[str], reports: dict) -> None:
    """Each report of reports, {filename: body}, as the header lines plus
    its body, a str or text blocks: to stdout in turn when out_dir is None,
    else into out_dir, where every report is written to a temporary file
    before any is renamed into place, and on any error every temporary file
    is unlinked, so that none of the reports lands.  A body goes a block at
    a time: no copy of a whole report is made, as text or as bytes."""
    head = "".join(line + "\n" for line in header)
    if out_dir is None:
        try:
            for body in reports.values():
                text = itertools.chain([head], text_blocks(body))
                if hasattr(sys.stdout, "buffer"):  # UTF-8 whatever the locale, as --out writes
                    sys.stdout.flush()
                    for block in text:
                        sys.stdout.buffer.write(block.encode("utf-8"))
                else:  # a text-only stream, such as io.StringIO
                    for block in text:
                        sys.stdout.write(block)
                sys.stdout.flush()
        except OSError as exc:  # a full disk, a closed pipe
            with contextlib.suppress(OSError):  # drop what is still buffered, or exit fails on it again
                sys.stdout.close()
            raise ValueError(f"cannot write stdout: {exc.strerror or exc}") from exc
        return
    staged: list[tuple[Path, Path]] = []  # (temporary file, report file)
    try:
        try:
            for filename, body in reports.items():
                target = Path(out_dir) / filename
                target.parent.mkdir(parents=True, exist_ok=True)
                # created 0o666 less the umask, as a shell redirection creates a file
                # (mkstemp would give 0o600); O_EXCL refuses a name another run holds
                tmp_path = target.with_name(f"{filename}.{os.urandom(6).hex()}")
                fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
                staged.append((tmp_path, target))
                with os.fdopen(fd, "wb") as handle:
                    for block in itertools.chain([head], text_blocks(body)):
                        handle.write(block.encode("utf-8"))
            for tmp_path, target in staged:
                os.replace(tmp_path, target)
        except BaseException:
            for tmp_path, _ in staged:
                tmp_path.unlink(missing_ok=True)  # gone once renamed, if a later rename fails
            raise
    except OSError as exc:
        raise ValueError(f"cannot write {target}: {exc.strerror or exc}") from exc


def _across(args, function, *call_args):
    """function(*call_args) on both inputs, parsed by then; its ValueError names both files."""
    first, second = (getattr(args, name) for name in args.inputs)
    try:
        return function(*call_args)
    except ValueError as exc:
        raise ValueError(f"{first} vs {second}: {exc}") from exc


def _lex_parse(args):
    return {"canonical.lex": lexicon.serialize_lexicon(_parse_file(args.lexicon, lexicon.parse_lexicon))}, ()


def _lex_stats(args):
    stats = lexicon.lexicon_stats(_parse_file(args.lexicon, lexicon.parse_lexicon))
    return {"stats.tsv": lexicon.serialize_stats(stats)}, ()


def _merge(args):
    merged, report = _across(args, merge.merge_lexicons, _parse_file(args.ref, lexicon.parse_lexicon),
                             _parse_file(args.other, lexicon.parse_lexicon))
    reports = {"merged.lex": lexicon.serialize_lexicon(merged), "merge_report.tsv": merge.serialize_merge_report(report)}
    return reports, ()


def _check(args):
    records, histogram = checker.diagnose_corpus(_parse_file(args.lexicon, lexicon.parse_lexicon),
                                                 _parse_file(args.corpus, checker.parse_corpus))
    reports = {"records.tsv": mining.serialize_records(records), "failures.tsv": checker.serialize_failures(histogram)}
    return reports, ()


def _eval(args):
    mode = RelaxationMode(args.mode)
    try:  # each file's own error, or its lack of sentences, is raised as the pairs are drawn
        scores, covered = passage.score_pairs(_sentence_pairs(args.gold, args.hyp), mode)
    except passage.Misaligned as exc:  # the sentence ids or token counts differ
        raise ValueError(f"{args.gold} vs {args.hyp}: {exc}") from exc
    return {"eval_report.tsv": passage.serialize_eval_report(scores, covered)}, (("mode", mode.value),)


def _mine(args):
    if args.top_k < 1:  # rank_suspects refuses it too, but only after the fixed point
        raise ValueError("top_k must be at least 1")
    params = mining.MiningParams(epsilon=args.epsilon, max_iterations=args.max_iter)
    records = (_parse_file(path, mining.parse_records) for path in (args.ref_records, args.hyp_records))
    result = _across(args, mining.compute_suspicion, _across(args, mining.build_mining_corpus, *records), params)
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


def _freq(args):
    if args.n < 1:  # rank_lemmas refuses it too, but only after every input is read
        raise ValueError("n must be at least 1")
    # the map is read through the fold, with the table bound, so no form-to-lemma dict is held
    table = _parse_file(args.freq_table, freq.parse_frequency_table)
    counts, unmapped = _parse_file(args.lemma_map, functools.partial(freq.lemma_counts, table))
    report = freq.serialize_top_lemmas(counts, args.n)
    if unmapped:
        print(f"valex: warning: {unmapped} unmapped forms ignored", file=sys.stderr)
    return {"top_lemmas.tsv": report}, (("n", str(args.n)),)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="valex", description=__doc__)
    parser.add_argument("--version", action="version", version=f"valex {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    lex = sub.add_parser("lex", help="inspect a lexicon file")
    lex_sub = lex.add_subparsers(dest="lex_command", required=True)

    def command(parent, name, help, run, inputs, out_required=False):
        """Register a command: its positional input names, whether --out is
        required, and its run function, which takes the arguments, checks
        its flags, reads and parses each input with _parse_file in argument
        order, so that flags fail before any read, and returns
        ({filename: body}, manifest params).  eval draws from both inputs
        at once through _read_file, and reports errors in argument order as
        well (see _sentence_pairs)."""
        subparser = parent.add_parser(name, help=help)
        for input_name in inputs:
            subparser.add_argument(input_name)
        out_help = "output directory" if out_required else "output directory (default stdout)"
        subparser.add_argument("--out", required=out_required, help=out_help)
        subparser.set_defaults(run=run, inputs=inputs)
        return subparser

    command(lex_sub, "parse", "validate and re-emit canonical form", _lex_parse, ("lexicon",))
    command(lex_sub, "stats", "lemma/entry counts and ambiguity top list", _lex_stats, ("lexicon",))
    command(sub, "merge", "merge two lexicons", _merge, ("ref", "other"), out_required=True)
    command(sub, "check", "check an observed-frame corpus against a lexicon", _check,
            ("lexicon", "corpus"), out_required=True)
    evaluate = command(sub, "eval", "score hypothesis annotations against gold", _eval, ("gold", "hyp"))
    evaluate.add_argument("--mode", choices=[m.value for m in RelaxationMode], default="exact")
    mine = command(sub, "mine", "mine suspicious forms from two record files", _mine, ("ref_records", "hyp_records"))
    mine.add_argument("--epsilon", type=float, default=1e-9)
    mine.add_argument("--max-iter", type=int, default=200)
    mine.add_argument("--top-k", type=int, default=20)
    top = command(sub, "freq", "most frequent lemmas from a form frequency table", _freq, ("freq_table", "lemma_map"))
    top.add_argument("--n", type=int, default=100)
    return parser


def main(argv=None) -> int:
    """Run the command, which reads its own inputs, and write each report it
    returns under one manifest: the inputs by argument name, then its
    parameters."""
    args = _build_parser().parse_args(argv)
    # A command builds an acyclic model and exits, so the cyclic collector
    # would only re-scan it; the caller's setting is restored on return.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        # a path that its manifest line cannot hold fails before any read
        header = [f"# valex {__version__}", *_manifest_lines([(f"input {n}", getattr(args, n)) for n in args.inputs])]
        reports, params = args.run(args)
        _write(args.out, header + _manifest_lines(params), reports)
        return 0
    except ValueError as exc:
        print(f"valex: error: {exc}", file=sys.stderr)
        return 1
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
