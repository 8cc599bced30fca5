"""Correctness checks of valex reports against the generator's references.

A report's body is its non-``#`` lines; manifests may gain lines later
without failing a check.  Each check returns a list of failure messages
(empty when the report is correct).  Reports with no reference of their own
are compared by body digest with digests recorded from an earlier commit,
when the seed has one recorded.
"""

from __future__ import annotations

import hashlib
from decimal import Decimal
from pathlib import Path

# Reports each command writes, relative to its output directory.
REPORTS = {
    "lex_parse": ("canonical.lex",),
    "lex_stats": ("stats.tsv",),
    "merge": ("merged.lex", "merge_report.tsv"),
    "freq": ("top_lemmas.tsv",),
    "check_ref": ("records.tsv", "failures.tsv"),
    "check_hyp": ("records.tsv", "failures.tsv"),
    "mine": ("suspects.tsv",),
    "eval_exact": ("eval_report.tsv",),
    "eval_overlap": ("eval_report.tsv",),
}

# Report parts with no reference of their own, which only a recorded body
# digest checks.
DIGEST_ONLY = {
    "merge/merged.lex": "the merged entries",
    "mine/suspects.tsv": "the suspicion scores",
    "eval_overlap/eval_report.tsv": "the overlap-mode constituent true positives",
}


def body(text: str) -> str:
    return "".join(line + "\n" for line in text.splitlines() if not line.startswith("#"))


def body_digest(text: str) -> str:
    return hashlib.sha256(body(text).encode("utf-8")).hexdigest()


def _first_difference(got: str, want: str) -> str:
    got_lines, want_lines = got.splitlines(), want.splitlines()
    for n, (g, w) in enumerate(zip(got_lines, want_lines), start=1):
        if g != w:
            return f"body line {n}: got {g!r}, expected {w!r}"
    return f"body has {len(got_lines)} lines, expected {len(want_lines)}"


def _check_suspects(text: str, reference: dict, n_forms: int) -> list[str]:
    """Rank order, row count and the failed-sentence counts and sample ids,
    which follow from the records alone."""
    rows = [line.split("\t") for line in body(text).splitlines()]
    failures = []
    if len(rows) != min(20, n_forms):
        failures.append(f"{len(rows)} suspects, expected {min(20, n_forms)}")
    previous = Decimal(1)
    for n, row in enumerate(rows, start=1):
        if len(row) != 5 or row[0] != str(n):
            failures.append(f"suspect row {n} malformed: {row!r}")
            continue
        _, form, score, failed, sample = row
        count, first = reference.get(form, (0, "-"))
        if (failed, sample) != (str(count), first):
            failures.append(f"suspect {form!r}: got {failed}/{sample}, expected {count}/{first}")
        if not Decimal(0) <= Decimal(score) <= previous:
            failures.append(f"suspect {form!r}: score {score} out of order or range")
        previous = Decimal(score)
    return failures


def _check_overlap(text: str, reference) -> list[str]:
    """Overlap mode moves only constituent true positives: gold and
    hypothesis counts, relations, coverage and the sentence count must
    match the exact-mode reference."""
    counts, fixed_rows = reference
    rows = body(text).splitlines()
    failures = [f"missing row {row!r}" for row in fixed_rows if row not in rows]
    for row in rows:
        fields = row.split("\t")
        if fields[0] == "constituent" and fields[1] in counts:
            if (int(fields[3]), int(fields[4])) != counts[fields[1]]:
                failures.append(f"constituent counts wrong in {row!r}")
    return failures


def check_report(key: str, text: str, generated) -> list[str]:
    """Check one report (key ``command/filename``) against the references."""
    failures = []
    want = generated.expected.get(key)
    if want is not None and body(text) != want:
        failures.append(_first_difference(body(text), want))
    partial = generated.partial
    if key == "merge/merge_report.tsv":
        if partial["merge_totals"] not in text.splitlines():
            failures.append(f"missing totals line {partial['merge_totals']!r}")
    elif key == "check_hyp/failures.tsv":
        missing = f"MISSING-LEMMA\t{partial['missing_lemma_frames']}"
        if missing not in text.splitlines():
            failures.append(f"MISSING-LEMMA count is not {partial['missing_lemma_frames']}")
    elif key == "mine/suspects.tsv":
        failures += _check_suspects(text, partial[key], partial["mine_forms"])
    elif key == "eval_overlap/eval_report.tsv":
        failures += _check_overlap(text, partial[key])
    return failures


def check_command(command: str, out_dir: Path, generated, recorded: dict | None):
    """Check every report of one command run.

    Returns (failures, digests) where digests maps each report key to its
    body digest; recorded, when given, maps report keys to the digests the
    bodies must have."""
    failures, digests = [], {}
    for name in REPORTS[command]:
        key = f"{command}/{name}"
        try:
            text = (out_dir / name).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            failures.append(f"{key}: unreadable: {exc}")
            continue
        digests[key] = body_digest(text)
        failures += [f"{key}: {message}" for message in check_report(key, text, generated)]
        if recorded is not None and recorded.get(key) not in (None, digests[key]):
            failures.append(f"{key}: body digest {digests[key][:16]} differs from the recorded one")
    return failures, digests
