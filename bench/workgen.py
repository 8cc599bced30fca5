"""Seeded input generator for the valex benchmark.

Standard library only, and independent of valex on purpose: it writes the
lexicon, corpus, annotation and frequency formats as text itself, so that a
change to valex's serializers (or to the test generators) cannot silently
change the benchmark's inputs.  Besides the inputs it computes, from its own
ground truth, the reference results the harness checks the reports against.

``generate(workload, seed, size, directory)`` writes the inputs of one
workload and returns a ``Generated`` record: input paths, their sha256, the
expected report bodies and the partial references for reports that have no
independent reference.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

WORKLOADS = ("lexicon", "diagnose", "eval")

# Input sizes.  "full" is the measured size; "tiny" serves the benchmark's
# own tests and the per-run generator canary.
SIZES = {
    "full": dict(
        lemmas=2500, shared=0.6, new_lemmas=500, forms_per_lemma=40,
        sentences=10000, eval_sentences=8000,
    ),
    "tiny": dict(
        lemmas=80, shared=0.6, new_lemmas=16, forms_per_lemma=6,
        sentences=400, eval_sentences=150,
    ),
}

BASE = ("Suj", "Obj", "Obja", "Objde")
OBLIQUE = ("Att", "Loc", "Dloc", "Obl", "Obl2")
REDISTRIBUTIONS = ("ACTIVE", "PASSIVE", "IMPERSONAL", "SE-MIDDLE", "OBJ-CLITICIZATION")
SUBJECT_EXEMPT = ("PASSIVE", "IMPERSONAL")
FAILURE_REASONS = (
    "MISSING-LEMMA", "UNCODED-ENTRY", "MISSING-REDISTRIBUTION",
    "MISSING-OBLIGATORY-COMPLEMENT", "UNKNOWN-CONSTRUCTION",
)
CONSTITUENT_TYPES = ("GN", "NV", "GA", "GR", "GP", "PV")
RELATION_TYPES = (
    "SUJ-V", "AUX-V", "COD-V", "CPL-V", "MOD-V", "COMP", "ATB-SO",
    "MOD-N", "MOD-A", "MOD-R", "MOD-P", "COORD", "APPOS", "JUXT",
)

_REALIZATIONS = {
    "Suj": ("NP", "CLITIC", "FINITE-CLAUSE", "INF-CLAUSE"),
    "Obj": ("NP", "CLITIC", "FINITE-CLAUSE", "INF-CLAUSE"),
    "Obja": ("PP(à)", "CLITIC"),
    "Objde": ("PP(de)", "CLITIC", "INF-CLAUSE"),
    "Att": ("NP", "PP(pour)", "PP(comme)"),
    "Loc": ("PP(à)", "PP(dans)", "PP(sur)", "PP(chez)", "CLITIC"),
    "Dloc": ("PP(de)", "PP(depuis)", "CLITIC"),
    "Obl": ("PP(à)", "PP(de)", "PP(sur)", "PP(avec)", "PP(contre)", "PP(vers)"),
    "Obl2": ("PP(à)", "PP(de)", "PP(par)", "PP(pour)"),
}
_ONSETS = ("b", "c", "ch", "d", "f", "g", "gr", "j", "l", "m", "n", "p", "pl", "r", "s", "t", "tr", "v")
_VOWELS = ("a", "e", "i", "o", "ou", "u", "é", "au", "an")
_ENDINGS = ("er", "ir", "re", "oir")
_FORM_ENDINGS = (
    "e", "es", "ons", "ez", "ent", "ais", "ait", "ions", "iez", "aient", "ai", "as",
    "a", "âmes", "èrent", "erai", "eras", "era", "erons", "erez", "eront", "erais",
    "erait", "é", "ée", "és", "ées", "ant", "isse", "isses", "ît", "issions",
    "issiez", "issent", "it", "is", "îmes", "u", "ue", "us",
)
_WORDS = (
    "le", "la", "les", "un", "une", "des", "chat", "chien", "porte", "maison", "toit",
    "mur", "qui", "que", "dort", "tombe", "mange", "donne", "parle", "vieux", "petit",
    "grand", "sur", "dans", "avec", "pour", "de", "à", "et", "ou", "il", "elle", "on",
    "très", "bien", "hier", "demain", "été", "œuvre", "rue", "ville", "pays", "eau",
)


class Slot(NamedTuple):
    function: str
    realizations: tuple[str, ...]
    optional: bool


class Entry(NamedTuple):
    lemma: str
    category: str
    entry_id: str
    frame: tuple[Slot, ...]
    redistributions: frozenset[str]
    coded: bool
    provenance: tuple[tuple[str, str], ...]
    examples: tuple[str, ...]


class Generated(NamedTuple):
    """Inputs of one workload plus the references to check reports with.

    files: input name -> path; digests: input name -> sha256 of its bytes;
    expected: report key -> exact expected body (non-``#`` lines);
    partial: report key -> reference for reports checked only in part.
    """

    files: dict[str, Path]
    digests: dict[str, str]
    expected: dict[str, str]
    partial: dict[str, object]


def _rng(workload: str, seed: int, size: str) -> random.Random:
    return random.Random(f"valex-bench/{workload}/{size}/{seed}")


def _lines(rows) -> str:
    return "".join(row + "\n" for row in rows)


def _write(directory: Path, name: str, text: str, files: dict, digests: dict) -> None:
    data = text.encode("utf-8")
    path = directory / name
    path.write_bytes(data)
    files[name] = path
    digests[name] = hashlib.sha256(data).hexdigest()


# --- lexicons ---------------------------------------------------------------


def _lemmas(rng: random.Random, n: int, taken: set[str]) -> list[str]:
    lemmas: list[str] = []
    while len(lemmas) < n:
        word = "".join(
            rng.choice(_ONSETS) + rng.choice(_VOWELS) for _ in range(rng.randint(1, 3))
        ) + rng.choice(_ENDINGS)
        if word not in taken:
            taken.add(word)
            lemmas.append(word)
    return lemmas


def _realizations(rng: random.Random, function: str) -> tuple[str, ...]:
    pool = _REALIZATIONS[function]
    return tuple(rng.sample(pool, min(len(pool), rng.choice((1, 1, 2, 2, 3)))))


def _redistributions(rng: random.Random, functions, coded: bool) -> frozenset[str]:
    chosen = {"ACTIVE"}
    has_obj = "Obj" in functions
    if rng.random() < (0.45 if has_obj else 0.05):
        chosen.add("PASSIVE")
    if coded:
        if rng.random() < 0.15:
            chosen.add("IMPERSONAL")
        if rng.random() < 0.2:
            chosen.add("SE-MIDDLE")
        if has_obj and rng.random() < 0.2:
            chosen.add("OBJ-CLITICIZATION")
    return frozenset(chosen)


def _entry(rng, lemma, category, entry_id, functions, coded, source, examples) -> Entry:
    frame = tuple(
        Slot(f, _realizations(rng, f), coded and f != "Suj" and rng.random() < 0.35)
        for f in functions
    )
    return Entry(
        lemma, category, entry_id, frame, _redistributions(rng, functions, coded), coded,
        ((source, str(rng.randrange(1, 100000))),),
        tuple(f"{rng.choice(_WORDS)} {lemma} {rng.choice(_WORDS)}" for _ in range(examples)),
    )


def _functions(rng: random.Random) -> list[str]:
    functions = ["Suj"] if rng.random() < 0.92 else []
    for function, p in (("Obj", 0.55), ("Obja", 0.2), ("Objde", 0.15)):
        if rng.random() < p:
            functions.append(function)
    functions.extend(rng.sample(OBLIQUE, rng.choice((0, 0, 0, 1, 1, 2))))
    return functions or ["Suj"]


# Entries per lemma, drawn uniformly from this tuple (mean 2.5).
_ENTRY_COUNTS = (1, 1, 1, 2, 2, 2, 3, 3, 4, 6)


def _reference_lexicon(rng: random.Random, n_lemmas: int, taken: set[str]) -> dict[str, list[Entry]]:
    lexicon: dict[str, list[Entry]] = {}
    for lemma in _lemmas(rng, n_lemmas, taken):
        category = "N-PRED" if rng.random() < 0.1 else "V"
        lexicon[lemma] = [
            _entry(rng, lemma, category, f"{lemma}.r{k}", _functions(rng), rng.random() < 0.9,
                   "lefff", rng.choice((0, 1, 1, 2)))
            for k in range(rng.choice(_ENTRY_COUNTS))
        ]
    return lexicon


def _slot_token(slot: Slot, realizations) -> str:
    return f"{slot.function}{'?' if slot.optional else ''}:{'|'.join(realizations)}"


def render_entry(entry: Entry, rng: random.Random | None = None) -> str:
    """One interchange-format line.  Without rng the line is canonical
    (realizations sorted, redistributions in inventory order); with rng both
    are shuffled, as a hand-edited file would have them."""
    slots = []
    for slot in entry.frame:
        realizations = sorted(slot.realizations)
        if rng is not None:
            rng.shuffle(realizations)
        slots.append(_slot_token(slot, realizations))
    redistributions = [r for r in REDISTRIBUTIONS if r in entry.redistributions]
    if rng is not None:
        rng.shuffle(redistributions)
    fields = [
        entry.lemma, entry.category, entry.entry_id, ";".join(slots), ",".join(redistributions),
        "coded" if entry.coded else "uncoded", ",".join(f"{s}:{i}" for s, i in entry.provenance),
        *entry.examples,
    ]
    return "\t".join(fields)


def render_lexicon(lexicon: dict[str, list[Entry]], rng: random.Random | None = None) -> str:
    """Canonical document without rng; shuffled lines and tokens with it."""
    entries = [e for lemma in sorted(lexicon) for e in sorted(lexicon[lemma], key=lambda e: e.entry_id)]
    if rng is None:
        return _lines(render_entry(e) for e in entries)
    rng.shuffle(entries)
    return "# generated lexicon, lines in random order\n\n" + _lines(render_entry(e, rng) for e in entries)


def _stats_body(lexicon: dict[str, list[Entry]]) -> str:
    counts = {lemma: len(group) for lemma, group in lexicon.items()}
    top = sorted(counts.items(), key=lambda item: (-item[1], item[0]))[:10]
    rows = [
        f"lemmas\t{len(counts)}",
        f"entries\t{sum(counts.values())}",
        f"max_entries_per_lemma\t{max(counts.values())}",
    ]
    rows.extend(f"top\t{rank}\t{lemma}\t{count}" for rank, (lemma, count) in enumerate(top, start=1))
    return _lines(rows)


def _other_entry(rng, model: Entry, entry_id: str, fuse: bool) -> Entry:
    """An other-side entry derived from a reference entry.  When fuse is set
    it keeps the base functions and a superset of the obliques; otherwise it
    toggles one base function or drops one oblique."""
    functions = [s.function for s in model.frame]
    if fuse:
        spare = [f for f in OBLIQUE if f not in functions]
        if spare and rng.random() < 0.4:
            functions.append(rng.choice(spare))
    else:
        obliques = [f for f in functions if f in OBLIQUE]
        if obliques and rng.random() < 0.5:
            functions.remove(rng.choice(obliques))
        else:
            toggled = rng.choice(BASE[1:])
            if toggled in functions:
                functions.remove(toggled)
            else:
                functions.append(toggled)
        functions = functions or ["Suj"]
    return _entry(rng, model.lemma, model.category, entry_id, functions, rng.random() < 0.9,
                  "dicovalence", rng.choice((0, 1)))


def _other_lexicon(rng, ref: dict[str, list[Entry]], shared: float, n_new: int, taken: set[str]):
    other: dict[str, list[Entry]] = {}
    lemmas = sorted(ref)
    for lemma in rng.sample(lemmas, round(shared * len(lemmas))):
        models = ref[lemma]
        n = rng.randint(1, len(models) + 1)
        fusing = rng.random() < 0.85
        other[lemma] = [
            _other_entry(rng, rng.choice(models), f"{lemma}.o{k}", fusing or k > 0)
            for k in range(n)
        ]
    for lemma in _lemmas(rng, n_new, taken):
        category = "N-PRED" if rng.random() < 0.1 else "V"
        other[lemma] = [
            _entry(rng, lemma, category, f"{lemma}.o{k}", _functions(rng), rng.random() < 0.9,
                   "dicovalence", 1)
            for k in range(rng.randint(1, 3))
        ]
    return other


def _masks(entry: Entry) -> tuple[int, int]:
    base = oblique = 0
    for slot in entry.frame:
        if slot.function in BASE:
            base |= 1 << BASE.index(slot.function)
        else:
            oblique |= 1 << OBLIQUE.index(slot.function)
    return base, oblique


def merge_oracle(ref: list[Entry], other: list[Entry]) -> int:
    """Greedy bitmask oracle for one lemma's merged entry count.

    Reference entries in id order each absorb every unconsumed other entry
    (id order) with equal base functions and a superset of obliques."""
    ref_masks = [_masks(e) for e in sorted(ref, key=lambda e: e.entry_id)]
    other_masks = [_masks(e) for e in sorted(other, key=lambda e: e.entry_id)]
    consumed = [False] * len(other_masks)
    for base, oblique in ref_masks:
        for j, (obase, ooblique) in enumerate(other_masks):
            if not consumed[j] and base == obase and oblique & ~ooblique == 0:
                consumed[j] = True
    return len(ref_masks) + consumed.count(False)


def _merge_report(ref, other) -> tuple[str, str]:
    rows = []
    entries = flagged = flagged_entries = 0
    lemmas = sorted(set(ref) | set(other))
    for lemma in lemmas:
        r, o = ref.get(lemma, []), other.get(lemma, [])
        merged = merge_oracle(r, o)
        flag = merged > max(len(r), len(o))
        rows.append(f"{lemma}\t{len(r)}\t{len(o)}\t{merged}\t{'yes' if flag else 'no'}")
        entries += merged
        flagged += flag
        flagged_entries += merged if flag else 0
    totals = (
        f"#TOTALS lemmas={len(lemmas)} entries={entries} "
        f"flagged_lemmas={flagged} flagged_entries={flagged_entries}"
    )
    return _lines(rows), totals


# --- frequency table --------------------------------------------------------


def _frequencies(rng, lemmas: list[str], per_lemma: int):
    popularity = lemmas[:]
    rng.shuffle(popularity)
    seen: set[str] = set()
    table, mapping = [], []
    counts: Counter = Counter()
    for rank, lemma in enumerate(popularity):
        stem = lemma[:-3] if lemma.endswith("oir") else lemma[:-2]
        for ending in rng.sample(_FORM_ENDINGS, per_lemma):
            form = stem + ending
            if form in seen:
                continue
            seen.add(form)
            count = 1 + int(rng.random() * 2_000_000 / (rank + 1))
            table.append(f"{form}\t{count}")
            if rng.random() < 0.95:
                mapping.append(f"{form}\t{lemma}")
                counts[lemma] += count
    rng.shuffle(table)
    rng.shuffle(mapping)
    top = sorted(counts.items(), key=lambda item: (-item[1], item[0]))[:100]
    body = _lines(f"{rank}\t{lemma}\t{count}" for rank, (lemma, count) in enumerate(top, start=1))
    return _lines(table), _lines(mapping), body


# --- checking corpus --------------------------------------------------------


# Entry counts of the 100 most popular lemmas, cycled over their ranks: the
# reference lexicon's own distribution of entries per lemma, most ambiguous
# first, since the most frequent verbs are the most ambiguous.
_TOP_ENTRY_COUNTS = tuple(sorted(_ENTRY_COUNTS, reverse=True))


def _zipf_order(rng, lexicon: dict[str, list[Entry]]) -> tuple[list[str], list[float]]:
    """Lemmas by popularity, with cumulative Zipf weights.  The 100 top
    ranks, which carry about 60% of the frames, take their entry counts from
    _TOP_ENTRY_COUNTS, so that the checker's work hardly depends on the
    seed; a lexicon short of some count (the tiny size) fills fewer ranks."""
    order = sorted(lexicon)
    rng.shuffle(order)
    pools: dict[int, list[str]] = {}
    for lemma in order:
        pools.setdefault(len(lexicon[lemma]), []).append(lemma)
    top = []
    for rank in range(100):
        pool = pools.get(_TOP_ENTRY_COUNTS[rank % len(_TOP_ENTRY_COUNTS)])
        if not pool:
            break
        top.append(pool.pop(0))
    chosen = set(top)
    order = top + [lemma for lemma in order if lemma not in chosen]
    cumulative, total = [], 0.0
    for rank in range(len(order)):
        total += 1.0 / (rank + 1)
        cumulative.append(total)
    return order, cumulative


def _observe(rng, entry: Entry) -> tuple[str, tuple[tuple[str, str], ...]]:
    """A frame drawn from the entry in one of its licensed contexts."""
    context = rng.choice([r for r in REDISTRIBUTIONS if r in entry.redistributions])
    slots = []
    for slot in entry.frame:
        if slot.optional and rng.random() < 0.5:
            continue
        if slot.function == "Suj" and context in SUBJECT_EXEMPT and rng.random() < 0.5:
            continue
        slots.append((slot.function, rng.choice(slot.realizations)))
    rng.shuffle(slots)
    return context, tuple(slots)


def _plant_defects(ref: dict[str, list[Entry]], zipf_order: list[str]) -> tuple[dict, set[str]]:
    """The hypothesis lexicon: the four defect kinds on 15% of the lemmas.

    Defect positions are fixed Zipf ranks (3 in every 20), so the share of
    corpus frames that meet a defect hardly depends on the seed.  Kinds
    rotate: lemma deleted, lemma uncoded, PASSIVE dropped, first optional
    slot of each entry made obligatory; a lemma without PASSIVE or without
    an optional slot is deleted instead."""
    hyp = {lemma: list(group) for lemma, group in ref.items()}
    deleted: set[str] = set()
    defects = [lemma for rank, lemma in enumerate(zipf_order) if rank % 20 in (3, 10, 16)]
    for k, lemma in enumerate(defects):
        group = hyp[lemma]
        kind = k % 4
        if kind == 1:
            hyp[lemma] = [
                e._replace(coded=False, frame=tuple(s._replace(optional=False) for s in e.frame))
                for e in group
            ]
        elif kind == 2 and any("PASSIVE" in e.redistributions for e in group):
            hyp[lemma] = [e._replace(redistributions=e.redistributions - {"PASSIVE"}) for e in group]
        elif kind == 3 and any(s.optional for e in group for s in e.frame):
            hyp[lemma] = [_first_optional_obligatory(e) for e in group]
        else:
            del hyp[lemma]
            deleted.add(lemma)
    return hyp, deleted


def _first_optional_obligatory(entry: Entry) -> Entry:
    frame = list(entry.frame)
    for i, slot in enumerate(frame):
        if slot.optional:
            frame[i] = slot._replace(optional=False)
            break
    return entry._replace(frame=tuple(frame))


def _clauses(entry: Entry, context: str, slots) -> tuple[bool, bool, bool]:
    """The documented acceptance test: (a) every observed slot is in the
    frame with that realization; (b) every obligatory slot is observed
    (all slots of uncoded entries, Suj exempt under PASSIVE/IMPERSONAL);
    (c) the context is licensed."""
    by_function = {s.function: s for s in entry.frame}
    a = all(f in by_function and r in by_function[f].realizations for f, r in slots)
    observed = {f for f, _ in slots}
    b = all(
        s.function in observed
        for s in entry.frame
        if (not entry.coded or not s.optional)
        and not (s.function == "Suj" and context in SUBJECT_EXEMPT)
    )
    return a, b, context in entry.redistributions


def _verdict(lexicon: dict[str, list[Entry]], lemma: str, context: str, slots) -> str | None:
    """None when the frame is accepted, else its documented failure reason."""
    entries = lexicon.get(lemma)
    if not entries:
        return "MISSING-LEMMA"
    clauses = [_clauses(e, context, slots) for e in entries]
    if any(all(c) for c in clauses):
        return None
    if not any(e.coded for e in entries):
        return "UNCODED-ENTRY"
    if any(a and b and not c for a, b, c in clauses):
        return "MISSING-REDISTRIBUTION"
    if any(a and c and not b for a, b, c in clauses):
        return "MISSING-OBLIGATORY-COMPLEMENT"
    return "UNKNOWN-CONSTRUCTION"


def _mine_reference(sentences, hyp_failed: list[bool]) -> dict[str, tuple[int, str]]:
    """form -> (failed sentences containing it, first such sentence id)."""
    reference: dict[str, tuple[int, str]] = {}
    for (sentence_id, forms), failed in zip(sentences, hyp_failed):
        if not failed:
            continue
        for form in set(forms):
            count, sample = reference.get(form, (0, sentence_id))
            reference[form] = (count + 1, sample)
    return reference


def _diagnose(rng, size, directory, files, digests, expected, partial):
    taken: set[str] = set()
    ref = _reference_lexicon(rng, size["lemmas"], taken)
    order, cumulative = _zipf_order(rng, ref)
    hyp, deleted = _plant_defects(ref, order)
    lines, sentences = [], []
    ref_histogram: Counter = Counter()
    hyp_histogram: Counter = Counter()
    hyp_failed = []
    for n in range(size["sentences"]):
        sentence_id = f"s{n:06d}"
        lemmas = rng.choices(order, cum_weights=cumulative, k=rng.choice((1, 2, 2, 3, 3, 4)))
        failed = False
        for lemma in lemmas:
            context, slots = _observe(rng, rng.choice(ref[lemma]))
            lines.append(f"{sentence_id}\t{lemma}\t{context}\t{';'.join(f'{f}:{r}' for f, r in slots)}")
            ref_reason = _verdict(ref, lemma, context, slots)
            if ref_reason is not None:
                ref_histogram[ref_reason] += 1
            reason = _verdict(hyp, lemma, context, slots)
            if reason is not None:
                hyp_histogram[reason] += 1
                failed = True
        sentences.append((sentence_id, lemmas))
        hyp_failed.append(failed)
    _write(directory, "ref.lex", render_lexicon(ref, rng), files, digests)
    _write(directory, "hyp.lex", render_lexicon(hyp, rng), files, digests)
    _write(directory, "corpus.tsv", _lines(lines), files, digests)
    expected["check_ref/records.tsv"] = _lines(
        f"{sid}\tok\t{','.join(lemmas)}" for sid, lemmas in sentences
    )
    expected["check_ref/failures.tsv"] = _lines(f"{r}\t{ref_histogram[r]}" for r in FAILURE_REASONS)
    expected["check_hyp/records.tsv"] = _lines(
        f"{sid}\t{'failed' if failed else 'ok'}\t{','.join(lemmas)}"
        for (sid, lemmas), failed in zip(sentences, hyp_failed)
    )
    expected["check_hyp/failures.tsv"] = _lines(f"{r}\t{hyp_histogram[r]}" for r in FAILURE_REASONS)
    partial["missing_lemma_frames"] = sum(1 for line in lines if line.split("\t")[1] in deleted)
    partial["mine/suspects.tsv"] = _mine_reference(sentences, hyp_failed)
    partial["mine_forms"] = len({form for _, lemmas in sentences for form in lemmas})


def _lexicon(rng, size, directory, files, digests, expected, partial):
    taken: set[str] = set()
    ref = _reference_lexicon(rng, size["lemmas"], taken)
    other = _other_lexicon(rng, ref, size["shared"], size["new_lemmas"], taken)
    table, mapping, top_body = _frequencies(rng, sorted(ref), size["forms_per_lemma"])
    _write(directory, "ref.lex", render_lexicon(ref, rng), files, digests)
    _write(directory, "other.lex", render_lexicon(other, rng), files, digests)
    _write(directory, "freq.tsv", table, files, digests)
    _write(directory, "lemma_map.tsv", mapping, files, digests)
    expected["lex_parse/canonical.lex"] = render_lexicon(ref)
    expected["lex_stats/stats.tsv"] = _stats_body(ref)
    expected["merge/merge_report.tsv"], partial["merge_totals"] = _merge_report(ref, other)
    expected["freq/top_lemmas.tsv"] = top_body


# --- annotations ------------------------------------------------------------


def _gold_sentence(rng):
    n = rng.randint(2, 12)
    tokens = [rng.choice(_WORDS) for _ in range(n)]
    constituents = []
    for _ in range(rng.randint(1, 5)):
        start = rng.randrange(n)
        constituents.append((rng.choice(CONSTITUENT_TYPES), start, min(n, start + rng.randint(1, 4))))
    relations = []
    for _ in range(rng.randint(1, 5)):
        src, tgt = rng.sample(range(n), 2)
        relations.append((rng.choice(RELATION_TYPES), src, tgt))
    return tokens, constituents, relations


def _hyp_sentence(rng, n, constituents, relations):
    hyp_constituents = []
    for ctype, start, end in constituents:
        r = rng.random()
        if r < 0.72:
            hyp_constituents.append((ctype, start, end))
        elif r < 0.84:
            if end - start > 1 and rng.random() < 0.5:
                hyp_constituents.append((ctype, start + 1, end))
            else:
                hyp_constituents.append((ctype, start, min(n, end + 1)) if end < n else (ctype, max(0, start - 1), end))
        elif r < 0.90:
            hyp_constituents.append((rng.choice(CONSTITUENT_TYPES), start, end))
    for _ in range(rng.choice((0, 0, 1, 2))):
        start = rng.randrange(n)
        hyp_constituents.append((rng.choice(CONSTITUENT_TYPES), start, min(n, start + rng.randint(1, 3))))
    hyp_relations = []
    for rtype, src, tgt in relations:
        r = rng.random()
        if r < 0.75:
            hyp_relations.append((rtype, src, tgt))
        elif r < 0.88:
            hyp_relations.append((rng.choice(RELATION_TYPES), src, tgt))
        elif r < 0.95:
            new_tgt = rng.randrange(n)
            if new_tgt != src:
                hyp_relations.append((rtype, src, new_tgt))
    return hyp_constituents, hyp_relations


def _render_sentence(sentence_id, full, tokens, constituents, relations) -> list[str]:
    lines = [f'<S id="{sentence_id}" full="{"yes" if full else "no"}">']
    lines.extend(f'  <W ix="{ix}">{token}</W>' for ix, token in enumerate(tokens))
    lines.extend(f'  <G type="{t}" start="{s}" end="{e}"/>' for t, s, e in constituents)
    lines.extend(f'  <R type="{t}" src="{s}" tgt="{g}"/>' for t, s, g in relations)
    lines.append("</S>")
    return lines


def format_percent(ratio: Fraction) -> str:
    """Percentage with two decimals, rounding half away from zero."""
    q = ratio * 10000
    units = (2 * q.numerator + q.denominator) // (2 * q.denominator)
    whole, part = divmod(units, 100)
    return f"{whole}.{part:02d}"


def _prf(tp: int, gold: int, hyp: int) -> tuple[Fraction, Fraction, Fraction]:
    p = Fraction(tp, hyp) if hyp else Fraction(1)
    r = Fraction(tp, gold) if gold else Fraction(1)
    f = Fraction(0) if p + r == 0 else 2 * p * r / (p + r)
    return p, r, f


def score_row(kind: str, label: str, tp: int, gold: int, hyp: int) -> str:
    return "\t".join([kind, label, str(tp), str(gold), str(hyp), *map(format_percent, _prf(tp, gold, hyp))])


def _eval_body(n_sentences, covered, ctp, cgold, chyp, rtp, rgold, rhyp) -> str:
    def total(counter):
        return sum(counter.values())

    rows = [
        f"summary\tsentences\t{n_sentences}",
        f"summary\tcoverage_count\t{covered}",
        f"summary\tcoverage_pct\t{format_percent(Fraction(covered, n_sentences))}",
        f"summary\tconstituents_f\t{format_percent(_prf(total(ctp), total(cgold), total(chyp))[2])}",
        f"summary\trelations_f\t{format_percent(_prf(total(rtp), total(rgold), total(rhyp))[2])}",
        score_row("constituent", "ALL", total(ctp), total(cgold), total(chyp)),
    ]
    rows.extend(score_row("constituent", t, ctp[t], cgold[t], chyp[t]) for t in CONSTITUENT_TYPES)
    rows.append(score_row("relation", "ALL", total(rtp), total(rgold), total(rhyp)))
    rows.extend(score_row("relation", t, rtp[t], rgold[t], rhyp[t]) for t in RELATION_TYPES)
    return _lines(rows)


def _eval(rng, size, directory, files, digests, expected, partial):
    gold_lines, hyp_lines = [], []
    ctp, cgold, chyp, rtp, rgold, rhyp = (Counter() for _ in range(6))
    covered = 0
    n_sentences = size["eval_sentences"]
    for k in range(n_sentences):
        sentence_id = f"e{k:06d}"
        tokens, constituents, relations = _gold_sentence(rng)
        hyp_constituents, hyp_relations = _hyp_sentence(rng, len(tokens), constituents, relations)
        hyp_full = rng.random() < 0.8
        covered += hyp_full
        gold_lines += _render_sentence(sentence_id, rng.random() < 0.9, tokens, constituents, relations)
        hyp_lines += _render_sentence(sentence_id, hyp_full, tokens, hyp_constituents, hyp_relations)
        for (t, _, _), n in (Counter(constituents) & Counter(hyp_constituents)).items():
            ctp[t] += n
        for (t, _, _), n in (Counter(relations) & Counter(hyp_relations)).items():
            rtp[t] += n
        cgold.update(t for t, _, _ in constituents)
        chyp.update(t for t, _, _ in hyp_constituents)
        rgold.update(t for t, _, _ in relations)
        rhyp.update(t for t, _, _ in hyp_relations)
    _write(directory, "gold.xml", _lines(gold_lines), files, digests)
    _write(directory, "hyp.xml", _lines(hyp_lines), files, digests)
    expected["eval_exact/eval_report.tsv"] = _eval_body(n_sentences, covered, ctp, cgold, chyp, rtp, rgold, rhyp)
    # Overlap mode changes only constituent true positives; every other
    # figure must equal the exact-mode reference.
    partial["eval_overlap/eval_report.tsv"] = (
        {t: (cgold[t], chyp[t]) for t in CONSTITUENT_TYPES},
        [row for row in expected["eval_exact/eval_report.tsv"].splitlines()
         if row.startswith(("relation\t", "summary\tsentences", "summary\tcoverage", "summary\trelations_f"))],
    )


_GENERATORS = {"lexicon": _lexicon, "diagnose": _diagnose, "eval": _eval}


def generate(workload: str, seed: int, size: str, directory: Path) -> Generated:
    """Write the inputs of one workload into directory (which must exist)."""
    files: dict[str, Path] = {}
    digests: dict[str, str] = {}
    expected: dict[str, str] = {}
    partial: dict[str, object] = {}
    _GENERATORS[workload](_rng(workload, seed, size), SIZES[size], directory, files, digests, expected, partial)
    return Generated(files, digests, expected, partial)
