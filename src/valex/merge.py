"""Heuristic fusion of two valence lexicons.

Entries of a shared lemma are matched on their function signatures: a
reference entry matches another entry when both subcategorize exactly the
same base functions (BASE_FUNCTIONS) and the reference's oblique functions
(OBLIQUE_FUNCTIONS) are included in the other's.  That one predicate, on
the entries' function masks, is inline in merge_lemma.  Matching is
directional; the reference side is the one being enriched.

Per lemma, the merge walks reference entries in order and fuses each with
every not-yet-consumed matching entry from the other side; leftovers on
either side are copied verbatim.  A lemma whose merged entry count exceeds
both input counts is flagged for manual validation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

from .errors import write_rows
from .lexicon import FUNCTION_BIT, FunctionSlot, LexicalEntry, Lexicon, SyntacticFunction

# Total, disjoint classification: every function is base or oblique.
BASE_FUNCTIONS = frozenset(
    {SyntacticFunction.SUJ, SyntacticFunction.OBJ, SyntacticFunction.OBJA, SyntacticFunction.OBJDE}
)
OBLIQUE_FUNCTIONS = frozenset(SyntacticFunction) - BASE_FUNCTIONS
_BASE = sum(FUNCTION_BIT[f] for f in BASE_FUNCTIONS)  # the base functions' bits of a function_mask


@dataclass(frozen=True, slots=True)
class MergedLemmaResult:
    """Outcome of merging one lemma's entries from two lexicons."""

    lemma: str
    entries: tuple[LexicalEntry, ...]
    needs_validation: bool
    ref_count: int
    other_count: int
    merged_count: int

    def __post_init__(self):
        # One ref entry may absorb several other entries, so the merged
        # count can drop below the larger side; it never drops below the
        # smaller one, and flagging keys on strict excess over the larger.
        low = min(self.ref_count, self.other_count)
        high = self.ref_count + self.other_count
        if not (low <= self.merged_count <= high):
            raise ValueError(
                f"merged count {self.merged_count} outside [{low}, {high}] for {self.lemma}"
            )
        if self.needs_validation != (self.merged_count > max(self.ref_count, self.other_count)):
            raise ValueError(f"validation flag inconsistent for {self.lemma}")


@dataclass(frozen=True, slots=True)
class MergeReport:
    """Per-lemma merge outcomes; totals are recomputed on demand."""

    results: tuple[MergedLemmaResult, ...]

    @property
    def total_lemmas(self) -> int:
        return len(self.results)

    @property
    def total_entries(self) -> int:
        return sum(r.merged_count for r in self.results)

    @property
    def flagged_lemmas(self) -> int:
        return sum(1 for r in self.results if r.needs_validation)

    @property
    def flagged_entries(self) -> int:
        return sum(r.merged_count for r in self.results if r.needs_validation)


def _fuse(ref: LexicalEntry, absorbed: list[LexicalEntry]) -> LexicalEntry:
    """Fuse a reference entry with the other-side entries it matched.

    The fused frame carries the union of slots, keeping the other side's
    slot order (it is the superset side); realizations are unioned and a
    slot is optional as soon as one source says so.  A slot that a later
    source does not widen is kept as it is.
    """
    slots: dict = {}
    for source in [*absorbed, ref]:
        for slot in source.frame:
            seen = slots.get(slot.function)
            if seen is None:
                slots[slot.function] = slot
            elif not (slot.realizations <= seen.realizations and seen.optional >= slot.optional):
                slots[slot.function] = FunctionSlot(
                    slot.function, seen.realizations | slot.realizations, seen.optional or slot.optional
                )
    frame = tuple(slots.values())
    redistributions = ref.redistributions.union(*(o.redistributions for o in absorbed))
    examples: list[str] = []
    for source in [ref, *absorbed]:
        for example in source.examples:
            if example not in examples:
                examples.append(example)
    provenance = ref.provenance + tuple(p for o in absorbed for p in o.provenance)
    return LexicalEntry(
        lemma=ref.lemma,
        category=ref.category,
        entry_id=ref.entry_id,
        frame=frame,
        redistributions=redistributions,
        coded=ref.coded or any(o.coded for o in absorbed),
        provenance=provenance,
        examples=tuple(examples),
    )


def merge_lemma(ref_entries, other_entries) -> MergedLemmaResult:
    """Merge the two entry lists of one lemma.

    Greedy in reference order: each reference entry absorbs every
    not-yet-consumed matching other entry; unmatched entries on either
    side are copied verbatim.
    """
    ref_entries = list(ref_entries)
    other_entries = list(other_entries)
    ref_count, other_count = len(ref_entries), len(other_entries)
    both = ref_entries + other_entries
    if not both:
        raise ValueError("no entries to merge")
    lemma, category = both[0].lemma, both[0].category
    for e in both:
        if e.lemma != lemma or e.category != category:
            raise ValueError(f"mixed lemmas or categories: {sorted({e.lemma for e in both})}")

    # Other-side entries not yet absorbed, in their original order.
    unconsumed = other_entries
    merged: list[LexicalEntry] = []
    for ref in ref_entries:
        r = ref.function_mask
        absorbed, kept = [], []
        for other in unconsumed:
            o = other.function_mask
            if not (r ^ o) & _BASE and not r & ~o:  # equal bases, and r's obliques within o's
                absorbed.append(other)
            else:
                kept.append(other)
        merged.append(_fuse(ref, absorbed) if absorbed else ref)
        unconsumed = kept
    merged.extend(unconsumed)

    merged_count = len(merged)
    return MergedLemmaResult(
        lemma=lemma,
        entries=tuple(merged),
        needs_validation=merged_count > max(ref_count, other_count),
        ref_count=ref_count,
        other_count=other_count,
        merged_count=merged_count,
    )


def merge_lexicons(ref: Lexicon, other: Lexicon) -> tuple[Lexicon, MergeReport]:
    """Merge every lemma of both lexicons; lemmas are the set union.

    Reference ids are kept, and so is every other-side id that no reference
    entry bears.  An other-side id that a reference entry bears gets the
    first ``~n`` suffix (n >= 2) that no input entry on either side bears
    and no earlier renamed entry took.
    """
    results = []
    ref_ids = {e.entry_id for e in ref.all_entries()}
    avoid = ref_ids | {e.entry_id for e in other.all_entries()}  # and every new id, once chosen
    for lemma in sorted(set(ref.entries) | set(other.entries)):
        result = merge_lemma(ref.entries.get(lemma, ()), other.entries.get(lemma, ()))
        entries = list(result.entries[:result.ref_count])  # merge_lemma lists the reference's first
        for entry in result.entries[result.ref_count:]:  # then the other side's leftovers
            if entry.entry_id in ref_ids:
                k = 2
                while f"{entry.entry_id}~{k}" in avoid:
                    k += 1
                entry = replace(entry, entry_id=f"{entry.entry_id}~{k}")
                avoid.add(entry.entry_id)
            entries.append(entry)
        results.append(replace(result, entries=tuple(entries)))
    merged = Lexicon({r.lemma: r.entries for r in results})
    return merged, MergeReport(tuple(results))


def serialize_merge_report(report: MergeReport) -> Iterator[str]:
    """One row per lemma, then the #TOTALS comment line as a last block."""
    yield from write_rows(
        (r.lemma, str(r.ref_count), str(r.other_count), str(r.merged_count),
         "yes" if r.needs_validation else "no")
        for r in report.results
    )
    yield (
        f"#TOTALS lemmas={report.total_lemmas} entries={report.total_entries} "
        f"flagged_lemmas={report.flagged_lemmas} flagged_entries={report.flagged_entries}\n"
    )
