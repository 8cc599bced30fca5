"""Seeded random generators shared by the test modules."""

import random
import string

from valex.lexicon import (
    CLITIC,
    FINITE_CLAUSE,
    INF_CLAUSE,
    NP,
    Category,
    FunctionSlot,
    LexicalEntry,
    Lexicon,
    Redistribution,
    SyntacticFunction,
    pp,
)
from valex.checker import ObservedFrame, SentenceRecord
from valex.mining import MiningCorpus, MiningSentence
from valex.passage import Constituent, ConstituentType, Relation, RelationType, SentenceAnnotation

# Characters str.splitlines() breaks on besides LF and CR; the line formats
# treat them as ordinary field content.
LINE_BREAK_LOOKALIKES = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]

PREPS = ["à", "de", "sur", "dans", "avec", "pour", "contre"]
SIMPLE_REALIZATIONS = [NP, CLITIC, FINITE_CLAUSE, INF_CLAUSE]


def rand_realization(rng: random.Random):
    if rng.random() < 0.3:
        return pp(rng.choice(PREPS))
    return rng.choice(SIMPLE_REALIZATIONS)


def rand_realization_set(rng: random.Random):
    reals = {rand_realization(rng) for _ in range(rng.randint(1, 3))}
    return frozenset(reals)


def rand_slot(rng: random.Random, function: SyntacticFunction, allow_optional: bool = True) -> FunctionSlot:
    optional = allow_optional and rng.random() < 0.35
    return FunctionSlot(function, rand_realization_set(rng), optional)


def rand_frame(rng: random.Random, functions=None, allow_optional: bool = True):
    if functions is None:
        population = list(SyntacticFunction)
        functions = rng.sample(population, rng.randint(0, 4))
    return tuple(rand_slot(rng, f, allow_optional) for f in functions)


def rand_entry(
    rng: random.Random,
    lemma: str,
    entry_id: str,
    category: Category = Category.V,
    coded: bool | None = None,
    functions=None,
) -> LexicalEntry:
    if coded is None:
        coded = rng.random() < 0.85
    frame = rand_frame(rng, functions, allow_optional=coded)
    redistributions = {Redistribution.ACTIVE} if coded else set()
    for r in (Redistribution.PASSIVE, Redistribution.IMPERSONAL, Redistribution.SE_MIDDLE, Redistribution.OBJ_CLITICIZATION):
        if rng.random() < 0.3:
            redistributions.add(r)
    if not redistributions:
        redistributions = {Redistribution.ACTIVE}
    return LexicalEntry(
        lemma=lemma,
        category=category,
        entry_id=entry_id,
        frame=frame,
        redistributions=frozenset(redistributions),
        coded=coded,
        provenance=((rng.choice(["alpha", "beta", "gamma"]), f"{entry_id}.src"),),
        examples=tuple(f"exemple {entry_id} {k}" for k in range(rng.randint(0, 2))),
    )


def rand_lemma(rng: random.Random) -> str:
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(3, 8)))


def rand_lexicon(rng: random.Random, n_lemmas: int, max_entries: int = 4, name: str = "lex") -> Lexicon:
    entries = []
    lemmas = set()
    while len(lemmas) < n_lemmas:
        lemmas.add(rand_lemma(rng))
    for lemma in sorted(lemmas):
        for k in range(rng.randint(1, max_entries)):
            entries.append(rand_entry(rng, lemma, f"{name}.{lemma}.{k}"))
    return Lexicon.from_entries(entries)


def rand_observed_frame(rng: random.Random, entry: LexicalEntry, context=Redistribution.ACTIVE) -> ObservedFrame:
    """An observation drawn from the entry's own frame: every obligatory
    slot realized, optional slots realized at random."""
    slots = set()
    for slot in entry.frame:
        if not slot.optional or rng.random() < 0.5:
            slots.add((slot.function, rng.choice(sorted(slot.realizations, key=lambda r: r.token()))))
    return ObservedFrame(entry.lemma, frozenset(slots), context)


WORDS = ["le", "chat", "dort", "la", "porte", "sur", "toit", "un", "vieux", "mur", "qui", "tombe"]


def rand_annotation(rng: random.Random, sentence_id: str, max_constituents: int = 6) -> SentenceAnnotation:
    n = rng.randint(1, 12)
    tokens = tuple(rng.choice(WORDS) for _ in range(n))
    constituents = []
    for _ in range(rng.randint(0, max_constituents)):
        start = rng.randrange(n)
        end = rng.randint(start + 1, n)
        constituents.append(Constituent(rng.choice(list(ConstituentType)), start, end))
    relations = []
    if n >= 2:
        for _ in range(rng.randint(0, 6)):
            src, tgt = rng.sample(range(n), 2)
            relations.append(Relation(rng.choice(list(RelationType)), src, tgt))
    return SentenceAnnotation(
        sentence_id=sentence_id,
        tokens=tokens,
        constituents=tuple(constituents),
        relations=tuple(relations),
        full_parse=rng.random() < 0.8,
    )


def rand_mining_corpus(rng: random.Random, max_sentences: int = 50, vocabulary: int = 20) -> MiningCorpus:
    forms = [f"f{k}" for k in range(vocabulary)]
    n = rng.randint(1, max_sentences)
    sentences = []
    for k in range(n):
        size = rng.randint(1, 5)
        sentence_forms = tuple(rng.choice(forms) for _ in range(size))
        sentences.append(MiningSentence(f"s{k:03d}", sentence_forms, rng.random() < 0.4))
    return MiningCorpus(tuple(sentences))


def rand_records(rng: random.Random, max_sentences: int = 30) -> list[SentenceRecord]:
    n = rng.randint(1, max_sentences)
    records = []
    for k in range(n):
        forms = tuple(rand_lemma(rng) for _ in range(rng.randint(1, 5)))
        records.append(SentenceRecord(f"s{k:03d}", forms, rng.random() < 0.7))
    return records
