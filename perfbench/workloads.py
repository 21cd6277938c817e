"""Seeded generator of the benchmark's lexicons and corpora.

Each workload is a `Spec`. `generate(spec, seed, directory)` writes the
workload's lexicon (JSON Lines) and corpus (tab-separated, one token per
line) into `directory` and returns their paths, the token tuples the
oracles need and the input sizes. The same spec and seed give the same
bytes: every draw comes from one `random.Random` seeded with a string,
and nothing iterates over a set or dict whose order depends on string
hashing.

Every known open-class token gets a gold homograph id with chance
GOLD_SHARE. The corpus carries the ids only when the spec says so; the
ids of every workload are also written to gold.json, which the
benchmark's in-process run scores against, so `evaluate` does real work
on every workload.

Headwords are made by spelling an integer in two-letter syllables, so
they are unique after lowercasing by construction. Unknown words carry a
`q`, which no syllable of a headword contains, so they never hit the
lexicon.
"""

from __future__ import annotations

import bisect
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

CONSONANTS = "bcdfghjklmnprstvwz"
VOWELS = "aeiou"
SYLLABLES = tuple(c + v for c in CONSONANTS for v in VOWELS)

# open-class coarse tags with their draw weights, and the Penn fine tags
# that the shipped tag map sends to each
OPEN_TAGS = ("n", "v", "adj", "adv")
OPEN_WEIGHTS = (0.45, 0.30, 0.17, 0.08)
FINE_TAGS = {
    "n": ("NN", "NN", "NNS", "NNP"),
    "v": ("VB", "VBD", "VBZ", "VBG", "VBN", "VBP"),
    "adj": ("JJ", "JJ", "JJR", "JJS"),
    "adv": ("RB", "RB", "RBR"),
}
# rare closed-class tags a homograph may carry besides the open ones
RARE_TAGS = ("prep", "conj", "interj", "num")
INFLECTIONS = ("s", "ed", "ing", "er", "ly")
MAX_SENSES = 3
GOLD_SHARE = 0.9

# one corpus token as the oracles take it: (surface, fine, lemma, gold)
Token = tuple[str, str, str | None, int | None]

CLOSED_TOKENS = (
    ("the", "DT"), ("of", "IN"), ("and", "CC"), ("to", "TO"), ("a", "DT"),
    ("in", "IN"), ("it", "PRP"), ("will", "MD"), (",", ","), (".", "."),
    ("that", "WDT"), ("he", "PRP"), ("'s", "POS"), ("two", "CD"), ("all", "PDT"),
    ("there", "EX"), ("who", "WP"), ("their", "PRP$"), ("oh", "UH"), ("up", "RP"),
    ("(", "("), (")", ")"), (":", ":"), ("``", "``"), ("''", "''"), ("$", "$"),
    ("#", "#"),
)

DEFINITION_WORDS = (
    "a", "the", "of", "to", "in", "with", "for", "or", "by", "any", "kind", "state",
    "act", "place", "thing", "person", "part", "form", "used", "having", "made",
    "small", "large", "quality", "process", "result", "shape", "piece", "body",
    "water", "ground", "light", "sound", "motion", "group", "line", "mark", "edge",
    "café", "naïve", "rôle", "especially", "formerly", "chiefly", "informal",
)


@dataclass(frozen=True)
class Spec:
    """One workload: the CLI commands it runs and the inputs it needs.

    Shares are of all corpus tokens, except mismatch_share, which is the
    chance that a known open-class token gets an open tag none of its
    homographs carries (so the tagger falls back). homograph_weights[k]
    is the weight of a word type having k + 1 homographs. zipf chooses a
    Zipf draw of word types (exponent 1) over a uniform one. gold_in_corpus
    says whether the corpus lines carry the gold ids.
    """

    name: str
    commands: tuple[str, ...]
    word_types: int
    homograph_weights: tuple[float, ...]
    tag_overlap: float
    definition_words: int
    tokens: int
    documents: int
    zipf: bool
    closed_share: float
    unknown_share: float
    lemma_share: float
    gold_in_corpus: bool
    capital_share: float
    mismatch_share: float


WORKLOADS = {
    spec.name: spec
    for spec in (
        Spec(
            name="tag-zipf",
            commands=("tag",),
            word_types=20_000,
            homograph_weights=(0.55, 0.30, 0.12, 0.03),
            tag_overlap=0.25,
            definition_words=8,
            tokens=300_000,
            documents=300,
            zipf=True,
            closed_share=0.45,
            unknown_share=0.05,
            lemma_share=0.30,
            gold_in_corpus=False,
            capital_share=0.08,
            mismatch_share=0.10,
        ),
        Spec(
            name="eval-gold",
            commands=("eval",),
            word_types=20_000,
            homograph_weights=(0.08, 0.22, 0.22, 0.20, 0.15, 0.13),
            tag_overlap=0.6,
            definition_words=8,
            tokens=200_000,
            documents=200,
            zipf=False,
            closed_share=0.40,
            unknown_share=0.05,
            lemma_share=0.20,
            gold_in_corpus=True,
            capital_share=0.05,
            mismatch_share=0.15,
        ),
        Spec(
            name="lexicon-large",
            commands=("analyze", "tag"),
            word_types=50_000,
            homograph_weights=(0.30, 0.20, 0.15, 0.10, 0.08, 0.07, 0.05, 0.05),
            tag_overlap=0.4,
            definition_words=16,
            tokens=4_000,
            documents=20,
            zipf=True,
            closed_share=0.45,
            unknown_share=0.05,
            lemma_share=0.30,
            gold_in_corpus=False,
            capital_share=0.08,
            mismatch_share=0.10,
        ),
    )
}


@dataclass
class Workload:
    """The generated files of one workload and what the oracles need.

    documents holds, per document, (surface, fine, lemma, gold) tuples in
    the shape tests/oracles.py expects; gold_path holds the gold ids of
    all tokens in corpus order as one JSON list.
    """

    spec: Spec
    lexicon_path: Path
    corpus_path: Path
    gold_path: Path
    documents: list[list[Token]]
    homographs: int

    def sizes(self) -> dict[str, int]:
        return {
            "word_types": self.spec.word_types,
            "homographs": self.homographs,
            "tokens": sum(len(d) for d in self.documents),
            "documents": len(self.documents),
            "lexicon_bytes": self.lexicon_path.stat().st_size,
            "corpus_bytes": self.corpus_path.stat().st_size,
        }


def headword(index: int) -> str:
    """The index spelled in syllables, at least two of them."""
    digits = []
    index += len(SYLLABLES)
    while index:
        index, digit = divmod(index, len(SYLLABLES))
        digits.append(SYLLABLES[digit])
    return "".join(reversed(digits))


def _pos_sets(rnd: random.Random, spec: Spec, n_homographs: int) -> list[list[str]]:
    sets: list[list[str]] = []
    used: list[str] = []
    for _ in range(n_homographs):
        fresh = [t for t in OPEN_TAGS if t not in used]
        if used and (rnd.random() < spec.tag_overlap or not fresh):
            first = rnd.choice(used)
        else:
            first = rnd.choices(fresh, [OPEN_WEIGHTS[OPEN_TAGS.index(t)] for t in fresh])[0]
        tags = [first]
        roll = rnd.random()
        if roll < 0.25:
            second = rnd.choices(OPEN_TAGS, OPEN_WEIGHTS)[0]
        elif roll < 0.28:
            second = rnd.choice(RARE_TAGS)
        else:
            second = first
        if second != first:
            tags.append(second)
        sets.append(tags)
        used.extend(t for t in tags if t not in used)
    return sets


def _write_lexicon(rnd: random.Random, spec: Spec, path: Path) -> tuple[list[list[list[str]]], int]:
    """Write the lexicon; return each word type's pos sets and the homograph total."""
    pool = []
    for _ in range(4096):
        n_words = rnd.randint(spec.definition_words // 2, spec.definition_words * 3 // 2)
        pool.append(" ".join(rnd.choices(DEFINITION_WORDS, k=max(n_words, 1))))
    counts = range(1, len(spec.homograph_weights) + 1)
    all_sets = []
    total = 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for index in range(spec.word_types):
            n_homographs = rnd.choices(counts, spec.homograph_weights)[0]
            sets = _pos_sets(rnd, spec, n_homographs)
            word = headword(index)
            record = {
                "word": word.capitalize() if rnd.random() < 0.05 else word,
                "homographs": [
                    {
                        "pos": tags,
                        "senses": [
                            {"def": rnd.choice(pool)}
                            for _ in range(rnd.randint(1, MAX_SENSES))
                        ],
                    }
                    for tags in sets
                ],
            }
            fh.write(json.dumps(record, ensure_ascii=False, separators=(",", ":")) + "\n")
            all_sets.append(sets)
            total += n_homographs
    return all_sets, total


def _type_draws(rnd: random.Random, spec: Spec, k: int) -> list[int]:
    """k word-type indexes, Zipf-ranked over a seeded permutation or uniform."""
    if not spec.zipf:
        return [rnd.randrange(spec.word_types) for _ in range(k)]
    order = list(range(spec.word_types))
    rnd.shuffle(order)
    cumulative = list(itertools.accumulate(1.0 / rank for rank in range(1, spec.word_types + 1)))
    top = cumulative[-1]
    return [order[bisect.bisect_left(cumulative, rnd.random() * top)] for _ in range(k)]


def _open_token(rnd: random.Random, spec: Spec, index: int, sets: list[list[str]]) -> Token:
    """One known open-class token of word type `index`: (surface, fine, lemma, gold)."""
    word = headword(index)
    carried = sorted({t for tags in sets for t in tags if t in OPEN_TAGS}, key=OPEN_TAGS.index)
    missing = [t for t in OPEN_TAGS if t not in carried]
    if carried and not (missing and rnd.random() < spec.mismatch_share):
        coarse = rnd.choice(carried)
    else:
        coarse = rnd.choice(missing)
    fine = rnd.choice(FINE_TAGS[coarse])
    lemma_chance = spec.lemma_share / (1.0 - spec.closed_share - spec.unknown_share)
    lemma = None
    surface = word
    if rnd.random() < lemma_chance:
        lemma = word
        surface = word + rnd.choice(INFLECTIONS)
    if fine == "NNP" or rnd.random() < spec.capital_share:
        surface = surface.capitalize()
    gold = None
    if rnd.random() < GOLD_SHARE:
        first = next((i for i, tags in enumerate(sets, 1) if coarse in tags), None)
        gold = first if first is not None and rnd.random() < 0.7 else rnd.randint(1, len(sets))
    return surface, fine, lemma, gold


def _unknown_token(rnd: random.Random) -> Token:
    coarse = rnd.choices(OPEN_TAGS, OPEN_WEIGHTS)[0]
    surface = "q" + rnd.choice(VOWELS) + headword(rnd.randrange(len(SYLLABLES) ** 2))
    return surface, rnd.choice(FINE_TAGS[coarse]), None, None


def _token_line(token: Token, with_gold: bool) -> str:
    surface, fine, lemma, gold = token
    fields = [surface, fine]
    if with_gold and gold is not None:
        fields += [lemma or "", str(gold)]
    elif lemma is not None:
        fields.append(lemma)
    return "\t".join(fields)


def generate(spec: Spec, seed: int, directory: Path) -> Workload:
    """Write the workload's lexicon and corpus under `directory`."""
    rnd = random.Random(f"{spec.name}:{seed}")
    directory = Path(directory)
    lexicon_path = directory / "lexicon.jsonl"
    corpus_path = directory / "corpus.tsv"
    gold_path = directory / "gold.json"
    pos_sets, homographs = _write_lexicon(rnd, spec, lexicon_path)

    open_share = 1.0 - spec.closed_share - spec.unknown_share
    kinds = rnd.choices(("closed", "unknown", "open"), (spec.closed_share, spec.unknown_share, open_share), k=spec.tokens)
    types = iter(_type_draws(rnd, spec, kinds.count("open")))
    tokens = []
    for kind in kinds:
        if kind == "closed":
            surface, fine = rnd.choice(CLOSED_TOKENS)
            if rnd.random() < spec.capital_share:
                surface = surface.capitalize()
            tokens.append((surface, fine, None, None))
        elif kind == "unknown":
            tokens.append(_unknown_token(rnd))
        else:
            index = next(types)
            tokens.append(_open_token(rnd, spec, index, pos_sets[index]))

    per_doc = spec.tokens // spec.documents
    documents = [tokens[i * per_doc:(i + 1) * per_doc] for i in range(spec.documents - 1)]
    documents.append(tokens[(spec.documents - 1) * per_doc:])
    with open(corpus_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# synthetic {spec.name} corpus, seed {seed}\n")
        for number, document in enumerate(documents, 1):
            fh.write(f"\n# doc: d{number:05d}\n")
            fh.write("\n".join(_token_line(t, spec.gold_in_corpus) for t in document) + "\n")
    gold_path.write_text(json.dumps([t[3] for t in tokens]), encoding="utf-8")
    return Workload(spec, lexicon_path, corpus_path, gold_path, documents, homographs)
