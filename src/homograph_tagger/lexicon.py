"""Homograph lexicon: data model, JSON Lines loading, lookup, and the
static analysis that bounds how far part-of-speech information alone
can take homograph disambiguation.

A lexicon file holds one word type per line as a JSON record:

    {"word":"bank","homographs":[
        {"pos":["n"],"senses":[{"def":"..."},{"def":"..."}]},
        {"pos":["v"],"senses":[{"def":"..."}]}]}

Order is authoritative: homographs are listed most frequent first, so
homograph 1 is the most likely reading and ids are just 1-based
positions, never stored. Keys are normalized by lowercasing, both at
load time and on lookup; no stemming or other conflation is applied.
Every sense is checked at load, but a loaded homograph keeps only its
coarse tags and its number of senses: no command reads a definition,
and `analyze` only asks whether a word type has two or more senses.

Each word type carries a tag table, `by_tag`, built once when the entry
is made: coarse tag -> (id of the first homograph carrying the tag,
number of homographs carrying it). The tagger reads the first element
(one dict lookup per token instead of a scan of the homographs) and the
taxonomy reads the second. Homographs are named tuples. An entry is a
frozen dataclass whose by_tag is derived from its homographs when it is
made, as a Lexicon's index is derived from its entries.

The loader validates each record in one walk that also builds its
homographs, then derives the tag table from them, with the cyclic
garbage collector paused until the Lexicon and its index exist. The
lexicon holds no reference cycles, so the collector can never free any
of it; a caller that keeps it for the rest of the process can freeze it
(`gc.freeze()`) before the next collection, so that no later collection
scans it again. The CLI instead keeps the collector off for the whole
command (see `cli`).
"""

from __future__ import annotations

import enum
import gc
import json
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cache
from importlib.resources import files
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .errors import LexiconError, VocabularyError
from .util import fmt_pct, numbered_lines, pct_of

_TAG_RE = re.compile(r"[A-Za-z][A-Za-z0-9_-]*")
# _new_tuple(Cls, fields) builds the NamedTuple Cls without running its Python-level __new__
_new_tuple = tuple.__new__


def normalize_key(surface: str) -> str:
    """Normalize a headword or surface form to its lookup key.

    The key is the lowercased string, nothing more: no Unicode
    normalization and no casefold(), each of which would cost a call per
    token. An NFD spelling thus does not match an NFC headword.
    """
    return surface.lower()


# ---------------------------------------------------------------------------
# coarse tag vocabulary


@cache
def default_vocabulary() -> tuple[str, ...]:
    """The 17-tag coarse category vocabulary shipped with the package."""
    path = files("homograph_tagger") / "data/coarse_tags.txt"
    with numbered_lines(path, VocabularyError) as lines:
        return _parse_vocabulary(lines, "<default vocabulary>")


def load_vocabulary(path: str | Path) -> tuple[str, ...]:
    """Load a vocabulary file: one coarse tag per line, '#' comments allowed."""
    with numbered_lines(path, VocabularyError) as lines:
        return _parse_vocabulary(lines, str(path))


def _parse_vocabulary(lines: Iterable[tuple[int, str]], source: str) -> tuple[str, ...]:
    tags: list[str] = []
    seen: set[str] = set()
    for lineno, raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not _TAG_RE.fullmatch(line):
            raise VocabularyError(f"{source}:{lineno}: invalid coarse tag {line!r}")
        if line in seen:
            raise VocabularyError(f"{source}:{lineno}: duplicate coarse tag {line!r}")
        seen.add(line)
        tags.append(line)
    if not tags:
        raise VocabularyError(f"{source}: vocabulary is empty")
    return tuple(tags)


# ---------------------------------------------------------------------------
# data model


class DisambCategory(enum.Enum):
    """How far a correct coarse POS tag can narrow a word type's homographs."""

    MONOHOMOGRAPHIC = "monohomographic"
    GUARANTEED = "guaranteed"
    POSSIBLE = "possible"
    NO_DISAMBIGUATION = "no-disambiguation"


class Homograph(NamedTuple):
    """A homograph: its coarse POS tags and its number of senses.

    Its id is its 1-based position within its word type; position is
    frequency rank. pos keeps source order and holds no duplicates.
    n_senses is at least 1; the definitions are checked at load but not
    kept.
    """

    pos: tuple[str, ...]
    n_senses: int


@dataclass(frozen=True, slots=True)
class WordTypeEntry:
    """A normalized headword, its ordered homographs and its tag table.

    by_tag maps each coarse tag that some homograph carries to the id of
    the first homograph carrying it and the number carrying it. It is
    derived from homographs in __post_init__, as Lexicon._index is from
    entries, so it takes no part in equality, hashing or repr; treat it
    as read-only.
    """

    key: str
    homographs: tuple[Homograph, ...]
    by_tag: dict[str, tuple[int, int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        by_tag: dict[str, tuple[int, int]] = {}
        for homograph_id, homograph in enumerate(self.homographs, start=1):
            for tag in homograph.pos:
                first, count = by_tag.get(tag, (homograph_id, 0))
                by_tag[tag] = (first, count + 1)
        object.__setattr__(self, "by_tag", by_tag)

    def sense_count(self) -> int:
        return sum(h.n_senses for h in self.homographs)

    @property
    def polyhomographic(self) -> bool:
        return len(self.homographs) >= 2


@dataclass(frozen=True)
class Lexicon:
    """An immutable, insertion-ordered homograph dictionary."""

    vocabulary: tuple[str, ...]
    entries: tuple[WordTypeEntry, ...]
    _index: dict[str, WordTypeEntry] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_index", {e.key: e for e in self.entries})

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[WordTypeEntry]:
        return iter(self.entries)


def lookup(lexicon: Lexicon, surface: str) -> WordTypeEntry | None:
    """Find the entry for a surface form or headword, or None."""
    return lexicon._index.get(normalize_key(surface))


# ---------------------------------------------------------------------------
# loading


def load_lexicon(path: str | Path, vocabulary: Iterable[str] | None = None) -> Lexicon:
    """Load a JSON Lines lexicon file.

    Records are validated against the coarse vocabulary (the shipped
    17-tag default when none is given). Duplicate word keys, unknown
    tags, and empty homograph or sense lists are rejected with the
    offending line number in the message.

    The cyclic garbage collector is paused until the Lexicon and its
    index exist, then put back as it was: the entries hold no reference
    cycles, so a collection during the load would free nothing, yet each
    full pass rescans the growing lexicon. Keeping the loaded lexicon out
    of later collections is the caller's part, since only the caller
    knows how long it lives: the CLI keeps the collector off until the
    command ends (see `cli`). A library caller whose collector is on
    pays as the lexicon ages through the collector's generations: a
    generation-0, a generation-1 and a full collection each scan all of
    it, and so does every later full one.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        vocab = tuple(vocabulary) if vocabulary is not None else default_vocabulary()
        vocab_set = frozenset(vocab)
        source = str(path)
        entries: list[WordTypeEntry] = []
        first_line: dict[str, int] = {}
        with numbered_lines(path, LexiconError) as lines:
            for lineno, raw in lines:
                line = raw.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise LexiconError(f"{source}:{lineno}: invalid JSON: {exc.msg}") from None
                except RecursionError:
                    raise LexiconError(
                        f"{source}:{lineno}: invalid JSON: nested too deeply"
                    ) from None
                except ValueError:
                    # json's one other ValueError: more digits than int() converts
                    raise LexiconError(
                        f"{source}:{lineno}: invalid JSON: integer too long"
                    ) from None
                entry = _entry_from_record(record, vocab_set, source, lineno)
                if entry.key in first_line:
                    raise LexiconError(
                        f"{source}:{lineno}: duplicate word type key {entry.key!r}"
                        f" (first defined on line {first_line[entry.key]})"
                    )
                first_line[entry.key] = lineno
                entries.append(entry)
        return Lexicon(vocabulary=vocab, entries=tuple(entries))
    finally:
        if gc_was_enabled:
            gc.enable()


def _entry_from_record(record, vocab: frozenset[str], source: str, lineno: int) -> WordTypeEntry:
    """Validate one decoded record and build its entry, in one walk.

    Each homograph is checked and built before the next one is read; the
    first failed check raises.
    """
    if not isinstance(record, dict):
        raise LexiconError(f"{source}:{lineno}: record must be a JSON object")
    word = record.get("word")
    if not isinstance(word, str) or not word:
        raise LexiconError(f"{source}:{lineno}: 'word' must be a non-empty string")
    raw_homographs = record.get("homographs")
    if not isinstance(raw_homographs, list) or not raw_homographs:
        raise LexiconError(f"{source}:{lineno}: {word!r}: 'homographs' must be a non-empty list")
    homographs = []
    for position, raw in enumerate(raw_homographs, start=1):
        if not isinstance(raw, dict):
            raise LexiconError(
                f"{source}:{lineno}: {word!r}: homograph {position} must be a JSON object"
            )
        pos = raw.get("pos")
        if not isinstance(pos, list) or not pos:
            raise _homograph_error(source, lineno, word, position, "'pos' must be a non-empty list")
        for index, tag in enumerate(pos):
            if not isinstance(tag, str):
                raise _homograph_error(source, lineno, word, position, "pos tags must be strings")
            if tag not in vocab:
                raise _homograph_error(
                    source, lineno, word, position, f"unknown coarse tag {tag!r}"
                )
            if index and tag in pos[:index]:
                raise _homograph_error(source, lineno, word, position, f"duplicate pos tag {tag!r}")
        raw_senses = raw.get("senses")
        if not isinstance(raw_senses, list) or not raw_senses:
            raise _homograph_error(
                source, lineno, word, position, "'senses' must be a non-empty list"
            )
        for index, sense in enumerate(raw_senses, start=1):
            if not isinstance(sense, dict) or not isinstance(sense.get("def"), str):
                raise _homograph_error(
                    source, lineno, word, position,
                    f"sense {index} must be an object with a string 'def'",
                )
        homographs.append(_new_tuple(Homograph, (tuple(pos), len(raw_senses))))
    return WordTypeEntry(normalize_key(word), tuple(homographs))


def _homograph_error(
    source: str, lineno: int, word: str, position: int, message: str
) -> LexiconError:
    return LexiconError(f"{source}:{lineno}: {word!r}: homograph {position}: {message}")


# ---------------------------------------------------------------------------
# disambiguation-bound analysis


def classify_word_type(entry: WordTypeEntry) -> DisambCategory:
    """Place a word type in the four-way POS-disambiguation taxonomy.

    Let count(c) be the number of homographs carrying coarse tag c, over
    the tags the word type can take at all. If every count is 1, a
    correct coarse tag always pins down a single homograph (guaranteed);
    if every count is 2 or more, no tag ever does (no-disambiguation);
    a mixture means some tags decide the homograph and some do not
    (possible). Word types with one homograph are trivial.
    """
    if len(entry.homographs) == 1:
        return DisambCategory.MONOHOMOGRAPHIC
    counts = [count for _, count in entry.by_tag.values()]
    if max(counts) <= 1:
        return DisambCategory.GUARANTEED
    if min(counts) >= 2:
        return DisambCategory.NO_DISAMBIGUATION
    return DisambCategory.POSSIBLE


@dataclass(frozen=True)
class TaxonomyReport:
    """Whole-lexicon disambiguation statistics.

    Percentages are rounded to one decimal place (half-up). The two
    "of polyhomographic" figures are None when the lexicon has no
    polyhomographic entries. possible_* percentages are cumulative:
    they include the guaranteed cases, and the *_all_types pair also
    counts monohomographic entries as trivially disambiguated.
    collision_histogram maps each coarse tag to the number of word
    types in which two or more homographs carry that tag.
    """

    n_word_types: int
    n_polysemous: int
    n_polyhomographic: int
    n_monohomographic: int
    n_guaranteed: int
    n_possible: int
    n_no_disambiguation: int
    polysemous_pct: float
    polyhomographic_pct: float
    guaranteed_pct_of_polyhomographic: float | None
    possible_pct_of_polyhomographic: float | None
    guaranteed_pct_all_types: float
    possible_pct_all_types: float
    collision_histogram: dict[str, int]


def analyze_lexicon(lexicon: Lexicon) -> TaxonomyReport:
    """Aggregate the four-way classification over a whole lexicon."""
    if not lexicon.entries:
        raise LexiconError("cannot analyze an empty lexicon")
    by_category: Counter[DisambCategory] = Counter()
    n_polysemous = 0
    n_polyhomographic = 0
    collisions: Counter[str] = Counter()
    for entry in lexicon.entries:
        by_category[classify_word_type(entry)] += 1
        if entry.sense_count() >= 2:
            n_polysemous += 1
        if entry.polyhomographic:
            n_polyhomographic += 1
        collisions.update(tag for tag, (_, count) in entry.by_tag.items() if count >= 2)
    n = len(lexicon.entries)
    n_mono = by_category[DisambCategory.MONOHOMOGRAPHIC]
    n_guaranteed = by_category[DisambCategory.GUARANTEED]
    n_possible = by_category[DisambCategory.POSSIBLE]
    n_none = by_category[DisambCategory.NO_DISAMBIGUATION]
    histogram = {tag: collisions[tag] for tag in lexicon.vocabulary if collisions[tag]}
    return TaxonomyReport(
        n_word_types=n,
        n_polysemous=n_polysemous,
        n_polyhomographic=n_polyhomographic,
        n_monohomographic=n_mono,
        n_guaranteed=n_guaranteed,
        n_possible=n_possible,
        n_no_disambiguation=n_none,
        polysemous_pct=pct_of(n_polysemous, n),
        polyhomographic_pct=pct_of(n_polyhomographic, n),
        guaranteed_pct_of_polyhomographic=(
            pct_of(n_guaranteed, n_polyhomographic) if n_polyhomographic else None
        ),
        possible_pct_of_polyhomographic=(
            pct_of(n_guaranteed + n_possible, n_polyhomographic) if n_polyhomographic else None
        ),
        guaranteed_pct_all_types=pct_of(n_mono + n_guaranteed, n),
        possible_pct_all_types=pct_of(n_mono + n_guaranteed + n_possible, n),
        collision_histogram=histogram,
    )


def render_taxonomy(report: TaxonomyReport, fmt: str = "text") -> str:
    """Render a TaxonomyReport as a text table or a flat JSON record."""
    if fmt == "structured":
        from dataclasses import asdict

        return json.dumps(asdict(report)) + "\n"
    if fmt != "text":
        raise ValueError(f"unknown report format {fmt!r}")
    # the report holds percentages and fmt_pct takes fractions; both are
    # None when the lexicon has no polyhomographic word types
    guaranteed_of_poly = possible_of_poly = None
    if report.n_polyhomographic:
        guaranteed_of_poly = report.guaranteed_pct_of_polyhomographic / 100
        possible_of_poly = report.possible_pct_of_polyhomographic / 100
    lines = [
        f"word types:      {report.n_word_types}",
        f"polysemous:      {report.n_polysemous} ({fmt_pct(report.polysemous_pct / 100)})",
        f"polyhomographic: {report.n_polyhomographic}"
        f" ({fmt_pct(report.polyhomographic_pct / 100)})",
        "categories:",
        f"  monohomographic:   {report.n_monohomographic}",
        f"  guaranteed:        {report.n_guaranteed}",
        f"  possible:          {report.n_possible}",
        f"  no-disambiguation: {report.n_no_disambiguation}",
        "of polyhomographic word types:",
        f"  guaranteed:        {fmt_pct(guaranteed_of_poly)}",
        f"  possible (cum.):   {fmt_pct(possible_of_poly)}",
        "over all word types:",
        f"  guaranteed:        {fmt_pct(report.guaranteed_pct_all_types / 100)}",
        f"  possible (cum.):   {fmt_pct(report.possible_pct_all_types / 100)}",
    ]
    if report.collision_histogram:
        lines.append("homograph collisions by tag:")
        for tag, count in report.collision_histogram.items():
            lines.append(f"  {tag}: {count}")
    return "\n".join(lines) + "\n"
