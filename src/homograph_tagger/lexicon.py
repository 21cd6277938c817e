"""Homograph lexicon: data model, JSON Lines loading and the
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
homographs, inside `util.collector_paused`. A lexicon repeats a few
values many times: the 50,000 word types of the benchmark's
lexicon-large input hold 157,086 homographs, but only 172 distinct ones
and 23,526 distinct homograph sequences. So one load keeps a table of
each kind of value it has built (checked tag lists, homographs,
homograph sequences with their tag tables, and the pairs in those
tables) and builds each distinct value once. Entries of one loaded
lexicon with equal homographs thus share one homographs tuple and one
by_tag table; both are read-only. The lexicon holds no reference
cycles, so the collector can never free any of it, yet a caller whose
collector is on pays three passes over all of it after the load (see
`load_lexicon`); sharing keeps each to about 0.02-0.03 s on those
50,000 word types. A caller that keeps the lexicon for the rest of the
process can freeze it (`gc.freeze()`) before the next collection, so
that no later collection scans it again. The CLI instead runs the whole
command inside the same pause (see `cli`).

`classify_word_type` returns the category's report name:
"monohomographic", "guaranteed", "possible" or "no-disambiguation".
`analyze_lexicon` counts those names, and `render_taxonomy` prints the
percentages `analyze_lexicon` rounded once, as stored.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cache
from importlib.resources import files
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import LexiconError, VocabularyError
from .util import collector_paused, fmt_pct, numbered_lines, pct_of

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
    entries, so it takes no part in equality, hashing or repr. Entries of
    one loaded lexicon that have equal homographs share one homographs
    tuple and one by_tag table, so treat both as read-only.
    """

    key: str
    homographs: tuple[Homograph, ...]
    by_tag: dict[str, tuple[int, int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "by_tag", _tag_table(self.homographs))

    @classmethod
    def _shared(
        cls, key: str, homographs: tuple[Homograph, ...], by_tag: dict[str, tuple[int, int]]
    ) -> WordTypeEntry:
        """An entry whose by_tag, already built from homographs, is shared, not derived again."""
        entry = _new_object(cls)
        _set_key(entry, key)
        _set_homographs(entry, homographs)
        _set_by_tag(entry, by_tag)
        return entry

    def sense_count(self) -> int:
        return sum(h.n_senses for h in self.homographs)


# the slots' own setters, which a frozen dataclass's __setattr__ does not guard
_new_object = object.__new__
_set_key = WordTypeEntry.key.__set__
_set_homographs = WordTypeEntry.homographs.__set__
_set_by_tag = WordTypeEntry.by_tag.__set__


def _tag_table(homographs: tuple[Homograph, ...]) -> dict[str, tuple[int, int]]:
    """coarse tag -> (id of the first homograph carrying it, number of homographs carrying it)."""
    by_tag: dict[str, tuple[int, int]] = {}
    for homograph_id, homograph in enumerate(homographs, start=1):
        for tag in homograph.pos:
            first, count = by_tag.get(tag, (homograph_id, 0))
            by_tag[tag] = (first, count + 1)
    return by_tag


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


# ---------------------------------------------------------------------------
# loading


def load_lexicon(path: str | Path, vocabulary: Iterable[str] | None = None) -> Lexicon:
    """Load a JSON Lines lexicon file.

    Records are validated against the coarse vocabulary (the shipped
    17-tag default when none is given). Duplicate word keys, unknown
    tags, and empty homograph or sense lists are rejected with the
    offending line number in the message, and a file with no word types
    as `PATH: lexicon is empty (no word types)`.

    Each distinct homograph, homograph sequence and tag table is built
    once per call and shared by every entry that has it, so entries with
    equal homographs share one homographs tuple and one by_tag table.

    The load runs inside `util.collector_paused`, since each collection
    during it would rescan the growing lexicon. Keeping the loaded
    lexicon out of later collections is the caller's part, since only
    the caller knows how long it lives: the CLI runs the whole command
    inside the same pause (see `cli`). A library caller whose collector
    is on pays as the lexicon ages through the collector's generations:
    a generation-0, a generation-1 and a full collection each scan all
    of it, and so does every later full one. Sharing keeps that scan
    small: a load tracks about two objects per word type, and each such
    pass over a 50,000-type lexicon takes about 0.02-0.03 s.
    """
    with collector_paused():
        vocab = tuple(vocabulary) if vocabulary is not None else default_vocabulary()
        source = str(path)
        entry_from_record = _entry_reader(frozenset(vocab), source)
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
                entry = entry_from_record(record, lineno)
                if entry.key in first_line:
                    raise LexiconError(
                        f"{source}:{lineno}: duplicate word type key {entry.key!r}"
                        f" (first defined on line {first_line[entry.key]})"
                    )
                first_line[entry.key] = lineno
                entries.append(entry)
        if not entries:
            raise LexiconError(f"{source}: lexicon is empty (no word types)")
        return Lexicon(vocabulary=vocab, entries=tuple(entries))


def _entry_reader(vocab: frozenset[str], source: str) -> Callable[[object, int], WordTypeEntry]:
    """The function that checks one decoded record and builds its entry, for one load.

    It keeps one table per kind of value it builds, for as long as the
    load keeps it, so each distinct value is built once and shared:
    each tag list that has passed the checks, with the Homographs that
    carry it by sense count; each homograph sequence, with its tag
    table; and each pair in those tables. Kinds never share a table: the
    tag list [1, 2] equals the pair (1, 2), and would pass as already
    checked.
    """
    checked: dict[tuple[str, ...], tuple[tuple[str, ...], dict[int, Homograph]]] = {}
    sequences: dict[tuple[Homograph, ...], tuple[tuple[Homograph, ...], dict]] = {}
    pairs: dict[tuple[int, int], tuple[int, int]] = {}

    def entry_from_record(record, lineno: int) -> WordTypeEntry:
        """Check one decoded record and build its entry, in one walk.

        Each homograph is checked and built before the next one is read;
        the first failed check raises. A tag list already checked in this
        load is not checked again; senses are checked one by one. Decoded
        JSON holds exact dicts, lists and strs, so `type(x) is` tests
        what isinstance would.
        """
        if type(record) is not dict:
            raise LexiconError(f"{source}:{lineno}: record must be a JSON object")
        word = record.get("word")
        if type(word) is not str or not word:
            raise LexiconError(f"{source}:{lineno}: 'word' must be a non-empty string")
        raw_homographs = record.get("homographs")
        if type(raw_homographs) is not list or not raw_homographs:
            raise LexiconError(
                f"{source}:{lineno}: {word!r}: 'homographs' must be a non-empty list"
            )
        homographs = []
        for position, raw in enumerate(raw_homographs, start=1):
            if type(raw) is not dict:
                raise LexiconError(
                    f"{source}:{lineno}: {word!r}: homograph {position} must be a JSON object"
                )
            pos = raw.get("pos")
            if type(pos) is not list or not pos:
                raise _homograph_error(
                    source, lineno, word, position, "'pos' must be a non-empty list"
                )
            tags = tuple(pos)
            try:
                known = checked.get(tags)
            except TypeError:
                # an unhashable tag, which the loop below rejects
                known = None
            if known is None:
                for index, tag in enumerate(pos):
                    if type(tag) is not str:
                        raise _homograph_error(
                            source, lineno, word, position, "pos tags must be strings"
                        )
                    if tag not in vocab:
                        raise _homograph_error(
                            source, lineno, word, position, f"unknown coarse tag {tag!r}"
                        )
                    if index and tag in pos[:index]:
                        raise _homograph_error(
                            source, lineno, word, position, f"duplicate pos tag {tag!r}"
                        )
                known = checked[tags] = (tags, {})
            tags, by_senses = known
            raw_senses = raw.get("senses")
            if type(raw_senses) is not list or not raw_senses:
                raise _homograph_error(
                    source, lineno, word, position, "'senses' must be a non-empty list"
                )
            for index, sense in enumerate(raw_senses, start=1):
                if type(sense) is not dict or type(sense.get("def")) is not str:
                    raise _homograph_error(
                        source, lineno, word, position,
                        f"sense {index} must be an object with a string 'def'",
                    )
            n_senses = len(raw_senses)
            homograph = by_senses.get(n_senses)
            if homograph is None:
                homograph = by_senses[n_senses] = _new_tuple(Homograph, (tags, n_senses))
            homographs.append(homograph)
        sequence = tuple(homographs)
        shared = sequences.get(sequence)
        if shared is None:
            by_tag = _tag_table(sequence)
            for tag, pair in by_tag.items():
                by_tag[tag] = pairs.setdefault(pair, pair)
            shared = sequences[sequence] = (sequence, by_tag)
        return WordTypeEntry._shared(normalize_key(word), *shared)

    return entry_from_record


def _homograph_error(
    source: str, lineno: int, word: str, position: int, message: str
) -> LexiconError:
    return LexiconError(f"{source}:{lineno}: {word!r}: homograph {position}: {message}")


# ---------------------------------------------------------------------------
# disambiguation-bound analysis


def classify_word_type(entry: WordTypeEntry) -> str:
    """Place a word type in the four-way POS-disambiguation taxonomy; return its name.

    Let count(c) be the number of homographs carrying coarse tag c, over
    the tags the word type can take at all. If every count is 1, a
    correct coarse tag always pins down a single homograph (guaranteed);
    if every count is 2 or more, no tag ever does (no-disambiguation);
    a mixture means some tags decide the homograph and some do not
    (possible). Word types with one homograph are trivial
    (monohomographic).
    """
    if len(entry.homographs) == 1:
        return "monohomographic"
    counts = [count for _, count in entry.by_tag.values()]
    if max(counts) <= 1:
        return "guaranteed"
    if min(counts) >= 2:
        return "no-disambiguation"
    return "possible"


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
    # load_lexicon rejects an empty file; a Lexicon made by hand may still be empty
    if not lexicon.entries:
        raise LexiconError("cannot analyze an empty lexicon")
    by_category: Counter[str] = Counter()
    n_polysemous = 0
    collisions: Counter[str] = Counter()
    for entry in lexicon.entries:
        by_category[classify_word_type(entry)] += 1
        if entry.sense_count() >= 2:
            n_polysemous += 1
        collisions.update(tag for tag, (_, count) in entry.by_tag.items() if count >= 2)
    n = len(lexicon.entries)
    n_mono = by_category["monohomographic"]
    # every entry has at least one homograph
    n_polyhomographic = n - n_mono
    n_guaranteed = by_category["guaranteed"]
    n_possible = by_category["possible"]
    n_none = by_category["no-disambiguation"]
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
        guaranteed_pct_of_polyhomographic=pct_of(n_guaranteed, n_polyhomographic),
        possible_pct_of_polyhomographic=pct_of(n_guaranteed + n_possible, n_polyhomographic),
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
    lines = [
        f"word types:      {report.n_word_types}",
        f"polysemous:      {report.n_polysemous} ({fmt_pct(report.polysemous_pct)})",
        f"polyhomographic: {report.n_polyhomographic} ({fmt_pct(report.polyhomographic_pct)})",
        "categories:",
        f"  monohomographic:   {report.n_monohomographic}",
        f"  guaranteed:        {report.n_guaranteed}",
        f"  possible:          {report.n_possible}",
        f"  no-disambiguation: {report.n_no_disambiguation}",
        "of polyhomographic word types:",
        f"  guaranteed:        {fmt_pct(report.guaranteed_pct_of_polyhomographic)}",
        f"  possible (cum.):   {fmt_pct(report.possible_pct_of_polyhomographic)}",
        "over all word types:",
        f"  guaranteed:        {fmt_pct(report.guaranteed_pct_all_types)}",
        f"  possible (cum.):   {fmt_pct(report.possible_pct_all_types)}",
    ]
    if report.collision_histogram:
        lines.append("homograph collisions by tag:")
        for tag, count in report.collision_histogram.items():
            lines.append(f"  {tag}: {count}")
    return "\n".join(lines) + "\n"
