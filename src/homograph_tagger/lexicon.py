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

Each homograph sequence has a tag table: coarse tag -> (id of the
first homograph carrying the tag, number of homographs carrying it).
The tagger reads the first element (one dict lookup per token instead
of a scan of the homographs) and the taxonomy reads the second. The
table is a fact about the sequence, so a lexicon keeps one per
distinct sequence. Homographs and entries are named tuples.

A lexicon repeats a few values many times: the 50,000 word types of
the benchmark's lexicon-large input hold 157,086 homographs, but only
172 distinct ones and 23,526 distinct homograph sequences. So every
lexicon is made from a compact form that lists each distinct value
once: the distinct homographs, the distinct homograph sequences as
lists of indexes into those, and each key's sequence number. The
loader parses a file into it, checking each record in one walk that
also lists its values; `_lexicon_from_form` checks a loaded form, and
`Lexicon(vocabulary, entries)` lists its entries' values, checking
each as a load does. Both reach one setup, `Lexicon._setup`, which
builds nothing more. A lexicon looks a key up in two steps, its
sequence number, then that sequence's homographs tuple and tag table,
which it builds the first time a lookup or an iteration reaches the
sequence, and its entries the first time they are read, so a run
builds only what its tokens reach: the benchmark's 4,000-token tag run
on lexicon-large reaches 725 of its 23,526 sequences. Each is built
once and shared: entries with equal homographs share one homographs
tuple, and the tag tables share their pairs. What a loaded lexicon
costs a caller whose cyclic garbage collector is on is told in
`load_lexicon`.

The form is also what an on-disk cache keeps, under a SHA-256 digest
of the lexicon's bytes, so a later load of the same file reads the
form back instead of decoding the lexicon's JSON again, and the same
builder makes the lexicon from it. `load_lexicon` tells where the cache
lives and what it costs.

`classify_word_type` returns the category's report name:
"monohomographic", "guaranteed", "possible" or "no-disambiguation".
`analyze_lexicon` counts those names, classifying each distinct
homograph sequence once, weighted by the number of keys that have it
(23,526 sequences for lexicon-large's 50,000 word types), and builds no
entry. `render_taxonomy` prints the percentages `analyze_lexicon`
rounded once, as stored.
"""

from __future__ import annotations

import json
import os
import re
import stat
import sys
from collections import Counter
from contextlib import suppress
from dataclasses import asdict, dataclass
from functools import cache
from io import RawIOBase
from itertools import chain
from pathlib import Path
from threading import RLock
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import LexiconError, VocabularyError
from .util import (
    PACKAGE, check_utf8, collector_paused, decoded_lines, fmt_pct, numbered_lines, pct_of,
    replacing, same_file,
)

_TAG_RE = re.compile(r"[A-Za-z][A-Za-z0-9_-]*")


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
    """The 17-tag coarse category vocabulary shipped with the package, read from its data/."""
    with numbered_lines(PACKAGE / "data" / "coarse_tags.txt") as lines:
        return _parse_vocabulary(lines, "<default vocabulary>")


def load_vocabulary(path: str | Path) -> tuple[str, ...]:
    """Load a vocabulary file: one coarse tag per line, '#' comments allowed."""
    with numbered_lines(path) as lines:
        return _parse_vocabulary(lines, str(path))


def _parse_vocabulary(lines: Iterable[tuple[int, str]], source: str) -> tuple[str, ...]:
    tags: list[str] = []
    seen: set[str] = set()
    for lineno, raw in lines:
        check_utf8(raw, source, lineno, VocabularyError)
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


class WordTypeEntry(NamedTuple):
    """A normalized headword and its ordered homographs.

    Entries of one lexicon that have equal homographs share one
    homographs tuple, so treat it as read-only. The tag table of the
    homographs is the lexicon's, one per distinct sequence (see `Lexicon`).
    """

    key: str
    homographs: tuple[Homograph, ...]

    def sense_count(self) -> int:
        return sum(h.n_senses for h in self.homographs)


class _Pairs(dict):
    """The pairs of the tag tables built with it, each built once and then shared.

    pairs[first] is (first, 1), the pair of a tag first seen on homograph
    first, and pairs[pair] is the pair that follows it when one more
    homograph carries the tag.
    """

    def __missing__(self, key):
        pair = self[key] = (key, 1) if type(key) is int else (key[0], key[1] + 1)
        return pair


def _tag_table(homographs: tuple[Homograph, ...], pairs: _Pairs) -> dict[str, tuple[int, int]]:
    """coarse tag -> (id of the first homograph carrying it, number of homographs carrying it)."""
    table: dict[str, tuple[int, int]] = {}
    for homograph_id, (pos, _) in enumerate(homographs, start=1):
        for tag in pos:
            pair = table.get(tag)
            table[tag] = pairs[homograph_id if pair is None else pair]
    return table


@dataclass(frozen=True, init=False)
class Lexicon:
    """An immutable, insertion-ordered homograph dictionary.

    Its index maps each key to the number of its homograph sequence, one
    number per distinct homographs value. Slot number of its sequences
    holds that sequence's list of indexes into the distinct homographs
    until it is built, then its homographs tuple, and the same slot of
    its tables None, then its tag table. `_build` builds the tuple and
    the table of a number whose table slot is still None, keeps both and
    returns the table, so a lookup reads `tables[number] or
    build(number)`, then `sequences[number]`. The entries are built the
    first time they are read. One lock guards both, so threads that
    reach a sequence, or first read the entries, at once build it once.
    A lexicon compares, hashes, prints and pickles by its vocabulary and
    entries.
    """

    vocabulary: tuple[str, ...]
    entries: tuple[WordTypeEntry, ...]

    def __init__(self, vocabulary: Iterable[str], entries: Iterable[WordTypeEntry]):
        """The lexicon of entries, their values listed as a load lists them and checked as it checks them.

        The first fault, such as a key not normalized or a tag not in
        vocabulary, raises a ValueError that names the key.
        """
        vocabulary = tuple(vocabulary)
        known = frozenset(vocabulary)
        listed: dict[Homograph, int] = {}
        numbers: dict[tuple[Homograph, ...], int] = {}
        sequences: list[list[int]] = []
        index: dict[str, int] = {}
        for key, homographs in entries:
            if key in index:
                raise ValueError(f"duplicate word type key {key!r}")
            if type(key) is not str or not key or normalize_key(key) != key:
                raise ValueError(f"word type key {key!r} is not a non-empty lowercase string")
            if not homographs:
                raise ValueError(f"{key!r}: no homographs")
            number = index[key] = numbers.setdefault(homographs, len(numbers))
            if number < len(sequences):
                continue
            for position, homograph in enumerate(homographs, start=1):
                if homograph not in listed:
                    problem = _homograph_problem(homograph.pos, homograph.n_senses, known)
                    if problem is not None:
                        raise ValueError(f"{key!r}: homograph {position}: {problem}")
                    listed[homograph] = len(listed)
            sequences.append(list(map(listed.__getitem__, homographs)))
        self._setup(vocabulary, index, list(listed), sequences)

    def _setup(
        self, vocabulary: tuple[str, ...], index: dict[str, int], homographs: list, sequences: list
    ) -> Lexicon:
        """Keep the parts of a lexicon whose index numbers lists of indexes into homographs; return self.

        Nothing is built yet. Building a number replaces its list by the
        tuple of the homographs it names, then sets its tag table; the
        tables of one lexicon share one table of (first, count) pairs.
        """
        tables: list[dict[str, tuple[int, int]] | None] = [None] * len(sequences)
        tag_pairs = _Pairs()
        # a lookup reads the table before the sequence, so the table is set last;
        # reentrant, since the entries are built by building every sequence
        lock = RLock()

        def build(number: int) -> dict[str, tuple[int, int]]:
            with lock:
                table = tables[number]
                if table is None:
                    sequence = sequences[number] = tuple(map(homographs.__getitem__, sequences[number]))
                    table = tables[number] = _tag_table(sequence, tag_pairs)
            return table

        for name, value in (
            ("vocabulary", vocabulary), ("_index", index), ("_sequences", sequences),
            ("_tables", tables), ("_build", build), ("_lock", lock),
        ):
            object.__setattr__(self, name, value)
        return self

    def __getattr__(self, name: str):
        # only the entries are ever missing, until they are first read
        if name != "entries":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        with self._lock:
            entries = self.__dict__.get("entries")
            if entries is None:
                index, sequences, build = self._index, self._sequences, self._build
                for number, table in enumerate(self._tables):
                    if table is None:
                        build(number)
                entries = tuple(map(WordTypeEntry, index, map(sequences.__getitem__, index.values())))
                object.__setattr__(self, "entries", entries)
        return entries

    def __reduce__(self):
        return type(self), (self.vocabulary, self.entries)

    def __len__(self) -> int:
        return len(self._index)

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

    Every load builds its lexicon one way: the file, or the cache file
    that holds it, gives a compact form (the distinct homographs, the
    distinct homograph sequences as lists of indexes, and each entry's
    key and sequence index), and `_lexicon_from_form` checks that form
    and builds the lexicon's index from it. Each distinct homograph
    sequence and its tag table are built once, the first time a lookup
    or an iteration reaches them: keys with equal homographs share one
    sequence number, and so one homographs tuple and one tag table. The
    entries are built the first time they are read, and `len()` reads
    the index.

    A lexicon loaded from a regular file is cached, so that the next
    load of the same bytes need not decode its JSON again. After a
    successful full load, the form it parsed is written to
    `$XDG_CACHE_HOME/homograph-tagger/`, or `~/.cache/homograph-tagger/`
    when that variable is unset. The file is named by the SHA-256
    digest of the lexicon bytes, the vocabulary, the Python version and
    the package's own .py sources, so an edited lexicon, another
    vocabulary, interpreter or version of the code is a miss. A later
    load of the same bytes hashes the file in chunks, reads and checks
    the cached form and builds an equal lexicon with the same sharing,
    decoding no definition: on the benchmark's 50,000-type lexicon-large
    input (37 MB), about 0.06 s in process, half of it hashing the file,
    instead of about 0.7-0.9 s. The first,
    cold load of a file costs more than a load without the cache, since
    it hashes the file before it parses it and then writes the form:
    about 0.1 s more on lexicon-large, a tenth of its load.
    A file whose size, times or identity changed during the load is not
    cached, since the bytes parsed may not be the bytes hashed. A cache
    file that cannot be read or does not check out is a miss and is
    rewritten, and no failure of the cache changes a result or an error.
    The directory keeps at most `CACHE_FILES` files, temporary ones
    included, and deleting it is always safe. A load that cannot make or write the directory, and a
    load of a file that is not regular, such as `/dev/stdin` or a pipe
    from `<(...)`, use no cache: the file is read once and never sought,
    with nothing hashed and nothing written.

    The load runs inside `util.collector_paused`, since each collection
    during it would rescan the growing lexicon. Keeping the loaded
    lexicon out of later collections is the caller's part, since only
    the caller knows how long it lives: the CLI runs the whole command
    inside the same pause (see `cli`). A library caller whose collector
    is on pays as the lexicon ages through the collector's generations:
    a generation-0, a generation-1 and a full collection each scan all
    of it, and so does every later full one. Building late keeps that
    scan small: a load tracks about one object per distinct sequence,
    its list of indexes (about 23,800 objects for the 23,526 sequences
    of lexicon-large at seed 1). A full collection over it takes about
    0.01 s, against 0.02-0.03 s with every entry built, and each sequence
    a run reaches adds its tuple and its table. The lexicon
    holds no reference cycles, so no collection can free any of it: a
    caller that keeps it for the rest of the process can freeze it
    (`gc.freeze()`) before the next collection, so that no later one
    scans it again.
    """
    with collector_paused():
        vocab = tuple(vocabulary) if vocabulary is not None else default_vocabulary()
        with open(path, "rb", buffering=0) as raw:
            before = os.fstat(raw.fileno())
            directory = _cache_directory() if stat.S_ISREG(before.st_mode) else None
            name = None if directory is None else _cache_name(raw, vocab)
            if name is not None:
                lexicon = _lexicon_from_form(_read_form(directory, name), vocab)
                if lexicon is not None:
                    return lexicon
                # only a file that was hashed was read, and only a regular file can seek
                raw.seek(0)
            form = _read_lexicon(raw, path, vocab)
            # the name is a digest of the bytes hashed, which the bytes parsed from a
            # file changed or replaced since may not be; the form is written before the
            # build, which takes its parts out of it
            if name is not None and _unchanged(path, before):
                _write_form(directory, name, form)
            return _lexicon_from_form(form, vocab)


def _read_lexicon(raw: RawIOBase, path: str | Path, vocab: tuple[str, ...]) -> dict[str, list]:
    """Decode and check every record of the JSON Lines lexicon raw holds; return its compact form."""
    source = str(path)
    homographs: list[list] = []
    sequences: list[list[int]] = []
    read_record = _entry_reader(frozenset(vocab), source, homographs, sequences)
    sequence_of: list[int] = []
    first_line: dict[str, int] = {}
    with decoded_lines(raw) as lines:
        for lineno, text in lines:
            check_utf8(text, source, lineno, LexiconError)
            line = text.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise LexiconError(f"{source}:{lineno}: invalid JSON: {exc.msg}") from None
            except RecursionError:
                raise LexiconError(f"{source}:{lineno}: invalid JSON: nested too deeply") from None
            except ValueError:
                # json's one other ValueError: more digits than int() converts
                raise LexiconError(f"{source}:{lineno}: invalid JSON: integer too long") from None
            key, index = read_record(record, lineno)
            if key in first_line:
                raise LexiconError(
                    f"{source}:{lineno}: duplicate word type key {key!r}"
                    f" (first defined on line {first_line[key]})"
                )
            first_line[key] = lineno
            sequence_of.append(index)
    if not first_line:
        raise LexiconError(f"{source}: lexicon is empty (no word types)")
    keys = list(first_line)
    return {"homographs": homographs, "sequences": sequences, "keys": keys, "sequence_of": sequence_of}


def _entry_reader(
    vocab: frozenset[str], source: str, homographs: list[list], sequences: list[list[int]]
) -> Callable[[object, int], tuple[str, int]]:
    """The function that checks one decoded record and lists its values in the form, for one load.

    It returns the record's key and the index of its sequence. It appends
    each distinct homograph to homographs, as [pos, n_senses], and each
    distinct sequence of their indexes to sequences. It keeps a
    table of each kind of value for as long as the load keeps it, so each
    is listed once: each tag list that has passed the checks, with the
    indexes of its homographs by sense count, and each sequence with its
    index. Kinds never share a table: the tag list [1, 2] equals the
    sequence (1, 2), and would pass as already checked.
    """
    checked: dict[tuple[str, ...], dict[int, int]] = {}
    sequence_index: dict[tuple[int, ...], int] = {}

    def read_record(record, lineno: int) -> tuple[str, int]:
        """Check one decoded record and list its values, in one walk.

        Each homograph is checked and listed before the next one is read;
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
        indexes = []
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
                # an unhashable tag, which _tag_list_problem rejects
                known = None
            if known is None:
                problem = _tag_list_problem(pos, vocab)
                if problem is not None:
                    raise _homograph_error(source, lineno, word, position, problem)
                known = checked[tags] = {}
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
            index = known.get(n_senses)
            if index is None:
                index = known[n_senses] = len(homographs)
                homographs.append([pos, n_senses])
            indexes.append(index)
        sequence = tuple(indexes)
        index = sequence_index.get(sequence)
        if index is None:
            index = sequence_index[sequence] = len(sequences)
            sequences.append(indexes)
        return normalize_key(word), index

    return read_record


def _tag_list_problem(pos: list, vocab: frozenset[str]) -> str | None:
    """Why a homograph's tag list fails (a tag not a string, unknown or repeated), or None."""
    for index, tag in enumerate(pos):
        if type(tag) is not str:
            return "pos tags must be strings"
        if tag not in vocab:
            return f"unknown coarse tag {tag!r}"
        if index and tag in pos[:index]:
            return f"duplicate pos tag {tag!r}"
    return None


def _homograph_problem(pos, n_senses: object, vocab: frozenset[str]) -> str | None:
    """Why a listed homograph fails (no tags, a bad tag list or fewer than one sense), or None."""
    if not pos:
        return "no pos tags"
    if type(n_senses) is not int or n_senses < 1:
        return f"number of senses {n_senses!r} is not an int of at least 1"
    return _tag_list_problem(pos, vocab)


def _homograph_error(
    source: str, lineno: int, word: str, position: int, message: str
) -> LexiconError:
    return LexiconError(f"{source}:{lineno}: {word!r}: homograph {position}: {message}")


# ---------------------------------------------------------------------------
# the compact form


def _lexicon_from_form(form: object, vocab: tuple[str, ...]) -> Lexicon | None:
    """The lexicon form describes, each listed value built once and shared; None if it describes none.

    The one builder of a loaded lexicon, from what `_read_lexicon` parsed
    or a cache file holds. Every value is checked as the loader checks
    it, so a form that is malformed, names a tag outside vocab, points
    past its lists, has no entries, or repeats a key or holds one not
    normalized gives None, never a wrong lexicon; a parsed form passes
    by construction. It builds the distinct homographs and the index,
    key -> sequence number, and leaves each sequence to be built when
    first reached (`Lexicon._setup`). The parts are taken out of form,
    so that the keys and their sequence numbers are freed once the index
    holds them.
    """
    if type(form) is not dict:
        return None
    raw_homographs, raw_sequences = form.pop("homographs", None), form.pop("sequences", None)
    keys, sequence_of = form.pop("keys", None), form.pop("sequence_of", None)
    if not all(type(part) is list for part in (raw_homographs, raw_sequences, keys, sequence_of)):
        return None
    if not keys or len(keys) != len(sequence_of):
        return None
    known = frozenset(vocab)
    tag_lists: dict[tuple[str, ...], tuple[str, ...]] = {}
    homographs = []
    for item in raw_homographs:
        if type(item) is not list or len(item) != 2:
            return None
        pos, n_senses = item
        if type(pos) is not list or _homograph_problem(pos, n_senses, known) is not None:
            return None
        tags = tuple(pos)
        homographs.append(Homograph(tag_lists.setdefault(tags, tags), n_senses))
    # checked a whole list at a time: these lists hold one item per word type
    if not all(type(item) is list and item for item in raw_sequences):
        return None
    if not _indexes_below(list(chain.from_iterable(raw_sequences)), len(homographs)):
        return None
    if not _indexes_below(sequence_of, len(raw_sequences)):
        return None
    if set(map(type, keys)) != {str} or "" in keys:
        return None
    # str.lower is normalize_key, mapped without a Python call per key
    if not all(map(str.__eq__, map(str.lower, keys), keys)):
        return None
    index = dict(zip(keys, sequence_of))
    # a repeated key leaves the index shorter than the keys
    if len(index) != len(keys):
        return None
    return object.__new__(Lexicon)._setup(vocab, index, homographs, raw_sequences)


def _indexes_below(values: list, bound: int) -> bool:
    """Whether values is a non-empty list of ints, each at least 0 and below bound."""
    return bool(values) and set(map(type, values)) == {int} and 0 <= min(values) and max(values) < bound


# ---------------------------------------------------------------------------
# the cache directory

# the most files the cache directory keeps; each write removes the oldest beyond it
CACHE_FILES = 16
# bytes hashed at a time when a lexicon file is looked up in the cache: small enough
# that the allocator reuses one buffer, where 1 MiB chunks raised a CLI child's peak
# resident memory by about 1 MB
_HASH_CHUNK = 1 << 16


def _cache_directory() -> str | None:
    """The cache directory, made if missing; None when it has no absolute path or cannot be written.

    It is `$XDG_CACHE_HOME/homograph-tagger`, or `~/.cache/homograph-tagger`
    when that variable is unset, empty or not an absolute path. A load
    with no directory it can write takes no part in the cache: it hashes
    nothing and builds no form that it could not keep.
    """
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    # with no home directory, expanduser leaves "~" as it is
    if not os.path.isabs(base):
        return None
    directory = os.path.join(base, "homograph-tagger")
    try:
        os.makedirs(directory, exist_ok=True)
    except OSError:
        return None
    return directory if os.access(directory, os.W_OK | os.X_OK) else None


@cache
def _code_stamp():
    """A SHA-256 hash of the Python version and the package's .py sources; None when they cannot be read.

    The sources are the .py files in `util.PACKAGE`; a package installed
    without them has none to read, and so caches nothing. The hash is
    left open for `_cache_name` to copy.
    """
    # hashlib loads OpenSSL (about 4 ms and 3.4 MB of resident library pages), whose
    # SHA-256 hashed lexicon-large's 37 MB in 0.04 s against BLAKE2b's 0.07 s on a
    # CPU with SHA extensions; only a load that uses the cache needs it
    from hashlib import sha256

    stamp = sha256(sys.version.encode())
    sources = sorted(PACKAGE.glob("*.py"))
    try:
        for source in sources:
            text = source.read_bytes()
            stamp.update(f"\0{source.name}\0{len(text)}\0".encode())
            stamp.update(text)
    except OSError:
        return None
    return stamp if sources else None


def _cache_name(raw: RawIOBase, vocab: tuple[str, ...]) -> str | None:
    """The cache file name for the lexicon raw holds, which it reads to the end.

    The name is the SHA-256 hex digest of what the code stamp hashed,
    the vocabulary and the bytes, which are hashed _HASH_CHUNK at a
    time. Without a code stamp it is None, and raw is not read.
    """
    stamp = _code_stamp()
    if stamp is None:
        return None
    digest = stamp.copy()
    digest.update(repr(vocab).encode())
    while chunk := raw.read(_HASH_CHUNK):
        digest.update(chunk)
    return digest.hexdigest() + ".json"


def _unchanged(path: str | Path, before: os.stat_result) -> bool:
    """Whether path still names the file whose status was before, with no write to it since."""
    try:
        return same_file(before, os.stat(path))
    except OSError:
        return False


def _read_form(directory: str, name: str) -> object:
    """The decoded JSON of the cache file name, or None when it is missing or cannot be read."""
    try:
        with open(os.path.join(directory, name), encoding="ascii") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError):
        # RecursionError: JSON nested too deeply, which json does not count as a ValueError
        return None


def _write_form(directory: str, name: str, form: dict[str, list]) -> None:
    """Keep form as the cache file name, then trim the directory; any failure is ignored.

    The form is written by `util.replacing`, so a reader sees a whole file
    or none, concurrent writers of one name leave one file, and a symbolic
    link planted under the name is replaced, not written through.
    """
    path = os.path.join(directory, name)
    try:
        with replacing(path, path) as fh:
            # json.dumps, unlike json.dump, encodes in C; ensure_ascii (its default) escapes
            # lone surrogates, which a lexicon's JSON escapes may hold: the text is ASCII
            fh.write(json.dumps(form, separators=(",", ":")))
        _trim(directory)
    except OSError:
        pass


def _trim(directory: str) -> None:
    """Remove the oldest files beyond CACHE_FILES, temporary ones included.

    A temporary file that a killed writer left behind thus ages out like
    any other. A live writer whose temporary file is removed fails its
    os.replace, and its write is dropped.
    """
    aged = []
    with os.scandir(directory) as entries:
        for entry in entries:
            # another writer may have removed it first
            with suppress(FileNotFoundError):
                if entry.is_file(follow_symlinks=False):
                    aged.append((entry.stat(follow_symlinks=False).st_mtime_ns, entry.path))
    aged.sort()
    for _, path in aged[: max(0, len(aged) - CACHE_FILES)]:
        with suppress(FileNotFoundError):
            os.unlink(path)


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
    (monohomographic). The counts come from the tag table of the
    entry's homographs.
    """
    return _category(entry.homographs, _tag_table(entry.homographs, _Pairs()))


def _category(homographs: tuple[Homograph, ...], table: dict[str, tuple[int, int]]) -> str:
    """`classify_word_type` of a word type with these homographs and this tag table."""
    if len(homographs) == 1:
        return "monohomographic"
    counts = [count for _, count in table.values()]
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
    """Aggregate the four-way classification over a whole lexicon.

    A word type's category, sense count and collisions all follow from
    its homographs, so the word types of one homograph sequence are
    counted together: each distinct sequence is classified once, from
    its homographs and tag table, and weighted by the number of keys the
    index gives it. No entry is built, only the sequences not built yet.
    """
    # load_lexicon rejects an empty file; a Lexicon made by hand may still be empty
    if not lexicon._index:
        raise LexiconError("cannot analyze an empty lexicon")
    sequences, tables, build = lexicon._sequences, lexicon._tables, lexicon._build
    weights = [0] * len(sequences)
    for number in lexicon._index.values():
        weights[number] += 1
    by_category: Counter[str] = Counter()
    n_polysemous = 0
    collisions: Counter[str] = Counter()
    for number, weight in enumerate(weights):
        if not weight:
            continue
        table = tables[number] or build(number)
        homographs = sequences[number]
        by_category[_category(homographs, table)] += weight
        if sum(h.n_senses for h in homographs) >= 2:
            n_polysemous += weight
        for tag, (_, count) in table.items():
            if count >= 2:
                collisions[tag] += weight
    n = len(lexicon._index)
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
