"""POS-tagged corpus ingestion and homograph assignment.

Corpus format: one token per line, tab-separated:

    SURFACE<TAB>FINE_TAG[<TAB>LEMMA[<TAB>GOLD_HOMOGRAPH_ID]]

Blank lines separate documents, and a `# doc: <id>` line names the
document that follows. Other '#'-initial lines are comments, unless the
'#' is immediately followed by a tab (that is a token whose surface is
'#'). The LEMMA field may be left empty to give a gold id without a
lemma; when present, the lemma is used instead of the surface for
lexicon lookup.

Output format: the header line `#homograph-tagger v1`, then one line
per token:

    INDEX<TAB>SURFACE<TAB>COARSE<TAB>STATUS<TAB>HOMOGRAPH_ID

STATUS is C (closed class), U (unknown word), M (matched) or F
(fallback); '-' marks an absent homograph id or coarse tag. INDEX
restarts at 0 on each document boundary. The rendering is
byte-deterministic: same input, same bytes.

A token is its line's `LineRecord`, and its index is its position in
its document's tokens. The record holds what the token's line says
(surface, fine tag, lemma, gold id) and, once tagged, what the tagger
made of it (coarse tag, status, homograph id, the word type's homograph
count, tally key) and the rendered output line after the index. A status
is its output letter, the string "C", "U", "M" or "F", from the tagger
to the summary line. A rendered token is its index followed by that
tail. Both commands count tokens by tally key alone (`_tally_documents`).

`tag_corpus` is the way to tag; every command takes it. It yields one
tagged document at a time, so a caller that writes each document before
reading the next holds one document in memory, not the corpus.
`read_corpus`, `tag_document` and `render_output` remain as the layer
calls of the benchmark's in-process child, which times reading, tagging
and rendering apart. The one reader keeps a table local to the run from
each distinct token line to its record: a line seen before costs one
dict lookup and one reference, and is not split, checked, tagged or
rendered again, and tokens on equal lines are one record.
The table is emptied whenever it holds LINE_TABLE_SIZE lines, so its
memory is capped by that module constant, not by the corpus size. A
line that fails is never stored, so an error always names the line
where it occurs.

Tagging a line is one lookup of its fine tag, one lowercased lookup of
its word type and one lookup of the coarse tag in that word type's
`by_tag` table (see `lexicon`), which holds the first homograph carrying
each tag.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import partial
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, ContextManager, Iterable, Iterator, Mapping, NamedTuple

from .errors import CorpusError, UnmappedTagError
from .lexicon import Lexicon, normalize_key
from .tagmap import TagMapping
from .util import check_utf8, numbered_lines

OUTPUT_HEADER = "#homograph-tagger v1"
# the most distinct token lines a reader keeps; a full table is emptied
LINE_TABLE_SIZE = 1 << 14
_MISSING = "-"
# _make(Cls, fields) builds the NamedTuple Cls without running the
# Python-level __new__ that calling Cls runs, about half the cost of a record
_make = tuple.__new__
# the tally keys of a token with a gold id, by status letter (see `tally_of`)
_SCORES = ("unscored", "mono wrong", "mono right", "poly wrong", "poly right")
_SCORED = {status: tuple(f"{status} {score}" for score in _SCORES) for status in "CUMF"}


class LineRecord(NamedTuple):
    """One distinct token line: its fields and, once tagged, its tagging.

    gold_homograph_id is the optional hand-annotated homograph used by
    evaluation. The tagging fields are None (n_homographs 0) until the
    line is tagged. status is the output letter: "C" (closed class),
    "U" (unknown word), "M" (matched) or "F" (fallback). n_homographs is
    the number of homographs of the word type for a known open-class
    token (status M or F), and 0 otherwise, so only those can be
    polyhomographic. coarse_tag is None only for an untagged line or,
    once tagged, an unmapped fine tag in lenient mode. tail is the
    output line after the index. tally is the line's `tally_of` key,
    which scores its own gold id.
    """

    surface: str
    fine_tag: str
    lemma: str | None = None
    gold_homograph_id: int | None = None
    coarse_tag: str | None = None
    status: str | None = None
    homograph_id: int | None = None
    n_homographs: int = 0
    tail: str | None = None
    tally: str | None = None


@dataclass(frozen=True)
class Document:
    doc_id: str
    # a token's index in the document is its position here
    tokens: tuple[LineRecord, ...]


# the record of a line's surface, fine tag, lemma and gold id: tagged,
# untagged, or None for an unmapped fine tag in strict mode
_RecordOf = Callable[..., "LineRecord | None"]
# the id of a document from its declared id or None and the line where it starts
_Namer = Callable[[str | None, int], str]


# ---------------------------------------------------------------------------
# corpus reading


def read_corpus(path: str | Path) -> Iterator[Document]:
    """Read a tab-separated tagged corpus, yielding one document at a time.

    A document's tokens are its lines' records, untagged; a token's index
    is its position among them. Malformed lines, bad gold ids and
    duplicate document ids are rejected with the offending line number
    where one exists, when the reader reaches them: the documents before
    them have been yielded by then. A corpus with no documents at all is
    rejected once the file is read to the end. Iterate it once to stream
    the corpus; `list(read_corpus(path))` reads it whole.
    """
    return _read(path, LineRecord)


def tag_corpus(
    lexicon: Lexicon,
    mapping: TagMapping,
    path: str | Path,
    *,
    strict: bool = True,
    skip_proper: bool = False,
    render: bool = True,
) -> Iterator[Document]:
    """Read and tag a corpus in one pass, yielding one tagged document at a time.

    Each token gets a homograph from its POS tag alone. Closed-class
    tokens and, with skip_proper, proper-noun tokens pass through
    untagged; words missing from the lexicon are flagged unknown;
    otherwise the first homograph whose tags hold the coarse tag is
    chosen, falling back to homograph 1 when none does. In strict mode
    an unmapped fine tag is raised at its line, as `PATH:LINE: unmapped
    fine tag 'XYZ'`, like every other corpus error, so the first bad
    line in reading order is the one reported; in lenient mode an
    unmapped fine tag makes its token closed class. A known open-class
    token's gold id must name one of its word type's homographs, or it is
    raised at its line too. Each distinct line is checked and tagged
    once per run (see the module docstring). With render false every
    record's tail is None: a caller that never renders, such as a
    scorer, so skips making an output line for every distinct corpus
    line.
    """
    return _read(path, _tagging_rule(lexicon, mapping, strict, skip_proper, render))


def _read(path: str | Path, record_of: _RecordOf) -> Iterator[Document]:
    """The documents at path, each distinct line's record made once by record_of."""
    source = str(path)
    seen: set[str] = set()
    yield from _documents(numbered_lines(path), source, record_of, partial(_new_id, seen, source))
    if not seen:
        raise CorpusError(f"{source}: empty corpus (no documents)")


def _documents(
    opened: ContextManager[Iterator[tuple[int, str]]],
    source: str,
    record_of: _RecordOf,
    name: _Namer,
) -> Iterator[Document]:
    """The documents of the numbered lines that opened gives.

    Each document is named by name(declared id or None, line) where it starts.
    """
    limit = LINE_TABLE_SIZE
    table: dict[str, LineRecord] = {}
    known = table.get
    current_id: str | None = None
    tokens: list[LineRecord] = []
    with opened as lines:
        for lineno, raw in lines:
            record = known(raw)
            if record is None:
                # a line is stored only once it has passed every check, so only a
                # miss is checked; most lines are ASCII, which costs no call
                if not raw.isascii():
                    check_utf8(raw, source, lineno, CorpusError)
                line = raw.rstrip("\n")
                if not line or line.isspace():
                    # blank lines end a document once it has tokens; a freshly
                    # declared, still-empty document stays open
                    if tokens:
                        yield Document(current_id, tuple(tokens))
                        current_id, tokens = None, []
                    continue
                if line[0] == "#" and line[1:2] != "\t":
                    if line.startswith("# doc:"):
                        doc_id = line[len("# doc:"):].strip()
                        if not doc_id:
                            raise CorpusError(f"{source}:{lineno}: document header with empty id")
                        if current_id is not None:
                            yield Document(current_id, tuple(tokens))
                        current_id, tokens = name(doc_id, lineno), []
                    continue
                fields = line.split("\t")
                n_fields = len(fields)
                if not 2 <= n_fields <= 4:
                    raise CorpusError(
                        f"{source}:{lineno}: expected 2 to 4 tab-separated fields,"
                        f" got {n_fields}"
                    )
                surface, fine = fields[0], fields[1]
                if not surface:
                    raise CorpusError(f"{source}:{lineno}: empty surface field")
                if not fine:
                    raise CorpusError(f"{source}:{lineno}: empty fine tag field")
                lemma = (fields[2] or None) if n_fields >= 3 else None
                gold = _gold_id(fields[3], source, lineno) if n_fields == 4 and fields[3] else None
                record = record_of(surface, fine, lemma, gold)
                if record is None:
                    raise UnmappedTagError(f"{source}:{lineno}: unmapped fine tag {fine!r}")
                # only a known open-class token has homographs to check a gold id against
                if gold is not None and 0 < record.n_homographs < gold:
                    raise CorpusError(
                        f"{source}:{lineno}: gold homograph id {gold} out of range"
                        f" 1..{record.n_homographs} for {normalize_key(lemma or surface)!r}"
                    )
                if len(table) >= limit:
                    table.clear()
                table[raw] = record
            if current_id is None:
                current_id = name(None, lineno)
            tokens.append(record)
    if current_id is not None:
        yield Document(current_id, tuple(tokens))


def _new_id(seen: set[str], source: str, declared: str | None, lineno: int) -> str:
    """The id of the document after those seen, declared or numbered, once added to seen.

    A document with no declared id is numbered by its place in the corpus,
    counting every document, declared or not.
    """
    doc_id = f"doc{len(seen) + 1}" if declared is None else declared
    if doc_id in seen:
        raise CorpusError(f"{source}:{lineno}: duplicate document id {doc_id!r}")
    seen.add(doc_id)
    return doc_id


def _gold_id(field: str, source: str, lineno: int) -> int:
    # int() alone also takes Unicode digits, '_', '+' and surrounding spaces
    digits = field[1:] if field[0] == "-" else field
    try:
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError
        gold = int(field)
    except ValueError:
        raise CorpusError(
            f"{source}:{lineno}: gold homograph id must be an integer, got {field!r}"
        ) from None
    if gold < 1:
        raise CorpusError(f"{source}:{lineno}: gold homograph id must be >= 1")
    return gold


# ---------------------------------------------------------------------------
# homograph assignment


def tag_document(
    lexicon: Lexicon, mapping: TagMapping, document: Document
) -> list[tuple[int, LineRecord]]:
    """Tag every token of a document, in order, in strict mode.

    Each result is the pair (index, record) of a token's index and its
    record tagged by the rule that `tag_corpus` applies. The first
    unmapped fine tag raises, as `unmapped fine tag 'XYZ' (token N)`
    with the token's index, since no file is named.
    """
    tag = _tagging_rule(lexicon, mapping, strict=True, skip_proper=False, render=True)
    # tokens on equal lines are one record, so each record is tagged once
    tagged_of: dict[LineRecord, LineRecord] = {}
    results = []
    for index, record in enumerate(document.tokens):
        tagged = tagged_of.get(record)
        if tagged is None:
            tagged = tag(*record[:4])
            if tagged is None:
                raise UnmappedTagError(f"unmapped fine tag {record.fine_tag!r} (token {index})")
            tagged_of[record] = tagged
        results.append(tagged)
    return list(enumerate(results))


def _tagging_rule(
    lexicon: Lexicon, mapping: TagMapping, strict: bool, skip_proper: bool, render: bool
) -> _RecordOf:
    """The tagged record of a line's fields, for one lexicon, mapping and mode."""
    coarse_of = mapping.entries.get
    open_class = mapping.open_class
    proper = mapping.proper_tags if skip_proper else frozenset()
    find = lexicon._index.get

    def tag(surface: str, fine: str, lemma: str | None, gold: int | None) -> LineRecord | None:
        coarse = coarse_of(fine)
        n_homographs = 0
        homograph_id = None
        if coarse not in open_class or fine in proper:
            if coarse is None and strict and fine not in proper:
                return None
            status = "C"
        else:
            entry = find(normalize_key(lemma or surface))
            if entry is None:
                status = "U"
            else:
                n_homographs = len(entry.homographs)
                hit = entry.by_tag.get(coarse)
                status, homograph_id = ("F", 1) if hit is None else ("M", hit[0])
        tail = (
            f"\t{surface}\t{_MISSING if coarse is None else coarse}"
            f"\t{status}\t{_MISSING if homograph_id is None else homograph_id}\n"
        ) if render else None
        tally = status if gold is None else tally_of(status, n_homographs, homograph_id, gold)
        return _make(
            LineRecord,
            (surface, fine, lemma, gold, coarse, status, homograph_id, n_homographs, tail, tally),
        )

    return tag


def tally_of(status: str, n_homographs: int, homograph_id: int | None, gold: int | None) -> str:
    """The key a tagged token is counted under: its status letter, then how its gold id scores.

    That is the letter alone without a gold id; else the letter, a space and
    "unscored" where the token has no homographs (C, U), or "mono" or "poly"
    and "right" or "wrong". Each key is one object of a fixed set of 24.
    """
    if gold is None:
        return status
    keys = _SCORED[status]
    if not n_homographs:
        return keys[0]
    return keys[1 + 2 * (n_homographs >= 2) + (homograph_id == gold)]


def tally_totals(counts: Mapping[str, int]) -> Counter[str]:
    """A tally's counts by `tally_of` key, totalled by status letter, by score and with a gold id.

    totals["M"] counts the matched tokens, totals["poly right"] the
    tokens scored right in the poly stratum, and totals["gold"] the
    tokens with a gold id, scored or not.
    """
    totals: Counter[str] = Counter()
    for key, count in counts.items():
        status, _, score = key.partition(" ")
        totals[status] += count
        if score:
            totals["gold"] += count
            totals[score] += count
    return totals


# ---------------------------------------------------------------------------
# output


def render_output(results: Iterable[tuple[int, LineRecord]]) -> str:
    """Render (index, tagged record) pairs in the tab-separated output format, header included."""
    return OUTPUT_HEADER + "\n" + "".join([f"{index}{record.tail}" for index, record in results])


def render_tokens(records: Iterable[LineRecord]) -> str:
    """Render a document's tagged records as output lines, indexed from 0, without the header."""
    return "".join([f"{index}{record.tail}" for index, record in enumerate(records)])


def _tally_documents(
    documents: Iterable[Document], write: Callable[[str], Any] | None = None
) -> tuple[Counter[str], int]:
    """The count of each tally key among documents' tokens, and the number of documents.

    Where write is given, each document's output lines are written
    through it, without the header, before the next document is read.
    """
    counts: Counter[str] = Counter()
    n_documents = 0
    for document in documents:
        if write is not None:
            write(render_tokens(document.tokens))
        counts.update(map(attrgetter("tally"), document.tokens))
        n_documents += 1
    return counts, n_documents
