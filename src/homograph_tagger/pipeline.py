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

A token is the plain tuple `(index, line, record)`: its position in its
document, its source line number and a `LineRecord`. The record holds
what the token's line says (surface, fine tag, lemma, gold id) and, once
tagged, what the tagger made of it (coarse tag, status, homograph id,
the word type's homograph count) and the rendered output line after the
index. A status is its output letter, the string "C", "U", "M" or "F",
from the tagger to the scorer and the summary line. A rendered token is
its index followed by that tail.

`tag_corpus` is the way to tag; every command takes it. It yields one
tagged document at a time, so a caller that writes each document before
reading the next holds one document in memory, not the corpus.
`read_corpus`, `tag_document` and `render_output` remain as the layer
calls of the benchmark's in-process child, which times reading, tagging
and rendering apart. The one reader keeps a table local to the run from
each distinct token line to its record: a line seen before costs one
dict lookup and one token tuple, and is not split, checked, tagged or
rendered again, and tokens on equal lines share one record.
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
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import CorpusError, UnmappedTagError
from .lexicon import Lexicon, normalize_key
from .tagmap import TagMapping
from .util import numbered_lines

OUTPUT_HEADER = "#homograph-tagger v1"
# the most distinct token lines a reader keeps; a full table is emptied
LINE_TABLE_SIZE = 1 << 14
_MISSING = "-"
# _make(Cls, fields) builds the NamedTuple Cls without running the
# Python-level __new__ that calling Cls runs, about half the cost of a record
_make = tuple.__new__


_record_of = itemgetter(2)
_status_of = attrgetter("status")


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
    output line after the index.
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


# one corpus token: its index in its document, its source line number
# (kept for diagnostics) and its line's record; a plain tuple, which
# costs about half what a named one does
Token = tuple[int, int, LineRecord]


@dataclass(frozen=True)
class Document:
    doc_id: str
    tokens: tuple[Token, ...]


# the record of a line's surface, fine tag, lemma and gold id: tagged,
# untagged, or None for an unmapped fine tag in strict mode
_RecordOf = Callable[..., "LineRecord | None"]


# ---------------------------------------------------------------------------
# corpus reading


def read_corpus(path: str | Path) -> Iterator[Document]:
    """Read a tab-separated tagged corpus, yielding one document at a time.

    Token indexes are assigned 0..m-1 per document; the tokens are not
    tagged. Malformed lines, bad gold ids and duplicate document ids are
    rejected with the offending line number where one exists, when the
    reader reaches them: the documents before them have been yielded by
    then. A corpus with no documents at all is rejected once the file is
    read to the end. Iterate it once to stream the corpus;
    `list(read_corpus(path))` reads it whole.
    """
    return _read(path, _untagged)


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
    unmapped fine tag makes its token closed class. Each distinct line is
    checked and tagged once per run (see the module docstring). With
    render false every record's tail is None: a caller that never
    renders, such as a scorer, so skips making an output line for every
    distinct corpus line.
    """
    return _read(path, _tagging_rule(lexicon, mapping, strict, skip_proper, render))


def _read(path: str | Path, record_of: _RecordOf) -> Iterator[Document]:
    """The documents at path, each distinct line's record made once by record_of."""
    source = str(path)
    limit = LINE_TABLE_SIZE
    table: dict[str, LineRecord] = {}
    known = table.get
    seen: set[str] = set()
    ordinal = 0
    current_id: str | None = None
    tokens: list[Token] = []
    with numbered_lines(path, CorpusError) as lines:
        for lineno, raw in lines:
            record = known(raw)
            if record is None:
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
                        ordinal += 1
                        current_id, tokens = _new_id(doc_id, seen, source, lineno), []
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
                if len(table) >= limit:
                    table.clear()
                table[raw] = record
            if current_id is None:
                ordinal += 1
                current_id = _new_id(f"doc{ordinal}", seen, source, lineno)
            tokens.append((len(tokens), lineno, record))
    if current_id is not None:
        yield Document(current_id, tuple(tokens))
    if not seen:
        raise CorpusError(f"{source}: empty corpus (no documents)")


def _untagged(surface: str, fine: str, lemma: str | None, gold: int | None) -> LineRecord:
    return _make(LineRecord, (surface, fine, lemma, gold, None, None, None, 0, None))


def _new_id(doc_id: str, seen: set[str], source: str, lineno: int) -> str:
    """doc_id, once checked against and added to the ids seen so far."""
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


def tag_document(lexicon: Lexicon, mapping: TagMapping, document: Document) -> list[Token]:
    """Tag every token of a document, in order, in strict mode.

    Each result is the token with its record tagged by the rule that
    `tag_corpus` applies. The first unmapped fine tag raises, as
    `unmapped fine tag 'XYZ' (line N)`, since no file is named.
    """
    tag = _tagging_rule(lexicon, mapping, strict=True, skip_proper=False, render=True)
    # tokens on equal lines share one record, so each record is tagged once
    tagged_of: dict[LineRecord, LineRecord] = {}
    results = []
    for index, line, record in document.tokens:
        tagged = tagged_of.get(record)
        if tagged is None:
            tagged = tag(*record[:4])
            if tagged is None:
                raise UnmappedTagError(f"unmapped fine tag {record.fine_tag!r} (line {line})")
            tagged_of[record] = tagged
        results.append((index, line, tagged))
    return results


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
        return _make(
            LineRecord, (surface, fine, lemma, gold, coarse, status, homograph_id, n_homographs, tail)
        )

    return tag


# ---------------------------------------------------------------------------
# output


def render_output(results: Iterable[Token]) -> str:
    """Render tagged tokens in the tab-separated output format, header included."""
    return f"{OUTPUT_HEADER}\n{render_tokens(results)}"


def render_tokens(results: Iterable[Token]) -> str:
    """Render tagged tokens as output lines, without the header."""
    return "".join([f"{index}{record.tail}" for index, _, record in results])


def status_counts(results: Iterable[Token]) -> Counter[str]:
    """Tally of tagged tokens' status letters, for run summaries."""
    return Counter(map(_status_of, map(_record_of, results)))
