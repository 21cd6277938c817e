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

The corpus is streamed: `read_corpus` yields one document at a time, so
a caller that tags, renders and writes each document before reading the
next holds one document in memory, not the corpus. Tokens are named
tuples. Tagging a token is one lookup of its fine tag, one lowercased
lookup of its word type and one lookup of the coarse tag in that word
type's `by_tag` table (see `lexicon`), which holds the first homograph
carrying each tag. A tagged token carries its word type's homograph
count, so a scorer needs no second lookup.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import CorpusError, UnmappedTagError
from .lexicon import Lexicon, normalize_key
from .tagmap import TagMapping
from .util import numbered_lines

OUTPUT_HEADER = "#homograph-tagger v1"
_MISSING = "-"
# _make(Cls, fields) builds the NamedTuple Cls without running the
# Python-level __new__ that calling Cls runs, about half the cost of a token
_make = tuple.__new__


class TokenStatus(enum.Enum):
    """What the tagger did with a token (single-letter output codes)."""

    CLOSED_CLASS = "C"
    UNKNOWN_WORD = "U"
    MATCHED = "M"
    FALLBACK = "F"

    # members are singletons compared by identity, so hash by identity too:
    # a C slot, where Enum.__hash__ is a Python function run per token
    __hash__ = object.__hash__


_CLOSED = TokenStatus.CLOSED_CLASS
_UNKNOWN = TokenStatus.UNKNOWN_WORD
_MATCHED = TokenStatus.MATCHED
_FALLBACK = TokenStatus.FALLBACK
_status_of = attrgetter("status")


class TaggedToken(NamedTuple):
    """One corpus token as read from the tagged input.

    line is the source line number, kept for diagnostics; gold_homograph_id
    is the optional hand-annotated homograph used by evaluation.
    """

    index: int
    surface: str
    fine_tag: str
    lemma: str | None = None
    gold_homograph_id: int | None = None
    line: int | None = None


@dataclass(frozen=True)
class Document:
    doc_id: str
    tokens: tuple[TaggedToken, ...]


class SenseTaggedToken(NamedTuple):
    """A token after homograph assignment.

    n_homographs is the number of homographs of the token's word type
    for a known open-class token (status M or F), and 0 otherwise, so
    only those can be polyhomographic. coarse_tag is None only for tokens
    whose fine tag was unmapped in lenient mode.
    """

    token: TaggedToken
    coarse_tag: str | None
    status: TokenStatus
    homograph_id: int | None
    n_homographs: int

    @property
    def open_class(self) -> bool:
        return self.status is not _CLOSED

    @property
    def polyhomographic(self) -> bool:
        return self.n_homographs >= 2


# ---------------------------------------------------------------------------
# corpus reading


def read_corpus(path: str | Path) -> Iterator[Document]:
    """Read a tab-separated tagged corpus, yielding one document at a time.

    Token indexes are assigned 0..m-1 per document. Malformed lines,
    bad gold ids and duplicate document ids are rejected with the
    offending line number where one exists, when the reader reaches
    them: the documents before them have been yielded by then. A corpus
    with no documents at all is rejected once the file is read to the
    end. Iterate it once to stream the corpus; `list(read_corpus(path))`
    reads it whole.
    """
    source = str(path)
    seen: set[str] = set()
    ordinal = 0
    current_id: str | None = None
    tokens: list[TaggedToken] = []
    with numbered_lines(path, CorpusError) as lines:
        for lineno, raw in lines:
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
            if current_id is None:
                ordinal += 1
                current_id = _new_id(f"doc{ordinal}", seen, source, lineno)
            tokens.append(_make(TaggedToken, (len(tokens), surface, fine, lemma, gold, lineno)))
    if current_id is not None:
        yield Document(current_id, tuple(tokens))
    if not seen:
        raise CorpusError(f"{source}: empty corpus (no documents)")


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


def disambiguate_token(
    lexicon: Lexicon,
    mapping: TagMapping,
    token: TaggedToken,
    *,
    strict: bool = True,
    skip_proper: bool = False,
) -> SenseTaggedToken:
    """Assign a homograph to one token from its POS tag alone.

    Closed-class tokens and, with skip_proper, proper-noun tokens pass
    through untagged; words missing from the lexicon are flagged
    unknown; otherwise the first homograph whose pos set contains the
    coarse tag is chosen, falling back to homograph 1 when none
    matches. In strict mode an unmapped fine tag raises
    UnmappedTagError; in lenient mode it makes the token closed class.
    """
    return _tag_tokens(lexicon, mapping, (token,), strict, skip_proper)[0]


def tag_document(
    lexicon: Lexicon,
    mapping: TagMapping,
    document: Document,
    *,
    strict: bool = True,
    skip_proper: bool = False,
) -> list[SenseTaggedToken]:
    """Disambiguate every token of a document, in order (see disambiguate_token).

    In strict mode the first token-level error aborts the document.
    """
    return _tag_tokens(lexicon, mapping, document.tokens, strict, skip_proper)


def _tag_tokens(
    lexicon: Lexicon,
    mapping: TagMapping,
    tokens: Sequence[TaggedToken],
    strict: bool,
    skip_proper: bool,
) -> list[SenseTaggedToken]:
    coarse_of = mapping.entries.get
    open_class = mapping.open_class
    proper = mapping.proper_tags if skip_proper else frozenset()
    find = lexicon._index.get
    results = []
    for token in tokens:
        fine = token.fine_tag
        coarse = coarse_of(fine)
        if coarse not in open_class or fine in proper:
            if coarse is None and strict and fine not in proper:
                raise UnmappedTagError(fine, line=token.line)
            results.append(_make(SenseTaggedToken, (token, coarse, _CLOSED, None, 0)))
            continue
        entry = find(normalize_key(token.lemma or token.surface))
        if entry is None:
            results.append(_make(SenseTaggedToken, (token, coarse, _UNKNOWN, None, 0)))
            continue
        n_homographs = len(entry.homographs)
        hit = entry.by_tag.get(coarse)
        if hit is None:
            results.append(_make(SenseTaggedToken, (token, coarse, _FALLBACK, 1, n_homographs)))
        else:
            results.append(_make(SenseTaggedToken, (token, coarse, _MATCHED, hit[0], n_homographs)))
    return results


# ---------------------------------------------------------------------------
# output


def render_output(results: Iterable[SenseTaggedToken]) -> str:
    """Render results in the tab-separated output format, header included."""
    return f"{OUTPUT_HEADER}\n{render_tokens(results)}"


def render_tokens(results: Iterable[SenseTaggedToken]) -> str:
    """Render results as output lines, without the header."""
    # status._value_ is the plain attribute behind the slower .value property
    return "".join([
        f"{token.index}\t{token.surface}\t{_MISSING if coarse is None else coarse}"
        f"\t{status._value_}\t{_MISSING if homograph_id is None else homograph_id}\n"
        for token, coarse, status, homograph_id, _ in results
    ])


def status_counts(results: Iterable[SenseTaggedToken]) -> Counter[TokenStatus]:
    """Tally of token statuses, for run summaries."""
    return Counter(map(_status_of, results))
