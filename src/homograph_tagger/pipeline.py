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
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .errors import CorpusError, UnmappedTagError
from .lexicon import Lexicon, lookup
from .tagmap import TagMapping

OUTPUT_HEADER = "#homograph-tagger v1"
_MISSING = "-"


class TokenStatus(enum.Enum):
    """What the tagger did with a token (single-letter output codes)."""

    CLOSED_CLASS = "C"
    UNKNOWN_WORD = "U"
    MATCHED = "M"
    FALLBACK = "F"


@dataclass(frozen=True)
class TaggedToken:
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


@dataclass(frozen=True)
class SenseTaggedToken:
    """A token after homograph assignment.

    polyhomographic is True only for known open-class tokens whose word
    type has two or more homographs. coarse_tag is None only for tokens
    whose fine tag was unmapped in lenient mode.
    """

    token: TaggedToken
    coarse_tag: str | None
    open_class: bool
    status: TokenStatus
    homograph_id: int | None
    polyhomographic: bool


def lookup_key(token: TaggedToken) -> str:
    """The form a token is looked up by: its lemma when given, else the surface.

    Left unnormalized, since `lookup` normalizes what it is given.
    """
    return token.lemma if token.lemma else token.surface


# ---------------------------------------------------------------------------
# corpus reading


def read_corpus(path: str | Path) -> list[Document]:
    """Read a tab-separated tagged corpus into documents.

    Token indexes are assigned 0..m-1 per document. Malformed lines,
    bad gold ids, duplicate document ids and a corpus with no documents
    at all are rejected with the offending line number where one exists.
    """
    source = str(path)
    documents: list[Document] = []
    ordinal = 0
    current_id: str | None = None
    current_explicit = False
    tokens: list[TaggedToken] = []

    def close_document() -> None:
        nonlocal current_id, current_explicit, tokens
        if current_id is not None:
            documents.append(Document(current_id, tuple(tokens)))
        current_id = None
        current_explicit = False
        tokens = []

    with open(path, encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line.strip():
                # blank lines end a document once it has tokens; a freshly
                # declared, still-empty document stays open
                if tokens:
                    close_document()
                continue
            if line.startswith("# doc:"):
                doc_id = line[len("# doc:"):].strip()
                if not doc_id:
                    raise CorpusError(f"{source}:{lineno}: document header with empty id")
                close_document()
                ordinal += 1
                current_id = doc_id
                current_explicit = True
                continue
            if line.startswith("#") and not line.startswith("#\t"):
                continue
            fields = line.split("\t")
            if not 2 <= len(fields) <= 4:
                raise CorpusError(
                    f"{source}:{lineno}: expected 2 to 4 tab-separated fields,"
                    f" got {len(fields)}"
                )
            surface, fine = fields[0], fields[1]
            if not surface:
                raise CorpusError(f"{source}:{lineno}: empty surface field")
            if not fine:
                raise CorpusError(f"{source}:{lineno}: empty fine tag field")
            lemma = fields[2] if len(fields) >= 3 and fields[2] else None
            gold = None
            if len(fields) == 4 and fields[3]:
                try:
                    gold = int(fields[3])
                except ValueError:
                    raise CorpusError(
                        f"{source}:{lineno}: gold homograph id must be an integer,"
                        f" got {fields[3]!r}"
                    ) from None
                if gold < 1:
                    raise CorpusError(f"{source}:{lineno}: gold homograph id must be >= 1")
            if current_id is None:
                ordinal += 1
                current_id = f"doc{ordinal}"
            tokens.append(
                TaggedToken(
                    index=len(tokens),
                    surface=surface,
                    fine_tag=fine,
                    lemma=lemma,
                    gold_homograph_id=gold,
                    line=lineno,
                )
            )
        close_document()
    if not documents:
        raise CorpusError(f"{source}: empty corpus (no documents)")
    counts = Counter(d.doc_id for d in documents)
    duplicates = [doc_id for doc_id, n in counts.items() if n > 1]
    if duplicates:
        raise CorpusError(f"{source}: duplicate document id {duplicates[0]!r}")
    return documents


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
    if skip_proper and token.fine_tag in mapping.proper_tags:
        coarse = mapping.entries.get(token.fine_tag)
        return SenseTaggedToken(token, coarse, False, TokenStatus.CLOSED_CLASS, None, False)
    coarse = mapping.entries.get(token.fine_tag)
    if coarse is None:
        if strict:
            raise UnmappedTagError(token.fine_tag, line=token.line)
        return SenseTaggedToken(token, None, False, TokenStatus.CLOSED_CLASS, None, False)
    if coarse not in mapping.open_class:
        return SenseTaggedToken(token, coarse, False, TokenStatus.CLOSED_CLASS, None, False)
    entry = lookup(lexicon, lookup_key(token))
    if entry is None:
        return SenseTaggedToken(token, coarse, True, TokenStatus.UNKNOWN_WORD, None, False)
    poly = entry.polyhomographic
    for homograph in entry.homographs:
        if coarse in homograph.pos:
            return SenseTaggedToken(
                token, coarse, True, TokenStatus.MATCHED, homograph.homograph_id, poly
            )
    return SenseTaggedToken(token, coarse, True, TokenStatus.FALLBACK, 1, poly)


def tag_document(
    lexicon: Lexicon,
    mapping: TagMapping,
    document: Document,
    *,
    strict: bool = True,
    skip_proper: bool = False,
) -> list[SenseTaggedToken]:
    """Disambiguate every token of a document, in order.

    In strict mode the first token-level error aborts the document.
    """
    return [
        disambiguate_token(lexicon, mapping, token, strict=strict, skip_proper=skip_proper)
        for token in document.tokens
    ]


# ---------------------------------------------------------------------------
# output


def render_output(results: Iterable[SenseTaggedToken]) -> str:
    """Render results in the tab-separated output format, header included."""
    lines = [OUTPUT_HEADER]
    for tagged in results:
        lines.append(
            "\t".join(
                (
                    str(tagged.token.index),
                    tagged.token.surface,
                    tagged.coarse_tag if tagged.coarse_tag is not None else _MISSING,
                    tagged.status.value,
                    str(tagged.homograph_id) if tagged.homograph_id is not None else _MISSING,
                )
            )
        )
    return "\n".join(lines) + "\n"


def status_counts(results: Iterable[SenseTaggedToken]) -> Counter[TokenStatus]:
    """Tally of token statuses, for run summaries."""
    return Counter(tagged.status for tagged in results)
