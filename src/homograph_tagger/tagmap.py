"""Fine-to-coarse part-of-speech tag mapping and the open-class tag set.

Mapping file format (UTF-8):

    # a comment
    !open: n v adj adv
    !proper: NNP NNPS
    NN<TAB>n
    VBZ<TAB>v

`!open:` declares which coarse tags count as open class (content
words) and must name at least one; when the header is omitted the set
defaults to n/v/adj/adv.
`!proper:` optionally lists the fine tags that --skip-proper treats as
proper-noun tags. A line whose first character is '#' is a comment
unless the '#' is immediately followed by a tab, which is how the
pound-sign fine tag of the Penn Treebank set is written:

    #<TAB>punct

The shipped default table covers the 48-tag Penn Treebank set and maps
punctuation and symbol tags to the reserved coarse tag 'punct'.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Iterable

from .errors import TagMapError
from .lexicon import default_vocabulary
from .util import PACKAGE, check_utf8, numbered_lines

DEFAULT_OPEN_CLASS = frozenset({"n", "v", "adj", "adv"})


@dataclass(frozen=True)
class TagMapping:
    """A total map from a fine tag set onto the coarse vocabulary."""

    entries: dict[str, str]
    open_class: frozenset[str]
    proper_tags: frozenset[str] = frozenset()

    def __len__(self) -> int:
        return len(self.entries)


@cache
def default_tagmap(vocabulary: tuple[str, ...] | None = None) -> TagMapping:
    """The shipped Penn-Treebank-to-coarse table (48 fine tags), read from the package's data/."""
    with numbered_lines(PACKAGE / "data" / "penn_to_coarse.tsv") as lines:
        return _parse_tagmap(lines, "<default tag map>", vocabulary)


def load_tagmap(path: str | Path, vocabulary: Iterable[str] | None = None) -> TagMapping:
    """Load a mapping file, validating every image tag against the vocabulary."""
    with numbered_lines(path) as lines:
        return _parse_tagmap(lines, str(path), vocabulary)


def _parse_tagmap(lines: Iterable[tuple[int, str]], source: str, vocabulary) -> TagMapping:
    vocab = frozenset(vocabulary) if vocabulary is not None else frozenset(default_vocabulary())
    entries: dict[str, str] = {}
    open_class: frozenset[str] | None = None
    proper: frozenset[str] | None = None
    for lineno, raw in lines:
        check_utf8(raw, source, lineno, TagMapError)
        line = raw.rstrip()
        if not line:
            continue
        if line.startswith("#") and not line.startswith("#\t"):
            continue
        if line.startswith("!"):
            name, sep, value = line.partition(":")
            if not sep:
                raise TagMapError(f"{source}:{lineno}: malformed header {line!r}")
            tags = tuple(value.split())
            if name == "!open":
                if open_class is not None:
                    raise TagMapError(f"{source}:{lineno}: duplicate !open header")
                if not tags:
                    raise TagMapError(f"{source}:{lineno}: !open names no coarse tag")
                unknown = [t for t in tags if t not in vocab]
                if unknown:
                    raise TagMapError(
                        f"{source}:{lineno}: !open names unknown coarse tag {unknown[0]!r}"
                    )
                open_class = frozenset(tags)
            elif name == "!proper":
                if proper is not None:
                    raise TagMapError(f"{source}:{lineno}: duplicate !proper header")
                proper = frozenset(tags)
            else:
                raise TagMapError(f"{source}:{lineno}: unknown header {name!r}")
            continue
        fields = line.split("\t")
        if len(fields) != 2 or not fields[0] or not fields[1]:
            raise TagMapError(f"{source}:{lineno}: expected FINE<TAB>COARSE, got {line!r}")
        fine, coarse = fields
        if fine in entries:
            raise TagMapError(f"{source}:{lineno}: duplicate fine tag {fine!r}")
        if coarse not in vocab:
            raise TagMapError(
                f"{source}:{lineno}: unknown coarse tag {coarse!r} for fine tag {fine!r}"
            )
        entries[fine] = coarse
    if not entries:
        raise TagMapError(f"{source}: tag mapping is empty")
    if open_class is None:
        missing = DEFAULT_OPEN_CLASS - vocab
        if missing:
            raise TagMapError(
                f"{source}: no !open header and default open-class tag"
                f" {sorted(missing)[0]!r} is not in the vocabulary"
            )
        open_class = DEFAULT_OPEN_CLASS
    if proper is None:
        proper = frozenset()
    stray = proper - entries.keys()
    if stray:
        raise TagMapError(f"{source}: !proper names unmapped fine tag {sorted(stray)[0]!r}")
    return TagMapping(entries=entries, open_class=open_class, proper_tags=proper)
