"""Small builders shared by the test modules."""

from homograph_tagger import (
    Homograph,
    Lexicon,
    LineRecord,
    WordTypeEntry,
    default_vocabulary,
)


def make_homograph(pos, senses=1):
    if isinstance(pos, str):
        # a bare "nv" would silently iterate per character
        raise TypeError("pos must be a sequence of tags, not a string")
    return Homograph(tuple(pos), senses)


def make_entry(word, *pos_groups, senses=None):
    """Entry whose homographs carry the given pos groups and sense counts, in order."""
    counts = senses if senses is not None else [1] * len(pos_groups)
    return WordTypeEntry(word, tuple(map(make_homograph, pos_groups, counts)))


def make_lexicon(*entries, vocabulary=None):
    return Lexicon(
        vocabulary=tuple(vocabulary) if vocabulary is not None else default_vocabulary(),
        entries=tuple(entries),
    )


def tok(surface, fine, lemma=None, gold=None, index=0, line=None):
    return index, line, LineRecord(surface, fine, lemma, gold)
