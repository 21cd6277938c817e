"""Small builders shared by the test modules."""

from homograph_tagger import (
    Homograph,
    Lexicon,
    TaggedToken,
    WordTypeEntry,
    default_vocabulary,
)


def make_homograph(homograph_id, pos, senses=1):
    if isinstance(pos, str):
        # a bare "nv" would silently iterate per character
        raise TypeError("pos must be a sequence of tags, not a string")
    definitions = tuple(f"sense {i} of homograph {homograph_id}" for i in range(1, senses + 1))
    return Homograph(tuple(pos), definitions)


def make_entry(word, *pos_groups, senses=None):
    """Entry whose homographs carry the given pos groups, in order."""
    counts = senses if senses is not None else [1] * len(pos_groups)
    homographs = tuple(
        make_homograph(i, group, n)
        for i, (group, n) in enumerate(zip(pos_groups, counts), start=1)
    )
    return WordTypeEntry(word, homographs)


def make_lexicon(*entries, vocabulary=None):
    return Lexicon(
        vocabulary=tuple(vocabulary) if vocabulary is not None else default_vocabulary(),
        entries=tuple(entries),
    )


def tok(surface, fine, lemma=None, gold=None, index=0, line=None):
    return TaggedToken(
        index=index,
        surface=surface,
        fine_tag=fine,
        lemma=lemma,
        gold_homograph_id=gold,
        line=line,
    )
