"""Small builders shared by the test modules."""

from homograph_tagger import (
    Homograph,
    Lexicon,
    LineRecord,
    WordTypeEntry,
    default_vocabulary,
    tag_corpus,
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


def tok(surface, fine, lemma=None, gold=None, index=0, line=1):
    return index, line, LineRecord(surface, fine, lemma, gold)


def write_corpus(directory, text, name="corpus.tsv"):
    path = directory / name
    path.write_text(text, encoding="utf-8")
    return path


def tag_lines(directory, lexicon, mapping, *lines, **options):
    """The tagged records of a one-document corpus, one line per tuple of fields, in order.

    The corpus is written into directory and run through tag_corpus with
    options (strict, skip_proper, render), the path every command takes.
    """
    text = "".join("\t".join(map(str, fields)) + "\n" for fields in lines)
    documents = tag_corpus(lexicon, mapping, write_corpus(directory, text), **options)
    return [record for document in documents for _, _, record in document.tokens]
