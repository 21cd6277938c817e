"""Small builders shared by the test modules."""

import pytest

from homograph_tagger import (
    Homograph,
    Lexicon,
    LineRecord,
    WordTypeEntry,
    default_vocabulary,
    load_lexicon,
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


def tok(surface, fine, lemma=None, gold=None):
    return LineRecord(surface, fine, lemma, gold)


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
    return [record for document in documents for record in document.tokens]


def cache_files(directory):
    """The names of the files in a lexicon cache directory, temporary ones included."""
    return sorted(p.name for p in directory.iterdir()) if directory.exists() else []


def identity_partition(values):
    """The positions of values grouped by the object at each, as a set of groups."""
    groups = {}
    for position, value in enumerate(values):
        groups.setdefault(id(value), []).append(position)
    return {tuple(group) for group in groups.values()}


def tag_tables(lexicon):
    """key -> the tag table of the key's homograph sequence, in key order, each built if need be."""
    return {key: lexicon._build(number) for key, number in lexicon._index.items()}


def refuse_full_load(*args):
    raise AssertionError("a full load ran where the cache should have answered")


def load_each_way(path, load=load_lexicon):
    """load(path) on each of the three load paths, keyed by 'cold', 'hit' and 'uncached'.

    The current lexicon cache must not hold path yet, so that the first
    load is a full load that writes it. The hit refuses a full load. The
    uncached load runs with XDG_CACHE_HOME naming path itself, a regular
    file, under which no cache directory can be made.
    """
    results = {"cold": load(path)}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("homograph_tagger.lexicon._entry_reader", refuse_full_load)
        results["hit"] = load(path)
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(path))
        results["uncached"] = load(path)
    return results
