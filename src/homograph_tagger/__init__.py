"""Lexicon-driven homograph tagging from part-of-speech information.

The package loads a homograph-structured lexicon (word type, ordered
homographs, each with its coarse tags and its senses), classifies each
word type by how far a correct coarse POS tag can disambiguate it, tags
POS-annotated corpora by picking the first homograph matching each
token's coarse tag, and scores the assignments against gold
annotations.
"""

from .errors import (
    CorpusError,
    EvaluationError,
    LexiconError,
    TaggerDataError,
    TagMapError,
    UnmappedTagError,
    VocabularyError,
)
from .evaluation import EvalReport, evaluate, render_report
from .lexicon import (
    Homograph,
    Lexicon,
    TaxonomyReport,
    WordTypeEntry,
    analyze_lexicon,
    classify_word_type,
    default_vocabulary,
    load_lexicon,
    load_vocabulary,
    normalize_key,
    render_taxonomy,
)
from .pipeline import (
    OUTPUT_HEADER,
    Document,
    LineRecord,
    read_corpus,
    render_output,
    render_tokens,
    tag_corpus,
    tag_document,
)
from .tagmap import DEFAULT_OPEN_CLASS, TagMapping, default_tagmap, load_tagmap

__version__ = "0.1.0"
