"""Exception types raised by the loaders and processors.

Everything that means "the input data is bad" derives from
TaggerDataError so the command-line layer can map it to one exit code.
Every one is raised the same way, with its whole message ready-made and
no other state: `PATH:LINE: message` where the raiser knows the file and
line, `PATH: message` for a whole file.
"""


class TaggerDataError(Exception):
    """Malformed or inconsistent input data."""


class VocabularyError(TaggerDataError):
    """Bad coarse tag vocabulary file."""


class LexiconError(TaggerDataError):
    """Bad lexicon file or an operation on an unusable lexicon."""


class TagMapError(TaggerDataError):
    """Bad fine-to-coarse tag mapping file."""


class UnmappedTagError(TagMapError):
    """A fine tag with no entry in the mapping (strict mode only)."""


class CorpusError(TaggerDataError):
    """Bad tagged corpus file."""


class EvaluationError(TaggerDataError):
    """Evaluation preconditions violated (alignment, gold id range)."""
