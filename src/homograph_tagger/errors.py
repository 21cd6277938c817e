"""Exception types raised by the loaders and processors.

Everything that means "the input data is bad" derives from
TaggerDataError so the command-line layer can map it to one exit code.
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

    def __init__(self, tag: str, line: int | None = None, path: str | None = None):
        self.tag = tag
        self.line = line
        self.path = path
        if path is not None:
            # the shape of every other corpus error: PATH:LINE: message
            super().__init__(f"{path}:{line}: unmapped fine tag {tag!r}")
        else:
            where = f" (line {line})" if line is not None else ""
            super().__init__(f"unmapped fine tag {tag!r}{where}")


class CorpusError(TaggerDataError):
    """Bad tagged corpus file."""


class EvaluationError(TaggerDataError):
    """Evaluation preconditions violated (alignment, gold id range)."""
