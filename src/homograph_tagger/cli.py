"""Command-line interface: validate, analyze, tag and eval subcommands.

Each subcommand loads what it needs, does its work and writes its
result; failures are reported in one place, `_Main.invoke`. Exit
codes: 0 on success, 1 on a data error (malformed or undecodable
lexicon, vocabulary, tag map or corpus, or failed evaluation
preconditions), 2 on a usage or I/O error. Diagnostics go to stderr;
data goes through `_output`, to stdout or to the chosen output path,
as UTF-8 whatever the locale. Input files may start with a UTF-8 byte
order mark, which is ignored.

`tag` and `eval` stream the corpus through `tag_corpus`: each document
is read, tagged and written (or scored) before the next one is read,
and each distinct token line is checked and tagged once, in a table of
bounded size, so memory does not grow with the corpus. Both print the
same one-line summary of token statuses to stderr when they succeed:
`tag` counts the statuses of the tokens it writes, and `eval` reads
them from its report, which has counted every token's status. A status
is its output letter ("M", "F", "U" or "C") from tagger to summary.
A file named by `--out` or `--report` is written all-or-nothing: the
run writes a temporary file in the same directory and renames it over
the target only on success, so a failed or interrupted run leaves no
output file and an existing one untouched.
Stdout has no such guarantee: a run that fails part way may already
have printed a prefix of its output; it still exits 1 (or 2) with one
`error:` line on stderr. A run whose stdout pipe the reader closes early
(`tag ... | head`) stops quietly: exit 1, nothing on stderr.

`_Main.invoke` runs the whole command inside `util.collector_paused`,
so the cyclic garbage collector never rescans the lexicon while the
command holds it, and is put back as it was however the command ends.
"""

from __future__ import annotations

import os
import sys
from collections import Counter
from contextlib import contextmanager
from itertools import chain, tee
from operator import attrgetter, itemgetter
from typing import Iterator, Mapping, TextIO

import click

from .errors import EvaluationError, TaggerDataError
from .evaluation import evaluate, render_report
from .lexicon import (
    analyze_lexicon,
    default_vocabulary,
    load_lexicon,
    load_vocabulary,
    render_taxonomy,
)
from .pipeline import OUTPUT_HEADER, render_tokens, status_counts, tag_corpus
from .tagmap import default_tagmap, load_tagmap
from .util import collector_paused

EXIT_DATA_ERROR = 1
EXIT_USAGE_ERROR = 2
_record_of = itemgetter(2)
_gold_of = attrgetter("gold_homograph_id")


class _Main(click.Group):
    """The command group; turns every data or I/O failure into one `error:` line.

    Each command runs inside `util.collector_paused` (see the module docstring).
    """

    def invoke(self, ctx):
        try:
            with collector_paused():
                return super().invoke(ctx)
        except TaggerDataError as exc:
            # keep the text, not the exception: its traceback holds this frame,
            # so the two would make a cycle that keeps the command's locals alive
            code, message = EXIT_DATA_ERROR, str(exc)
        except BrokenPipeError:
            # click's own handler exits 1 without a message or a traceback
            raise
        except OSError as exc:
            code, message = EXIT_USAGE_ERROR, str(exc)
        print(f"error: {message}", file=sys.stderr)
        ctx.exit(code)


def _load_lexicon(lexicon_path, vocabulary_path):
    vocabulary = load_vocabulary(vocabulary_path) if vocabulary_path else default_vocabulary()
    return load_lexicon(lexicon_path, vocabulary)


def _load_tagmap(tagmap_path, vocabulary):
    return load_tagmap(tagmap_path, vocabulary) if tagmap_path else default_tagmap(vocabulary)


def _summary(n_documents: int, counts: Mapping[str, int]) -> str:
    """The stderr line that ends a successful tag or eval run, from counts by status letter."""
    return (
        f"tagged {sum(counts.values())} tokens in {n_documents} documents:"
        f" {counts['M']} matched, {counts['F']} fallback,"
        f" {counts['U']} unknown, {counts['C']} closed-class"
    )


@contextmanager
def _output(path: str | None) -> Iterator[TextIO]:
    """A text stream to path, or to stdout when path is None.

    Either way the text is written as UTF-8 with LF line ends, whatever
    the locale or PYTHONIOENCODING says. A path is written through a
    temporary file beside it (beside the file it links to, for a
    symbolic link), renamed over it when the block ends normally and
    removed when the block raises anything, KeyboardInterrupt included.
    A path that exists and is not a regular file, such as /dev/null, is
    written directly.
    """
    if path is None:
        # a stream with no reconfigure, such as io.StringIO, holds text and encodes nothing
        if hasattr(sys.stdout, "reconfigure"):
            sys.stdout.reconfigure(encoding="utf-8", newline="\n")
        yield sys.stdout
        return
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        return
    target = os.path.realpath(path)
    directory, name = os.path.split(target)
    temporary = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
    try:
        # O_EXCL never clobbers another file; mode 0o666 lets the umask apply as for open()
        descriptor = os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with open(descriptor, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(temporary, target)
    except BaseException:
        os.unlink(temporary)
        raise


def _output_path(ctx, param, value):
    """Reject an empty output path, which would otherwise mean stdout."""
    if value is not None and not value:
        raise click.BadParameter("must not be empty")
    return value


@click.group(cls=_Main)
def main():
    """Lexicon-driven homograph tagging from part-of-speech tags."""


_lexicon_option = click.option(
    "--lexicon", "lexicon_path", required=True, type=click.Path(), help="Lexicon file (JSON Lines)."
)
_vocab_option = click.option(
    "--vocab",
    "vocabulary_path",
    type=click.Path(),
    default=None,
    help="Coarse tag vocabulary file (default: the embedded 17-tag set).",
)
_tagmap_option = click.option(
    "--tagmap",
    "tagmap_path",
    type=click.Path(),
    default=None,
    help="Fine-to-coarse tag mapping file (default: the embedded Penn Treebank table).",
)
_lenient_option = click.option(
    "--lenient",
    is_flag=True,
    help="Treat unmapped fine tags as closed class instead of failing.",
)
_skip_proper_option = click.option(
    "--skip-proper",
    is_flag=True,
    help="Pass proper-noun tokens through without sense tagging.",
)
_report_format_option = click.option(
    "--report-format",
    type=click.Choice(["text", "structured"]),
    default="text",
    show_default=True,
    help="Report rendering: human-readable text or a flat JSON record.",
)


@main.command()
@_lexicon_option
@_vocab_option
@_tagmap_option
def validate(lexicon_path, vocabulary_path, tagmap_path):
    """Check that a lexicon (and optional vocabulary and tag map) load cleanly."""
    lexicon = _load_lexicon(lexicon_path, vocabulary_path)
    mapping = _load_tagmap(tagmap_path, lexicon.vocabulary)
    print(
        f"lexicon ok: {len(lexicon)} word types; tag map ok: {len(mapping)} fine tags",
        file=sys.stderr,
    )


@main.command()
@_lexicon_option
@_vocab_option
@_report_format_option
def analyze(lexicon_path, vocabulary_path, report_format):
    """Classify every word type and print the taxonomy report."""
    report = analyze_lexicon(_load_lexicon(lexicon_path, vocabulary_path))
    with _output(None) as out:
        out.write(render_taxonomy(report, report_format))


@main.command()
@_lexicon_option
@_vocab_option
@_tagmap_option
@click.option("--corpus", "corpus_path", required=True, type=click.Path(), help="Tagged corpus file.")
@click.option(
    "--out",
    "output_path",
    type=click.Path(),
    default=None,
    callback=_output_path,
    help="Output file (default: stdout).",
)
@_lenient_option
@_skip_proper_option
def tag(lexicon_path, vocabulary_path, tagmap_path, corpus_path, output_path, lenient, skip_proper):
    """Assign a homograph to every token of a POS-tagged corpus."""
    lexicon = _load_lexicon(lexicon_path, vocabulary_path)
    mapping = _load_tagmap(tagmap_path, lexicon.vocabulary)
    stream = tag_corpus(lexicon, mapping, corpus_path, strict=not lenient, skip_proper=skip_proper)
    # the first document is tagged before any output is opened, so a corpus
    # that fails at once (missing, empty, malformed at the top) prints nothing
    documents = chain([next(stream)], stream)
    counts: Counter[str] = Counter()
    n_documents = 0
    with _output(output_path) as out:
        out.write(f"{OUTPUT_HEADER}\n")
        for document in documents:
            out.write(render_tokens(document.tokens))
            counts.update(status_counts(document.tokens))
            n_documents += 1
    print(_summary(n_documents, counts), file=sys.stderr)


@main.command(name="eval")
@_lexicon_option
@_vocab_option
@_tagmap_option
@click.option(
    "--corpus",
    "corpus_path",
    required=True,
    type=click.Path(),
    help="Tagged corpus file with gold homograph annotations.",
)
@click.option(
    "--report",
    "report_path",
    type=click.Path(),
    default=None,
    callback=_output_path,
    help="Report file (default: stdout).",
)
@_report_format_option
@_lenient_option
@_skip_proper_option
def eval_command(
    lexicon_path, vocabulary_path, tagmap_path, corpus_path, report_path, report_format, lenient, skip_proper
):
    """Tag a gold-annotated corpus and score the assignments."""
    lexicon = _load_lexicon(lexicon_path, vocabulary_path)
    mapping = _load_tagmap(tagmap_path, lexicon.vocabulary)
    annotated = False
    n_documents = n_tokens = 0

    def tokens():
        nonlocal annotated, n_documents, n_tokens
        documents = tag_corpus(
            lexicon, mapping, corpus_path, strict=not lenient, skip_proper=skip_proper, render=False
        )
        for document in documents:
            # a gold id is at least 1, so a token is annotated when its gold id is true
            annotated = annotated or any(map(_gold_of, map(_record_of, document.tokens)))
            n_documents += 1
            n_tokens += len(document.tokens)
            yield from document.tokens

    # evaluate takes the two in step, so tee holds at most one token
    scored, aligned = tee(tokens())
    report = evaluate(lexicon, scored, map(_gold_of, map(_record_of, aligned)))
    if not annotated:
        raise EvaluationError(f"{corpus_path}: corpus carries no gold homograph annotations")
    with _output(report_path) as out:
        out.write(render_report(report, report_format))
    # evaluate has counted every open-class token as matched, fallback or unknown
    known = report.n_open_class - report.n_unknown
    counts = {
        "M": known - report.fallback_count,
        "F": report.fallback_count,
        "U": report.n_unknown,
        "C": n_tokens - report.n_open_class,
    }
    print(_summary(n_documents, counts), file=sys.stderr)
