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
is read, tagged and written (or counted) before the next one is read,
and each distinct token line is checked and tagged once, in a table of
bounded size. So the tokens of one document are held at a time, and
the ids of all documents read so far, one per document, to reject a
duplicate: a corpus with no blank line is one document, and its memory
grows with its length. Both commands count tokens one way: by each
record's tally key, its status letter then how its gold id scores (see
`pipeline.tally_of`). `tag` prints the one-line summary of token
statuses from that tally to stderr when it succeeds, and `eval` prints
the same line and renders its report from the same tally. A status is
its output letter ("M", "F", "U" or "C") from tagger to summary.
A file named by `--out` or `--report` is written all-or-nothing: the
run writes a temporary file in the same directory and renames it over
the target only on success, so a failed or interrupted run leaves no
output file and an existing one untouched.
Stdout has no such guarantee: a run that fails part way may already
have printed a prefix of its output; it still exits 1 (or 2) with one
`error:` line on stderr. A run whose stdout pipe the reader closes early
(`tag ... | head`) stops quietly: exit 1, nothing on stderr.

A corpus that is a regular file of two parts of PART_BYTES or more is
split among the usable CPUs at blank lines that end a document (see
`_corpus_parts` and the `_parts` module, which only such a run imports).
After the lexicon and tag map are loaded, and before any output opens,
one worker process is forked per part after the first. Each worker
holds its own line table and current document, and reads, checks and
tags and tallies its part of the one open file. This process tags the
first part, then takes the workers' results in file order: it names
their documents after its own, copies their spooled output and adds
their tallies. It raises the first failure in reading order once the
output that a run in one process would have written is written. So a
split run gives the same output, summary, error and exit code. A
corpus from a pipe, one under two parts and one with no document end in
place stay in this process, as does every corpus where one CPU is
usable, other threads run, a worker cannot be started or os.fork does
not exist.

`_Main.invoke` runs the whole command inside `util.collector_paused`,
so the cyclic garbage collector never rescans the lexicon while the
command holds it, and is put back as it was however the command ends.
"""

from __future__ import annotations

import os
import sys
from collections import Counter
from contextlib import contextmanager
from itertools import chain
from typing import Any, Callable, Iterator, Mapping, TextIO

import click

from .errors import EvaluationError, TaggerDataError
from .evaluation import render_report, report_of
from .lexicon import (
    analyze_lexicon,
    default_vocabulary,
    load_lexicon,
    load_vocabulary,
    render_taxonomy,
)
from .pipeline import OUTPUT_HEADER, Document, _tally_documents, tag_corpus, tally_totals
from .tagmap import default_tagmap, load_tagmap
from .util import collector_paused, replacing

EXIT_DATA_ERROR = 1
EXIT_USAGE_ERROR = 2
# the fewest corpus bytes in each part of a split run (see `_corpus_parts`):
# on parts of 64 KiB a second process just paid for itself, on 256 KiB clearly
PART_BYTES = 1 << 18


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
    """The stderr line that ends a successful tag or eval run, from counts by tally key."""
    totals = tally_totals(counts)
    return (
        f"tagged {sum(counts.values())} tokens in {n_documents} documents:"
        f" {totals['M']} matched, {totals['F']} fallback,"
        f" {totals['U']} unknown, {totals['C']} closed-class"
    )


@contextmanager
def _output(path: str | None) -> Iterator[TextIO]:
    """A text stream to path, or to stdout when path is None.

    Either way the text is written as UTF-8 with LF line ends, whatever
    the locale or PYTHONIOENCODING says. A path is written all or nothing
    by `util.replacing` (the file it links to, for a symbolic link, which
    so keeps linking to the new file).
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
    with replacing(os.path.realpath(path), path) as fh:
        yield fh


def _usable_cpus() -> int:
    """The number of CPUs this process may run on; 1 where the platform cannot say."""
    if hasattr(os, "process_cpu_count"):
        return os.process_cpu_count() or 1
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


@contextmanager
def _corpus_parts(
    lexicon, mapping, corpus_path: str, **options
) -> Iterator[tuple[Iterator[Document], Callable[..., Iterator[Any]]]]:
    """The documents this process tags, and the tallies of the other processes.

    Yields (documents, results). Where os.fork exists, more than one CPU
    is usable and the corpus is a regular file of two parts of PART_BYTES
    or more, `_parts.corpus_parts` may split it among worker processes:
    documents is then the first part's, and results(write) yields, in file
    order, `_tally_documents(part, write)` of each other part. Otherwise
    documents is `tag_corpus(lexicon, mapping, corpus_path, **options)`
    and results yields nothing.
    """
    import stat

    try:
        before = os.stat(corpus_path)
    except (OSError, ValueError):
        # the reader reports a path that cannot be read
        before = None
    if before is not None and stat.S_ISREG(before.st_mode) and hasattr(os, "fork"):
        parts = min(_usable_cpus(), before.st_size // PART_BYTES)
        if parts > 1:
            from ._parts import corpus_parts

            split = corpus_parts(
                lexicon, mapping, corpus_path, before, parts, PART_BYTES, **options
            )
            with split as documents_and_results:
                if documents_and_results is not None:
                    yield documents_and_results
                    return
    yield tag_corpus(lexicon, mapping, corpus_path, **options), lambda write=None: iter(())


def _tallied(
    documents: Iterator[Document], results: Callable[..., Iterator[Any]], write=None
) -> tuple[Counter[str], int]:
    """The tally and number of documents of every part, each part's output written through write."""
    counts, n_documents = _tally_documents(documents, write)
    for more_counts, more_documents in results(write):
        counts.update(more_counts)
        n_documents += more_documents
    return counts, n_documents


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
    options = dict(strict=not lenient, skip_proper=skip_proper, render=True)
    with _corpus_parts(lexicon, mapping, corpus_path, **options) as (stream, results):
        # the first document is tagged before any output is opened, so a corpus
        # that fails at once (missing, empty, malformed at the top) prints nothing
        documents = chain([next(stream)], stream)
        with _output(output_path) as out:
            out.write(f"{OUTPUT_HEADER}\n")
            counts, n_documents = _tallied(documents, results, out.write)
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
    options = dict(strict=not lenient, skip_proper=skip_proper, render=False)
    with _corpus_parts(lexicon, mapping, corpus_path, **options) as (documents, results):
        counts, n_documents = _tallied(documents, results)
    if not tally_totals(counts)["gold"]:
        raise EvaluationError(f"{corpus_path}: corpus carries no gold homograph annotations")
    with _output(report_path) as out:
        out.write(render_report(report_of(counts), report_format))
    print(_summary(n_documents, counts), file=sys.stderr)
