"""Command-line interface: validate, analyze, tag and eval subcommands.

Each subcommand loads what it needs, does its work and writes its
result; failures are reported in one place, `_Main.invoke`. Exit
codes: 0 on success, 1 on a data error (malformed or undecodable
lexicon, vocabulary, tag map or corpus, or failed evaluation
preconditions), 2 on a usage or I/O error. Diagnostics go to stderr;
data goes to stdout or to the chosen output path. Input files may
start with a UTF-8 byte order mark, which is ignored.
"""

from __future__ import annotations

import sys

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
from .pipeline import TokenStatus, read_corpus, render_output, status_counts, tag_document
from .tagmap import default_tagmap, load_tagmap

EXIT_DATA_ERROR = 1
EXIT_USAGE_ERROR = 2


class _Main(click.Group):
    """The command group; turns every data or I/O failure into one `error:` line."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (TaggerDataError, UnicodeDecodeError) as exc:
            code, message = EXIT_DATA_ERROR, exc
        except OSError as exc:
            code, message = EXIT_USAGE_ERROR, exc
        print(f"error: {message}", file=sys.stderr)
        ctx.exit(code)


def _load_lexicon(lexicon_path, vocabulary_path):
    vocabulary = load_vocabulary(vocabulary_path) if vocabulary_path else default_vocabulary()
    return load_lexicon(lexicon_path, vocabulary)


def _load_tagmap(tagmap_path, vocabulary):
    return load_tagmap(tagmap_path, vocabulary) if tagmap_path else default_tagmap(vocabulary)


def _tag_corpus(lexicon_path, vocabulary_path, tagmap_path, corpus_path, lenient, skip_proper):
    lexicon = _load_lexicon(lexicon_path, vocabulary_path)
    mapping = _load_tagmap(tagmap_path, lexicon.vocabulary)
    documents = read_corpus(corpus_path)
    results = []
    for document in documents:
        results.extend(
            tag_document(lexicon, mapping, document, strict=not lenient, skip_proper=skip_proper)
        )
    return lexicon, documents, results


def _write(text: str, path: str | None) -> None:
    """Write text to path, or to stdout when no path is given."""
    if not path:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


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
    sys.stdout.write(render_taxonomy(report, report_format))


@main.command()
@_lexicon_option
@_vocab_option
@_tagmap_option
@click.option("--corpus", "corpus_path", required=True, type=click.Path(), help="Tagged corpus file.")
@click.option("--out", "output_path", type=click.Path(), default=None, help="Output file (default: stdout).")
@_lenient_option
@_skip_proper_option
def tag(lexicon_path, vocabulary_path, tagmap_path, corpus_path, output_path, lenient, skip_proper):
    """Assign a homograph to every token of a POS-tagged corpus."""
    _, documents, results = _tag_corpus(
        lexicon_path, vocabulary_path, tagmap_path, corpus_path, lenient, skip_proper
    )
    # rendered in full before the file is opened, so a failed run leaves no file
    _write(render_output(results), output_path)
    counts = status_counts(results)
    print(
        f"tagged {len(results)} tokens in {len(documents)} documents:"
        f" {counts[TokenStatus.MATCHED]} matched,"
        f" {counts[TokenStatus.FALLBACK]} fallback,"
        f" {counts[TokenStatus.UNKNOWN_WORD]} unknown,"
        f" {counts[TokenStatus.CLOSED_CLASS]} closed-class",
        file=sys.stderr,
    )


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
@click.option("--report", "report_path", type=click.Path(), default=None, help="Report file (default: stdout).")
@_report_format_option
@_lenient_option
@_skip_proper_option
def eval_command(
    lexicon_path, vocabulary_path, tagmap_path, corpus_path, report_path, report_format, lenient, skip_proper
):
    """Tag a gold-annotated corpus and score the assignments."""
    lexicon, documents, results = _tag_corpus(
        lexicon_path, vocabulary_path, tagmap_path, corpus_path, lenient, skip_proper
    )
    gold = [token.gold_homograph_id for doc in documents for token in doc.tokens]
    if all(g is None for g in gold):
        raise EvaluationError(f"{corpus_path}: corpus carries no gold homograph annotations")
    report = evaluate(lexicon, results, gold)
    _write(render_report(report, report_format), report_path)
