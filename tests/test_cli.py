import contextlib
import errno
import gc
import io
import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from importlib.resources import files
from pathlib import Path

import click
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from homograph_tagger import OUTPUT_HEADER, load_lexicon
from homograph_tagger import _parts, cli, pipeline
from homograph_tagger.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def fx(fixtures_dir, name):
    return str(fixtures_dir / name)


def invoke(runner, *args):
    return runner.invoke(main, [str(a) for a in args])


# ---------------------------------------------------------------------------
# validate


def test_validate_ok(runner, fixtures_dir):
    result = invoke(runner, "validate", "--lexicon", fx(fixtures_dir, "pipeline_lexicon.jsonl"))
    assert result.exit_code == 0
    assert "lexicon ok: 72 word types; tag map ok: 48 fine tags" in result.stderr
    assert result.stdout == ""


def test_validate_reports_data_errors_on_exit_1(runner, tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"word": "x"}\n', encoding="utf-8")
    result = invoke(runner, "validate", "--lexicon", bad)
    assert result.exit_code == 1
    assert result.stderr.startswith("error: ")
    assert "bad.jsonl:1" in result.stderr


def test_missing_file_is_a_usage_error(runner, tmp_path):
    result = invoke(runner, "validate", "--lexicon", tmp_path / "nope.jsonl")
    assert result.exit_code == 2
    assert "error:" in result.stderr


def test_missing_required_option_is_a_usage_error(runner):
    result = invoke(runner, "validate")
    assert result.exit_code == 2


def test_unknown_subcommand_is_a_usage_error(runner):
    assert invoke(runner, "frobnicate").exit_code == 2


@pytest.mark.parametrize(
    "bad_input, data",
    [
        ("--corpus", b"caf\xe9\tNN\n"),
        ("--lexicon", b'{"word": "caf\xe9", "homographs": []}\n'),
        ("--vocab", b"caf\xe9\n"),
        ("--tagmap", b"NN\tcaf\xe9\n"),
    ],
    ids=["corpus", "lexicon", "vocab", "tagmap"],
)
def test_undecodable_input_is_a_data_error(runner, fixtures_dir, tmp_path, bad_input, data):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(data)
    paths = {
        "--lexicon": fx(fixtures_dir, "pipeline_lexicon.jsonl"),
        "--corpus": fx(fixtures_dir, "news_corpus.tsv"),
        bad_input: bad,
    }
    result = invoke(runner, "tag", *[a for pair in paths.items() for a in pair])
    assert result.exit_code == 1
    assert result.stderr.startswith("error: ")
    assert result.stderr.count("\n") == 1
    assert "Traceback" not in result.output
    # an exception that escaped the CLI would be kept here instead of the exit
    assert isinstance(result.exception, SystemExit)
    assert f"{bad}:1: not valid UTF-8" in result.stderr


def test_undecodable_input_names_the_first_bad_line(runner, fixtures_dir, tmp_path):
    corpus = tmp_path / "c.tsv"
    corpus.write_bytes(b"bank\tNN\n\r\n# doc: x\ncaf\xe9\tNN\n")
    result = invoke(
        runner, "tag",
        "--lexicon", fx(fixtures_dir, "pipeline_lexicon.jsonl"),
        "--corpus", corpus,
    )
    assert result.exit_code == 1
    assert result.stderr == f"error: {corpus}:4: not valid UTF-8\n"


_LEXICON_LINE = b'{"word":"w","homographs":[{"pos":["n"],"senses":[{"def":"d"}]}]}\n'


# each input: a good line 1; a line 2 with a data error, or a good one; an undecodable line 3
@pytest.mark.parametrize(
    "bad_input, first, data_error, good, undecodable",
    [
        ("--corpus", b"bank\tNN\n", b"bank\n", b"bank\tVB\n", b"caf\xe9\tNN\n"),
        ("--lexicon", _LEXICON_LINE, b"{bad\n", _LEXICON_LINE.replace(b'"w"', b'"x"'),
         b'{"word":"caf\xe9"}\n'),
        ("--vocab", b"n\n", b"v v\n", b"v\n", b"caf\xe9\n"),
        ("--tagmap", b"NN\tn\n", b"NN n\n", b"VB\tv\n", b"JJ\tcaf\xe9\n"),
    ],
    ids=["corpus", "lexicon", "vocab", "tagmap"],
)
@pytest.mark.parametrize("line_2", ["data-error", "good"])
def test_the_first_bad_line_is_reported_whatever_is_wrong_with_it(
    runner, fixtures_dir, tmp_path, bad_input, first, data_error, good, undecodable, line_2
):
    # all three lines fall in one decode chunk, whose bad byte must not be raised
    # ahead of an earlier bad line
    bad = tmp_path / "bad.txt"
    bad.write_bytes(first + (data_error if line_2 == "data-error" else good) + undecodable)
    paths = {
        "--lexicon": fx(fixtures_dir, "pipeline_lexicon.jsonl"),
        "--corpus": fx(fixtures_dir, "news_corpus.tsv"),
        bad_input: bad,
    }
    result = invoke(runner, "tag", *[a for pair in paths.items() for a in pair])
    assert result.exit_code == 1
    if line_2 == "data-error":
        assert result.stderr.startswith(f"error: {bad}:2: ")
        assert "UTF-8" not in result.stderr
    else:
        assert result.stderr == f"error: {bad}:3: not valid UTF-8\n"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_an_undecodable_lexicon_in_a_named_pipe_is_reported_at_its_line(tmp_path):
    # the pipe can be read once only, so the line must be found in that one read
    fifo = tmp_path / "lexicon.fifo"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as fh:
            fh.write(_LEXICON_LINE + b'{"word":"caf\xe9"}\n')

    feeder = threading.Thread(target=feed, daemon=True)
    feeder.start()
    proc = subprocess.run(
        [sys.executable, "-m", "homograph_tagger", "validate", "--lexicon", str(fifo)],
        capture_output=True, timeout=60,
    )
    feeder.join(timeout=10)
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr == f"error: {fifo}:2: not valid UTF-8\n".encode()


_RECORD = '{"word":"w","homographs":[{"pos":["n"],"senses":[{"def":"d"}]}]'


@pytest.mark.parametrize(
    "line, message",
    [
        ("[" * 100_000, "nested too deeply"),
        (_RECORD + ',"n":' + "7" * 5000 + "}", "integer too long"),
    ],
    ids=["deep-nesting", "long-integer"],
)
def test_json_rejected_without_a_decode_error_is_a_data_error(runner, tmp_path, line, message):
    # json.loads raises RecursionError and ValueError for these, not JSONDecodeError
    lexicon = tmp_path / "lex.jsonl"
    lexicon.write_text(f"{_RECORD}}}\n{line}\n", encoding="utf-8")
    result = invoke(runner, "validate", "--lexicon", lexicon)
    if message == "integer too long" and not hasattr(sys, "get_int_max_str_digits"):
        # without a digit limit (Python before 3.11) the long integer is just data
        assert result.exit_code == 0, result.stderr
        return
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exc_info
    assert result.exit_code == 1
    assert result.stderr == f"error: {lexicon}:2: invalid JSON: {message}\n"


def test_validate_ignores_a_leading_bom_in_every_input(runner, tmp_path):
    bom = "\ufeff"
    vocab = tmp_path / "vocab.txt"
    vocab.write_text(bom + "noun\nverb\n", encoding="utf-8")
    tagmap = tmp_path / "map.tsv"
    tagmap.write_text(bom + "!open: noun verb\nN\tnoun\nV\tverb\n", encoding="utf-8")
    lexicon = tmp_path / "lex.jsonl"
    lexicon.write_text(
        bom + json.dumps({"word": "run", "homographs": [
            {"pos": ["noun"], "senses": [{"def": "a jog"}]},
        ]}) + "\n",
        encoding="utf-8",
    )
    result = invoke(
        runner, "validate", "--lexicon", lexicon, "--vocab", vocab, "--tagmap", tagmap
    )
    assert result.exit_code == 0
    assert "lexicon ok: 1 word types; tag map ok: 2 fine tags" in result.stderr


# ---------------------------------------------------------------------------
# analyze


def test_analyze_text_report(runner, fixtures_dir):
    result = invoke(runner, "analyze", "--lexicon", fx(fixtures_dir, "analyze_four.jsonl"))
    assert result.exit_code == 0
    assert "word types:      4" in result.stdout
    assert "no-disambiguation: 1" in result.stdout


def test_analyze_structured_report(runner, fixtures_dir):
    result = invoke(
        runner, "analyze",
        "--lexicon", fx(fixtures_dir, "taxonomy_lexicon.jsonl"),
        "--report-format", "structured",
    )
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    expected = json.loads((fixtures_dir / "taxonomy_expected.json").read_text("utf-8"))
    assert payload == expected


def test_analyze_does_not_load_the_tag_map(runner, tmp_path):
    # the default tag map needs coarse tags (punct, conj, ...) this vocabulary lacks
    vocab = tmp_path / "vocab.txt"
    vocab.write_text("n\nv\nadj\nadv\n", encoding="utf-8")
    lexicon = tmp_path / "lex.jsonl"
    lexicon.write_text(
        json.dumps({"word": "run", "homographs": [
            {"pos": ["n"], "senses": [{"def": "a jog"}]},
            {"pos": ["v"], "senses": [{"def": "to jog"}]},
        ]}) + "\n",
        encoding="utf-8",
    )
    result = invoke(runner, "validate", "--lexicon", lexicon, "--vocab", vocab)
    assert result.exit_code == 1
    assert result.stderr == "error: <default tag map>:6: unknown coarse tag 'conj' for fine tag 'CC'\n"
    result = invoke(runner, "analyze", "--lexicon", lexicon, "--vocab", vocab)
    assert result.exit_code == 0
    assert "guaranteed:        1" in result.stdout


@pytest.mark.parametrize("command", ["validate", "analyze", "tag", "eval"])
def test_analyze_empty_lexicon_fails(runner, fixtures_dir, tmp_path, command):
    # the loader rejects a lexicon with no word types, so no command gets to use one
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    args = [command, "--lexicon", empty]
    if command in ("tag", "eval"):
        args += ["--corpus", fx(fixtures_dir, "news_corpus.tsv")]
    result = invoke(runner, *args)
    assert result.exit_code == 1
    assert result.stderr == f"error: {empty}: lexicon is empty (no word types)\n"
    assert result.stdout == ""


# ---------------------------------------------------------------------------
# tag


def test_tag_writes_the_golden_output(runner, fixtures_dir, tmp_path):
    out = tmp_path / "out.tsv"
    result = invoke(
        runner, "tag",
        "--lexicon", fx(fixtures_dir, "pipeline_lexicon.jsonl"),
        "--corpus", fx(fixtures_dir, "news_corpus.tsv"),
        "--out", out,
    )
    assert result.exit_code == 0
    golden = (fixtures_dir / "news_corpus_tagged.golden").read_bytes()
    assert out.read_bytes() == golden
    assert (
        "tagged 209 tokens in 5 documents:"
        " 107 matched, 3 fallback, 7 unknown, 92 closed-class"
    ) in result.stderr


def test_tag_defaults_to_stdout(runner, fixtures_dir):
    result = invoke(
        runner, "tag",
        "--lexicon", fx(fixtures_dir, "eval_mixed_lexicon.jsonl"),
        "--corpus", fx(fixtures_dir, "eval_mixed_corpus.tsv"),
    )
    assert result.exit_code == 0
    assert result.stdout.startswith("#homograph-tagger v1\n")
    assert result.stdout.count("\n") == 14  # header + 13 tokens


# each command's file option: tag writes its output there, eval its report
_OUT = {"tag": "--out", "eval": "--report"}


@pytest.mark.parametrize("command", ["tag", "eval"])
def test_tag_skip_proper_reclassifies_proper_nouns(runner, fixtures_dir, tmp_path, command):
    # the fixture corpus carries gold ids, so eval scores it too
    result = invoke(
        runner, command,
        "--lexicon", fx(fixtures_dir, "pipeline_lexicon.jsonl"),
        "--corpus", fx(fixtures_dir, "news_corpus.tsv"),
        _OUT[command], tmp_path / "out.txt",
        "--skip-proper",
    )
    assert result.exit_code == 0
    # the six NNP tokens move from unknown to closed-class
    assert result.stderr == (
        "tagged 209 tokens in 5 documents: 107 matched, 3 fallback, 1 unknown, 98 closed-class\n"
    )


def test_tag_unmapped_tag_fails_with_tag_and_line(runner, fixtures_dir, tmp_path):
    corpus = tmp_path / "c.tsv"
    corpus.write_text("ok\tNN\nodd\tBES\n", encoding="utf-8")
    for command in ("tag", "eval"):
        result = invoke(
            runner, command,
            "--lexicon", fx(fixtures_dir, "pipeline_lexicon.jsonl"),
            "--corpus", corpus,
        )
        assert result.exit_code == 1
        # the shape of every other corpus error: PATH:LINE: message
        assert result.stderr == f"error: {corpus}:2: unmapped fine tag 'BES'\n"


@pytest.mark.parametrize(
    "text, message",
    [
        # an unmapped tag is raised at its line, before a later malformed line
        ("odd\tBES\nbad\n", "{corpus}:1: unmapped fine tag 'BES'"),
        ("odd\tBES\n\nbad\n", "{corpus}:1: unmapped fine tag 'BES'"),
        ("ok\tNN\nodd\tBES\nodd\tBES\n", "{corpus}:2: unmapped fine tag 'BES'"),
        # a line that failed is never remembered: each error names its first occurrence
        ("ok\tNN\nbad\nok\tNN\nbad\n", "{corpus}:2: expected 2 to 4 tab-separated fields, got 1"),
        ("ok\tNN\n\nok\tNN\t\t0\nok\tNN\t\t0\n", "{corpus}:3: gold homograph id must be >= 1"),
    ],
    ids=["unmapped-tag-before-corpus-error", "unmapped-tag-in-earlier-document",
         "repeated-unmapped-tag", "repeated-malformed-line", "repeated-bad-gold-id"],
)
def test_tag_reports_the_first_error_in_reading_order(runner, fixtures_dir, tmp_path, text, message):
    corpus = tmp_path / "c.tsv"
    corpus.write_text(text, encoding="utf-8")
    result = invoke(
        runner, "tag",
        "--lexicon", fx(fixtures_dir, "pipeline_lexicon.jsonl"),
        "--corpus", corpus,
    )
    assert result.exit_code == 1
    assert result.stderr == f"error: {message.format(corpus=corpus)}\n"


@pytest.mark.parametrize("command", ["tag", "eval"])
def test_tag_lenient_passes_unmapped_tags_through(runner, fixtures_dir, tmp_path, command):
    corpus = tmp_path / "c.tsv"
    corpus.write_text("bank\tNN\t\t1\nodd\tBES\n", encoding="utf-8")
    result = invoke(
        runner, command,
        "--lexicon", fx(fixtures_dir, "pipeline_lexicon.jsonl"),
        "--corpus", corpus,
        _OUT[command], tmp_path / "out.txt",
        "--lenient",
    )
    assert result.exit_code == 0
    assert result.stderr == (
        "tagged 2 tokens in 1 documents: 1 matched, 0 fallback, 0 unknown, 1 closed-class\n"
    )


def test_tag_empty_corpus_fails(runner, fixtures_dir, tmp_path):
    corpus = tmp_path / "c.tsv"
    corpus.write_text("# nothing but comments\n", encoding="utf-8")
    result = invoke(
        runner, "tag",
        "--lexicon", fx(fixtures_dir, "pipeline_lexicon.jsonl"),
        "--corpus", corpus,
    )
    assert result.exit_code == 1
    assert "empty corpus" in result.stderr
    # nothing is printed before the first document is tagged
    assert result.stdout == ""


def test_tag_declared_empty_document_yields_header_only_output(runner, fixtures_dir, tmp_path):
    corpus = tmp_path / "c.tsv"
    corpus.write_text("# doc: empty\n", encoding="utf-8")
    result = invoke(
        runner, "tag",
        "--lexicon", fx(fixtures_dir, "pipeline_lexicon.jsonl"),
        "--corpus", corpus,
    )
    assert result.exit_code == 0
    assert result.stdout == "#homograph-tagger v1\n"
    assert "tagged 0 tokens in 1 documents" in result.stderr


def test_tag_with_custom_vocab_and_tagmap(runner, fixtures_dir, tmp_path):
    vocab = tmp_path / "vocab.txt"
    vocab.write_text("noun\nverb\nstop\n", encoding="utf-8")
    tagmap = tmp_path / "map.tsv"
    tagmap.write_text("!open: noun verb\nN\tnoun\nV\tverb\nD\tstop\n", encoding="utf-8")
    lexicon = tmp_path / "lex.jsonl"
    lexicon.write_text(
        json.dumps({"word": "run", "homographs": [
            {"pos": ["noun"], "senses": [{"def": "a jog"}]},
            {"pos": ["verb"], "senses": [{"def": "to jog"}]},
        ]}) + "\n",
        encoding="utf-8",
    )
    corpus = tmp_path / "c.tsv"
    corpus.write_text("the\tD\nrun\tV\n", encoding="utf-8")
    result = invoke(
        runner, "tag",
        "--lexicon", lexicon, "--vocab", vocab, "--tagmap", tagmap, "--corpus", corpus,
    )
    assert result.exit_code == 0
    assert "1\trun\tverb\tM\t2" in result.stdout


def test_tag_rejects_an_open_header_that_names_no_tag(runner, fixtures_dir, tmp_path):
    # with no open-class tag every token would be tagged C
    tagmap = tmp_path / "map.tsv"
    tagmap.write_text("!open:\nNN\tn\n", encoding="utf-8")
    corpus = tmp_path / "c.tsv"
    corpus.write_text("bank\tNN\n", encoding="utf-8")
    result = invoke(
        runner, "tag",
        "--lexicon", fx(fixtures_dir, "pipeline_lexicon.jsonl"),
        "--tagmap", tagmap, "--corpus", corpus,
    )
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == f"error: {tagmap}:1: !open names no coarse tag\n"


def test_tag_ignores_a_leading_bom_in_the_corpus(runner, fixtures_dir, tmp_path):
    corpus = tmp_path / "c.tsv"
    corpus.write_text("\ufeffbank\tNN\n", encoding="utf-8")
    result = invoke(
        runner, "tag",
        "--lexicon", fx(fixtures_dir, "pipeline_lexicon.jsonl"),
        "--corpus", corpus,
    )
    assert result.exit_code == 0
    assert result.stdout == "#homograph-tagger v1\n0\tbank\tn\tM\t1\n"


@pytest.mark.parametrize("command, option", [("tag", "--out"), ("eval", "--report")])
def test_empty_output_path_is_a_usage_error(runner, fixtures_dir, command, option):
    result = invoke(
        runner, command,
        "--lexicon", fx(fixtures_dir, "eval_mixed_lexicon.jsonl"),
        "--corpus", fx(fixtures_dir, "eval_mixed_corpus.tsv"),
        option, "",
    )
    assert result.exit_code == 2
    assert result.stdout == ""


# the last document ends in a line with one field
BAD_LAST_DOCUMENT = "# doc: a\nbank\tNN\n\n# doc: b\nbank\tVB\nbad line\n"


def test_failed_tag_run_leaves_no_output_file(runner, fixtures_dir, tmp_path):
    corpus = tmp_path / "c.tsv"
    corpus.write_text(BAD_LAST_DOCUMENT, encoding="utf-8")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / "tagged.tsv"
    args = ["tag", "--lexicon", fx(fixtures_dir, "pipeline_lexicon.jsonl"), "--corpus", corpus]
    result = invoke(runner, *args, "--out", out)
    assert result.exit_code == 1
    assert "c.tsv:6" in result.stderr
    assert list(out_dir.iterdir()) == []
    # an output file from an earlier run is left as it was
    out.write_bytes(b"earlier run\r\n")
    result = invoke(runner, *args, "--out", out)
    assert result.exit_code == 1
    assert out.read_bytes() == b"earlier run\r\n"
    assert list(out_dir.iterdir()) == [out]


def test_interrupted_tag_run_leaves_no_output_file(runner, fixtures_dir, tmp_path, monkeypatch):
    def interrupt(results):
        raise KeyboardInterrupt

    monkeypatch.setattr("homograph_tagger.pipeline.render_tokens", interrupt)
    result = invoke(
        runner, "tag",
        "--lexicon", fx(fixtures_dir, "pipeline_lexicon.jsonl"),
        "--corpus", fx(fixtures_dir, "news_corpus.tsv"),
        "--out", tmp_path / "tagged.tsv",
    )
    assert result.exit_code != 0
    assert list(tmp_path.iterdir()) == []


def test_a_failed_run_whose_temporary_file_is_gone_reports_its_own_error(
    runner, fixtures_dir, tmp_path, monkeypatch
):
    def remove_temporary_first(results):
        # as another process might: the temporary output file goes before the first write
        for temporary in tmp_path.glob(".out.tsv.*.tmp"):
            temporary.unlink()
        return render_tokens(results)

    render_tokens = pipeline.render_tokens
    monkeypatch.setattr(pipeline, "render_tokens", remove_temporary_first)
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text("# doc: a\nbank\tNN\n\n# doc: b\nbad line\n", encoding="utf-8")
    result = invoke(
        runner, "tag", "--lexicon", fx(fixtures_dir, "pipeline_lexicon.jsonl"),
        "--corpus", corpus, "--out", tmp_path / "out.tsv",
    )
    assert result.exit_code == 1
    assert result.stderr == f"error: {corpus}:5: expected 2 to 4 tab-separated fields, got 1\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.tsv"]


def test_failed_tag_run_to_stdout_may_print_a_prefix(runner, fixtures_dir, tmp_path):
    corpus = tmp_path / "c.tsv"
    corpus.write_text(BAD_LAST_DOCUMENT, encoding="utf-8")
    result = invoke(
        runner, "tag",
        "--lexicon", fx(fixtures_dir, "pipeline_lexicon.jsonl"),
        "--corpus", corpus,
    )
    assert result.exit_code == 1
    assert "#homograph-tagger v1\n0\tbank\tn\tM\t1\n".startswith(result.stdout)
    assert result.stderr.startswith("error: ")
    assert result.stderr.count("\n") == 1


def test_output_into_a_missing_directory_names_the_path(runner, fixtures_dir, tmp_path):
    out = tmp_path / "missing" / "tagged.tsv"
    result = invoke(
        runner, "tag",
        "--lexicon", fx(fixtures_dir, "pipeline_lexicon.jsonl"),
        "--corpus", fx(fixtures_dir, "news_corpus.tsv"),
        "--out", out,
    )
    assert result.exit_code == 2
    assert result.stderr == f"error: [Errno 2] No such file or directory: '{out}'\n"


def test_tag_writes_through_a_symbolic_link(runner, fixtures_dir, tmp_path):
    target = tmp_path / "target.tsv"
    target.write_text("earlier run\n", encoding="utf-8")
    link = tmp_path / "link.tsv"
    link.symlink_to(target)
    result = invoke(
        runner, "tag",
        "--lexicon", fx(fixtures_dir, "pipeline_lexicon.jsonl"),
        "--corpus", fx(fixtures_dir, "news_corpus.tsv"),
        "--out", link,
    )
    assert result.exit_code == 0
    assert link.is_symlink()
    assert target.read_bytes() == (fixtures_dir / "news_corpus_tagged.golden").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.tsv", "target.tsv"]


def test_tag_writes_into_a_device_directly(runner, fixtures_dir):
    result = invoke(
        runner, "tag",
        "--lexicon", fx(fixtures_dir, "pipeline_lexicon.jsonl"),
        "--corpus", fx(fixtures_dir, "news_corpus.tsv"),
        "--out", "/dev/null",
    )
    assert result.exit_code == 0
    assert "tagged 209 tokens in 5 documents" in result.stderr


_OUTPUT_OPTION = {"tag": "--out", "eval": "--report"}


def _peak_traced_bytes(runner, command, lexicon, corpus, out):
    tracemalloc.start()
    try:
        result = invoke(
            runner, command, "--lexicon", lexicon, "--corpus", corpus, _OUTPUT_OPTION[command], out
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.exit_code == 0, result.stderr
    return peak


@pytest.mark.parametrize("command", ["tag", "eval"])
def test_memory_does_not_grow_with_the_corpus(runner, fixtures_dir, tmp_path, command):
    # the collector is off during the run, so only a loop that makes no
    # reference cycles keeps the peak flat
    lexicon = fx(fixtures_dir, "pipeline_lexicon.jsonl")
    # both runs load the lexicon from the cache, so only the corpus differs
    load_lexicon(lexicon)
    token_lines = [
        line for line in (fixtures_dir / "news_corpus.tsv").read_text("utf-8").splitlines(True)
        if line.strip() and not line.startswith("# ")
    ]
    document = "".join(token_lines[:50])
    peaks = {}
    for n_documents in (20, 200):
        corpus = tmp_path / f"c{n_documents}.tsv"
        corpus.write_text("\n".join([document] * n_documents), encoding="utf-8")
        peaks[n_documents] = _peak_traced_bytes(
            runner, command, lexicon, corpus, tmp_path / "out.txt"
        )
    assert peaks[200] < 1.5 * peaks[20], peaks


def test_tag_memory_stays_flat_when_no_line_repeats(runner, fixtures_dir, tmp_path, monkeypatch):
    # every token line is new, so only the line table's bound keeps it from growing
    monkeypatch.setattr("homograph_tagger.pipeline.LINE_TABLE_SIZE", 64)
    lexicon = fx(fixtures_dir, "pipeline_lexicon.jsonl")
    load_lexicon(lexicon)
    peaks = {}
    for n_documents in (20, 200):
        documents = (
            "".join(f"bank\tNN\tbank{d}x{t}\n" for t in range(50)) for d in range(n_documents)
        )
        corpus = tmp_path / f"c{n_documents}.tsv"
        corpus.write_text("\n".join(documents), encoding="utf-8")
        peaks[n_documents] = _peak_traced_bytes(runner, "tag", lexicon, corpus, tmp_path / "out.tsv")
    assert peaks[200] < 1.5 * peaks[20], peaks


# ---------------------------------------------------------------------------
# eval


def test_eval_text_report(runner, fixtures_dir):
    result = invoke(
        runner, "eval",
        "--lexicon", fx(fixtures_dir, "eval_mixed_lexicon.jsonl"),
        "--corpus", fx(fixtures_dir, "eval_mixed_corpus.tsv"),
    )
    assert result.exit_code == 0
    assert result.stdout.endswith("overall: 90.0% poly: 83.3% mono: 100.0% poly-share: 60.0%\n")


def test_eval_prints_the_tag_summary_line(runner, fixtures_dir, tmp_path):
    result = invoke(
        runner, "eval",
        "--lexicon", fx(fixtures_dir, "pipeline_lexicon.jsonl"),
        "--corpus", fx(fixtures_dir, "news_corpus.tsv"),
        "--report", tmp_path / "report.txt",
    )
    assert result.exit_code == 0
    assert result.stderr == (
        "tagged 209 tokens in 5 documents: 107 matched, 3 fallback, 7 unknown, 92 closed-class\n"
    )


def test_eval_structured_report_to_file(runner, fixtures_dir, tmp_path):
    report_path = tmp_path / "report.json"
    result = invoke(
        runner, "eval",
        "--lexicon", fx(fixtures_dir, "eval_mixed_lexicon.jsonl"),
        "--corpus", fx(fixtures_dir, "eval_mixed_corpus.tsv"),
        "--report", report_path,
        "--report-format", "structured",
    )
    assert result.exit_code == 0
    payload = json.loads(report_path.read_text("utf-8"))
    assert payload["n_poly"] == 6
    assert payload["accuracy_overall"] == 0.9
    assert payload["poly_share"] == 0.6


def test_eval_requires_gold_annotations(runner, fixtures_dir, tmp_path):
    corpus = tmp_path / "c.tsv"
    corpus.write_text("bank\tNN\nthe\tDT\n", encoding="utf-8")
    result = invoke(
        runner, "eval",
        "--lexicon", fx(fixtures_dir, "pipeline_lexicon.jsonl"),
        "--corpus", corpus,
    )
    assert result.exit_code == 1
    assert "no gold homograph annotations" in result.stderr


def test_eval_gold_out_of_range_fails(runner, fixtures_dir, tmp_path):
    # 'bank' has three homographs; the corpus reader checks the gold id for both commands
    corpus = tmp_path / "c.tsv"
    corpus.write_text("bank\tNN\t\t9\n", encoding="utf-8")
    for command in ("tag", "eval"):
        result = invoke(
            runner, command,
            "--lexicon", fx(fixtures_dir, "pipeline_lexicon.jsonl"),
            "--corpus", corpus,
        )
        assert result.exit_code == 1, command
        assert result.stdout == ""
        assert result.stderr == (
            f"error: {corpus}:1: gold homograph id 9 out of range 1..3 for 'bank'\n"
        )


# ---------------------------------------------------------------------------
# the garbage collector


def _fixture_args(fixtures_dir, tmp_path, args):
    # bad.jsonl is a malformed lexicon, missing.tsv does not exist, any other file is a fixture
    (tmp_path / "bad.jsonl").write_text('{"word": "x"}\n', encoding="utf-8")
    local = {"bad.jsonl", "missing.tsv"}
    return [
        a if "." not in a else tmp_path / a if a in local else fixtures_dir / a for a in args
    ]


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize(
    "args, exit_code, interrupted",
    [
        (["tag", "--lexicon", "pipeline_lexicon.jsonl", "--corpus", "news_corpus.tsv"], 0, False),
        (["tag", "--lexicon", "bad.jsonl", "--corpus", "news_corpus.tsv"], 1, False),
        (["tag", "--lexicon", "pipeline_lexicon.jsonl", "--corpus", "missing.tsv"], 2, False),
        (["tag", "--lexicon", "pipeline_lexicon.jsonl"], 2, False),
        (["tag", "--lexicon", "pipeline_lexicon.jsonl", "--corpus", "news_corpus.tsv"], 1, True),
        (["eval", "--lexicon", "pipeline_lexicon.jsonl", "--corpus", "news_corpus.tsv"], 0, False),
        (["analyze", "--lexicon", "pipeline_lexicon.jsonl"], 0, False),
        (["validate", "--lexicon", "pipeline_lexicon.jsonl"], 0, False),
    ],
    ids=["ok", "data-error", "io-error", "usage-error", "interrupted", "eval", "analyze", "validate"],
)
def test_a_run_leaves_the_garbage_collector_as_it_was(
    runner, fixtures_dir, tmp_path, monkeypatch, enabled, args, exit_code, interrupted
):
    args = _fixture_args(fixtures_dir, tmp_path, args)
    if interrupted:
        def interrupt(results):
            raise KeyboardInterrupt

        # click turns the interrupt into "Aborted!" and exit 1
        monkeypatch.setattr("homograph_tagger.pipeline.render_tokens", interrupt)
    was_enabled = gc.isenabled()
    # start with nothing frozen (Python 3.12 starts with some), so that anything the run froze shows
    gc.unfreeze()
    (gc.enable if enabled else gc.disable)()
    try:
        result = invoke(runner, *args)
        after = (gc.isenabled(), gc.get_freeze_count())
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert result.exit_code == exit_code, result.output
    assert after == (enabled, 0)


@pytest.mark.parametrize("command", ["tag", "eval"])
def test_no_collection_starts_while_a_command_runs(runner, fixtures_dir, monkeypatch, command):
    events = []
    load, summary = cli.load_lexicon, cli._summary

    def probed_load(*args):
        events.append("load")
        return load(*args)

    def probed_summary(*args):
        events.append("summary")
        return summary(*args)

    def probe(phase, info):
        if phase == "start":
            events.append("collect")

    monkeypatch.setattr(cli, "load_lexicon", probed_load)
    monkeypatch.setattr(cli, "_summary", probed_summary)
    was_enabled, threshold = gc.isenabled(), gc.get_threshold()
    # with the collector on and a threshold of 1, almost every allocation starts a collection
    gc.enable()
    gc.set_threshold(1)
    gc.callbacks.append(probe)
    try:
        result = invoke(
            runner, command,
            "--lexicon", fx(fixtures_dir, "pipeline_lexicon.jsonl"),
            "--corpus", fx(fixtures_dir, "news_corpus.tsv"),
        )
    finally:
        gc.callbacks.remove(probe)
        gc.set_threshold(*threshold)
        (gc.enable if was_enabled else gc.disable)()
    assert result.exit_code == 0, result.stderr
    # the probe works: collections start before and after the command
    assert "collect" in events
    assert events[events.index("load"):events.index("summary") + 1] == ["load", "summary"]


@pytest.mark.parametrize(
    "corpus_text, exit_code",
    [("bank\tNN\t\t1\t-\n", 1), ("bank\tXYZ\n", 1), (None, 2)],
    ids=["data-error", "unmapped-tag", "io-error"],
)
def test_a_failed_run_frees_its_lexicon(
    runner, fixtures_dir, tmp_path, monkeypatch, corpus_text, exit_code
):
    lexicons = []
    load = cli.load_lexicon

    def probed_load(*args):
        lexicon = load(*args)
        lexicons.append(weakref.ref(lexicon))
        return lexicon

    monkeypatch.setattr(cli, "load_lexicon", probed_load)
    corpus = tmp_path / "c.tsv"
    if corpus_text is not None:
        corpus.write_text(corpus_text, encoding="utf-8")
    was_enabled = gc.isenabled()
    # with the collector off, only reference counting can free the lexicon
    gc.disable()
    try:
        result = invoke(
            runner, "tag", "--lexicon", fx(fixtures_dir, "pipeline_lexicon.jsonl"), "--corpus", corpus
        )
        freed = lexicons[0]() is None
    finally:
        if was_enabled:
            gc.enable()
    assert result.exit_code == exit_code, result.stderr
    assert result.stderr.startswith("error: ")
    assert freed


# ---------------------------------------------------------------------------
# entry points


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "homograph_tagger", "--help"],
        capture_output=True, text=True, encoding="utf-8",
    )
    assert proc.returncode == 0
    assert "validate" in proc.stdout and "eval" in proc.stdout


def test_a_clean_interpreter_imports_the_cli_without_decimal():
    # with no site step, sys.path holds only the package's sources and click's
    # directory, so what is imported is what the CLI itself imports
    source = Path(__file__).resolve().parent.parent / "src"
    click_directory = Path(click.__file__).resolve().parent.parent
    code = "import sys; sys.path[:0] = sys.argv[1:]; import homograph_tagger.cli; print('decimal' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, str(source), str(click_directory)],
        capture_output=True, timeout=60, env={},
    )
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, b"", b"False\n")


@pytest.mark.parametrize(
    "flags, env",
    [([], {"PYTHONIOENCODING": "latin-1"}), (["-X", "utf8=0"], {"LC_ALL": "C"})],
    ids=["PYTHONIOENCODING=latin-1", "LC_ALL=C"],
)
def test_stdout_is_utf8_whatever_the_locale(fixtures_dir, tmp_path, flags, env):
    corpus = tmp_path / "euro.tsv"
    corpus.write_text("bank\tNN\n\u20ac\tNN\n", encoding="utf-8")
    inherited = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
    proc = subprocess.run(
        [
            sys.executable, *flags, "-m", "homograph_tagger", "tag",
            "--lexicon", fx(fixtures_dir, "pipeline_lexicon.jsonl"), "--corpus", str(corpus),
        ],
        capture_output=True, env={**inherited, **env},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{OUTPUT_HEADER}\n0\tbank\tn\tM\t1\n1\t\u20ac\tn\tU\t-\n".encode()
    assert proc.stderr == (
        b"tagged 2 tokens in 1 documents: 1 matched, 0 fallback, 1 unknown, 0 closed-class\n"
    )


def test_an_in_process_caller_may_replace_stdout_with_a_text_buffer(fixtures_dir):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        main(["analyze", "--lexicon", fx(fixtures_dir, "analyze_four.jsonl")], standalone_mode=False)
    assert "word types:      4\n" in buffer.getvalue()


def test_a_closed_stdout_pipe_ends_the_run_quietly(fixtures_dir, tmp_path):
    # 60 renamed copies of the fixture corpus render to about 190 KB, more
    # than a pipe holds, so the run is still writing when the reader stops
    text = (fixtures_dir / "news_corpus.tsv").read_text("utf-8")
    corpus = tmp_path / "big.tsv"
    corpus.write_text(
        "\n".join(text.replace("# doc: ", f"# doc: {n}-") for n in range(60)), encoding="utf-8"
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "homograph_tagger", "tag",
            "--lexicon", fx(fixtures_dir, "pipeline_lexicon.jsonl"), "--corpus", str(corpus),
        ],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        assert proc.stdout.readline() == f"{OUTPUT_HEADER}\n".encode()
        proc.stdout.close()
        _, stderr = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 1
    assert b"error:" not in stderr
    assert b"Traceback" not in stderr and b"Exception ignored" not in stderr


# ---------------------------------------------------------------------------
# a corpus split among worker processes


def _copies(fixtures_dir, n, bad_in=None):
    """n renamed copies of the fixture corpus; copy bad_in, if any, ends in a line with one field."""
    text = (fixtures_dir / "news_corpus.tsv").read_text("utf-8")
    copies = [text.replace("# doc: ", f"# doc: {k}-") for k in range(n)]
    if bad_in is not None:
        copies[bad_in] += "bad line\n"
    return "\n".join(copies)


@pytest.fixture()
def split_three_ways(monkeypatch, tmp_path):
    """Runs split a corpus of any size among three CPUs and spool to a private TMPDIR; the forks made.

    Checks once the test is done that no worker is left and no file is left in TMPDIR.
    """
    temporary = tmp_path / "tmp"
    temporary.mkdir()
    monkeypatch.setattr("tempfile.tempdir", str(temporary))
    monkeypatch.setattr(cli, "PART_BYTES", 1)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    yield forks
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert list(temporary.iterdir()) == []


@pytest.mark.parametrize("bad_in", [0, 8], ids=["first-part", "last-part"])
def test_a_failed_split_run_leaves_no_worker_and_no_file(
    runner, fixtures_dir, tmp_path, split_three_ways, bad_in
):
    corpus = tmp_path / "c.tsv"
    corpus.write_text(_copies(fixtures_dir, 9, bad_in=bad_in), encoding="utf-8")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    result = invoke(
        runner, "tag", "--lexicon", fx(fixtures_dir, "pipeline_lexicon.jsonl"),
        "--corpus", corpus, "--out", out_dir / "tagged.tsv",
    )
    assert result.exit_code == 1
    assert result.stderr.startswith(f"error: {corpus}:") and result.stderr.count("\n") == 1
    assert len(split_three_ways) == 2
    assert list(out_dir.iterdir()) == []


def test_an_interrupted_split_run_leaves_no_worker_and_no_file(
    runner, fixtures_dir, tmp_path, monkeypatch, split_three_ways
):
    parent = os.getpid()

    def interrupt(results):
        # only the parent is interrupted; a worker renders its part
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return render_tokens(results)

    render_tokens = pipeline.render_tokens
    monkeypatch.setattr(pipeline, "render_tokens", interrupt)
    corpus = tmp_path / "c.tsv"
    corpus.write_text(_copies(fixtures_dir, 9), encoding="utf-8")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    result = invoke(
        runner, "tag", "--lexicon", fx(fixtures_dir, "pipeline_lexicon.jsonl"),
        "--corpus", corpus, "--out", out_dir / "tagged.tsv",
    )
    assert result.exit_code != 0
    assert len(split_three_ways) == 2
    assert list(out_dir.iterdir()) == []


# a run that splits a corpus of any size among three CPUs, then writes to
# the file named first how many workers it started and whether any is left
_SPLIT_RUN = """
import os, sys
from homograph_tagger import _parts, cli
cli.PART_BYTES = 1
cli._usable_cpus = lambda: 3
forks = []
fork = os.fork
def counted_fork():
    forks.append(None)
    return fork()
os.fork = counted_fork
try:
    cli.main(sys.argv[2:])
finally:
    try:
        os.waitpid(-1, os.WNOHANG)
        left = "a child process"
    except ChildProcessError:
        left = "nothing"
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        fh.write(f"{len(forks)} workers, {left} left")
"""


def test_a_closed_stdout_pipe_ends_a_split_run_quietly(fixtures_dir, tmp_path):
    temporary = tmp_path / "tmp"
    temporary.mkdir()
    corpus = tmp_path / "big.tsv"
    corpus.write_text(_copies(fixtures_dir, 60), encoding="utf-8")
    left = tmp_path / "left.txt"
    proc = subprocess.Popen(
        [
            sys.executable, "-c", _SPLIT_RUN, str(left), "tag",
            "--lexicon", fx(fixtures_dir, "pipeline_lexicon.jsonl"), "--corpus", str(corpus),
        ],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "TMPDIR": str(temporary)},
    )
    try:
        assert proc.stdout.readline() == f"{OUTPUT_HEADER}\n".encode()
        proc.stdout.close()
        _, stderr = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 1
    assert stderr == b""
    assert left.read_text("utf-8") == "2 workers, nothing left"
    assert list(temporary.iterdir()) == []


def test_a_corpus_piped_to_dev_stdin_is_read_whole(fixtures_dir, tmp_path):
    left = tmp_path / "left.txt"
    proc = subprocess.run(
        [
            sys.executable, "-c", _SPLIT_RUN, str(left), "tag",
            "--lexicon", fx(fixtures_dir, "pipeline_lexicon.jsonl"), "--corpus", "/dev/stdin",
        ],
        input=(fixtures_dir / "news_corpus.tsv").read_bytes(), capture_output=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (fixtures_dir / "news_corpus_tagged.golden").read_bytes()
    assert left.read_text("utf-8") == "0 workers, nothing left"


@pytest.mark.parametrize(
    "corpus_text, cpus, part_bytes",
    [
        ("bank\tNN\nstock\tVB\n" * 500, 3, 1),
        ("bank\tNN\n\nstock\tVB\n\n" * 500, 3, 8000),
        ("bank\tNN\n\nstock\tVB\n\n" * 500, 1, 1),
    ],
    ids=["one-document", "under-the-part-size", "one-cpu"],
)
def test_a_corpus_read_whole_starts_no_worker(
    runner, fixtures_dir, tmp_path, monkeypatch, corpus_text, cpus, part_bytes
):
    corpus = tmp_path / "c.tsv"
    corpus.write_text(corpus_text, encoding="utf-8")
    args = ["tag", "--lexicon", fx(fixtures_dir, "pipeline_lexicon.jsonl"), "--corpus", corpus]
    whole = invoke(runner, *args)
    assert whole.exit_code == 0, whole.stderr

    def no_fork():
        raise AssertionError("a worker process was started")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(cli, "PART_BYTES", part_bytes)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    result = invoke(runner, *args)
    assert (result.exit_code, result.stdout, result.stderr) == (0, whole.stdout, whole.stderr)


def _read_whole(runner, monkeypatch, args):
    """The result of a run on one CPU, which reads the corpus whole."""
    cpus = cli._usable_cpus
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    result = invoke(runner, *args)
    monkeypatch.setattr(cli, "_usable_cpus", cpus)
    return result


# three word types of one, two and three homographs, each its own sequence
_THREE_SEQUENCES = "".join(
    json.dumps({"word": word, "homographs": [{"pos": ["n"], "senses": [{"def": "d"}]}] * n}) + "\n"
    for n, word in enumerate(["alpha", "bravo", "gamma"], start=1)
)


@pytest.mark.parametrize("gold", [3, 4], ids=["in-range", "out-of-range"])
def test_split_workers_build_the_sequences_their_parts_reach(
    runner, tmp_path, monkeypatch, split_three_ways, gold
):
    # one document per part, each reaching one word type; gamma's, in the last part,
    # has a gold id that only the worker that builds its sequence can check. A part
    # starts after the first document end whose last line starts past its share of
    # the corpus, so the first document is the longest
    lexicon_path = tmp_path / "lex.jsonl"
    lexicon_path.write_text(_THREE_SEQUENCES, encoding="utf-8")
    corpus = tmp_path / "c.tsv"
    documents = [("alpha", "the\tDT\n" * 4, 1), ("bravo", "", 2), ("gamma", "", gold)]
    corpus.write_text(
        "".join(f"# doc: {word}\n{more}{word}\tNN\t\t{n}\nthe\tDT\n\n" for word, more, n in documents),
        encoding="utf-8",
    )
    loaded = []

    def recorded(*args):
        loaded.append(load_lexicon(*args))
        return loaded[-1]

    monkeypatch.setattr(cli, "load_lexicon", recorded)
    for command in ("tag", "eval"):
        args = [command, "--lexicon", lexicon_path, "--corpus", corpus]
        whole = _read_whole(runner, monkeypatch, args)
        forks = len(split_three_ways)
        split = invoke(runner, *args)
        assert len(split_three_ways) == forks + 2
        assert (split.exit_code, split.stdout, split.stderr) == (whole.exit_code, whole.stdout, whole.stderr)
        # the run in one process built every sequence it reached; the split run's own
        # process built only alpha's, and the workers the rest
        assert [sum(t is not None for t in lexicon._tables) for lexicon in loaded[-2:]] == [3, 1]
    assert whole.exit_code == (0 if gold == 3 else 1)
    if gold == 4:
        assert whole.stderr == f"error: {corpus}:14: gold homograph id 4 out of range 1..3 for 'gamma'\n"


def test_eval_with_gold_only_on_closed_class_and_unknown_tokens_scores_nothing(
    runner, fixtures_dir, tmp_path, monkeypatch, split_three_ways
):
    # every document has a gold id, but none on a token that has homographs to score
    corpus = tmp_path / "c.tsv"
    corpus.write_text(
        "".join(f"# doc: d{n}\nthe\tDT\t\t{n}\nbank\tNN\nzzq\tNN\t\t2\n\n" for n in range(1, 7)),
        encoding="utf-8",
    )
    args = ["eval", "--lexicon", fx(fixtures_dir, "pipeline_lexicon.jsonl"), "--corpus", corpus]
    whole = _read_whole(runner, monkeypatch, args)
    assert split_three_ways == []
    split = invoke(runner, *args)
    assert len(split_three_ways) == 2
    for result in (whole, split):
        assert result.exit_code == 0, result.stderr
        assert "  scored:          0 (mono 0, poly 0)\n" in result.stdout
        assert result.stdout.endswith("overall: n/a poly: n/a mono: n/a poly-share: n/a\n")
        assert result.stderr == (
            "tagged 18 tokens in 6 documents: 6 matched, 0 fallback, 6 unknown, 6 closed-class\n"
        )
    assert split.stdout == whole.stdout


def test_a_split_run_that_cannot_start_a_worker_reads_the_corpus_whole(
    runner, fixtures_dir, tmp_path, monkeypatch, split_three_ways
):
    corpus = tmp_path / "c.tsv"
    corpus.write_text(_copies(fixtures_dir, 9), encoding="utf-8")
    args = ["tag", "--lexicon", fx(fixtures_dir, "pipeline_lexicon.jsonl"), "--corpus", corpus]
    whole = _read_whole(runner, monkeypatch, args)
    fork = os.fork

    def fork_once():
        # the first worker starts, and is ended when the second cannot be
        if split_three_ways:
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return fork()

    monkeypatch.setattr(os, "fork", fork_once)
    result = invoke(runner, *args)
    assert len(split_three_ways) == 1
    assert (result.exit_code, result.stdout, result.stderr) == (0, whole.stdout, whole.stderr)


def test_every_part_is_read_from_the_file_opened_whatever_becomes_of_its_path(
    runner, fixtures_dir, tmp_path, monkeypatch, split_three_ways
):
    corpus = tmp_path / "c.tsv"
    corpus.write_text(_copies(fixtures_dir, 9), encoding="utf-8")
    args = ["tag", "--lexicon", fx(fixtures_dir, "pipeline_lexicon.jsonl"), "--corpus", corpus]
    whole = _read_whole(runner, monkeypatch, args)
    part_starts = _parts.part_starts

    def then_replaced(*args):
        starts = part_starts(*args)
        other = tmp_path / "other.tsv"
        other.write_text("bank\tNN\n", encoding="utf-8")
        os.replace(other, corpus)
        return starts

    monkeypatch.setattr(_parts, "part_starts", then_replaced)
    result = invoke(runner, *args)
    assert len(split_three_ways) == 2
    assert (result.exit_code, result.stdout, result.stderr) == (0, whole.stdout, whole.stderr)


def _append_a_document(corpus):
    with corpus.open("a", encoding="utf-8") as fh:
        fh.write("\n# doc: appended\nbank\tNN\n")


def _chmod_to_the_same_mode(corpus):
    # changes the status-change time alone
    os.chmod(corpus, corpus.stat().st_mode & 0o7777)


@pytest.mark.parametrize("change", [_append_a_document, _chmod_to_the_same_mode])
def test_a_corpus_changed_after_its_stat_and_before_its_split_is_read_whole(
    runner, fixtures_dir, tmp_path, monkeypatch, split_three_ways, change
):
    corpus = tmp_path / "c.tsv"
    corpus.write_text(_copies(fixtures_dir, 9), encoding="utf-8")
    # so that the change gets a later status-change time, even on a coarse clock
    time.sleep(0.05)
    args = ["tag", "--lexicon", fx(fixtures_dir, "pipeline_lexicon.jsonl"), "--corpus", corpus]
    opened = os.open
    changed = []

    def change_then_open(path, flags, *rest, **kwargs):
        # the split opens the corpus read-only, after the CLI has stat-ed it
        if not changed and flags == os.O_RDONLY and os.fspath(path) == str(corpus):
            change(corpus)
            changed.append(path)
        return opened(path, flags, *rest, **kwargs)

    monkeypatch.setattr(os, "open", change_then_open)
    result = invoke(runner, *args)
    monkeypatch.setattr(os, "open", opened)
    assert len(changed) == 1
    assert split_three_ways == []
    whole = _read_whole(runner, monkeypatch, args)
    assert (result.exit_code, result.stdout, result.stderr) == (
        whole.exit_code, whole.stdout, whole.stderr
    )
    assert whole.exit_code == 0, whole.stderr


# ---------------------------------------------------------------------------
# arbitrary bytes in any input

_FIXTURES = Path(__file__).parent / "fixtures"
_DATA = files("homograph_tagger").joinpath("data")
_INPUTS = {
    "--lexicon": _FIXTURES / "pipeline_lexicon.jsonl",
    "--vocab": _DATA.joinpath("coarse_tags.txt"),
    "--tagmap": _DATA.joinpath("penn_to_coarse.tsv"),
    "--corpus": _FIXTURES / "news_corpus.tsv",
}
_READS = {
    "validate": ("--lexicon", "--vocab", "--tagmap"),
    "analyze": ("--lexicon", "--vocab"),
    "tag": tuple(_INPUTS),
    "eval": tuple(_INPUTS),
}
# line endings, a BOM and odd Unicode; pieces of well-formed lines; bytes
# that are not UTF-8 (a stray continuation byte, a truncated sequence, 0xff)
_odd = st.sampled_from(
    [c.encode() for c in ("\ufeff", "\n", "\r", "\r\n", "\u2028", "\x85", "\x0c", "\t", "#")]
)
_pieces = st.sampled_from([
    b"# doc: d\n", b"!open: n v\n", b"n\n", b"NN\tn\n", b"bank\tNN\n", b"bank\tVB\tbank\t2\n",
    b"bank\tNN\t\t9\n",
    b'{"word":"bank","homographs":[{"pos":["n"],"senses":[{"def":"x"}]}]}\n',
    b'{"word":"b","homographs":[{"pos":["n","v"],"senses":[{"def":"x"}]},{"pos":["v"],"senses":[]}]}\n',
])
_not_utf8 = st.sampled_from([b"\xe9", b"\xff", b"\xc3", b"\xe2\x80"])
# from mild to hostile, so that some runs get past the damage and succeed
_fuzzed_bytes = st.one_of(
    st.lists(_odd, max_size=6),
    st.lists(_odd | _pieces, max_size=8),
    st.lists(_odd | _pieces | _not_utf8 | st.binary(max_size=4), max_size=10),
).map(b"".join)
_fuzzed_run = st.sampled_from(sorted(_READS)).flatmap(
    lambda command: st.tuples(st.just(command), st.sampled_from(_READS[command]))
)


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(run=_fuzzed_run, data=_fuzzed_bytes, splice_at=st.none() | st.integers(min_value=0))
# always try a gold id past the word type's homographs, which only the corpus reader can place
@example(run=("eval", "--corpus"), data=b"bank\tNN\t\t9\n", splice_at=None)
def test_any_input_bytes_give_output_or_one_error_line(runner, tmp_path, run, data, splice_at):
    """The fuzzed file is the bytes alone, or the bytes put in the well-formed file at a line start.

    A data error (exit 1) names the file it is in, one of those on the command line.
    """
    command, fuzzed = run
    if splice_at is not None:
        well_formed = _INPUTS[fuzzed].read_bytes()
        starts = [0] + [i + 1 for i, byte in enumerate(well_formed) if byte == ord("\n")]
        at = starts[splice_at % len(starts)]
        data = well_formed[:at] + data + well_formed[at:]
    path = tmp_path / "fuzzed"
    path.write_bytes(data)
    args = [command]
    for option in _READS[command]:
        args += [option, str(path if option == fuzzed else _INPUTS[option])]
    result = runner.invoke(main, args)
    # an exception that escaped the CLI would be kept here instead of the exit
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exc_info
    assert result.exit_code in (0, 1, 2)
    if result.exit_code:
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1, result.stderr
        if result.exit_code == 1:
            paths = args[2::2]
            assert any(result.stderr.startswith(f"error: {p}:") for p in paths), result.stderr
    elif command == "tag":
        header, *lines, last = result.stdout.split("\n")
        assert header == OUTPUT_HEADER and last == ""
        assert all(len(line.split("\t")) == 5 for line in lines)
