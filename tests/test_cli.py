import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from importlib.resources import files
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from homograph_tagger import OUTPUT_HEADER
from homograph_tagger import cli
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

    monkeypatch.setattr("homograph_tagger.cli.render_tokens", interrupt)
    result = invoke(
        runner, "tag",
        "--lexicon", fx(fixtures_dir, "pipeline_lexicon.jsonl"),
        "--corpus", fx(fixtures_dir, "news_corpus.tsv"),
        "--out", tmp_path / "tagged.tsv",
    )
    assert result.exit_code != 0
    assert list(tmp_path.iterdir()) == []


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
    corpus = tmp_path / "c.tsv"
    corpus.write_text("bank\tNN\t\t9\n", encoding="utf-8")
    result = invoke(
        runner, "eval",
        "--lexicon", fx(fixtures_dir, "pipeline_lexicon.jsonl"),
        "--corpus", corpus,
    )
    assert result.exit_code == 1
    assert "out of range" in result.stderr


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
        monkeypatch.setattr("homograph_tagger.cli.render_tokens", interrupt)
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
def test_any_input_bytes_give_output_or_one_error_line(runner, tmp_path, run, data, splice_at):
    """The fuzzed file is the bytes alone, or the bytes put in the well-formed file at a line start."""
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
    elif command == "tag":
        header, *lines, last = result.stdout.split("\n")
        assert header == OUTPUT_HEADER and last == ""
        assert all(len(line.split("\t")) == 5 for line in lines)
