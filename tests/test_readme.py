"""The README's Command line and Library sections, checked against the package so that
they cannot drift."""

import builtins
import re
from collections import Counter
from pathlib import Path

from click.testing import CliRunner

import homograph_tagger
from homograph_tagger.cli import main

README = Path(__file__).parent.parent / "README.md"


def readme_section(heading):
    """The README's text from its `## heading` line to the next heading of that level."""
    text = README.read_text("utf-8")
    section = text[text.index(f"\n## {heading}\n") + 1:]
    return section[:section.find("\n## ")]


def library_example():
    """The first Python block of the README's Library section."""
    return re.search(r"```python\n(.*?)```", readme_section("Library"), re.DOTALL).group(1)


def test_the_command_line_example_is_what_tag_prints(monkeypatch):
    section = readme_section("Command line")
    # the worked example: `$ homograph-tagger tag ... | head -4`, then its output lines
    block = re.search(r"```sh\n(\$ .*?)```", section, re.DOTALL).group(1)
    command, *shown = block.replace("\\\n", " ").splitlines()
    program, *args = command.removeprefix("$ ").split()
    assert program == "homograph-tagger"
    assert args[-3:] == ["|", "head", "-4"] and len(shown) == 4
    # the example's fixture paths are relative to the repository root
    monkeypatch.chdir(README.parent)
    result = CliRunner().invoke(main, args[:-3])
    assert result.exit_code == 0, result.output
    assert result.stdout.splitlines()[:4] == shown
    # the summary line the section quotes is the one this run prints
    summary = re.search(r"such as `(tagged [^`]*)`", section).group(1)
    assert result.stderr == " ".join(summary.split()) + "\n"


def test_every_function_the_library_section_calls_is_exported():
    # a bare `name(`, not a method or module attribute such as `gc.freeze(`
    called = set(re.findall(r"(?<![\w.])([A-Za-z_]\w*)\(", readme_section("Library")))
    assert {"load_lexicon", "tag_corpus"} <= called
    missing = sorted(
        name for name in called - set(dir(builtins)) if not hasattr(homograph_tagger, name)
    )
    assert missing == []


def test_the_readme_library_example_runs_on_the_fixtures(fixtures_dir, capsys):
    code = library_example()
    assert '"lex.jsonl"' in code and '"corpus.tsv"' in code
    code = code.replace('"lex.jsonl"', repr(str(fixtures_dir / "pipeline_lexicon.jsonl")))
    code = code.replace('"corpus.tsv"', repr(str(fixtures_dir / "news_corpus.tsv")))
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)

    golden = (fixtures_dir / "news_corpus_tagged.golden").read_text("utf-8").splitlines()[1:]
    expected = []
    for line in golden:
        index, _, _, status, homograph_id = line.split("\t")
        expected.append((index, status, "None" if homograph_id == "-" else homograph_id))
    printed = [line.split(" ") for line in capsys.readouterr().out.splitlines()]
    # each printed line is index, surface, status letter and homograph id
    assert [(fields[0], fields[-2], fields[-1]) for fields in printed] == expected
    # the last document's rendered lines end the golden output
    assert ("\n".join(golden) + "\n").endswith(namespace["text"])
    report = namespace["report"]
    # a Counter equals another that differs only in zero counts
    assert Counter(namespace["categories"].values()) == Counter({
        "monohomographic": report.n_monohomographic,
        "guaranteed": report.n_guaranteed,
        "possible": report.n_possible,
        "no-disambiguation": report.n_no_disambiguation,
    })
