"""The README's Library section, checked against the package so that it cannot drift."""

import builtins
import re
from collections import Counter
from pathlib import Path

import homograph_tagger

README = Path(__file__).parent.parent / "README.md"


def library_section():
    """The README's text from its `## Library` heading to the next heading of that level."""
    text = README.read_text("utf-8")
    section = text[text.index("\n## Library\n") + 1:]
    return section[:section.find("\n## ")]


def library_example():
    """The first Python block of the README's Library section."""
    return re.search(r"```python\n(.*?)```", library_section(), re.DOTALL).group(1)


def test_every_function_the_library_section_calls_is_exported():
    # a bare `name(`, not a method or module attribute such as `gc.freeze(`
    called = set(re.findall(r"(?<![\w.])([A-Za-z_]\w*)\(", library_section()))
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
