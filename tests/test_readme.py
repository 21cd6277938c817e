"""The README's Library example, run against the test fixtures so that it cannot drift."""

import re
from collections import Counter
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def library_example():
    """The first Python block after the README's `## Library` heading."""
    text = README.read_text("utf-8")
    section = text[text.index("\n## Library\n"):]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


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
