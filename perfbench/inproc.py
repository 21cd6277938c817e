"""Child process that calls the package's public functions in-process.

    python3 perfbench/inproc.py setup LEXICON
    python3 perfbench/inproc.py import
    python3 perfbench/inproc.py trace LEXICON CORPUS GOLD OUTDIR
    python3 perfbench/inproc.py plain LEXICON CORPUS GOLD OUTDIR

The parent (perfbench/run.py) starts it with `src` on PYTHONPATH, so it
runs the package of the checkout it sits in.

`setup` does what every CLI run does before its first token: import the
CLI and load the vocabulary, lexicon and tag map. It prints the number
of word types, which the parent checks; the parent times the process.

`import` prints, as JSON, the seconds taken to import
homograph_tagger.cli and the file the package was imported from.

`trace` calls every layer once on one workload's inputs, in the order
the CLI commands use them, and records a span around each call;
`plain` makes the same calls without spans. `evaluate` scores against
GOLD, a JSON list of the gold id (or null) of every corpus token, so it
has gold on workloads whose corpus carries none. Both write the rendered
tag output, evaluation report and taxonomy report to OUTDIR, and a
record `run.json` holding the spans, the RSS high-water mark after the
load, read and tag stages, the total seconds, the document count and
the number of homographs the loaded lexicon holds. Spans stay in memory
until the calls are done.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path


def _rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """In-memory spans: id, name, parent id, start and end in nanoseconds."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.rss_kb: dict[str, int] = {}

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        span_id = len(self.spans)
        record = {
            "id": span_id,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
        }
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield
        finally:
            self._stack.pop()
            record["end_ns"] = time.perf_counter_ns()

    def mark_rss(self, stage: str) -> None:
        if self.enabled:
            self.rss_kb[stage] = _rss_kb()


def run_layers(tracer: Tracer, lexicon_path: str, corpus_path: str, gold_path: str, outdir: Path) -> dict:
    from homograph_tagger.evaluation import evaluate, render_report
    from homograph_tagger.lexicon import analyze_lexicon, load_lexicon, render_taxonomy
    from homograph_tagger.pipeline import read_corpus, render_output, tag_document
    from homograph_tagger.tagmap import default_tagmap

    with open(gold_path, encoding="utf-8") as fh:
        gold = json.load(fh)
    started = time.perf_counter()
    with tracer.span("run"):
        with tracer.span("load_lexicon"):
            lexicon = load_lexicon(lexicon_path)
        tracer.mark_rss("load")
        with tracer.span("default_tagmap"):
            mapping = default_tagmap()
        with tracer.span("read_corpus"):
            documents = list(read_corpus(corpus_path))
        tracer.mark_rss("read")
        results = []
        for document in documents:
            with tracer.span("tag_document"):
                results.extend(tag_document(lexicon, mapping, document))
        tracer.mark_rss("tag")
        with tracer.span("render_output"):
            tagged_text = render_output(results)
        with tracer.span("evaluate"):
            report = evaluate(lexicon, results, gold)
        with tracer.span("render_report"):
            report_text = render_report(report, "structured")
        with tracer.span("analyze_lexicon"):
            taxonomy = analyze_lexicon(lexicon)
        with tracer.span("render_taxonomy"):
            taxonomy_text = render_taxonomy(taxonomy, "structured")
    total = time.perf_counter() - started

    for name, text in (("tag.tsv", tagged_text), ("eval.json", report_text), ("analyze.json", taxonomy_text)):
        (outdir / name).write_text(text, encoding="utf-8", newline="\n")
    return {
        "total_s": total,
        "documents": len(documents),
        "homographs": sum(len(entry.homographs) for entry in lexicon),
        "spans": tracer.spans,
        "rss_kb": tracer.rss_kb,
    }


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        import homograph_tagger.cli  # noqa: F401  (the CLI's own imports are part of set-up)
        from homograph_tagger.lexicon import default_vocabulary, load_lexicon
        from homograph_tagger.tagmap import default_tagmap

        vocabulary = default_vocabulary()
        lexicon = load_lexicon(argv[1], vocabulary)
        default_tagmap(vocabulary)
        print(len(lexicon))
    elif mode == "import":
        started = time.perf_counter()
        import homograph_tagger.cli

        seconds = time.perf_counter() - started
        print(json.dumps({"seconds": seconds, "file": homograph_tagger.cli.__file__}))
    elif mode in ("trace", "plain"):
        outdir = Path(argv[4])
        record = run_layers(Tracer(mode == "trace"), argv[1], argv[2], argv[3], outdir)
        (outdir / "run.json").write_text(json.dumps(record), encoding="utf-8")
    else:
        print(f"error: unknown mode {mode!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
