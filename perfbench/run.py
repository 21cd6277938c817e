"""Benchmark of the homograph-tagger CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload tag-zipf --seed 1 --seconds 35 --trace 0

Run it from the root of a checkout: it runs the package under `src/` and
checks every output against the reference functions in
`tests/oracles.py`. The workloads are defined in perfbench/workloads.py.

One run generates the workload's lexicon and corpus from the seed under
`.perfbench-work/`, works out the expected outputs with the oracles,
then repeats rounds until `--seconds` are used. The loop is closed: one
child process at a time.

With `--trace 0` a round starts one fresh process that only sets up
(imports the CLI, loads vocabulary, lexicon and tag map), then runs the
workload's CLI commands, each in its own process. The end-to-end metrics
are medians over the rounds.

With `--trace 1` a round runs the workload's inputs through every layer
in one child with spans (perfbench/inproc.py trace), the same calls in
one child without spans, the workload's CLI commands and a fresh import
of the CLI. The per-layer metrics are medians over the rounds.

Every child's output is checked; a non-zero exit or a wrong output
counts as failed. Metric names and units come from BENCHMARK.json. The
human-readable lines list every metric with its unit and, for the
layers, the end-to-end metric it should move; the `record` line adds
the machine, Python version, git revision, seed, input sizes, per-round
samples and, with `--trace 1`, the spans (name, start, end, parent id)
of the last traced in-process run; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS, Spec, Workload, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = SRC / "homograph_tagger"
ORACLES = ROOT / "tests" / "oracles.py"
TAGMAP_TABLE = PACKAGE / "data" / "penn_to_coarse.tsv"
BENCHMARK = ROOT / "BENCHMARK.json"
WORK = ROOT / ".perfbench-work"
# a run must end within 180 s; children still running this long after
# the run started are killed, and count as failed
RUN_LIMIT_S = 150


# what each metric of BENCHMARK.json measures; for a layer metric, which
# end-to-end metric it should move and on which workload
NOTES = {
    "wall_s": "total wall time of the workload's CLI runs",
    "tokens_per_s": "corpus tokens over the wall time of the tag or eval run",
    "setup_s": "fresh process: import the CLI, load vocabulary, lexicon and tag map",
    "peak_rss_mb": "largest ru_maxrss among the CLI children of a round",
    "lexicon.load_s": "setup_s on all; wall_s mostly on lexicon-large",
    "lexicon.load_rss_mb": "peak_rss_mb on lexicon-large",
    "lexicon.analyze_s": "wall_s on lexicon-large only",
    "lexicon.render_taxonomy_s": "wall_s on lexicon-large only",
    "lexicon.word_types": "exact count",
    "lexicon.homographs": "exact count",
    "tagmap.load_s": "part of setup_s; expected flat",
    "pipeline.read_corpus_s": "wall_s on tag-zipf and eval-gold",
    "pipeline.read_rss_mb": "peak_rss_mb on tag-zipf and eval-gold",
    "pipeline.tag_s": "tokens_per_s on tag-zipf and eval-gold",
    "pipeline.tag_ns_per_token": "tokens_per_s on tag-zipf and eval-gold",
    "pipeline.render_s": "wall_s on tag-zipf",
    "pipeline.tag_rss_mb": "peak_rss_mb on tag-zipf",
    "pipeline.tokens": "exact count",
    "pipeline.documents": "exact count",
    "pipeline.status.C": "exact count",
    "pipeline.status.U": "exact count",
    "pipeline.status.M": "exact count",
    "pipeline.status.F": "exact count",
    "pipeline.lexicon_hit_ratio": "exact ratio (M+F)/(M+F+U)",
    "pipeline.match_ratio": "exact ratio M/(M+F)",
    "evaluation.evaluate_s": "wall_s on eval-gold only",
    "evaluation.render_report_s": "wall_s on eval-gold only",
    "evaluation.scored_tokens": "exact count",
    "cli.import_s": "wall_s on all; most on the small tag run of lexicon-large",
    "cli.overhead_s": "wall_s on tag-zipf and eval-gold; a difference, may be <= 0",
    "trace.overhead_s": "none: traced minus untraced in-process run; a difference, may be <= 0",
}

# the layer calls of perfbench/inproc.py that each CLI command makes
COMMAND_STAGES = {
    "tag": ("load_lexicon", "default_tagmap", "read_corpus", "tag_document", "render_output"),
    "eval": ("load_lexicon", "default_tagmap", "read_corpus", "tag_document", "evaluate", "render_report"),
    "analyze": ("load_lexicon", "analyze_lexicon", "render_taxonomy"),
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mb: float
    stdout: bytes
    stderr: bytes


def declared_metrics(trace: bool) -> dict[str, str]:
    """Name and unit of each metric BENCHMARK.json declares for this kind of run."""
    try:
        declared = json.loads(BENCHMARK.read_text("utf-8"))["per_layer" if trace else "end_to_end"]
        return {m["name"]: m["unit"] for m in declared}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise BenchError(f"cannot read the metrics from {BENCHMARK}: {exc!r}") from exc


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str], workdir: Path, timeout: float) -> Child:
    """Run one child to completion or kill it after `timeout` seconds.

    The child's own ru_maxrss comes from wait4.
    """
    out_path, err_path = workdir / "child.stdout", workdir / "child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(args, stdout=out, stderr=err, cwd=ROOT, env=_child_env())
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024, out_path.read_bytes(), err_path.read_bytes())


def cli_args(command: str, workload: Workload, outdir: Path) -> tuple[list[str], Path | None]:
    """The argument list of one CLI command and the file it writes, if any."""
    base = [sys.executable, "-m", "homograph_tagger", command, "--lexicon", str(workload.lexicon_path)]
    if command == "tag":
        out = outdir / "cli-tag.tsv"
        return base + ["--corpus", str(workload.corpus_path), "--out", str(out)], out
    if command == "eval":
        out = outdir / "cli-eval.json"
        return base + ["--corpus", str(workload.corpus_path), "--report", str(out), "--report-format", "structured"], out
    return base + ["--report-format", "structured"], None


# ---------------------------------------------------------------------------
# expected outputs


def load_oracles():
    spec = importlib.util.spec_from_file_location("perfbench_oracles", ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Expected:
    """Outputs the oracles give for one workload, worked out before timing."""

    def __init__(self, workload: Workload):
        oracles = load_oracles()
        with open(workload.lexicon_path, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        fine_to_coarse, open_class = oracles.parse_tag_table(TAGMAP_TABLE.read_text("utf-8"))
        args = (records, fine_to_coarse, open_class, workload.documents)
        self.tag = oracles.trace_tag(*args).encode("utf-8")
        counts = oracles.trace_counts(*args)
        scored = counts["n_mono"] + counts["n_poly"]
        counts["accuracy_overall"] = (counts["correct_mono"] + counts["correct_poly"]) / scored if scored else None
        counts["accuracy_mono"] = counts["correct_mono"] / counts["n_mono"] if counts["n_mono"] else None
        counts["accuracy_poly"] = counts["correct_poly"] / counts["n_poly"] if counts["n_poly"] else None
        counts["poly_share"] = counts["n_poly"] / scored if scored else None
        self.eval = counts
        self.analyze = oracles.taxonomy_recount(records)

    def check(self, command: str, output: bytes) -> bool:
        """True when `output` is what `command` should print or write."""
        if command == "tag":
            return output == self.tag
        try:
            report = json.loads(output)
        except ValueError:
            return False
        return report == (self.eval if command == "eval" else self.analyze)


# ---------------------------------------------------------------------------
# rounds


class Run:
    """One benchmark run: the workload, its expected outputs and the tally."""

    def __init__(self, workload: Workload, workdir: Path, limit: float):
        self.workload = workload
        self.limit = limit
        self.workdir = workdir
        self.tokens = sum(len(document) for document in workload.documents)
        self.expected = Expected(workload)
        self.attempted = 0
        self.failed = 0
        # the spans of the last traced in-process run, kept for the record
        self.spans: list[dict] = []

    def child(self, args: list[str]) -> Child:
        return run_child(args, self.workdir, max(1.0, self.limit - time.perf_counter()))

    def count(self, ok: bool, what: str, child: Child) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            detail = child.stderr.decode("utf-8", "replace").strip()[-300:]
            print(f"failed: {what} (exit {child.code}) {detail}", file=sys.stderr)
        return ok

    def inproc(self, *args: str) -> Child:
        return self.child([sys.executable, str(HERE / "inproc.py"), *args])

    def cli(self, command: str) -> Child:
        args, out = cli_args(command, self.workload, self.workdir)
        if out is not None and out.exists():
            out.unlink()
        child = self.child(args)
        ok = child.code == 0
        if ok:
            output = child.stdout if out is None else (out.read_bytes() if out.exists() else b"")
            ok = self.expected.check(command, output)
        self.count(ok, f"CLI {command}", child)
        return child

    def layers(self, mode: str) -> dict | None:
        """One in-process run of every layer; its record, or None if it crashed."""
        outdir = self.workdir / mode
        shutil.rmtree(outdir, ignore_errors=True)
        outdir.mkdir()
        paths = (self.workload.lexicon_path, self.workload.corpus_path, self.workload.gold_path, outdir)
        child = self.inproc(mode, *map(str, paths))
        outputs = {"tag": "tag.tsv", "eval": "eval.json", "analyze": "analyze.json"}
        ok = child.code == 0 and all(
            self.expected.check(command, (outdir / name).read_bytes()) for command, name in outputs.items()
        )
        self.count(ok, f"in-process {mode} run", child)
        if child.code != 0:
            return None
        record = json.loads((outdir / "run.json").read_text("utf-8"))
        record["tagged"] = (outdir / "tag.tsv").read_text("utf-8")
        record["report"] = json.loads((outdir / "eval.json").read_text("utf-8"))
        record["taxonomy"] = json.loads((outdir / "analyze.json").read_text("utf-8"))
        return record


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds per span name of each span's duration not covered by its children."""
    covered: dict[int, int] = defaultdict(int)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end_ns"] - span["start_ns"]
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span["name"]] += (span["end_ns"] - span["start_ns"] - covered[span["id"]]) / 1e9
    return totals


def end_to_end_round(run: Run, index: int) -> dict[str, float]:
    spec = run.workload.spec
    setup = run.inproc("setup", str(run.workload.lexicon_path))
    run.count(setup.code == 0 and setup.stdout.strip() == str(spec.word_types).encode(), "set-up", setup)
    walls = {command: run.cli(command) for command in spec.commands}
    timed = walls["tag"] if "tag" in walls else walls["eval"]
    return {
        "wall_s": sum(child.wall_s for child in walls.values()),
        "tokens_per_s": run.tokens / timed.wall_s,
        "setup_s": setup.wall_s,
        "peak_rss_mb": max(child.rss_mb for child in walls.values()),
    }


def layer_round(run: Run, index: int) -> dict[str, float] | None:
    # alternate which in-process run goes first, so neither always runs warm
    order = ("trace", "plain") if index % 2 == 0 else ("plain", "trace")
    records = {mode: run.layers(mode) for mode in order}
    walls = {command: run.cli(command).wall_s for command in run.workload.spec.commands}
    probe = run.inproc("import")
    run.count(probe.code == 0, "import probe", probe)
    traced, plain = records["trace"], records["plain"]
    if traced is None or plain is None or probe.code != 0:
        return None

    run.spans = traced["spans"]
    stage = self_times(traced["spans"])
    status = Counter(line.split("\t")[3] for line in traced["tagged"].splitlines()[1:])
    tokens = sum(status.values())
    known = status["M"] + status["F"]
    report = traced["report"]
    rss_mb = {name: kb / 1024 for name, kb in traced["rss_kb"].items()}
    return {
        "lexicon.load_s": stage["load_lexicon"],
        "lexicon.load_rss_mb": rss_mb["load"],
        "lexicon.analyze_s": stage["analyze_lexicon"],
        "lexicon.render_taxonomy_s": stage["render_taxonomy"],
        "lexicon.word_types": traced["taxonomy"]["n_word_types"],
        "lexicon.homographs": traced["homographs"],
        "tagmap.load_s": stage["default_tagmap"],
        "pipeline.read_corpus_s": stage["read_corpus"],
        "pipeline.read_rss_mb": rss_mb["read"],
        "pipeline.tag_s": stage["tag_document"],
        "pipeline.tag_ns_per_token": stage["tag_document"] * 1e9 / tokens,
        "pipeline.render_s": stage["render_output"],
        "pipeline.tag_rss_mb": rss_mb["tag"],
        "pipeline.tokens": tokens,
        "pipeline.documents": traced["documents"],
        "pipeline.status.C": status["C"],
        "pipeline.status.U": status["U"],
        "pipeline.status.M": status["M"],
        "pipeline.status.F": status["F"],
        "pipeline.lexicon_hit_ratio": known / (known + status["U"]),
        "pipeline.match_ratio": status["M"] / known,
        "evaluation.evaluate_s": stage["evaluate"],
        "evaluation.render_report_s": stage["render_report"],
        "evaluation.scored_tokens": report["n_mono"] + report["n_poly"],
        "cli.import_s": json.loads(probe.stdout)["seconds"],
        "cli.overhead_s": sum(
            wall - sum(stage[name] for name in COMMAND_STAGES[command]) for command, wall in walls.items()
        ),
        "trace.overhead_s": traced["total_s"] - plain["total_s"],
    }


# ---------------------------------------------------------------------------
# a whole run


def check_checkout() -> None:
    missing = [str(p.relative_to(ROOT)) for p in (PACKAGE / "__init__.py", ORACLES, TAGMAP_TABLE) if not p.is_file()]
    if missing:
        raise BenchError(f"{', '.join(missing)} not found under {ROOT}; run from a checkout of the repository")


def warm_up(run: Run) -> None:
    """Import the CLI once untimed, which also compiles the package, and check where it came from."""
    probe = run.inproc("import")
    if probe.code != 0:
        raise BenchError(f"cannot import homograph_tagger.cli: {probe.stderr.decode('utf-8', 'replace').strip()}")
    origin = Path(json.loads(probe.stdout)["file"]).resolve()
    if PACKAGE.resolve() not in origin.parents:
        raise BenchError(f"homograph_tagger was imported from {origin}, not from {PACKAGE}")


def git_revision() -> str:
    """The checked-out commit, read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def median(samples: list[float]) -> float:
    """The median; a value all samples share is kept as is, so exact counts stay whole."""
    return samples[0] if len(set(samples)) == 1 else statistics.median(samples)


def measure(spec: Spec, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; return the result object and the run record."""
    check_checkout()
    metrics = declared_metrics(trace)
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{spec.name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        started = time.perf_counter()
        run = Run(generate(spec, seed, workdir), workdir, started + RUN_LIMIT_S)
        sizes = run.workload.sizes()
        warm_up(run)
        prepare_s = time.perf_counter() - started

        one_round = layer_round if trace else end_to_end_round
        rounds: list[dict] = []
        durations: list[float] = []
        deadline = time.perf_counter() + seconds
        while not durations or time.perf_counter() + statistics.median(durations) <= deadline:
            round_started = time.perf_counter()
            values = one_round(run, len(durations))
            durations.append(time.perf_counter() - round_started)
            if values is not None:
                rounds.append(values)
        if not rounds:
            raise BenchError("no round completed; see the failures above")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    values = {name: median([r[name] for r in rounds]) for name in metrics}
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in metrics.items()},
    }
    record = {
        "workload": spec.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "rounds": len(durations),
        "prepare_s": prepare_s,
        "failed_frac": run.failed / run.attempted,
        "python": platform.python_version(),
        "machine": {
            "system": platform.system(),
            "release": platform.release(),
            "arch": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "git_revision": git_revision(),
        "sizes": sizes,
        "metrics": values,
        "samples": {name: [r[name] for r in rounds] for name in metrics},
    }
    if trace:
        record["spans"] = run.spans
    return result, record


def report(result: dict, record: dict) -> None:
    print(
        f"perfbench {record['workload']} seed={record['seed']} trace={record['trace']}"
        f" rounds={record['rounds']} python={record['python']} rev={record['git_revision'][:12]}"
    )
    for name, metric in result["metrics"].items():
        print(f"  {name:<28} {metric['value']:>16.6f} {metric['unit']:<9} {NOTES[name]}")
    print(f"  {'failed_frac':<28} {record['failed_frac']:>16.6f} {'share':<9} failed {result['failed']} of {result['attempted']} runs")
    print("record " + json.dumps(record))
    print(json.dumps(result))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        result, record = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report(result, record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
