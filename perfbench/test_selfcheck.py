"""Self-checks of the benchmark, on shrunken copies of its workloads.

    python3 -m pytest -q perfbench

Run from the root of a checkout; they take well under a minute.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text("utf-8"))


def small(name: str) -> workloads.Spec:
    spec = workloads.WORKLOADS[name]
    return dataclasses.replace(spec, word_types=400, tokens=3000, documents=6)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_bytes(name, tmp_path):
    paths = {}
    for label, seed in (("a", 7), ("b", 7), ("c", 8)):
        (tmp_path / label).mkdir()
        generated = workloads.generate(small(name), seed, tmp_path / label)
        paths[label] = (generated.lexicon_path.read_bytes(), generated.corpus_path.read_bytes())
    assert paths["a"] == paths["b"]
    assert paths["a"][1] != paths["c"][1]
    words = [json.loads(line)["word"].lower() for line in paths["a"][0].decode("utf-8").splitlines()]
    assert len(set(words)) == len(words) == 400


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_passes_and_prints_the_declared_metrics(name, trace, capsys):
    result, record = run.measure(small(name), 5, 1, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    run.report(result, record)
    printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in printed["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    if trace:
        exact = [m["name"] for m in declared if m["unit"] in ("count", "ratio")]
        assert all(printed["metrics"][metric]["value"] > 0 for metric in exact)
        assert record["spans"] and {"tag_document", "evaluate"} <= {span["name"] for span in record["spans"]}


def test_every_declared_metric_has_a_note():
    declared = [m["name"] for kind in ("end_to_end", "per_layer") for m in BENCHMARK[kind]]
    assert sorted(declared) == sorted(run.NOTES)


def test_declared_workloads_are_the_generated_ones():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_one_corrupted_byte_of_tag_output_counts_as_failed(monkeypatch):
    real = run.run_child
    corrupted = []

    def corrupting(args, workdir, timeout):
        child = real(args, workdir, timeout)
        if "homograph_tagger" in args and "tag" in args:
            out = Path(args[args.index("--out") + 1])
            data = bytearray(out.read_bytes())
            data[len(data) // 2] ^= 0x01
            out.write_bytes(bytes(data))
            corrupted.append(out)
        return child

    monkeypatch.setattr(run, "run_child", corrupting)
    result, _ = run.measure(small("tag-zipf"), 5, 1, False)
    assert corrupted
    assert result["failed"] == len(corrupted)
    assert not result["correct"]


def test_exact_counts_repeat_across_runs():
    runs = [run.measure(small("eval-gold"), 9, 1, True) for _ in range(2)]
    counts = [
        {name: value["value"] for name, value in result["metrics"].items() if value["unit"] in ("count", "ratio")}
        for result, _ in runs
    ]
    assert counts[0] == counts[1]
    assert counts[0]["pipeline.tokens"] == 3000
    assert counts[0]["lexicon.homographs"] == runs[0][1]["sizes"]["homographs"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tag-zipf", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
