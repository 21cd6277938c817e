"""End-to-end acceptance checks.

Each test covers one release criterion and prints a single [PASS] line
when it holds, so `pytest -v -s tests/test_acceptance.py` reads as a
checklist. Expected values come from the literal re-implementations in
oracles.py or from fixtures frozen by tests/fixtures/make_fixtures.py,
never from the package itself.
"""

import itertools
import json
import random
import time
from dataclasses import asdict
from fractions import Fraction

from click.testing import CliRunner

import oracles
from homograph_tagger import (
    Document,
    analyze_lexicon,
    classify_word_type,
    default_vocabulary,
    evaluate,
    load_lexicon,
    read_corpus,
    render_report,
    tag_document,
)
from homograph_tagger.cli import main
from support import cache_files, make_entry, make_lexicon, tag_lines, tok

OPEN = ("n", "v", "adj", "adv")


def run_cli(*args):
    return CliRunner().invoke(main, [str(a) for a in args])


def test_a1_classifier_agrees_with_the_brute_force_oracle():
    started = time.monotonic()
    small_groups = [
        frozenset(c)
        for size in (1, 2)
        for c in itertools.combinations(OPEN, size)
    ]
    assert len(small_groups) == 10
    exhaustive = [
        combo
        for size in (1, 2, 3, 4)
        for combo in itertools.combinations_with_replacement(small_groups, size)
    ]
    assert len(exhaustive) == 1000

    vocab = default_vocabulary()
    rnd = random.Random(20260814)
    randomized = [
        [frozenset(rnd.sample(vocab, rnd.randint(1, 3))) for _ in range(rnd.randint(1, 6))]
        for _ in range(10_000)
    ]

    checked = 0
    for groups in itertools.chain(exhaustive, randomized):
        entry = make_entry("w", *[tuple(sorted(g)) for g in groups])
        expected = oracles.classify_by_definitions([frozenset(g) for g in groups])
        assert classify_word_type(entry) == expected, groups
        checked += 1
    elapsed = time.monotonic() - started
    assert checked == 11_000
    assert elapsed < 10.0, f"classifier sweep took {elapsed:.1f}s"
    print(f"[PASS] classifier matches the oracle on {checked} cases ({elapsed:.2f}s)")


def test_a2_canonical_patterns_classify_exactly():
    cases = {
        (("n",), ("v",), ("adj",)): "guaranteed",
        (("n",), ("v",), ("v",)): "possible",
        (("v",), ("v",), ("n",), ("n",)): "no-disambiguation",
    }
    for groups, expected in cases.items():
        assert classify_word_type(make_entry("w", *groups)) == expected
    print("[PASS] the three canonical homograph patterns classify exactly")


def test_a3_taxonomy_statistics_match_the_independent_recount(fixtures_dir):
    lexicon_path = fixtures_dir / "taxonomy_lexicon.jsonl"
    report = asdict(analyze_lexicon(load_lexicon(lexicon_path)))
    frozen = json.loads((fixtures_dir / "taxonomy_expected.json").read_text("utf-8"))
    records = [
        json.loads(line) for line in lexicon_path.read_text("utf-8").splitlines() if line
    ]
    recount = oracles.taxonomy_recount(records)
    assert report == frozen, "report drifted from the frozen expectation"
    assert report == recount, "report disagrees with a fresh recount"
    assert report["n_word_types"] == 50
    print("[PASS] taxonomy over the 50-entry lexicon matches the scripted recount")


def test_a4_golden_tagging_run_is_byte_identical_and_fast(fixtures_dir, tmp_path, cold_cache):
    # the first run loads the lexicon in full and caches it, the second loads it from the cache
    golden = (fixtures_dir / "news_corpus_tagged.golden").read_bytes()
    args = [
        "tag",
        "--lexicon", fixtures_dir / "pipeline_lexicon.jsonl",
        "--corpus", fixtures_dir / "news_corpus.tsv",
    ]
    started = time.monotonic()
    outputs = []
    for attempt in (1, 2):
        out = tmp_path / f"run{attempt}.tsv"
        result = run_cli(*args, "--out", out)
        assert result.exit_code == 0, result.stderr
        outputs.append(out.read_bytes())
        assert len(cache_files(cold_cache)) == 1
    elapsed = time.monotonic() - started
    assert outputs[0] == golden
    assert outputs[1] == golden
    assert elapsed < 1.0, f"two tagging runs took {elapsed:.2f}s"
    print(f"[PASS] tagging the fixture corpus is byte-identical twice ({elapsed:.2f}s)")


def test_a5_assignments_are_pos_consistent_on_random_tokens(tmp_path, news_lexicon, penn):
    rnd = random.Random(97)
    by_key = {entry.key: entry for entry in news_lexicon}
    words = sorted(by_key)
    fines = sorted(penn.entries)
    n_tokens = 10_000
    tokens = []
    for _ in range(n_tokens):
        word = rnd.choice(words)
        surface = rnd.choice([word, word.capitalize(), word.upper(), "zzq" + word])
        lemma = word if surface.startswith("zzq") and rnd.random() < 0.5 else None
        tokens.append((surface, rnd.choice(fines), lemma))
    lines = [fields if fields[2] else fields[:2] for fields in tokens]
    results = tag_lines(tmp_path, news_lexicon, penn, *lines)
    assert [(r.surface, r.fine_tag, r.lemma) for r in results] == tokens
    seen = dict.fromkeys("CUMF", 0)
    for result in results:
        seen[result.status] += 1
        coarse = penn.entries[result.fine_tag]
        entry = by_key.get((result.lemma or result.surface).lower())
        if result.status == "C":
            assert coarse not in penn.open_class
        elif result.status == "U":
            assert coarse in penn.open_class and entry is None
        elif result.status == "M":
            chosen = entry.homographs[result.homograph_id - 1]
            assert coarse in chosen.pos
            assert all(coarse not in h.pos for h in entry.homographs[: result.homograph_id - 1])
        else:
            assert result.status == "F"
            assert result.homograph_id == 1
            assert all(coarse not in h.pos for h in entry.homographs)
    assert all(seen[status] > 0 for status in "CUMF"), seen
    print(f"[PASS] homograph choices are POS-consistent on {n_tokens} random tokens")


def test_a6_evaluation_identities_hold(fixtures_dir, news_lexicon, penn):
    # identity 1: scoring a run against its own output is perfect
    docs = list(read_corpus(fixtures_dir / "news_corpus.tsv"))
    results = [r for d in docs for r in tag_document(news_lexicon, penn, d)]
    self_gold = [
        r.homograph_id if r.status in ("M", "F") else None
        for _, r in results
    ]
    self_report = evaluate(news_lexicon, results, self_gold)
    assert self_report.accuracy_overall == 1.0
    assert self_report.accuracy_mono == 1.0
    assert self_report.accuracy_poly == 1.0

    # identity 2: single-homograph words cannot be scored wrong
    mono_lexicon = make_lexicon(make_entry("sofa", ("n",)), make_entry("tulip", ("n",)))
    mono_doc = Document("d", (
        tok("sofa", "NN", gold=1),
        tok("tulip", "JJ", gold=1),
        tok("Sofa", "NN", gold=1),
    ))
    mono_results = tag_document(mono_lexicon, penn, mono_doc)
    mono_report = evaluate(mono_lexicon, mono_results, [1, 1, 1])
    assert mono_report.accuracy_overall == 1.0
    assert mono_report.accuracy_mono == 1.0
    assert mono_report.poly_share == 0.0

    # identity 3: the mixed fixture lands on its constructed figures
    mixed_lexicon = load_lexicon(fixtures_dir / "eval_mixed_lexicon.jsonl")
    mixed_docs = list(read_corpus(fixtures_dir / "eval_mixed_corpus.tsv"))
    mixed_results = [r for d in mixed_docs for r in tag_document(mixed_lexicon, penn, d)]
    mixed_gold = [r.gold_homograph_id for _, r in mixed_results]
    mixed = evaluate(mixed_lexicon, mixed_results, mixed_gold)
    assert mixed.accuracy_overall == 9 / 10
    assert mixed.accuracy_poly == 5 / 6
    assert mixed.accuracy_mono == 1.0
    assert mixed.poly_share == 6 / 10
    rendered = render_report(mixed)
    assert rendered.endswith("overall: 90.0% poly: 83.3% mono: 100.0% poly-share: 60.0%\n")
    print("[PASS] evaluation identities hold (self-gold, all-mono, mixed 90.0/83.3/60.0)")


def test_a7_fixture_corpus_is_majority_polyhomographic(fixtures_dir, news_lexicon, penn, news_counts):
    docs = list(read_corpus(fixtures_dir / "news_corpus.tsv"))
    results = [r for d in docs for r in tag_document(news_lexicon, penn, d)]
    gold = [r.gold_homograph_id for _, r in results]
    report = evaluate(news_lexicon, results, gold)
    expected_share = (
        news_counts["poly_share_numerator"] / news_counts["poly_share_denominator"]
    )
    assert report.poly_share == expected_share
    assert Fraction(news_counts["poly_share_numerator"],
                    news_counts["poly_share_denominator"]) > Fraction(1, 2)
    assert report.poly_share > 0.5
    assert report.n_poly == news_counts["n_poly"]
    assert report.n_mono == news_counts["n_mono"]
    assert report.correct_poly == news_counts["correct_poly"]
    assert report.correct_mono == news_counts["correct_mono"]
    assert report.fallback_count == news_counts["fallback_count"]
    assert report.n_open_class == news_counts["n_open_class"]
    assert report.n_unknown == news_counts["n_unknown"]
    print(f"[PASS] scored tokens are {float(report.poly_share):.1%} polyhomographic (> 50%)")


def test_a8_malformed_input_never_exits_zero(fixtures_dir, tmp_path):
    lexicon = fixtures_dir / "pipeline_lexicon.jsonl"
    corpus = fixtures_dir / "news_corpus.tsv"

    def path_for(name, text):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        return p

    battery = [
        # (expected exit code, argv)
        (1, ["validate", "--lexicon", path_for("l1.jsonl", "{not json\n")]),
        (1, ["validate", "--lexicon", path_for("l2.jsonl", '{"word": "x"}\n')]),
        (1, ["validate", "--lexicon", path_for(
            "l3.jsonl",
            '{"word": "x", "homographs": [{"pos": ["nope"], "senses": [{"def": "d"}]}]}\n',
        )]),
        (1, ["validate", "--lexicon", lexicon,
             "--vocab", path_for("v1.txt", "n\nn\n")]),
        (1, ["validate", "--lexicon", lexicon,
             "--tagmap", path_for("m1.tsv", "NN\tn\tx\n")]),
        (1, ["tag", "--lexicon", lexicon,
             "--corpus", path_for("c1.tsv", "justonefield\n")]),
        (1, ["tag", "--lexicon", lexicon,
             "--corpus", path_for("c2.tsv", "a\tNN\tx\t1\tmore\n")]),
        (1, ["tag", "--lexicon", lexicon,
             "--corpus", path_for("c3.tsv", "a\tNN\t\t0\n")]),
        (1, ["tag", "--lexicon", lexicon,
             "--corpus", path_for("c4.tsv", "a\tNN\t\tbad\n")]),
        (1, ["tag", "--lexicon", lexicon,
             "--corpus", path_for("c5.tsv", "a\tWEIRDTAG\n")]),
        (1, ["tag", "--lexicon", lexicon,
             "--corpus", path_for("c6.tsv", "# doc: d\nx\tNN\n\n# doc: d\ny\tNN\n")]),
        (1, ["tag", "--lexicon", lexicon, "--corpus", path_for("c7.tsv", "")]),
        (1, ["eval", "--lexicon", lexicon,
             "--corpus", path_for("c8.tsv", "bank\tNN\n")]),
        (1, ["eval", "--lexicon", lexicon,
             "--corpus", path_for("c9.tsv", "bank\tNN\t\t7\n")]),
        (2, ["validate", "--lexicon", tmp_path / "missing.jsonl"]),
        (2, ["tag", "--lexicon", lexicon, "--corpus", tmp_path / "missing.tsv"]),
        (2, ["tag", "--lexicon", lexicon]),
        (2, ["eval", "--lexicon", lexicon, "--corpus", corpus,
             "--report-format", "yaml"]),
        (2, ["no-such-command"]),
    ]
    for expected, argv in battery:
        result = run_cli(*argv)
        assert result.exit_code == expected, (argv, result.exit_code, result.stderr)
        assert result.exit_code != 0
    healthy = run_cli("tag", "--lexicon", lexicon, "--corpus", corpus,
                      "--out", tmp_path / "ok.tsv")
    assert healthy.exit_code == 0
    print(f"[PASS] {len(battery)} malformed invocations exit 1 or 2, never 0")
