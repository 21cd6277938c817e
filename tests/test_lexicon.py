import gc
import json
import pickle
import re
from dataclasses import asdict

import pytest

import oracles
from homograph_tagger import (
    DisambCategory,
    LexiconError,
    VocabularyError,
    analyze_lexicon,
    classify_word_type,
    default_vocabulary,
    load_lexicon,
    load_vocabulary,
    lookup,
    render_taxonomy,
)
from homograph_tagger.util import fmt_pct, pct_of
from support import make_entry, make_lexicon


def write_jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


# ---------------------------------------------------------------------------
# vocabulary


def test_default_vocabulary_is_the_embedded_17_tag_set():
    vocab = default_vocabulary()
    assert len(vocab) == 17
    assert vocab[:4] == ("n", "v", "adj", "adv")
    assert "punct" in vocab and "x" in vocab
    assert len(set(vocab)) == 17


def test_load_vocabulary_reads_one_tag_per_line(tmp_path):
    path = tmp_path / "tags.txt"
    path.write_text("# comment\nn\nv\n\nadj\n", encoding="utf-8")
    assert load_vocabulary(path) == ("n", "v", "adj")


def test_load_vocabulary_rejects_duplicates(tmp_path):
    path = tmp_path / "tags.txt"
    path.write_text("n\nv\nn\n", encoding="utf-8")
    with pytest.raises(VocabularyError, match="duplicate"):
        load_vocabulary(path)


def test_load_vocabulary_rejects_empty_file(tmp_path):
    path = tmp_path / "tags.txt"
    path.write_text("# nothing here\n", encoding="utf-8")
    with pytest.raises(VocabularyError):
        load_vocabulary(path)


def test_load_vocabulary_rejects_malformed_tag(tmp_path):
    path = tmp_path / "tags.txt"
    path.write_text("n\n2bad\n", encoding="utf-8")
    with pytest.raises(VocabularyError, match="2bad"):
        load_vocabulary(path)


@pytest.mark.parametrize("separator", ["\u2028", "\x85"], ids=["U+2028", "U+0085"])
def test_a_vocabulary_line_ends_only_at_a_line_break(tmp_path, separator):
    # str.splitlines would end lines at the separator: 'x' would become a tag
    # and the bad line would be numbered 5
    path = tmp_path / "tags.txt"
    path.write_text(f"# comment{separator}x\nn\nv{separator}adj\n", encoding="utf-8")
    message = f"tags.txt:3: invalid coarse tag {re.escape(repr(f'v{separator}adj'))}"
    with pytest.raises(VocabularyError, match=message):
        load_vocabulary(path)


# ---------------------------------------------------------------------------
# loading and validation


def test_load_lexicon_preserves_order_and_ids(tmp_path):
    path = tmp_path / "lex.jsonl"
    write_jsonl(path, [
        {"word": "bank", "homographs": [
            {"pos": ["n"], "senses": [{"def": "money"}, {"def": "river"}]},
            {"pos": ["n"], "senses": [{"def": "row"}]},
            {"pos": ["v"], "senses": [{"def": "to bank"}]},
        ]},
        {"word": "sofa", "homographs": [{"pos": ["n"], "senses": [{"def": "couch"}]}]},
    ])
    lex = load_lexicon(path)
    assert len(lex) == 2
    bank = lookup(lex, "bank")
    # ids are 1-based positions, so checking the order checks them
    assert len(bank.homographs) == 3
    assert [h.pos for h in bank.homographs] == [("n",), ("n",), ("v",)]
    assert tuple(h.n_senses for h in bank.homographs) == (2, 1, 1)
    assert bank.sense_count() == 4
    assert bank.polyhomographic
    assert not lookup(lex, "sofa").polyhomographic
    # coarse tag -> (first homograph carrying it, number of homographs carrying it)
    assert bank.by_tag == {"n": (1, 2), "v": (3, 1)}
    assert lookup(lex, "sofa").by_tag == {"n": (1, 1)}


def test_load_lexicon_normalizes_keys_and_lookup_is_case_insensitive(tmp_path):
    path = tmp_path / "lex.jsonl"
    write_jsonl(path, [{"word": "Bank", "homographs": [{"pos": ["n"], "senses": [{"def": "x"}]}]}])
    lex = load_lexicon(path)
    assert lookup(lex, "BANK").key == "bank"
    assert lookup(lex, "bank") is lookup(lex, "Bank")
    assert lookup(lex, "missing") is None


@pytest.mark.parametrize(
    "record, message",
    [
        ({"homographs": []}, "'word'"),
        ({"word": "", "homographs": []}, "'word'"),
        ({"word": "w", "homographs": []}, "non-empty list"),
        ({"word": "w"}, "non-empty list"),
        ({"word": "w", "homographs": [{"senses": [{"def": "d"}]}]}, "'pos'"),
        ({"word": "w", "homographs": [{"pos": [], "senses": [{"def": "d"}]}]}, "'pos'"),
        ({"word": "w", "homographs": [{"pos": ["nope"], "senses": [{"def": "d"}]}]}, "unknown coarse tag"),
        ({"word": "w", "homographs": [{"pos": ["n", "n"], "senses": [{"def": "d"}]}]}, "duplicate pos tag"),
        ({"word": "w", "homographs": [{"pos": [3], "senses": [{"def": "d"}]}]}, "must be strings"),
        ({"word": "w", "homographs": [{"pos": ["n"], "senses": []}]}, "'senses'"),
        ({"word": "w", "homographs": [{"pos": ["n"], "senses": [{"gloss": "d"}]}]}, "string 'def'"),
        ({"word": "w", "homographs": [{"pos": ["n"], "senses": [{"def": 7}]}]}, "string 'def'"),
        ([1, 2], "JSON object"),
    ],
)
def test_load_lexicon_rejects_malformed_records(tmp_path, record, message):
    path = tmp_path / "lex.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(LexiconError, match=message):
        load_lexicon(path)


def test_load_lexicon_reports_the_offending_line(tmp_path):
    path = tmp_path / "lex.jsonl"
    good = {"word": "ok", "homographs": [{"pos": ["n"], "senses": [{"def": "d"}]}]}
    path.write_text(json.dumps(good) + "\n\n{broken\n", encoding="utf-8")
    with pytest.raises(LexiconError, match=r"lex\.jsonl:3.*invalid JSON"):
        load_lexicon(path)


def test_load_lexicon_leaves_the_garbage_collector_as_it_was(tmp_path, fixtures_dir):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{broken\n", encoding="utf-8")
    was_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            load_lexicon(fixtures_dir / "pipeline_lexicon.jsonl")
            assert gc.isenabled() is enabled
            with pytest.raises(LexiconError):
                load_lexicon(bad)
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_load_lexicon_rejects_duplicate_words_after_normalization(tmp_path):
    path = tmp_path / "lex.jsonl"
    write_jsonl(path, [
        {"word": "Bank", "homographs": [{"pos": ["n"], "senses": [{"def": "a"}]}]},
        {"word": "bank", "homographs": [{"pos": ["v"], "senses": [{"def": "b"}]}]},
    ])
    with pytest.raises(LexiconError, match="duplicate word type key 'bank'.*line 1"):
        load_lexicon(path)


def test_load_lexicon_respects_a_custom_vocabulary(tmp_path):
    path = tmp_path / "lex.jsonl"
    write_jsonl(path, [{"word": "w", "homographs": [{"pos": ["noun"], "senses": [{"def": "d"}]}]}])
    lex = load_lexicon(path, vocabulary=["noun", "verb"])
    assert lex.vocabulary == ("noun", "verb")
    with pytest.raises(LexiconError, match="unknown coarse tag 'noun'"):
        load_lexicon(path)


def test_entries_and_lexicons_hash_and_rebuild_their_tag_table(fixtures_dir):
    path = fixtures_dir / "pipeline_lexicon.jsonl"
    lexicon = load_lexicon(path)
    assert hash(lexicon) == hash(load_lexicon(path))
    assert pickle.loads(pickle.dumps(lexicon)) == lexicon
    assert set(lexicon.entries) == set(load_lexicon(path).entries)
    entry = make_entry("bank", ("n",), ("v",))
    assert repr(entry) == f"WordTypeEntry(key='bank', homographs={entry.homographs!r})"
    # the table is derived, so every way of making an entry derives it again
    reordered = entry._replace(homographs=entry.homographs[::-1])
    assert reordered.by_tag == {"v": (1, 1), "n": (2, 1)}
    assert entry._make(("bank", entry.homographs[::-1])) == reordered
    with pytest.raises(TypeError):
        entry._replace(by_tag={})


# ---------------------------------------------------------------------------
# classification


CANONICAL_CASES = [
    ([("n",)], DisambCategory.MONOHOMOGRAPHIC),
    ([("n",), ("v",), ("adj",)], DisambCategory.GUARANTEED),
    ([("n",), ("v",), ("v",)], DisambCategory.POSSIBLE),
    ([("v",), ("v",), ("n",), ("n",)], DisambCategory.NO_DISAMBIGUATION),
    # a tag can collide while another stays unique
    ([("n", "v"), ("n",)], DisambCategory.POSSIBLE),
]


@pytest.mark.parametrize("groups, expected", CANONICAL_CASES)
def test_classify_word_type_canonical_patterns(groups, expected):
    assert classify_word_type(make_entry("w", *groups)) is expected


@pytest.mark.parametrize("groups, expected", CANONICAL_CASES)
def test_classification_agrees_with_the_literal_definitions(groups, expected):
    assert oracles.classify_by_definitions([frozenset(g) for g in groups]) == expected.value


def test_category_values_are_stable_strings():
    assert {c.value for c in DisambCategory} == {
        "monohomographic", "guaranteed", "possible", "no-disambiguation",
    }


# ---------------------------------------------------------------------------
# whole-lexicon analysis


def test_analyze_lexicon_four_entry_fixture(fixtures_dir):
    report = analyze_lexicon(load_lexicon(fixtures_dir / "analyze_four.jsonl"))
    assert report.n_word_types == 4
    assert report.n_monohomographic == 1
    assert report.n_guaranteed == 1
    assert report.n_possible == 1
    assert report.n_no_disambiguation == 1
    assert report.n_polysemous == 3
    assert report.polysemous_pct == 75.0
    assert report.polyhomographic_pct == 75.0
    assert report.guaranteed_pct_of_polyhomographic == 33.3
    assert report.possible_pct_of_polyhomographic == 66.7
    assert report.guaranteed_pct_all_types == 50.0
    assert report.possible_pct_all_types == 75.0
    assert report.collision_histogram == {"n": 1, "v": 2}


def test_analyze_matches_the_frozen_taxonomy_recount(fixtures_dir):
    report = analyze_lexicon(load_lexicon(fixtures_dir / "taxonomy_lexicon.jsonl"))
    expected = json.loads((fixtures_dir / "taxonomy_expected.json").read_text("utf-8"))
    assert asdict(report) == expected


def test_analyze_rejects_an_empty_lexicon():
    with pytest.raises(LexiconError, match="empty"):
        analyze_lexicon(make_lexicon())


def test_histogram_follows_vocabulary_order_and_drops_zero_tags():
    lex = make_lexicon(
        make_entry("a", ("v",), ("v",)),
        make_entry("b", ("n",), ("n", "v"), ("v",)),
    )
    report = analyze_lexicon(lex)
    assert list(report.collision_histogram) == ["n", "v"]
    assert report.collision_histogram == {"n": 1, "v": 2}


def test_all_mono_lexicon_has_no_polyhomographic_percentages():
    report = analyze_lexicon(make_lexicon(make_entry("a", ("n",)), make_entry("b", ("v",))))
    assert report.n_polyhomographic == 0
    assert report.guaranteed_pct_of_polyhomographic is None
    assert report.possible_pct_of_polyhomographic is None
    assert report.guaranteed_pct_all_types == 100.0


def test_render_taxonomy_text(fixtures_dir):
    report = analyze_lexicon(load_lexicon(fixtures_dir / "analyze_four.jsonl"))
    text = render_taxonomy(report)
    assert "word types:      4" in text
    assert "polyhomographic: 3 (75.0%)" in text
    assert "  possible (cum.):   66.7%" in text
    assert "  v: 2" in text
    assert text.endswith("\n")


def test_render_taxonomy_structured_is_flat_json(fixtures_dir):
    report = analyze_lexicon(load_lexicon(fixtures_dir / "analyze_four.jsonl"))
    payload = json.loads(render_taxonomy(report, "structured"))
    assert payload == asdict(report)
    with pytest.raises(ValueError):
        render_taxonomy(report, "html")


# ---------------------------------------------------------------------------
# percentage helpers


@pytest.mark.parametrize(
    "num, den, expected",
    [
        (1, 8, 12.5),
        (2, 3, 66.7),
        (1, 3, 33.3),
        (1, 2000, 0.1),   # .05 rounds up, not to even
        (3, 2000, 0.2),
        (67373, 100000, 67.4),
        (0, 5, 0.0),
        (5, 5, 100.0),
    ],
)
def test_pct_of_rounds_half_up_to_one_decimal(num, den, expected):
    assert pct_of(num, den) == expected
    assert pct_of(num, den) == oracles.pct(num, den)


def test_fmt_pct_formats_fractions_and_none():
    assert fmt_pct(None) == "n/a"
    assert fmt_pct(5 / 6) == "83.3%"
    assert fmt_pct(1.0) == "100.0%"
    assert fmt_pct(0.9) == "90.0%"
    assert fmt_pct(77 / 109) == "70.6%"
