import gc
import json
import pickle
import re
import subprocess
import sys
from dataclasses import FrozenInstanceError, asdict, replace
from pathlib import Path

import pytest

import oracles
from homograph_tagger import (
    LexiconError,
    VocabularyError,
    WordTypeEntry,
    analyze_lexicon,
    classify_word_type,
    default_vocabulary,
    load_lexicon,
    load_vocabulary,
    render_taxonomy,
)
from homograph_tagger.util import pct_of
from support import load_each_way, make_entry, make_lexicon, tag_lines


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


# loads the defaults and a lexicon, cold and then from the cache, in an
# interpreter with no site step, and prints which of the modules a package
# read through importlib.resources would load are loaded
_CLEAN_LOAD = """
import sys
sys.path.insert(0, sys.argv[1])
import homograph_tagger
homograph_tagger.default_vocabulary()
homograph_tagger.default_tagmap()
for _ in range(2):
    homograph_tagger.load_lexicon(sys.argv[2])
print(sorted({"importlib.resources", "tempfile", "zipfile"} & sys.modules.keys()))
"""


def test_a_clean_interpreter_reads_the_package_data_by_path(fixtures_dir, tmp_path):
    # the site step of some interpreters imports importlib.resources itself, so only a
    # process started without it can show what loading the package data imports
    source = Path(__file__).resolve().parent.parent / "src"
    lexicon = fixtures_dir / "pipeline_lexicon.jsonl"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _CLEAN_LOAD, str(source), str(lexicon)],
        capture_output=True, timeout=60, env={"XDG_CACHE_HOME": str(tmp_path)},
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == b"[]\n"
    assert len(list((tmp_path / "homograph-tagger").iterdir())) == 1


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
    by_key = {entry.key: entry for entry in lex}
    bank = by_key["bank"]
    # ids are 1-based positions, so checking the order checks them
    assert len(bank.homographs) == 3
    assert [h.pos for h in bank.homographs] == [("n",), ("n",), ("v",)]
    assert tuple(h.n_senses for h in bank.homographs) == (2, 1, 1)
    assert bank.sense_count() == 4
    assert len(by_key["sofa"].homographs) == 1
    # coarse tag -> (first homograph carrying it, number of homographs carrying it)
    assert bank.by_tag == {"n": (1, 2), "v": (3, 1)}
    assert by_key["sofa"].by_tag == {"n": (1, 1)}


def test_load_lexicon_normalizes_keys_and_lookup_is_case_insensitive(tmp_path, penn):
    path = tmp_path / "lex.jsonl"
    write_jsonl(path, [{"word": "Bank", "homographs": [{"pos": ["n"], "senses": [{"def": "x"}]}]}])
    lex = load_lexicon(path)
    assert [entry.key for entry in lex] == ["bank"]
    lines = [("BANK", "NN"), ("bank", "NN"), ("Bank", "NN"), ("missing", "NN")]
    assert [r.status for r in tag_lines(tmp_path, lex, penn, *lines)] == ["M", "M", "M", "U"]


# three homographs with the tag lists ["n"], ["n"] and ["v"]: by_tag {"n": (1, 2), "v": (3, 1)}
FILLER = {"word": "filler", "homographs": [
    {"pos": ["n"], "senses": [{"def": "d"}]},
    {"pos": ["n"], "senses": [{"def": "d"}]},
    {"pos": ["v"], "senses": [{"def": "d"}]},
]}


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
        ({"word": "w", "homographs": ["x"]}, "homograph 1 must be a JSON object"),
    ],
)
def test_load_lexicon_rejects_malformed_records(tmp_path, record, message):
    path = tmp_path / "lex.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(LexiconError, match=message) as alone:
        load_lexicon(path)
    # the same record after a valid one that has already checked and listed
    # the tag lists ["n"] and ["v"], its homographs and its sequence of indexes (0, 0, 1)
    write_jsonl(path, [FILLER, record])
    with pytest.raises(LexiconError) as after_filler:
        load_lexicon(path)
    assert str(after_filler.value) == str(alone.value).replace("lex.jsonl:1:", "lex.jsonl:2:")


@pytest.mark.parametrize("pos", [[1, 2], [["n"]], [3, 1], ["n", ["v"]], [0, 0, 1]])
def test_a_tag_list_equal_to_a_built_pair_is_still_checked(tmp_path, pos):
    # a list of ints is no tag list, whatever equal tuple a load has built or listed before:
    # [1, 2] equals a by_tag pair, and [0, 0, 1] the filler's sequence of homograph indexes
    path = tmp_path / "lex.jsonl"
    write_jsonl(path, [FILLER, {"word": "w", "homographs": [{"pos": pos, "senses": [{"def": "d"}]}]}])
    with pytest.raises(LexiconError, match=r"lex\.jsonl:2: 'w': homograph 1: pos tags must be strings$"):
        load_lexicon(path)


def test_entries_with_equal_homographs_share_them_and_their_tag_table(tmp_path, cold_cache):
    path = tmp_path / "lex.jsonl"
    senses = [{"def": "a"}, {"def": "b"}]
    write_jsonl(path, [
        {"word": "bank", "homographs": [{"pos": ["n"], "senses": senses}, {"pos": ["v"], "senses": senses[:1]}]},
        {"word": "fish", "homographs": [{"pos": ["n"], "senses": senses}, {"pos": ["v"], "senses": senses[1:]}]},
        {"word": "sofa", "homographs": [{"pos": ["n"], "senses": senses}]},
        {"word": "row", "homographs": [{"pos": ["v"], "senses": senses[:1]}, {"pos": ["n"], "senses": senses}]},
        {"word": "mole", "homographs": [{"pos": ["n"], "senses": senses[1:]}]},
    ])
    # a hit must rebuild the sharing of the cold load, and a load with no usable cache make it
    for lexicon in load_each_way(path).values():
        bank, fish, sofa, row, mole = lexicon
        assert bank.homographs is fish.homographs
        assert bank.by_tag is fish.by_tag
        assert bank.by_tag == {"n": (1, 1), "v": (2, 1)}
        assert row.by_tag == {"v": (1, 1), "n": (2, 1)}
        # one object per distinct (pos, n_senses), one tag list per distinct list of tags
        homographs = [h for entry in (bank, sofa, row, mole) for h in entry.homographs]
        assert len({id(h) for h in homographs}) == len(set(homographs)) == 3
        assert len({id(h.pos) for h in homographs}) == 2
        assert sofa.homographs[0] is bank.homographs[0] is row.homographs[1]
        assert mole.homographs[0] is not sofa.homographs[0]
        # one object per distinct (first, count) pair across the tag tables
        assert bank.by_tag["n"] is sofa.by_tag["n"] is mole.by_tag["n"] is row.by_tag["v"]
        # a hand-made entry equals a loaded one and derives an equal table of its own
        made = make_entry("bank", ("n",), ("v",), senses=[2, 1])
        assert made == bank and hash(made) == hash(bank)
        assert made.by_tag == bank.by_tag and made.by_tag is not bank.by_tag


def test_a_load_tracks_about_one_object_per_word_type(tmp_path, cold_cache):
    # 3,000 word types over 12 distinct homograph sequences: a load that made
    # each entry's homographs, tags and tag table anew would track about nine objects per type
    path = tmp_path / "lex.jsonl"
    sequences = [
        [{"pos": pos, "senses": [{"def": "d"}] * n_senses} for pos, n_senses in homographs]
        for homographs in (
            [(["n"], 1)], [(["v"], 2)], [(["n", "v"], 1)], [(["adj"], 3)],
            [(["n"], 2), (["v"], 1)], [(["n"], 1), (["n"], 1)], [(["v"], 1), (["n", "adj"], 2)],
            [(["n"], 1), (["v"], 1), (["adj"], 1)], [(["adv"], 1), (["n"], 2), (["n"], 1)],
            [(["n", "v"], 2), (["v"], 1), (["n"], 3), (["adj"], 1)],
            [(["v"], 3), (["v"], 2)], [(["adj", "adv"], 1), (["adv", "adj"], 1)],
        )
    ]
    n_types = 3000
    write_jsonl(path, [
        {"word": f"w{i}", "homographs": sequences[i % len(sequences)]} for i in range(n_types)
    ])
    default_vocabulary()

    def tracked(path):
        """The word types of path and the objects its load left tracked, the lexicon's own included."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            before = len(gc.get_objects())
            lexicon = load_lexicon(path)
            return len(lexicon), len(gc.get_objects()) - before
        finally:
            if was_enabled:
                gc.enable()

    for cache, (word_types, added) in load_each_way(path, tracked).items():
        assert word_types == n_types
        # the entries, plus a few hundred for the distinct values and the lexicon itself
        assert added <= n_types + 300, (cache, added)


def test_load_lexicon_reports_the_offending_line(tmp_path):
    path = tmp_path / "lex.jsonl"
    good = {"word": "ok", "homographs": [{"pos": ["n"], "senses": [{"def": "d"}]}]}
    path.write_text(json.dumps(good) + "\n\n{broken\n", encoding="utf-8")
    with pytest.raises(LexiconError, match=r"lex\.jsonl:3.*invalid JSON"):
        load_lexicon(path)


@pytest.mark.parametrize("text", ["", "\n \n", "\ufeff"], ids=["empty", "blank-lines", "bom-only"])
def test_load_lexicon_rejects_a_file_with_no_word_types(tmp_path, text):
    path = tmp_path / "lex.jsonl"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(LexiconError) as exc_info:
        load_lexicon(path)
    assert str(exc_info.value) == f"{path}: lexicon is empty (no word types)"


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
    assert pickle.loads(pickle.dumps(entry)).by_tag == entry.by_tag
    # the table is derived, so every way of making an entry derives it again
    reordered = replace(entry, homographs=entry.homographs[::-1])
    assert reordered.by_tag == {"v": (1, 1), "n": (2, 1)}
    # dataclasses.replace refuses an init=False field: ValueError before 3.13, TypeError since
    with pytest.raises(TypeError if sys.version_info >= (3, 13) else ValueError):
        replace(entry, by_tag={})
    with pytest.raises(FrozenInstanceError):
        entry.homographs = reordered.homographs


# ---------------------------------------------------------------------------
# classification


CANONICAL_CASES = [
    ([("n",)], "monohomographic"),
    ([("n",), ("v",), ("adj",)], "guaranteed"),
    ([("n",), ("v",), ("v",)], "possible"),
    ([("v",), ("v",), ("n",), ("n",)], "no-disambiguation"),
    # a tag can collide while another stays unique
    ([("n", "v"), ("n",)], "possible"),
]
# the ids these cases had when each category was an enum member, so the tests keep their names
CANONICAL_IDS = [
    f"groups{i}-DisambCategory.{name.upper().replace('-', '_')}"
    for i, (_, name) in enumerate(CANONICAL_CASES)
]


@pytest.mark.parametrize("groups, expected", CANONICAL_CASES, ids=CANONICAL_IDS)
def test_classify_word_type_canonical_patterns(groups, expected):
    assert classify_word_type(make_entry("w", *groups)) == expected


@pytest.mark.parametrize("groups, expected", CANONICAL_CASES, ids=CANONICAL_IDS)
def test_classification_agrees_with_the_literal_definitions(groups, expected):
    assert oracles.classify_by_definitions([frozenset(g) for g in groups]) == expected


def test_category_values_are_stable_strings():
    # a category is its report name, the string the oracle returns
    names = {classify_word_type(make_entry("w", *groups)) for groups, _ in CANONICAL_CASES}
    assert names == {oracles.MONO, oracles.GUARANTEED, oracles.POSSIBLE, oracles.NO_DISAMBIGUATION}
    assert names == {"monohomographic", "guaranteed", "possible", "no-disambiguation"}


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


def test_analysis_weights_a_homographs_tuple_by_the_entries_that_share_it():
    # a hand-made lexicon that passes one homographs tuple to two entries, and an
    # equal tuple, not shared, to a third: each counts as one word type
    noun_and_verb = make_entry("bank", ("n",), ("n", "v"), senses=[2, 1])
    shared = make_lexicon(
        noun_and_verb,
        WordTypeEntry("fish", noun_and_verb.homographs),
        make_entry("row", ("n",), ("n", "v"), senses=[2, 1]),
        make_entry("sofa", ("n",)),
    )
    assert shared.entries[0].homographs is shared.entries[1].homographs
    report = analyze_lexicon(shared)
    assert (report.n_word_types, report.n_possible, report.n_monohomographic) == (4, 3, 1)
    assert report.n_polysemous == 3
    assert report.collision_histogram == {"n": 3}
    # the same entries, each with a tuple of its own
    unshared = [WordTypeEntry(entry.key, tuple(list(entry.homographs))) for entry in shared]
    assert len({id(entry.homographs) for entry in unshared}) == 4
    assert analyze_lexicon(make_lexicon(*unshared)) == report


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

    assert pct_of(num, 0) is None
