"""Randomized invariants, each checked against an independent reference."""

import json
from importlib.resources import files

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from homograph_tagger import (
    DisambCategory,
    Document,
    TagMapping,
    TokenStatus,
    analyze_lexicon,
    classify_word_type,
    default_tagmap,
    default_vocabulary,
    disambiguate_token,
    load_lexicon,
    lookup,
    render_output,
    tag_document,
)
from homograph_tagger.cli import main
from homograph_tagger.util import pct_of
from support import make_entry, make_lexicon, tok

VOCAB = default_vocabulary()
OPEN = ("n", "v", "adj", "adv")

pos_group = st.frozensets(st.sampled_from(VOCAB), min_size=1, max_size=3)
pos_groups = st.lists(pos_group, min_size=1, max_size=6)
entry_words = st.text(alphabet="abcdefghijklmnopqrstuvwxyzé-", min_size=1, max_size=10)


def entry_from_groups(word, groups, senses=None):
    return make_entry(word, *[tuple(sorted(g)) for g in groups], senses=senses)


@st.composite
def lexicon_entries(draw, min_size=1, max_size=12):
    words = draw(st.lists(entry_words, min_size=min_size, max_size=max_size, unique=True))
    entries = []
    for word in words:
        groups = draw(pos_groups)
        senses = draw(st.lists(st.integers(1, 3), min_size=len(groups), max_size=len(groups)))
        entries.append(entry_from_groups(word, groups, senses))
    return entries


def as_records(entries):
    """The JSON records a lexicon file holds for entries, one per entry."""
    return [
        {
            "word": e.key,
            "homographs": [
                {"pos": list(h.pos), "senses": [{"def": f"sense {i}"} for i in range(h.n_senses)]}
                for h in e.homographs
            ],
        }
        for e in entries
    ]


# ---------------------------------------------------------------------------
# classification


@given(pos_groups)
def test_classification_matches_the_literal_definitions(groups):
    entry = entry_from_groups("w", groups)
    expected = oracles.classify_by_definitions([frozenset(g) for g in groups])
    assert classify_word_type(entry).value == expected


@given(pos_groups)
def test_exactly_one_category_applies(groups):
    # the oracle asserts internally that the definitions partition the space
    oracles.classify_by_definitions([frozenset(g) for g in groups])


@given(pos_groups)
def test_guaranteed_means_every_tag_has_a_unique_carrier(groups):
    entry = entry_from_groups("w", groups)
    category = classify_word_type(entry)
    union = {tag for g in groups for tag in g}
    carriers = {tag: sum(1 for g in groups if tag in g) for tag in union}
    if category is DisambCategory.GUARANTEED:
        assert all(n == 1 for n in carriers.values())
    if category is DisambCategory.NO_DISAMBIGUATION:
        assert all(n >= 2 for n in carriers.values())
    if category is DisambCategory.POSSIBLE:
        assert any(n == 1 for n in carriers.values())
        assert any(n >= 2 for n in carriers.values())


@given(lexicon_entries(), st.randoms(use_true_random=False))
def test_analysis_is_invariant_under_entry_order(entries, rnd):
    shuffled = list(entries)
    rnd.shuffle(shuffled)
    assert analyze_lexicon(make_lexicon(*entries)) == analyze_lexicon(make_lexicon(*shuffled))


@given(lexicon_entries())
def test_analysis_matches_the_recount_oracle(entries):
    report = analyze_lexicon(make_lexicon(*entries))
    recount = oracles.taxonomy_recount(as_records(entries))
    assert report.n_guaranteed == recount["n_guaranteed"]
    assert report.n_possible == recount["n_possible"]
    assert report.n_no_disambiguation == recount["n_no_disambiguation"]
    assert report.polysemous_pct == recount["polysemous_pct"]
    assert report.collision_histogram == recount["collision_histogram"]


# ---------------------------------------------------------------------------
# loading


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lexicon_entries())
def test_records_load_back_to_their_entries(tmp_path, entries):
    path = tmp_path / "entries.jsonl"
    lines = [json.dumps(record, ensure_ascii=False) + "\n" for record in as_records(entries)]
    path.write_text("".join(lines), encoding="utf-8")
    assert load_lexicon(path) == make_lexicon(*entries)


# ---------------------------------------------------------------------------
# assignment

_identity_map = TagMapping(
    entries={tag.upper(): tag for tag in VOCAB},
    open_class=frozenset(OPEN),
)


@given(
    st.sampled_from(OPEN),
    st.lists(pos_group, min_size=0, max_size=5),
    st.integers(min_value=0, max_value=5),
    st.randoms(use_true_random=False),
)
def test_the_unique_carrier_wins_regardless_of_its_neighbours(tag, other_groups, slot, rnd):
    others = [frozenset(g - {tag}) for g in other_groups]
    others = [g for g in others if g]
    rnd.shuffle(others)
    slot = min(slot, len(others))
    groups = others[:slot] + [frozenset({tag})] + others[slot:]
    entry = entry_from_groups("w", groups)
    target_id = slot + 1
    result = disambiguate_token(make_lexicon(entry), _identity_map, tok("w", tag.upper()))
    assert result.status is TokenStatus.MATCHED
    assert result.homograph_id == target_id
    assert entry.homographs[target_id - 1].pos == (tag,)


@given(pos_group, st.sampled_from(OPEN))
def test_single_homograph_words_always_get_id_one(group, tag):
    entry = entry_from_groups("w", [group])
    result = disambiguate_token(make_lexicon(entry), _identity_map, tok("w", tag.upper()))
    expected = TokenStatus.MATCHED if tag in group else TokenStatus.FALLBACK
    assert result.status is expected
    assert result.homograph_id == 1
    assert not result.polyhomographic


# ---------------------------------------------------------------------------
# corpus-level behaviour

PENN_FINE_TAGS = sorted(default_tagmap().entries)


@st.composite
def random_documents(draw, words):
    surfaces = st.one_of(st.sampled_from(words), st.just("zzq-unknown"))
    token_data = st.tuples(surfaces, st.sampled_from(PENN_FINE_TAGS))
    docs = draw(st.lists(st.lists(token_data, min_size=1, max_size=12), min_size=1, max_size=4))
    return [
        Document(f"d{i}", tuple(tok(s, f, index=j) for j, (s, f) in enumerate(pairs)))
        for i, pairs in enumerate(docs, start=1)
    ]


@pytest.fixture(scope="module")
def news_words(news_lexicon):
    return sorted(entry.key for entry in news_lexicon)


@given(data=st.data())
def test_every_token_is_accounted_for(news_lexicon, penn, news_words, data):
    docs = data.draw(random_documents(news_words))
    for doc in docs:
        for _, _, result in tag_document(news_lexicon, penn, doc):
            assert result.polyhomographic == (result.n_homographs >= 2)
            if result.status in (TokenStatus.MATCHED, TokenStatus.FALLBACK):
                assert result.open_class
                assert result.homograph_id is not None
                entry = lookup(news_lexicon, result.lemma or result.surface)
                assert result.n_homographs == len(entry.homographs)
                assert result.polyhomographic == (len(entry.homographs) >= 2)
                if result.status is TokenStatus.MATCHED:
                    chosen = entry.homographs[result.homograph_id - 1]
                    assert result.coarse_tag in chosen.pos
                else:
                    assert result.homograph_id == 1
                    assert all(result.coarse_tag not in h.pos for h in entry.homographs)
            else:
                assert result.homograph_id is None
                assert result.n_homographs == 0
                if result.status is TokenStatus.UNKNOWN_WORD:
                    assert result.open_class
                else:
                    assert not result.open_class


@given(data=st.data())
def test_tagging_is_deterministic(news_lexicon, penn, news_words, data):
    docs = data.draw(random_documents(news_words))
    runs = [
        render_output([r for d in docs for r in tag_document(news_lexicon, penn, d)])
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# the tag and eval commands against the oracles

EVAL_COUNTS = (
    "n_open_class", "n_unknown", "n_mono", "n_poly", "correct_mono", "correct_poly",
    "fallback_count",
)


@pytest.fixture(scope="module")
def news_records(fixtures_dir):
    lines = (fixtures_dir / "pipeline_lexicon.jsonl").read_text("utf-8").splitlines()
    return {record["word"].lower(): record for record in map(json.loads, lines)}


@pytest.fixture(scope="module")
def penn_table():
    text = files("homograph_tagger").joinpath("data/penn_to_coarse.tsv").read_text("utf-8")
    return oracles.parse_tag_table(text)


@st.composite
def corpus_token(draw, records):
    """(surface, fine, lemma, gold): known, unknown and '#' surfaces, lemmas and gold ids."""
    word = draw(st.sampled_from(sorted(records)))
    surface = draw(st.sampled_from([word, word.upper(), word.capitalize(), "zzq" + word, "#"]))
    fine = "#" if surface == "#" and draw(st.booleans()) else draw(st.sampled_from(PENN_FINE_TAGS))
    lemma = draw(st.sampled_from([None, None, word, "zzq" + word]))
    record = records.get((lemma or surface).lower())
    n_homographs = len(record["homographs"]) if record else 3
    gold = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=n_homographs)))
    return surface, fine, lemma, gold


@st.composite
def corpus_documents(draw, records):
    """Documents as (declared, tokens); a document without a `# doc:` header has tokens.

    Tokens come from a small pool, so equal lines repeat within and across documents.
    """
    pool = st.sampled_from(draw(st.lists(corpus_token(records), min_size=1, max_size=6)))
    declared = draw(st.lists(st.booleans(), min_size=1, max_size=5))
    return [(d, draw(st.lists(pool, min_size=0 if d else 1, max_size=8))) for d in declared]


def corpus_text(documents, blank_before_header):
    """The corpus file; a header follows the document before it directly unless blank_before_header."""
    text = ""
    for number, (declared, tokens) in enumerate(documents, start=1):
        if number > 1:
            text += "\n" if declared and not blank_before_header else "\n\n"
        lines = [f"# doc: d{number}"] if declared else []
        for surface, fine, lemma, gold in tokens:
            fields = [surface, fine]
            if lemma is not None or gold is not None:
                fields.append(lemma or "")
            if gold is not None:
                fields.append(str(gold))
            lines.append("\t".join(fields))
        text += "\n".join(lines)
    return text + "\n"


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture], deadline=None)
@given(data=st.data())
def test_tag_and_eval_commands_match_the_oracles(
    fixtures_dir, tmp_path, news_records, penn_table, data
):
    check_commands_against_the_oracles(fixtures_dir, tmp_path, news_records, penn_table, data)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture], deadline=None)
@given(data=st.data())
def test_tag_and_eval_commands_match_the_oracles_when_the_line_table_holds_one_line(
    fixtures_dir, tmp_path, news_records, penn_table, monkeypatch, data
):
    # the reader empties its table on every new line, so repeated lines are
    # found, forgotten and tagged again
    monkeypatch.setattr("homograph_tagger.pipeline.LINE_TABLE_SIZE", 1)
    check_commands_against_the_oracles(fixtures_dir, tmp_path, news_records, penn_table, data)


def check_commands_against_the_oracles(fixtures_dir, tmp_path, news_records, penn_table, data):
    documents = data.draw(corpus_documents(news_records))
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text(corpus_text(documents, data.draw(st.booleans())), encoding="utf-8")
    lexicon = fixtures_dir / "pipeline_lexicon.jsonl"
    token_lists = [tokens for _, tokens in documents]
    args = ["--lexicon", str(lexicon), "--corpus", str(corpus)]
    runner = CliRunner()

    tagged = runner.invoke(main, ["tag", *args])
    assert tagged.exit_code == 0, tagged.stderr
    expected = oracles.trace_tag(list(news_records.values()), *penn_table, token_lists)
    assert tagged.stdout == expected

    scored = runner.invoke(main, ["eval", *args, "--report-format", "structured"])
    if any(gold is not None for tokens in token_lists for *_, gold in tokens):
        assert scored.exit_code == 0, scored.stderr
        report = json.loads(scored.stdout)
        counts = oracles.trace_counts(list(news_records.values()), *penn_table, token_lists)
        assert {name: report[name] for name in EVAL_COUNTS} == counts
        # eval's summary line comes from its report, tag's from counting the tokens
        assert scored.stderr == tagged.stderr
    else:
        assert scored.exit_code == 1
        assert "no gold homograph annotations" in scored.stderr


# ---------------------------------------------------------------------------
# arithmetic


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=10**6))
def test_percentages_match_the_decimal_oracle(num, den):
    assert pct_of(num, den) == oracles.pct(num, den)
    assert 0.0 <= pct_of(num, den) <= 100.0 * num / den + 0.1
