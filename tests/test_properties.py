"""Randomized invariants, each checked against an independent reference."""

import json
import os
import pickle
import re
import tempfile
import weakref
from dataclasses import asdict
from importlib.resources import files
from unittest import mock
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

import oracles
from homograph_tagger import (
    Document,
    EvalReport,
    TagMapping,
    WordTypeEntry,
    analyze_lexicon,
    classify_word_type,
    default_tagmap,
    default_vocabulary,
    evaluate,
    load_lexicon,
    render_report,
    render_taxonomy,
    tag_corpus,
    tag_document,
)
from homograph_tagger import cli
from homograph_tagger.cli import main
from homograph_tagger.util import pct_of
from support import (
    cache_files,
    identity_partition,
    load_each_way,
    make_entry,
    make_lexicon,
    tag_lines,
    tag_tables,
    tok,
)

VOCAB = default_vocabulary()
OPEN = ("n", "v", "adj", "adv")

pos_group = st.frozensets(st.sampled_from(VOCAB), min_size=1, max_size=3)
pos_groups = st.lists(pos_group, min_size=1, max_size=6)
entry_words = st.text(alphabet="abcdefghijklmnopqrstuvwxyzé-", min_size=1, max_size=10)
# with letters that lowercasing changes, one of them into two code points (İ) and one by its
# place in the word (Σ)
cased_words = st.text(alphabet="abcdefghijklmnopqrstuvwxyzé-AÉİΣẞ", min_size=1, max_size=10)


def entry_from_groups(word, groups, senses=None):
    return make_entry(word, *[tuple(sorted(g)) for g in groups], senses=senses)


@st.composite
def lexicon_entries(draw, min_size=1, max_size=12, words=entry_words):
    """Entries made by hand; a word may be given the very homographs tuple of an earlier one.

    Their words are unique after lowercasing, so that they load as distinct word types.
    """
    words = draw(st.lists(words, min_size=min_size, max_size=max_size, unique_by=str.lower))
    entries = []
    for word in words:
        if entries and draw(st.booleans()):
            entries.append(WordTypeEntry(word, draw(st.sampled_from(entries)).homographs))
            continue
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


def write_records(path, records):
    """Write records to path as a JSON Lines lexicon."""
    lines = [json.dumps(record, ensure_ascii=False) + "\n" for record in records]
    path.write_text("".join(lines), encoding="utf-8")


def loaded_each_way(tmp_path, entries):
    """entries written as a lexicon and loaded on each load path, with a cache of their own."""
    directory = Path(tempfile.mkdtemp(dir=tmp_path))
    path = directory / "entries.jsonl"
    write_records(path, as_records(entries))
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(directory))
        loads = load_each_way(path)
        assert len(cache_files(directory / "homograph-tagger")) == 1
    return loads


# ---------------------------------------------------------------------------
# classification


@given(pos_groups)
def test_classification_matches_the_literal_definitions(groups):
    entry = entry_from_groups("w", groups)
    expected = oracles.classify_by_definitions([frozenset(g) for g in groups])
    assert classify_word_type(entry) == expected


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
    if category == "guaranteed":
        assert all(n == 1 for n in carriers.values())
    if category == "no-disambiguation":
        assert all(n >= 2 for n in carriers.values())
    if category == "possible":
        assert any(n == 1 for n in carriers.values())
        assert any(n >= 2 for n in carriers.values())


@given(lexicon_entries(), st.randoms(use_true_random=False))
def test_analysis_is_invariant_under_entry_order(entries, rnd):
    shuffled = list(entries)
    rnd.shuffle(shuffled)
    assert analyze_lexicon(make_lexicon(*entries)) == analyze_lexicon(make_lexicon(*shuffled))


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lexicon_entries())
def test_analysis_matches_the_recount_oracle(tmp_path, entries):
    report = analyze_lexicon(make_lexicon(*entries))
    recount = oracles.taxonomy_recount(as_records(entries))
    assert report.n_guaranteed == recount["n_guaranteed"]
    assert report.n_possible == recount["n_possible"]
    assert report.n_no_disambiguation == recount["n_no_disambiguation"]
    assert report.polysemous_pct == recount["polysemous_pct"]
    assert report.collision_histogram == recount["collision_histogram"]
    # loaded, entries with equal homographs share them, and the analysis counts each
    # shared tuple once: the same report on every load path
    for lexicon in loaded_each_way(tmp_path, entries).values():
        assert analyze_lexicon(lexicon) == report


@given(lexicon_entries())
def test_analysis_groups_equal_homographs_not_identical_objects(entries):
    # each entry with a homographs tuple of its own: equal tuples are distinct objects
    copies = [WordTypeEntry(e.key, tuple(list(e.homographs))) for e in entries]
    assert len({id(e.homographs) for e in copies}) == len(copies)
    lexicon = make_lexicon(*copies)
    # one sequence per distinct homographs value, weighted by its keys
    assert len(lexicon._sequences) == len({e.homographs for e in copies})
    report = analyze_lexicon(lexicon)
    assert asdict(report) == oracles.taxonomy_recount(as_records(copies))
    assert report == analyze_lexicon(make_lexicon(*entries))


# ---------------------------------------------------------------------------
# loading


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lexicon_entries(words=cased_words))
def test_records_load_back_to_their_entries(tmp_path, entries):
    loads = loaded_each_way(tmp_path, entries)
    made = make_lexicon(*[WordTypeEntry(e.key.lower(), e.homographs) for e in entries])
    # the entries made by hand take the path a load takes: every load path builds a lexicon
    # equal to theirs, its keys passing the builder's check, with the same sequence number
    # and an equal tag table per key, and the same sharing of homographs tuples
    numbers, tables = list(made._index.items()), tag_tables(made)
    sharing = identity_partition([entry.homographs for entry in made])
    for lexicon in (made, *loads.values()):
        assert lexicon == made and hash(lexicon) == hash(made)
        assert list(lexicon._index.items()) == numbers and tag_tables(lexicon) == tables
        assert identity_partition([entry.homographs for entry in lexicon]) == sharing
        assert pickle.loads(pickle.dumps(lexicon)) == made
        assert weakref.ref(lexicon)() is lexicon


tag_list = st.lists(st.sampled_from(VOCAB), min_size=1, max_size=3, unique=True)
homograph_sequence = st.lists(st.tuples(tag_list, st.integers(1, 3)), min_size=1, max_size=5)


@st.composite
def repetitive_lexicon_records(draw):
    """Lexicon records whose homograph sequences come from a small pool, so equal ones repeat."""
    pool = draw(st.lists(homograph_sequence, min_size=1, max_size=4))
    words = draw(st.lists(entry_words, min_size=1, max_size=15, unique=True))
    return [
        {
            "word": word,
            "homographs": [
                {"pos": pos, "senses": [{"def": f"{word} {i}"} for i in range(n_senses)]}
                for pos, n_senses in draw(st.sampled_from(pool))
            ],
        }
        for word in words
    ]


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(repetitive_lexicon_records())
def test_loaded_entries_equal_the_entries_made_from_their_parts(tmp_path, records):
    path = tmp_path / "entries.jsonl"
    write_records(path, records)
    # the second load, at least, is a cache hit
    first_load = load_lexicon(path)
    for lexicon in (first_load, load_lexicon(path)):
        assert lexicon == first_load
        assert [entry.key for entry in lexicon] == [record["word"] for record in records]
        tables = tag_tables(lexicon)
        for entry in lexicon:
            made = WordTypeEntry(entry.key, entry.homographs)
            assert entry == made
            # the table a lexicon of the made entry alone derives, in the same order
            made_table = tag_tables(make_lexicon(made))[entry.key]
            assert list(tables[entry.key].items()) == list(made_table.items())
        first_with = {}
        for entry in lexicon:
            first = first_with.setdefault(entry.homographs, entry)
            assert entry.homographs is first.homographs and tables[entry.key] is tables[first.key]


# ---------------------------------------------------------------------------
# assignment

_identity_map = TagMapping(
    entries={tag.upper(): tag for tag in VOCAB},
    open_class=frozenset(OPEN),
)


def _tag_one(entry, tag):
    """The tagged record of the token `w` tagged `tag.upper()`, over a lexicon of entry alone."""
    document = Document("d", (tok("w", tag.upper()),))
    ((_, record),) = tag_document(make_lexicon(entry), _identity_map, document)
    return record


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
    result = _tag_one(entry, tag)
    assert result.status == "M"
    assert result.homograph_id == target_id
    assert entry.homographs[target_id - 1].pos == (tag,)


@given(pos_group, st.sampled_from(OPEN))
def test_single_homograph_words_always_get_id_one(group, tag):
    entry = entry_from_groups("w", [group])
    result = _tag_one(entry, tag)
    assert result.status == ("M" if tag in group else "F")
    assert result.homograph_id == 1
    assert result.n_homographs == 1


# ---------------------------------------------------------------------------
# corpus-level behaviour

PENN_FINE_TAGS = sorted(default_tagmap().entries)


def random_lines(words):
    """One document's token lines: known or unknown surfaces with any Penn fine tag."""
    surfaces = st.one_of(st.sampled_from(words), st.just("zzq-unknown"))
    return st.lists(st.tuples(surfaces, st.sampled_from(PENN_FINE_TAGS)), min_size=1, max_size=48)


@pytest.fixture(scope="module")
def news_words(news_lexicon):
    return sorted(entry.key for entry in news_lexicon)


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    # each example rewrites the one corpus file in it
    return tmp_path_factory.mktemp("corpus")


@given(data=st.data())
def test_every_token_is_accounted_for(news_lexicon, penn, news_words, corpus_dir, data):
    by_key = {entry.key: entry for entry in news_lexicon}
    lines = data.draw(random_lines(news_words))
    for result in tag_lines(corpus_dir, news_lexicon, penn, *lines):
        entry = by_key.get((result.lemma or result.surface).lower())
        if result.status in ("M", "F"):
            assert result.coarse_tag in penn.open_class
            assert result.homograph_id is not None
            assert result.n_homographs == len(entry.homographs)
            if result.status == "M":
                chosen = entry.homographs[result.homograph_id - 1]
                assert result.coarse_tag in chosen.pos
            else:
                assert result.homograph_id == 1
                assert all(result.coarse_tag not in h.pos for h in entry.homographs)
        else:
            assert result.homograph_id is None
            assert result.n_homographs == 0
            if result.status == "U":
                assert result.coarse_tag in penn.open_class and entry is None
            else:
                assert result.status == "C"
                assert result.coarse_tag not in penn.open_class


@given(data=st.data())
def test_tagging_is_deterministic(news_lexicon, penn, news_words, corpus_dir, data):
    lines = data.draw(random_lines(news_words))
    runs = [tag_lines(corpus_dir, news_lexicon, penn, *lines) for _ in range(2)]
    # a record's tail is its rendered output line
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
    fixtures_dir, tmp_path, news_records, penn_table, monkeypatch, data
):
    check_commands_against_the_oracles(
        fixtures_dir, tmp_path, news_records, penn_table, monkeypatch, data
    )


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture], deadline=None)
@given(data=st.data())
def test_tag_and_eval_commands_match_the_oracles_when_the_line_table_holds_one_line(
    fixtures_dir, tmp_path, news_records, penn_table, monkeypatch, data
):
    # the reader empties its table on every new line, so repeated lines are
    # found, forgotten and tagged again
    monkeypatch.setattr("homograph_tagger.pipeline.LINE_TABLE_SIZE", 1)
    check_commands_against_the_oracles(
        fixtures_dir, tmp_path, news_records, penn_table, monkeypatch, data
    )


def check_commands_against_the_oracles(
    fixtures_dir, tmp_path, news_records, penn_table, monkeypatch, data
):
    """tag on a cold and then a warm lexicon cache, then eval, each checked against the oracles."""
    documents = data.draw(corpus_documents(news_records))
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text(corpus_text(documents, data.draw(st.booleans())), encoding="utf-8")
    lexicon = fixtures_dir / "pipeline_lexicon.jsonl"
    token_lists = [tokens for _, tokens in documents]
    args = ["--lexicon", str(lexicon), "--corpus", str(corpus)]
    runner = CliRunner()
    cache = Path(tempfile.mkdtemp(dir=tmp_path))
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))

    tagged = runner.invoke(main, ["tag", *args])
    assert tagged.exit_code == 0, tagged.stderr
    expected = oracles.trace_tag(list(news_records.values()), *penn_table, token_lists)
    assert tagged.stdout == expected
    assert len(cache_files(cache / "homograph-tagger")) == 1
    warm = runner.invoke(main, ["tag", *args])
    assert (warm.exit_code, warm.stdout, warm.stderr) == (0, tagged.stdout, tagged.stderr)

    scored = runner.invoke(main, ["eval", *args, "--report-format", "structured"])
    if any(gold is not None for tokens in token_lists for *_, gold in tokens):
        assert scored.exit_code == 0, scored.stderr
        report = json.loads(scored.stdout)
        counts = oracles.trace_counts(list(news_records.values()), *penn_table, token_lists)
        assert {name: report[name] for name in EVAL_COUNTS} == counts
        # the library's scoring of each record against its own gold id is eval's
        loaded = load_lexicon(lexicon)
        records = [
            record
            for document in tag_corpus(loaded, default_tagmap(), corpus, render=False)
            for record in document.tokens
        ]
        gold = [record.gold_homograph_id for record in records]
        assert asdict(evaluate(loaded, enumerate(records), gold)) == report
        # both summary lines come from one tally of the same tokens
        assert scored.stderr == tagged.stderr
    else:
        assert scored.exit_code == 1
        assert "no gold homograph annotations" in scored.stderr


# ---------------------------------------------------------------------------
# a corpus split among worker processes reads as a corpus read whole

_TOKEN_LINES = [
    "bank\tNN", "bank\tVB\t\t3", "Bank\tNNP", "stock\tJJ\tstock\t3", "firm\tNN\t\t1",
    "rose\tVBD\trise\t1", "The\tDT", "zzq\tNN", "#\t#", "caf\u00e9\tNN",
    # a U+FEFF that may start a later part, where it is data
    "\ufeffbank\tNN",
]
# what opens a document, or a comment; what may follow its token lines
_OPENERS = st.sampled_from([None, None, "# doc: a", "# doc: doc2", "# doc: doc3", "# a comment"])
_CLOSERS = st.sampled_from([[""], [""], ["", ""], [" "], []])
# documents, some declared and still empty where a blank line follows their header
_CORPUS_LINES = st.lists(
    st.tuples(_OPENERS, st.lists(st.sampled_from(_TOKEN_LINES), max_size=6), _CLOSERS), max_size=12
).map(
    lambda documents: [
        line
        for opener, tokens, closer in documents
        for line in ([opener] if opener else []) + tokens + closer
    ]
)
_BAD_LINES = [
    b"bad line", b"caf\xe9\tNN", b"bank\tXYZ", b"bank\tNN\t\t9", b"# doc: ", b"bank\tNN\t\tx",
]


def _run(runner, args, out):
    """Exit code, stdout, stderr and output file of one command, leaving no output file behind."""
    result = runner.invoke(main, args)
    written = out.read_bytes() if out.exists() else None
    if written is not None:
        out.unlink()
    return result.exit_code, result.stdout_bytes, result.stderr_bytes, written


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    lines=_CORPUS_LINES,
    bad=st.none() | st.tuples(st.sampled_from(_BAD_LINES), st.integers(min_value=0)),
    line_end=st.sampled_from([b"\n", b"\r\n"]),
    bom=st.booleans(),
)
def test_a_split_run_gives_what_a_serial_run_gives(
    fixtures_dir, tmp_path, monkeypatch, lines, bad, line_end, bom
):
    """tag to stdout and to a file, and eval, split into parts of any size on three CPUs or read whole."""
    encoded = [line.encode() for line in lines]
    if bad is not None:
        encoded.insert(bad[1] % (len(encoded) + 1), bad[0])
    corpus = tmp_path / "corpus.tsv"
    corpus.write_bytes(b"\xef\xbb\xbf" * bom + b"".join(line + line_end for line in encoded))
    out = tmp_path / "out.tsv"
    base = ["--lexicon", str(fixtures_dir / "pipeline_lexicon.jsonl"), "--corpus", str(corpus)]
    commands = [["tag", *base], ["tag", *base, "--out", str(out)], ["eval", *base]]
    runner = CliRunner()
    monkeypatch.setattr(cli, "PART_BYTES", 1)
    outcomes = {}
    with mock.patch.object(os, "fork", wraps=os.fork) as fork:
        for cpus in (1, 3):
            monkeypatch.setattr(cli, "_usable_cpus", lambda cpus=cpus: cpus)
            outcomes[cpus] = [_run(runner, args, out) for args in commands]
    event(f"workers per command: {fork.call_count / len(commands):.0f}")
    assert outcomes[3] == outcomes[1]


# ---------------------------------------------------------------------------
# arithmetic


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=10**6))
def test_percentages_match_the_decimal_oracle(num, den):
    assert pct_of(num, den) == oracles.pct(num, den)
    assert 0.0 <= pct_of(num, den) <= 100.0 * num / den + 0.1


# a percentage or n/a as the text reports print it
_SHOWN_PCT = re.compile(r"\d+\.\d%|n/a")


def shown(numerator, denominator):
    return f"{oracles.pct(numerator, denominator)}%" if denominator else "n/a"


def eval_report(n_mono, correct_mono, n_poly, correct_poly, n_other=0):
    """The report evaluate makes from these counts; n_other open-class tokens go unscored."""
    scored = n_mono + n_poly
    return EvalReport(
        n_open_class=scored + n_other,
        n_unknown=n_other,
        n_mono=n_mono,
        n_poly=n_poly,
        correct_mono=correct_mono,
        correct_poly=correct_poly,
        fallback_count=0,
        accuracy_overall=(correct_mono + correct_poly) / scored if scored else None,
        accuracy_mono=correct_mono / n_mono if n_mono else None,
        accuracy_poly=correct_poly / n_poly if n_poly else None,
        poly_share=n_poly / scored if scored else None,
    )


@st.composite
def eval_reports(draw):
    counts = st.integers(min_value=0, max_value=2500) | st.integers(min_value=0, max_value=10**9)
    n_mono, n_poly, n_other = draw(counts), draw(counts), draw(counts)
    correct_mono = draw(st.integers(min_value=0, max_value=n_mono))
    correct_poly = draw(st.integers(min_value=0, max_value=n_poly))
    return eval_report(n_mono, correct_mono, n_poly, correct_poly, n_other)


# overall 9/10 = 90.0%, poly 5/6 = 83.3%, mono 4/4 = 100.0%, poly-share 6/10 = 60.0%
@example(eval_report(4, 4, 6, 5))
# poly 77/109 = 70.6%, mono n/a
@example(eval_report(0, 0, 109, 77))
# nothing scored: n/a throughout
@example(eval_report(0, 0, 0, 0, n_other=3))
@given(eval_reports())
def test_the_eval_text_report_prints_each_ratio_rounded_once(report):
    scored = report.n_mono + report.n_poly
    assert _SHOWN_PCT.findall(render_report(report)) == [
        shown(report.correct_mono + report.correct_poly, scored),
        shown(report.correct_poly, report.n_poly),
        shown(report.correct_mono, report.n_mono),
        shown(report.n_poly, scored),
    ]


# one word type of each category: monohomographic, guaranteed, possible, no-disambiguation
_CATEGORY_PATTERNS = [
    (("n",),),
    (("n",), ("v",)),
    (("n",), ("v",), ("v",)),
    (("v",), ("v",)),
]


# no polyhomographic word type: both of-polyhomographic figures are n/a
@example([(_CATEGORY_PATTERNS[0], 1)])
@example([(pattern, 2) for pattern in _CATEGORY_PATTERNS])
@given(
    st.lists(st.tuples(st.sampled_from(_CATEGORY_PATTERNS), st.integers(1, 2)), min_size=1, max_size=300)
)
def test_the_taxonomy_text_report_prints_each_ratio_rounded_once(drawn):
    entries = [
        make_entry(f"w{i}", *groups, senses=[senses] + [1] * (len(groups) - 1))
        for i, (groups, senses) in enumerate(drawn, start=1)
    ]
    recount = oracles.taxonomy_recount(as_records(entries))
    n, n_poly = recount["n_word_types"], recount["n_polyhomographic"]
    certain = recount["n_monohomographic"] + recount["n_guaranteed"]
    text = render_taxonomy(analyze_lexicon(make_lexicon(*entries)))
    assert _SHOWN_PCT.findall(text) == [
        shown(recount["n_polysemous"], n),
        shown(n_poly, n),
        shown(recount["n_guaranteed"], n_poly),
        shown(recount["n_guaranteed"] + recount["n_possible"], n_poly),
        shown(certain, n),
        shown(certain + recount["n_possible"], n),
    ]
