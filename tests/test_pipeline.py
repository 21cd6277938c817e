import sys

import pytest

import oracles
from homograph_tagger import (
    CorpusError,
    Document,
    UnmappedTagError,
    read_corpus,
    render_output,
    status_counts,
    tag_corpus,
    tag_document,
)
from support import make_entry, make_lexicon, tag_lines, tok, write_corpus


@pytest.fixture()
def lex():
    return make_lexicon(
        make_entry("bank", ("n",), ("n",), ("v",)),
        make_entry("file", ("n",), ("v",)),
        make_entry("gravel", ("n",)),
        make_entry("stock", ("n",), ("v",), ("adj",)),
    )


# ---------------------------------------------------------------------------
# corpus reading


def test_read_corpus_fixture_shape(fixtures_dir):
    docs = list(read_corpus(fixtures_dir / "news_corpus.tsv"))
    assert [d.doc_id for d in docs] == [f"article-{i}" for i in range(1, 6)]
    assert sum(len(d.tokens) for d in docs) == 209
    _, _, first = docs[0].tokens[1]
    assert (first.surface, first.fine_tag, first.lemma) == ("bank", "NN", None)
    assert first.gold_homograph_id == 1
    # indexes restart inside every document
    for doc in docs:
        assert [index for index, _, _ in doc.tokens] == list(range(len(doc.tokens)))


def test_read_corpus_assigns_implicit_ids_by_position(tmp_path):
    path = write_corpus(tmp_path, "a\tNN\n\nb\tNN\n\n\nc\tNN\n")
    docs = list(read_corpus(path))
    assert [d.doc_id for d in docs] == ["doc1", "doc2", "doc3"]
    assert [len(d.tokens) for d in docs] == [1, 1, 1]


def test_read_corpus_mixes_explicit_and_implicit_ids(tmp_path):
    path = write_corpus(tmp_path, "# doc: intro\na\tNN\n\nb\tNN\n")
    docs = list(read_corpus(path))
    assert [d.doc_id for d in docs] == ["intro", "doc2"]


def test_read_corpus_header_may_declare_an_empty_document(tmp_path):
    docs = list(read_corpus(write_corpus(tmp_path, "# doc: empty\n")))
    assert docs == [Document("empty", ())]


def test_read_corpus_blank_line_after_header_does_not_split(tmp_path):
    docs = list(read_corpus(write_corpus(tmp_path, "# doc: a\n\n\nx\tNN\n")))
    assert [d.doc_id for d in docs] == ["a"]
    assert len(docs[0].tokens) == 1


def test_read_corpus_ignores_a_bom_before_a_document_header(tmp_path):
    docs = list(read_corpus(write_corpus(tmp_path, "\ufeff# doc: x\nbank\tNN\n")))
    assert [d.doc_id for d in docs] == ["x"]


def test_read_corpus_skips_comments_but_not_hash_tokens(tmp_path):
    path = write_corpus(tmp_path, "# a comment\nwell\tUH\n#\t#\n#word\tNN\n")
    (doc,) = list(read_corpus(path))
    assert [t.surface for _, _, t in doc.tokens] == ["well", "#"]
    assert doc.tokens[1][2].fine_tag == "#"


def test_read_corpus_field_handling(tmp_path):
    path = write_corpus(tmp_path, "a\tNN\nb\tNN\tlem\nc\tNN\t\t2\nd\tNN\tlem\t3\n")
    (doc,) = list(read_corpus(path))
    assert [(t.lemma, t.gold_homograph_id) for _, _, t in doc.tokens] == [
        (None, None), ("lem", None), (None, 2), ("lem", 3),
    ]
    assert [line for _, line, _ in doc.tokens] == [1, 2, 3, 4]


_LONG_GOLD = "a\tNN\t\t" + "1" * 5000 + "\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("a\n", "expected 2 to 4"),
        ("a\tNN\tx\t1\textra\n", "expected 2 to 4"),
        ("\tNN\n", "empty surface"),
        ("a\t\n", "empty fine tag"),
        ("a\tNN\t\tone\n", "must be an integer"),
        ("a\tNN\t\t\u0661\n", "must be an integer, got '\u0661'"),
        ("a\tNN\t\t1_0\n", "must be an integer, got '1_0'"),
        ("a\tNN\t\t 1\n", "must be an integer, got ' 1'"),
        ("a\tNN\t\t1 \n", "must be an integer, got '1 '"),
        ("a\tNN\t\t+1\n", r"must be an integer, got '\+1'"),
        ("a\tNN\t\t0\n", "must be >= 1"),
        ("a\tNN\t\t-2\n", "must be >= 1"),
        ("# doc:\na\tNN\n", "empty id"),
        ("", "empty corpus"),
        ("# just a comment\n\n", "empty corpus"),
        ("# doc: a\nx\tNN\n\n# doc: a\ny\tNN\n", "duplicate document id"),
        # ASCII digits, but more than int() converts: its ValueError is the message
        pytest.param(_LONG_GOLD, "must be an integer", id="gold-id-past-the-digit-limit"),
    ],
)
def test_read_corpus_rejects_malformed_input(tmp_path, text, message):
    path = write_corpus(tmp_path, text)
    if text is _LONG_GOLD and not hasattr(sys, "get_int_max_str_digits"):
        # without a digit limit (Python before 3.11) the long id is just a large one
        assert len(list(read_corpus(path))) == 1
        return
    with pytest.raises(CorpusError, match=message):
        list(read_corpus(path))


def test_read_corpus_yields_each_document_before_reading_on(tmp_path):
    path = write_corpus(tmp_path, "# doc: a\nbank\tNN\n\n# doc: b\nbank\tNN\nbad line\n")
    documents = read_corpus(path)
    first = next(documents)
    assert (first.doc_id, len(first.tokens)) == ("a", 1)
    with pytest.raises(CorpusError, match=r"corpus\.tsv:6: expected 2 to 4"):
        next(documents)


def test_read_corpus_error_names_the_line(tmp_path):
    path = write_corpus(tmp_path, "ok\tNN\n\nbad\tNN\t\tzero\n")
    with pytest.raises(CorpusError, match=r"corpus\.tsv:3"):
        list(read_corpus(path))


# ---------------------------------------------------------------------------
# the tagging rule, through tag_corpus


def test_closed_class_token_passes_through(tmp_path, lex, penn):
    (result,) = tag_lines(tmp_path, lex, penn, ("the", "DT"))
    assert result.status == "C"
    assert result.coarse_tag == "det"
    assert result.homograph_id is None
    assert result.n_homographs == 0


def test_unknown_open_class_word(tmp_path, lex, penn):
    (result,) = tag_lines(tmp_path, lex, penn, ("zorblat", "NN"))
    assert result.status == "U"
    assert result.homograph_id is None
    assert result.n_homographs == 0


def test_match_takes_the_first_homograph_with_the_tag(tmp_path, lex, penn):
    noun, verb = tag_lines(tmp_path, lex, penn, ("bank", "NN"), ("bank", "VBD"))
    assert (noun.status, noun.homograph_id) == ("M", 1)
    assert (verb.status, verb.homograph_id) == ("M", 3)
    assert noun.n_homographs == verb.n_homographs == 3


def test_fallback_is_always_homograph_one(tmp_path, lex, penn):
    result, poly = tag_lines(tmp_path, lex, penn, ("gravel", "JJ"), ("file", "JJ"))
    assert (result.status, result.homograph_id, result.n_homographs) == ("F", 1, 1)
    assert (poly.status, poly.homograph_id, poly.n_homographs) == ("F", 1, 2)


def test_lemma_overrides_surface_for_lookup(tmp_path, lex, penn):
    result, missing = tag_lines(
        tmp_path, lex, penn, ("Banks", "NNS", "bank"), ("bank", "NN", "unknownlemma")
    )
    assert (result.status, result.homograph_id) == ("M", 1)
    assert missing.status == "U"


def test_lookup_is_case_insensitive_on_surface(tmp_path, lex, penn):
    (result,) = tag_lines(tmp_path, lex, penn, ("Bank", "NN"))
    assert result.status == "M"


def test_lookup_applies_no_unicode_normalization(tmp_path, penn):
    # keys are lowercased only (see normalize_key): an NFD spelling of an
    # NFC headword is a different word type
    nfc, nfd = "caf\u00e9", "cafe\u0301"
    lexicon = make_lexicon(make_entry(nfc, ("n",)))
    surfaces = (nfc, nfc.upper(), nfd, nfd.upper())
    results = tag_lines(tmp_path, lexicon, penn, *[(surface, "NN") for surface in surfaces])
    assert [result.status for result in results] == ["M", "M", "U", "U"]


def test_unmapped_tag_strict_and_lenient(tmp_path, lex, penn):
    # tag_document reads no file, so its message names the line alone
    # (tag_corpus's message, with the path, is pinned below)
    with pytest.raises(UnmappedTagError) as exc_info:
        tag_document(lex, penn, Document("d", (tok("bank", "XYZ", line=41),)))
    assert str(exc_info.value) == "unmapped fine tag 'XYZ' (line 41)"
    (lenient,) = tag_lines(tmp_path, lex, penn, ("bank", "XYZ"), strict=False)
    assert lenient.status == "C"
    assert lenient.coarse_tag is None


def test_skip_proper_short_circuits_known_proper_nouns(tmp_path, lex, penn):
    (plain,) = tag_lines(tmp_path, lex, penn, ("Bank", "NNP"))
    assert plain.status == "M"
    skipped, noun = tag_lines(
        tmp_path, lex, penn, ("Bank", "NNP"), ("Bank", "NN"), skip_proper=True
    )
    assert skipped.status == "C"
    assert skipped.coarse_tag == "n"
    # non-proper tags are unaffected
    assert noun.status == "M"


# ---------------------------------------------------------------------------
# document tagging and output


def test_tag_document_keeps_token_order(lex, penn):
    doc = Document("d", (tok("The", "DT", index=0), tok("bank", "NN", index=1),
                         tok("files", "VBZ", lemma="file", index=2)))
    results = tag_document(lex, penn, doc)
    assert [r.status for _, _, r in results] == ["C", "M", "M"]
    assert [index for index, _, _ in results] == [0, 1, 2]
    assert status_counts(results) == {"M": 2, "C": 1}


def test_render_output_exact_format(lex, penn):
    doc_a = Document("a", (tok("The", "DT", index=0), tok("bank", "NN", index=1),
                           tok("zorblat", "NN", index=2), tok("gravel", "JJ", index=3)))
    doc_b = Document("b", (tok("Stocks", "NNS", lemma="stock", index=0),))
    results = tag_document(lex, penn, doc_a) + tag_document(lex, penn, doc_b)
    assert render_output(results) == (
        "#homograph-tagger v1\n"
        "0\tThe\tdet\tC\t-\n"
        "1\tbank\tn\tM\t1\n"
        "2\tzorblat\tn\tU\t-\n"
        "3\tgravel\tadj\tF\t1\n"
        "0\tStocks\tn\tM\t1\n"
    )


def test_render_output_header_only_for_no_tokens():
    assert render_output([]) == "#homograph-tagger v1\n"


def test_full_fixture_run_matches_the_hand_traced_golden(fixtures_dir, news_lexicon, penn):
    docs = list(read_corpus(fixtures_dir / "news_corpus.tsv"))
    results = [r for doc in docs for r in tag_document(news_lexicon, penn, doc)]
    golden = (fixtures_dir / "news_corpus_tagged.golden").read_text("utf-8")
    assert render_output(results) == golden


def test_tag_corpus_is_read_corpus_then_tag_document(fixtures_dir, news_lexicon, penn, monkeypatch):
    path = fixtures_dir / "news_corpus.tsv"
    two_steps = [(d.doc_id, tuple(tag_document(news_lexicon, penn, d))) for d in read_corpus(path)]
    one_pass = [(d.doc_id, d.tokens) for d in tag_corpus(news_lexicon, penn, path)]
    assert one_pass == two_steps
    # tokens on equal lines share one record
    records = [record for _, tokens in one_pass for _, _, record in tokens]
    assert len({id(r) for r in records}) == len(set(records)) < len(records)
    # a scorer's run makes no output lines, and the rest of each record is the same
    scored = [r for d in tag_corpus(news_lexicon, penn, path, render=False) for _, _, r in d.tokens]
    assert scored == [r._replace(tail=None) for r in records]
    # a table that holds one line forgets each line as the next comes in
    monkeypatch.setattr("homograph_tagger.pipeline.LINE_TABLE_SIZE", 1)
    assert [(d.doc_id, d.tokens) for d in tag_corpus(news_lexicon, penn, path)] == two_steps


def test_tag_corpus_names_the_file_and_line_of_an_unmapped_tag(tmp_path, lex, penn):
    path = tmp_path / "c.tsv"
    path.write_text("bank\tNN\nbank\tXYZ\n", encoding="utf-8")
    with pytest.raises(UnmappedTagError) as exc_info:
        list(tag_corpus(lex, penn, path))
    assert str(exc_info.value) == f"{path}:2: unmapped fine tag 'XYZ'"


def test_tagging_agrees_with_the_hand_assignment_rule(tmp_path, fixtures_dir, news_lexicon, penn):
    import json

    records = [
        json.loads(line)
        for line in (fixtures_dir / "pipeline_lexicon.jsonl").read_text("utf-8").splitlines()
    ]
    by_word = {r["word"]: r for r in records}
    lines = [("bank", "NN"), ("bank", "VB"), ("close", "RB"),
             ("daily", "JJ"), ("daily", "RB"), ("lead", "NN")]
    for got in tag_lines(tmp_path, news_lexicon, penn, *lines):
        status, hid = oracles.assign_by_hand(by_word[got.surface], got.coarse_tag)
        assert (got.status, got.homograph_id) == (status, hid)
