import json
from dataclasses import asdict

import pytest

from homograph_tagger import (
    Document,
    EvaluationError,
    evaluate,
    load_lexicon,
    read_corpus,
    render_report,
    tag_document,
)
from support import make_entry, make_lexicon, tok


def tag_corpus(lexicon, mapping, docs):
    results = [r for doc in docs for r in tag_document(lexicon, mapping, doc)]
    gold = [r.gold_homograph_id for _, r in results]
    return results, gold


@pytest.fixture()
def mixed(fixtures_dir, penn):
    lexicon = load_lexicon(fixtures_dir / "eval_mixed_lexicon.jsonl")
    docs = list(read_corpus(fixtures_dir / "eval_mixed_corpus.tsv"))
    results, gold = tag_corpus(lexicon, penn, docs)
    return lexicon, results, gold


def test_mixed_fixture_counts_and_accuracies(mixed):
    lexicon, results, gold = mixed
    report = evaluate(lexicon, results, gold)
    assert report.n_open_class == 11
    assert report.n_unknown == 1
    assert (report.n_mono, report.correct_mono) == (4, 4)
    assert (report.n_poly, report.correct_poly) == (6, 5)
    assert report.fallback_count == 0
    assert report.accuracy_overall == 0.9
    assert report.accuracy_mono == 1.0
    assert report.accuracy_poly == 5 / 6
    assert report.poly_share == 0.6


def test_mixed_fixture_rendered_percentages(mixed):
    lexicon, results, gold = mixed
    text = render_report(evaluate(lexicon, results, gold))
    assert text.endswith("overall: 90.0% poly: 83.3% mono: 100.0% poly-share: 60.0%\n")
    assert "scored:          10 (mono 4, poly 6)" in text


def test_self_gold_scores_everything_correct(fixtures_dir, news_lexicon, penn):
    docs = list(read_corpus(fixtures_dir / "news_corpus.tsv"))
    results, _ = tag_corpus(news_lexicon, penn, docs)
    self_gold = [
        r.homograph_id if r.status in ("M", "F") else None
        for _, r in results
    ]
    report = evaluate(news_lexicon, results, self_gold)
    assert report.accuracy_overall == 1.0
    assert report.accuracy_mono == 1.0
    assert report.accuracy_poly == 1.0


def test_monohomographic_corpus_scores_one(penn):
    lexicon = make_lexicon(make_entry("sofa", ("n",)), make_entry("tulip", ("n",)))
    doc = Document("d", (
        tok("sofa", "NN", gold=1),
        tok("tulip", "NN", gold=1),
        tok("sofa", "JJ", gold=1),  # fallback, still homograph 1
    ))
    results = tag_document(lexicon, penn, doc)
    report = evaluate(lexicon, results, [t.gold_homograph_id for t in doc.tokens])
    assert report.accuracy_overall == 1.0
    assert report.accuracy_mono == 1.0
    assert report.accuracy_poly is None
    assert report.poly_share == 0.0
    assert report.fallback_count == 1


def test_unscored_report_has_no_accuracies(penn):
    lexicon = make_lexicon(make_entry("sofa", ("n",)))
    doc = Document("d", (tok("sofa", "NN"), tok("zorblat", "NN")))
    results = tag_document(lexicon, penn, doc)
    report = evaluate(lexicon, results, [None, None])
    assert (report.n_open_class, report.n_unknown) == (2, 1)
    assert report.n_mono == report.n_poly == 0
    assert report.accuracy_overall is None
    assert report.accuracy_mono is None
    assert report.accuracy_poly is None
    assert report.poly_share is None


def test_gold_on_an_unknown_word_is_ignored(penn):
    lexicon = make_lexicon(make_entry("sofa", ("n",)))
    doc = Document("d", (tok("zorblat", "NN", gold=5),))
    results = tag_document(lexicon, penn, doc)
    report = evaluate(lexicon, results, [5])
    assert report.n_unknown == 1
    assert report.n_mono == report.n_poly == 0


def test_fallbacks_count_even_without_gold(penn):
    lexicon = make_lexicon(make_entry("gravel", ("n",)))
    doc = Document("d", (tok("gravel", "JJ"),))
    results = tag_document(lexicon, penn, doc)
    assert evaluate(lexicon, results, [None]).fallback_count == 1


def test_length_mismatch_is_an_error(penn):
    lexicon = make_lexicon(make_entry("sofa", ("n",)))
    results = tag_document(lexicon, penn, Document("d", (tok("sofa", "NN"),)))
    with pytest.raises(EvaluationError, match="length mismatch"):
        evaluate(lexicon, results, [1, 1])


def test_evaluate_takes_generators(mixed):
    lexicon, results, gold = mixed
    assert evaluate(lexicon, iter(results), iter(gold)) == evaluate(lexicon, results, gold)
    with pytest.raises(EvaluationError, match="13 results, 14 gold ids"):
        evaluate(lexicon, iter(results), iter(gold + [None]))
    with pytest.raises(EvaluationError, match="13 results, 12 gold ids"):
        evaluate(lexicon, iter(results), iter(gold[:-1]))


def test_gold_out_of_range_is_an_error(penn):
    lexicon = make_lexicon(make_entry("file", ("n",), ("v",)))
    results = tag_document(lexicon, penn, Document("d", (tok("file", "NN"),)))
    with pytest.raises(EvaluationError) as exc_info:
        evaluate(lexicon, results, [3])
    assert str(exc_info.value) == "gold homograph id 3 out of range 1..2 for 'file' (token 0)"


def test_an_untagged_token_is_an_error():
    doc = Document("d", (tok("sofa", "NN"),))
    with pytest.raises(EvaluationError) as exc_info:
        evaluate(make_lexicon(), enumerate(doc.tokens), [None])
    assert str(exc_info.value) == "token 0 is not tagged"


def test_evaluate_does_not_consult_the_lexicon(mixed):
    # the results carry each token's homograph count, so the lexicon passed is not read
    lexicon, results, gold = mixed
    report = evaluate(lexicon, results, gold)
    assert evaluate(make_lexicon(make_entry("tulip", ("n",))), results, gold) == report
    assert evaluate(make_lexicon(), results, gold) == report


def test_render_report_structured_is_the_raw_fractions(mixed):
    lexicon, results, gold = mixed
    report = evaluate(lexicon, results, gold)
    payload = json.loads(render_report(report, "structured"))
    assert payload == asdict(report)
    assert payload["accuracy_poly"] == 5 / 6
    with pytest.raises(ValueError):
        render_report(report, "xml")


def test_render_report_text_uses_na_for_missing_figures(penn):
    lexicon = make_lexicon(make_entry("sofa", ("n",)))
    results = tag_document(lexicon, penn, Document("d", (tok("sofa", "NN"),)))
    text = render_report(evaluate(lexicon, results, [None]))
    assert text.endswith("overall: n/a poly: n/a mono: n/a poly-share: n/a\n")
