"""Scoring of homograph assignments against gold annotations.

Scores are stratified by whether the token's word type is
polyhomographic: monohomographic tokens are trivially correct whenever
the gold annotation comes from the same lexicon, so the polyhomographic
stratum is where disambiguation is actually measured.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from itertools import zip_longest
from typing import Iterable

from .errors import EvaluationError
from .lexicon import Lexicon, normalize_key
from .pipeline import Token
from .util import fmt_pct, pct_of


@dataclass(frozen=True)
class EvalReport:
    """Aggregate scores over one tagging run.

    Only open-class, known, gold-annotated tokens enter the accuracy
    denominators; n_open_class and n_unknown record the excluded
    populations (unannotated known tokens are the remainder).
    fallback_count tallies open-class known tokens that needed the
    fallback rule, annotated or not. Accuracy fields and poly_share are
    fractions in 0..1, None when their denominator is zero.
    """

    n_open_class: int
    n_unknown: int
    n_mono: int
    n_poly: int
    correct_mono: int
    correct_poly: int
    fallback_count: int
    accuracy_overall: float | None
    accuracy_mono: float | None
    accuracy_poly: float | None
    poly_share: float | None


_END = object()


def evaluate(
    lexicon: Lexicon,
    results: Iterable[Token],
    gold: Iterable[int | None],
) -> EvalReport:
    """Score assignments against position-aligned gold homograph ids.

    A scored token is correct when its assigned homograph id equals the
    gold id. Gold ids are range-checked against the homograph count each
    tagged token's record carries; the lexicon argument is not consulted.

    Both arguments are consumed once, in step, so they may be
    generators. An error in an earlier token is reported before a
    length mismatch, which shows only when the shorter one runs out.
    """
    n_open = n_unknown = fallbacks = 0
    n_mono = n_poly = correct_mono = correct_poly = 0
    pairs = zip_longest(results, gold, fillvalue=_END)
    for position, (tagged, gold_id) in enumerate(pairs):
        if tagged is _END or gold_id is _END:
            longer = position + 1 + sum(1 for _ in pairs)
            n_results, n_gold = (position, longer) if tagged is _END else (longer, position)
            raise EvaluationError(
                f"results/gold length mismatch: {n_results} results, {n_gold} gold ids"
            )
        record = tagged[2]
        status = record.status
        if status == "C":
            continue
        n_open += 1
        if status == "U":
            n_unknown += 1
            continue
        if status == "F":
            fallbacks += 1
        if gold_id is None:
            continue
        n_homographs = record.n_homographs
        if not 1 <= gold_id <= n_homographs:
            raise EvaluationError(
                f"gold homograph id {gold_id} out of range 1..{n_homographs}"
                f" for {normalize_key(record.lemma or record.surface)!r} (line {tagged[1]})"
            )
        correct = record.homograph_id == gold_id
        if n_homographs >= 2:
            n_poly += 1
            correct_poly += correct
        else:
            n_mono += 1
            correct_mono += correct
    scored = n_mono + n_poly
    return EvalReport(
        n_open_class=n_open,
        n_unknown=n_unknown,
        n_mono=n_mono,
        n_poly=n_poly,
        correct_mono=correct_mono,
        correct_poly=correct_poly,
        fallback_count=fallbacks,
        accuracy_overall=(correct_mono + correct_poly) / scored if scored else None,
        accuracy_mono=correct_mono / n_mono if n_mono else None,
        accuracy_poly=correct_poly / n_poly if n_poly else None,
        poly_share=n_poly / scored if scored else None,
    )


def render_report(report: EvalReport, fmt: str = "text") -> str:
    """Render an EvalReport as a small text table or a flat JSON record.

    The text view shows each ratio as a percentage of the counts, to
    one decimal place (half-up), and 'n/a' where its denominator is
    zero; the structured view keeps the report's raw fractions.
    """
    if fmt == "structured":
        return json.dumps(asdict(report)) + "\n"
    if fmt != "text":
        raise ValueError(f"unknown report format {fmt!r}")
    scored = report.n_mono + report.n_poly
    unannotated = report.n_open_class - scored - report.n_unknown
    lines = [
        f"open-class tokens: {report.n_open_class}",
        f"  unknown words:   {report.n_unknown}",
        f"  unannotated:     {unannotated}",
        f"  scored:          {scored} (mono {report.n_mono}, poly {report.n_poly})",
        f"  fallback:        {report.fallback_count}",
        "overall: {} poly: {} mono: {} poly-share: {}".format(
            fmt_pct(pct_of(report.correct_mono + report.correct_poly, scored)),
            fmt_pct(pct_of(report.correct_poly, report.n_poly)),
            fmt_pct(pct_of(report.correct_mono, report.n_mono)),
            fmt_pct(pct_of(report.n_poly, scored)),
        ),
    ]
    return "\n".join(lines) + "\n"
