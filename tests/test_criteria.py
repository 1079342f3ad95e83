import math

import numpy as np
import pytest

from cantelli import (
    Conclusion,
    ExplicitList,
    IndependentModel,
    PowerLaw,
    VerdictLabel,
    build_outcome_space,
    build_series_report,
    classify_series,
    oracle_window_prob,
    series_terms,
    sweep_prefix_len,
)
import cantelli.criteria as criteria
from cantelli.criteria import InsufficientDataError, fit_tail
from cantelli.models import DecayVerdict
from cantelli.specfile import load_spec
from cantelli.windows import first_occurrence

from conftest import SPECS, make_coin, make_interleaved, make_nested, random_independent


def criterion(model, m, num_terms):
    """The sweep's criterion for ``m``, from a table that ends at ``m``."""
    return sweep_prefix_len(model, m, num_terms).results[m]


def rows(model, m, num_terms):
    """Row m of the terms and emptiness tables."""
    terms, empty = series_terms(model, m, num_terms)
    return terms[m], empty[m]


def metadata_class(model, m):
    classifier = model.metadata.series_classifier
    return classifier(m) if classifier is not None else None


def test_constant_one_gap_terms():
    terms, empty = series_terms(make_coin(), 1, 50)
    assert terms.shape == empty.shape == (2, 50)
    assert np.all(terms[0] == 0.5) and np.all(terms[1] == 0.25)
    assert not empty.any()


def test_interleaved_two_gap_terms_all_zero_and_match_oracle():
    inter = make_interleaved()
    terms, empty = rows(inter, 2, 200)
    assert np.all(terms == 0.0) and np.all(empty)
    space = build_outcome_space(inter, 10)
    for n in range(1, 9):
        assert oracle_window_prob(space, first_occurrence(n, 2)) == 0.0


def test_powerlaw_partial_sum_against_reference():
    model = IndependentModel(PowerLaw(1.0, 2.0))
    report = build_series_report(model, 0, *rows(model, 0, 1000))
    reference = math.fsum(n**-2.0 for n in range(1, 1001))
    assert report.partial_sum == pytest.approx(reference, abs=1e-12)
    assert report.partial_sum == pytest.approx(1.6439345666815597, abs=1e-12)


def test_partial_sums_track_fsum_on_long_series():
    model = IndependentModel(PowerLaw(1.0, 1.0))
    report = build_series_report(model, 0, *rows(model, 0, 100000))
    reference = math.fsum(min(1.0, 1.0 / n) for n in range(1, 100001))
    assert abs(report.partial_sum - reference) < 1e-10


def test_independent_one_gap_term_formula():
    rng = np.random.default_rng(17)
    model = random_independent(rng)
    terms, _ = rows(model, 1, 12)
    for n in range(1, 13):
        p_n = model.family.value(n)
        p_next = model.family.value(n + 1)
        assert terms[n - 1] == (1.0 - p_n) * p_next


def test_classify_all_zero_is_certified():
    nested = make_nested()
    terms, empty = rows(nested, 1, 300)
    verdict = classify_series(terms, empty, fit_tail(terms), metadata_class(nested, 1))
    assert verdict.label is VerdictLabel.CERTIFIED_CONVERGENT
    assert "zero" in verdict.justification


def test_zero_tail_is_certified_only_when_every_window_is_empty():
    terms = np.concatenate((np.full(100, 0.5), np.zeros(100)))
    empty = np.concatenate((np.zeros(100, dtype=bool), np.ones(100, dtype=bool)))
    fit = fit_tail(terms)
    assert classify_series(terms, empty, fit, None).label is VerdictLabel.CERTIFIED_CONVERGENT
    empty[-1] = False
    verdict = classify_series(terms, empty, fit, None)
    assert verdict.label is VerdictLabel.LIKELY_CONVERGENT
    assert "does not prove" in verdict.justification


def test_classify_constant_positive_is_certified_divergent():
    coin = make_coin()
    terms, empty = rows(coin, 1, 300)
    verdict = classify_series(terms, empty, fit_tail(terms), metadata_class(coin, 1))
    assert verdict.label is VerdictLabel.CERTIFIED_DIVERGENT


def test_classify_harmonic_boundary():
    model = IndependentModel(PowerLaw(1.0, 1.0))
    terms, empty = rows(model, 0, 2000)
    fit = fit_tail(terms)
    with_meta = classify_series(terms, empty, fit, metadata_class(model, 0))
    assert with_meta.label is VerdictLabel.CERTIFIED_DIVERGENT
    bare = classify_series(terms, empty, fit, None)
    # fitted slope sits at the p-series boundary: the buffer keeps it honest
    assert bare.label in (VerdictLabel.INCONCLUSIVE, VerdictLabel.LIKELY_DIVERGENT)
    assert fit.slope == pytest.approx(-1.0, abs=0.02)


def test_classify_requires_terms_or_metadata():
    terms, empty = np.array([0.5, 0.5]), np.zeros(2, dtype=bool)
    with pytest.raises(InsufficientDataError):
        classify_series(terms, empty, fit_tail(terms), None)
    # metadata substitutes for bulk
    coin = make_coin()
    terms, empty = rows(coin, 1, 2)
    verdict = classify_series(terms, empty, fit_tail(terms), metadata_class(coin, 1))
    assert verdict.label is VerdictLabel.CERTIFIED_DIVERGENT


def test_classify_monotone_in_evidence():
    cases = [
        (IndependentModel(PowerLaw(1.0, 2.0)), 0, 500),
        (make_nested(), 1, 500),
        (make_coin(), 1, 500),
    ]
    strength = {
        VerdictLabel.CERTIFIED_CONVERGENT: 2,
        VerdictLabel.CERTIFIED_DIVERGENT: 2,
        VerdictLabel.LIKELY_CONVERGENT: 1,
        VerdictLabel.LIKELY_DIVERGENT: 1,
        VerdictLabel.INCONCLUSIVE: 0,
    }
    for model, m, n in cases:
        terms, empty = rows(model, m, n)
        fit = fit_tail(terms)
        with_meta = classify_series(terms, empty, fit, metadata_class(model, m))
        without = classify_series(terms, empty, fit, None)
        assert strength[with_meta.label] >= strength[without.label]


def test_report_invariants():
    coin = make_coin()
    report = build_series_report(coin, 0, *rows(coin, 0, 200))
    assert np.all(np.diff(report.partial_sums) >= 0.0)
    assert np.all(report.terms >= 0.0)


def test_nested_criterion_showcase():
    nested = make_nested()
    res0 = criterion(nested, 0, 2000)
    assert res0.conclusion is Conclusion.NO_CONCLUSION  # dependent, divergent
    assert res0.series.verdict.label is VerdictLabel.CERTIFIED_DIVERGENT
    res1 = criterion(nested, 1, 2000)
    assert res1.conclusion is Conclusion.IO_PROB_ZERO
    assert res1.certified
    assert res1.decay is DecayVerdict.CERTIFIED_ZERO_LIMIT


def test_interleaved_criterion_showcase():
    inter = make_interleaved()
    res1 = criterion(inter, 1, 2000)
    assert res1.conclusion is Conclusion.NO_CONCLUSION
    res2 = criterion(inter, 2, 2000)
    assert res2.conclusion is Conclusion.IO_PROB_ZERO
    assert res2.certified


def test_coin_divergence_gives_probability_one():
    res = criterion(make_coin(), 0, 500)
    assert res.conclusion is Conclusion.IO_PROB_ONE
    assert res.certified


def test_alternating_zero_terms_do_not_fake_convergence():
    # flip-flop one-gap terms alternate 1, 0, 1, 0: half the tail is exactly
    # zero yet the series diverges; the nonzero residue must drive the verdict
    from conftest import make_flipflop

    ff = make_flipflop()
    terms, empty = rows(ff, 1, 1000)
    assert terms.sum() == 500.0
    verdict = classify_series(terms, empty, fit_tail(terms), metadata_class(ff, 1))
    assert verdict.label is VerdictLabel.LIKELY_DIVERGENT
    res = criterion(ff, 1, 1000)
    assert res.conclusion is Conclusion.NO_CONCLUSION


def test_sweep_examples():
    assert sweep_prefix_len(make_interleaved(), 3, 2000).least_io_zero == 2
    assert sweep_prefix_len(make_nested(), 2, 2000).least_io_zero == 1
    assert sweep_prefix_len(make_coin(), 3, 500).least_io_zero is None


def test_sweep_respects_hard_cap():
    with pytest.raises(ValueError):
        sweep_prefix_len(make_coin(), 9, 200)
    # a bad tolerance is rejected before the table is evaluated (this one
    # would fail past the end of its untailed list)
    with pytest.raises(ValueError, match="decay tolerance"):
        sweep_prefix_len(IndependentModel(ExplicitList((0.5,))), 1, 200, tol=-1.0)


@pytest.mark.parametrize("spec", sorted(p.name for p in SPECS.glob("*.json")))
def test_sweep_rows_equal_single_criteria(spec):
    # a row of the m <= 3 sweep equals the last row of the sweep that ends at m
    model = load_spec(SPECS / spec).model
    sweep = sweep_prefix_len(model, 3, 2000)
    for m in range(4):
        got, alone = sweep.results[m], criterion(model, m, 2000)
        assert (got.prefix_len, got.conclusion, got.certified, got.note) == (
            alone.prefix_len, alone.conclusion, alone.certified, alone.note
        )
        assert (got.decay, got.decay_note) == (alone.decay, alone.decay_note)
        assert got.series.prefix_len == m
        assert got.series.verdict == alone.series.verdict
        assert got.series.tail_fit == alone.series.tail_fit
        assert got.series.terms.tobytes() == alone.series.terms.tobytes()
        assert got.series.partial_sums.tobytes() == alone.series.partial_sums.tobytes()


def test_sweep_fits_each_series_once(monkeypatch):
    # a chain has no series metadata, so every verdict reads the tail fit
    calls = []
    real = criteria.fit_tail
    monkeypatch.setattr(criteria, "fit_tail", lambda terms: calls.append(1) or real(terms))
    sweep_prefix_len(load_spec(SPECS / "markov-3state.json").model, 3, 2000)
    assert len(calls) == 4
