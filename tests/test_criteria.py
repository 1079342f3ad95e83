import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cantelli import (
    Conclusion,
    EventSchedule,
    ExplicitList,
    GlobalThresholds,
    IndependentModel,
    LatentUniformModel,
    MarkovModel,
    PerLatentThresholds,
    PowerLaw,
    VerdictLabel,
    build_outcome_space,
    classify_series,
    oracle_window_prob,
    series_terms,
    sweep_prefix_len,
)
import cantelli.criteria as criteria
from cantelli.criteria import InsufficientDataError, fit_tail
from cantelli.families import SeriesClass
from cantelli.models import DecayVerdict
from cantelli.specfile import load_spec
from cantelli.windows import first_occurrence

from conftest import SPECS, make_coin, make_interleaved, make_nested, random_independent


def criterion(model, m, num_terms):
    """The sweep's criterion for ``m``, from a table that ends at ``m``."""
    return sweep_prefix_len(model, m, num_terms).results[m]


def rows(model, m, num_terms):
    """Row m of the terms table, and the bound on its tail from n, ``tail_sum(m, n)``."""
    return series_terms(model, m, num_terms)[m], functools.partial(model.tail_sum, m)


def test_constant_one_gap_terms():
    coin = make_coin()
    terms = series_terms(coin, 1, 50)
    assert terms.shape == (2, 50)
    assert np.all(terms[0] == 0.5) and np.all(terms[1] == 0.25)
    assert coin.tail_sum(1, 1) is None


def test_interleaved_two_gap_terms_all_zero_and_match_oracle():
    inter = make_interleaved()
    terms, tail_sum = rows(inter, 2, 200)
    assert np.all(terms == 0.0) and tail_sum(1) == 0.0
    space = build_outcome_space(inter, 10)
    for n in range(1, 9):
        assert oracle_window_prob(space, first_occurrence(n, 2)) == 0.0


def test_powerlaw_partial_sum_against_reference():
    model = IndependentModel(PowerLaw(1.0, 2.0))
    report = criterion(model, 0, 1000)
    reference = math.fsum(n**-2.0 for n in range(1, 1001))
    assert report.partial_sum == pytest.approx(reference, abs=1e-12)
    assert report.partial_sum == pytest.approx(1.6439345666815597, abs=1e-12)


def test_partial_sums_track_fsum_on_long_series():
    model = IndependentModel(PowerLaw(1.0, 1.0))
    report = criterion(model, 0, 100000)
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
    terms, tail_sum = rows(nested, 1, 300)
    verdict = classify_series(terms, tail_sum, fit_tail(terms), nested.series_class(1))
    assert verdict.label is VerdictLabel.CERTIFIED_CONVERGENT
    assert "zero" in verdict.justification


def test_zero_tail_is_certified_only_when_every_window_is_empty():
    terms = np.concatenate((np.full(100, 0.5), np.zeros(100)))
    fit = fit_tail(terms)
    asked = []

    def proved_from(first):
        return lambda n: asked.append(n) or (0.0 if n >= first else None)

    verdict = classify_series(terms, proved_from(101), fit, None)
    assert verdict.label is VerdictLabel.CERTIFIED_CONVERGENT
    assert verdict.justification == (
        "eventually zero terms: every window from n = 101 is provably empty,"
        " so the series is a finite sum"
    )
    verdict = classify_series(terms, proved_from(102), fit, None)
    assert verdict.label is VerdictLabel.LIKELY_CONVERGENT
    assert "does not prove" in verdict.justification
    assert asked == [101, 101]


def test_tail_sum_is_read_only_when_a_zero_run_shows():
    def unread(n):
        raise AssertionError(f"tail_sum read at {n}")

    for terms in (np.full(200, 0.5), np.concatenate((np.zeros(150), np.full(50, 0.5)))):
        classify_series(terms, unread, fit_tail(terms), None)
    # a closed form goes first, whatever zeros show
    zeros = np.zeros(200)
    classify_series(zeros, unread, fit_tail(zeros), (SeriesClass.CONVERGENT, "declared"))


def test_a_closed_form_outranks_zeros_observed_up_to_n():
    # the list is 0 at n = 2..3001 and 0.5 from there on: 2000 terms read as an
    # eventually zero series, where the closed form holds at every n
    family = ExplicitList((0.5,) + (0.0,) * 3000, tail=0.5)
    independent = criterion(IndependentModel(family), 0, 2000)
    assert independent.verdict.label is VerdictLabel.CERTIFIED_DIVERGENT
    assert independent.conclusion is Conclusion.IO_PROB_ONE and independent.certified
    # dependent events: a divergent series concludes nothing
    latent = criterion(LatentUniformModel(1, [0], GlobalThresholds(family)), 0, 2000)
    assert latent.verdict.label is VerdictLabel.CERTIFIED_DIVERGENT
    assert latent.conclusion is Conclusion.NO_CONCLUSION and not latent.certified


def test_latent_zero_tail_is_certified_only_where_the_backend_bounds_it():
    # thresholds 0 at positions 1..3000, then 0.5: 2000 terms see only empty
    # windows, yet every m = 1 term from n = 6001 on is 0.25
    z = ExplicitList((0.0,) * 3000, tail=0.5)
    model = LatentUniformModel(2, [0, 1], PerLatentThresholds((z, z), (0, 0)))
    sweep = sweep_prefix_len(model, 2, num_terms=2000)
    for m in (1, 2):
        verdict = sweep.results[m].verdict
        assert verdict.label is VerdictLabel.LIKELY_CONVERGENT, m
        assert "does not prove" in verdict.justification
        assert not sweep.results[m].certified
    assert model.tail_sum(2, 1) is None and model.tail_sum(1, 10**6) is None
    assert (model.window_series(1, 8000)[1, 6000:] == 0.25).all()
    # nested and interleaved-nested windows are empty for every n
    for shipped, m in ((make_nested(), 1), (make_interleaved(), 2)):
        assert shipped.tail_sum(m, 1) == 0.0
        result = sweep_prefix_len(shipped, m, num_terms=2000).results[m]
        assert result.verdict.label is VerdictLabel.CERTIFIED_CONVERGENT and result.certified


def test_markov_zero_tail_must_hold_over_a_full_period():
    # E_1 = {0}, no event at n = 2..3001, then {0} for good: 2000 terms see a
    # zero run from n = 2, yet A_n holds at every n >= 3002
    events = EventSchedule(1, explicit=[[0]] + [[]] * 3000, tail=[0])
    model = MarkovModel([[1.0]], [1.0], events)
    sweep = sweep_prefix_len(model, 3, num_terms=2000)
    for res in sweep.results:
        assert res.verdict.label is VerdictLabel.LIKELY_CONVERGENT, res.prefix_len
        assert "does not prove" in res.verdict.justification and not res.certified
    assert sweep.least_io_zero == 0 and sweep.least_certified_io_zero is None
    assert [model.tail_sum(m, 2) for m in range(4)] == [None] * 4
    # from n = 3002 on an m >= 1 window needs a complement that never holds
    assert model.tail_sum(0, 3002) is None
    assert [model.tail_sum(m, 1) for m in (1, 2, 3)] == [None] * 3
    assert [model.tail_sum(m, 3002 - m + 1) for m in (1, 2, 3)] == [0.0] * 3
    assert [model.tail_sum(m, 3002 - m) for m in (1, 2, 3)] == [None] * 3
    # past n = 3002 the rows that a zero run from there shows are certified
    sweep = sweep_prefix_len(model, 3, num_terms=10000)
    assert [r.verdict.label for r in sweep.results[1:]] == [VerdictLabel.CERTIFIED_CONVERGENT] * 3


def test_a_tailless_independent_zero_run_is_likely():
    # an explicit list with no tail states no closed form and no tail bound
    model = IndependentModel(ExplicitList((0.5,) + (0.0,) * 3000))
    sweep = sweep_prefix_len(model, 3, num_terms=2000)
    for res in sweep.results:
        assert res.verdict.label is VerdictLabel.LIKELY_CONVERGENT, res.prefix_len
        assert "does not prove" in res.verdict.justification and not res.certified
    assert sweep.least_certified_io_zero is None


def test_flipflop_two_gap_windows_stay_certified_empty():
    from conftest import make_flipflop

    ff = make_flipflop()
    res = criterion(ff, 2, 1000)
    assert res.verdict.label is VerdictLabel.CERTIFIED_CONVERGENT
    assert res.verdict.justification == (
        "eventually zero terms: every window from n = 1 is provably empty,"
        " so the series is a finite sum"
    )
    assert ff.tail_sum(2, 1) == 0.0 and ff.tail_sum(1, 10**12) is None


def reference_zero_tail_start(terms):
    nz = np.flatnonzero(terms)
    if nz.size == 0:
        return 1
    start = int(nz[-1]) + 2
    return start if start <= len(terms) else None


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.sampled_from([0.0, -0.0, 0.5, 5e-324, float("nan")]) | st.floats(0.0, 1.0),
        max_size=40,
    )
)
def test_zero_tail_start_matches_the_index_reference(values):
    terms = np.array(values, dtype=float)
    assert criteria._zero_tail_start(terms) == reference_zero_tail_start(terms)


def test_classify_constant_positive_is_certified_divergent():
    coin = make_coin()
    terms, tail_sum = rows(coin, 1, 300)
    verdict = classify_series(terms, tail_sum, fit_tail(terms), coin.series_class(1))
    assert verdict.label is VerdictLabel.CERTIFIED_DIVERGENT


def test_classify_harmonic_boundary():
    model = IndependentModel(PowerLaw(1.0, 1.0))
    terms, tail_sum = rows(model, 0, 2000)
    fit = fit_tail(terms)
    with_meta = classify_series(terms, tail_sum, fit, model.series_class(0))
    assert with_meta.label is VerdictLabel.CERTIFIED_DIVERGENT
    bare = classify_series(terms, tail_sum, fit, None)
    # fitted slope sits at the p-series boundary: the buffer keeps it honest
    assert bare.label in (VerdictLabel.INCONCLUSIVE, VerdictLabel.LIKELY_DIVERGENT)
    assert fit.slope == pytest.approx(-1.0, abs=0.02)


@pytest.mark.parametrize(
    "classified",
    [None, (SeriesClass.DIVERGENT, "declared divergent"), (SeriesClass.CONVERGENT, "declared")],
)
def test_classify_rejects_an_empty_series(classified):
    # no evaluated term certifies nothing, not even an "eventually zero" tail
    terms = np.empty(0)
    with pytest.raises(InsufficientDataError):
        classify_series(terms, lambda n: 0.0, fit_tail(terms), classified)


def test_classify_requires_terms_or_metadata():
    terms = np.array([0.5, 0.5])
    with pytest.raises(InsufficientDataError):
        classify_series(terms, lambda n: None, fit_tail(terms), None)
    # a closed-form series class substitutes for bulk
    coin = make_coin()
    terms, tail_sum = rows(coin, 1, 2)
    verdict = classify_series(terms, tail_sum, fit_tail(terms), coin.series_class(1))
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
        terms, tail_sum = rows(model, m, n)
        fit = fit_tail(terms)
        with_meta = classify_series(terms, tail_sum, fit, model.series_class(m))
        without = classify_series(terms, tail_sum, fit, None)
        assert strength[with_meta.label] >= strength[without.label]


def test_report_invariants():
    coin = make_coin()
    report = criterion(coin, 0, 200)
    assert np.all(np.diff(report.partial_sums) >= 0.0)
    assert np.all(report.terms >= 0.0)


def test_nested_criterion_showcase():
    nested = make_nested()
    res0 = criterion(nested, 0, 2000)
    assert res0.conclusion is Conclusion.NO_CONCLUSION  # dependent, divergent
    assert res0.verdict.label is VerdictLabel.CERTIFIED_DIVERGENT
    res1 = criterion(nested, 1, 2000)
    assert res1.conclusion is Conclusion.IO_PROB_ZERO
    assert res1.certified
    assert sweep_prefix_len(nested, 1, 2000).decay[0] is DecayVerdict.CERTIFIED_ZERO_LIMIT


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
    terms, tail_sum = rows(ff, 1, 1000)
    assert terms.sum() == 500.0
    verdict = classify_series(terms, tail_sum, fit_tail(terms), ff.series_class(1))
    assert verdict.label is VerdictLabel.LIKELY_DIVERGENT
    res = criterion(ff, 1, 1000)
    assert res.conclusion is Conclusion.NO_CONCLUSION


def test_a_tail_too_sparse_to_fit_is_likely_convergent():
    # one event, at n = 200: the tail window n = 20..200 holds one positive
    # term, too few to fit, and a single nonzero last term is no zero tail
    events = EventSchedule(1, explicit=[[]] * 199 + [[0]], tail=[])
    [res] = sweep_prefix_len(MarkovModel([[1.0]], [1.0], events), 0, num_terms=200).results
    assert res.verdict.label is VerdictLabel.LIKELY_CONVERGENT
    assert res.verdict.justification == (
        "99% of tail terms are exactly zero and the nonzero residue is too sparse to fit"
    )
    assert not res.certified


@pytest.mark.parametrize("slope", [-1e-31, -0.0, -4e-4])
def test_justification_prints_no_negative_zero(slope):
    # a constant tail fits a slope of +-1e-31; rounded to 0.000 it carries no sign
    terms = np.full(200, 0.5)
    fit = criteria.TailFit(slope, 0.0, 180, 0.0)
    verdict = classify_series(terms, lambda n: None, fit, None)
    assert verdict.justification == "fitted tail exponent 0.000 > -0.9"


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
        assert sweep.decay == sweep_prefix_len(model, m, 2000).decay
        assert got.prefix_len == m
        assert got.verdict == alone.verdict
        assert got.tail_fit == alone.tail_fit
        assert got.terms.tobytes() == alone.terms.tobytes()
        assert got.partial_sums.tobytes() == alone.partial_sums.tobytes()


def test_sweep_fits_each_series_once(monkeypatch):
    # a chain states no series class, so every verdict reads the tail fit
    calls = []
    real = criteria.fit_tail
    monkeypatch.setattr(criteria, "fit_tail", lambda terms: calls.append(1) or real(terms))
    sweep_prefix_len(load_spec(SPECS / "markov-3state.json").model, 3, 2000)
    assert len(calls) == 4


def reference_fit_tail(terms):
    """The ``np.polyfit`` line through the positive tail: the reference for ``fit_tail``."""
    n_total = len(terms)
    lo = max(1, n_total // 10)
    ns = np.arange(lo, n_total + 1)
    window = terms[lo - 1 :]
    nonzero = window > 0.0
    zero_fraction = 1.0 - float(nonzero.sum()) / len(window) if len(window) else 1.0
    if nonzero.sum() < 5:
        return criteria.TailFit(None, None, int(nonzero.sum()), zero_fraction)
    x = np.log(ns[nonzero].astype(float))
    y = np.log(window[nonzero])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    rms = float(np.sqrt(np.mean(resid**2)))
    return criteria.TailFit(float(slope), rms, int(nonzero.sum()), zero_fraction)


@st.composite
def tail_series(draw):
    """Power laws c*n^-s and constants with noise, runs of zeros and subnormal terms."""
    length = draw(st.integers(1, 4000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = np.arange(1, length + 1, dtype=float)
    scale = 10.0 ** draw(st.floats(-300.0, 0.0))
    if draw(st.booleans()):
        terms = scale * n ** -draw(st.floats(-1.0, 4.0))
    else:
        terms = np.full(length, scale)
    if draw(st.booleans()):
        terms *= np.exp(draw(st.floats(0.0, 2.0)) * rng.standard_normal(length))
    for _ in range(draw(st.integers(0, 3))):
        start = int(rng.integers(0, length))
        terms[start : start + int(rng.integers(1, length + 1))] = 0.0
    k = draw(st.integers(0, 20))
    terms[rng.integers(0, length, k)] = rng.integers(1, 2**40, k) * 5e-324
    return terms


def exact_fit(terms):
    """Slope and residual of the tail line, in rational arithmetic on the same logs."""
    n_total = len(terms)
    lo = max(1, n_total // 10)
    window = terms[lo - 1 :]
    positive = window > 0.0
    x = [Fraction(v) for v in np.log(np.arange(lo, n_total + 1, dtype=float))[positive].tolist()]
    y = [Fraction(v) for v in np.log(window[positive]).tolist()]
    k = len(x)
    # k times the centred sums, free of the 1/k of the means
    sxx = k * sum(u * u for u in x) - sum(x) ** 2
    sxy = k * sum(u * v for u, v in zip(x, y)) - sum(x) * sum(y)
    syy = k * sum(v * v for v in y) - sum(y) ** 2
    return float(sxy / sxx), math.sqrt(float((syy - sxy * sxy / sxx) / (k * k)))


def close(a, b):
    return abs(a - b) <= 1e-12 * max(1.0, abs(b))


@settings(max_examples=300, deadline=None)
@given(tail_series())
def test_fit_tail_agrees_with_polyfit(terms):
    got, ref = fit_tail(terms), reference_fit_tail(terms)
    assert (got.points, got.zero_fraction) == (ref.points, ref.zero_fraction)
    assert (got.slope is None) == (ref.slope is None)
    if ref.slope is None:
        return
    for i, (new, old) in enumerate([(got.slope, ref.slope), (got.residual, ref.residual)]):
        if not close(new, old):
            # np.polyfit fits the uncentred logs and can miss by more than the bound
            # itself (1.8e-11 on a 7-point tail of slope -8): exact arithmetic decides
            exact = exact_fit(terms)[i]
            assert close(new, exact) and abs(new - exact) < abs(old - exact)


def test_fit_tail_makes_no_blas_call(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("fit_tail called BLAS or LAPACK")

    for name in ("dot", "vdot", "inner", "matmul", "polyfit"):
        monkeypatch.setattr(np, name, refuse)
    for name in ("lstsq", "svd"):
        monkeypatch.setattr(np.linalg, name, refuse)
    n = np.arange(1, 2001, dtype=float)
    # all terms positive (no masks), then every third one zero (masked)
    assert fit_tail(n**-2.0).slope == pytest.approx(-2.0, abs=1e-12)
    fit = fit_tail(np.where(n % 3 == 0, 0.0, n**-1.5))
    assert fit.slope == pytest.approx(-1.5, abs=1e-12)
    assert fit.residual < 1e-12 and fit.zero_fraction == pytest.approx(1 / 3, abs=1e-3)


@pytest.mark.parametrize("size", ["defaults", "m8-20000"])
@pytest.mark.parametrize("spec", sorted(p.name for p in SPECS.glob("*.json")))
def test_verdicts_agree_with_the_polyfit_reference(monkeypatch, spec, size):
    loaded = load_spec(SPECS / spec)
    d = loaded.defaults
    m_max, num_terms = (d.m_max, d.terms) if size == "defaults" else (8, 20000)

    def outcome():
        sweep = sweep_prefix_len(loaded.model, m_max, num_terms, d.tol)
        rows = [(r.verdict.label, r.conclusion, r.certified) for r in sweep.results]
        return rows, sweep.least_io_zero, sweep.least_certified_io_zero

    got = outcome()
    monkeypatch.setattr(criteria, "fit_tail", reference_fit_tail)
    assert got == outcome()


def test_a_table_past_sys_maxsize_bytes_raises_memory_error():
    # raised before any input is evaluated; the CLI names the size values' sources
    with pytest.raises(MemoryError, match="a 4 x 2305843009213693952 table"):
        series_terms(make_coin(), 3, 1 << 61)
