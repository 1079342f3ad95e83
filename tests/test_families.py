import math
import sys
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cantelli import families
from cantelli.bounds import FLOOR
from cantelli.families import (
    Constant,
    ExplicitList,
    LogPower,
    ModelValueError,
    PowerLaw,
    SequenceIndexError,
    SeriesClass,
)

from conftest import any_families, reference_powers

EXPONENTS = (0.5, 1.0, 1.5, 2.0, 3.0, -1.0, -2.5)


def test_constant_basics():
    fam = Constant(0.5)
    assert fam.value(1) == 0.5
    assert fam.value(10**6) == 0.5
    assert fam.limit() == 0.5
    assert fam.tail_sum_bounds(1) == (math.inf, math.inf)  # the sum diverges
    assert fam.tail_sup(3) == 0.5


def test_constant_rejects_out_of_range():
    with pytest.raises(ValueError):
        Constant(1.5)


def test_constant_series_class():
    cls, _ = Constant(0.5).series_class(0)
    assert cls is SeriesClass.DIVERGENT
    cls, _ = Constant(0.0).series_class(0)
    assert cls is SeriesClass.CONVERGENT
    cls, _ = Constant(1.0).series_class(2)
    assert cls is SeriesClass.CONVERGENT  # complement factors are exactly zero
    cls, _ = Constant(1.0).series_class(0)
    assert cls is SeriesClass.DIVERGENT


def test_powerlaw_values_and_clamp():
    fam = PowerLaw(1.0, 2.0)
    assert fam.value(10) == pytest.approx(0.01, abs=0)
    big = PowerLaw(5.0, 1.0)
    assert big.value(1) == 1.0  # clamped
    assert big.value(100) == pytest.approx(0.05)
    assert "clamped" in big.describe()


def test_powerlaw_limit_and_class():
    assert PowerLaw(1.0, 2.0).limit() == 0.0
    assert PowerLaw(1.0, -0.5).limit() == 1.0
    assert PowerLaw(0.0, 2.0).limit() == 0.0
    cls, _ = PowerLaw(1.0, 2.0).series_class(0)
    assert cls is SeriesClass.CONVERGENT
    cls, _ = PowerLaw(1.0, 1.0).series_class(0)
    assert cls is SeriesClass.DIVERGENT
    cls, _ = PowerLaw(1.0, 1.0).series_class(3)
    assert cls is SeriesClass.DIVERGENT
    cls, _ = PowerLaw(1.0, -1.0).series_class(1)
    assert cls is SeriesClass.CONVERGENT  # marginals reach 1, complements vanish


def test_powerlaw_tail_sum_bound_dominates_partial_sums():
    fam = PowerLaw(1.0, 2.0)
    for n in (1, 5, 50):
        lo, hi = fam.tail_sum_bounds(n)
        partial = math.fsum(fam.value(j) for j in range(n, n + 20000))
        assert hi >= partial
        # and neither end is absurdly loose
        assert hi <= partial + 2.0 * fam.value(n)
        assert partial - fam.value(n) <= lo <= hi
    assert PowerLaw(1.0, 1.0).tail_sum_bounds(1) == (math.inf, math.inf)


def test_powerlaw_tail_sum_bound_counts_saturated_head():
    # value(n <= 0) saturates to 1, so the sum from -3 is 4 + pi^2/6
    fam = PowerLaw(1.0, 2.0)
    lo, hi = fam.tail_sum_bounds(-3)
    assert lo <= 4.0 + math.pi**2 / 6.0 <= hi
    for n in (-3, 0, 1):
        partial = math.fsum(fam.value(j) for j in range(n, n + 20000))
        assert fam.tail_sum_bounds(n)[1] >= partial


def test_powerlaw_saturation_below_one():
    fam = PowerLaw(1.0, 1.0)
    assert fam.value(0) == 1.0
    assert fam.value(-3) == 1.0
    assert PowerLaw(1.0, -2.0).value(0) == 0.0


@pytest.mark.parametrize("family, hi", [(PowerLaw, 2**20), (LogPower, 2**16)])
def test_power_path_matches_python_pow_exhaustively(family, hi, monkeypatch):
    # a numpy that sends float_power to a SIMD kernel fails here rather than
    # shifting reports by an ulp
    ns = np.arange(1, hi + 1, dtype=float)
    bases = family._bases(ns)
    assert bases.tobytes() == np.array([family._base(n) for n in ns.tolist()]).tobytes()
    reference = {-e: reference_powers(bases, -e) for e in EXPONENTS}
    for x, powers in reference.items():
        assert families._powers(bases, x).tobytes() == powers.tobytes(), x
    fams = [family(s, e) for s in (1.0, 0.3, 2.5) for e in EXPONENTS]
    shipped = [fam.values(1, hi) for fam in fams]

    def reference_for(b, x):
        assert b.tobytes() == bases.tobytes()
        return reference[x]

    monkeypatch.setattr(families, "_powers", reference_for)
    for fam, got in zip(fams, shipped):
        assert got.tobytes() == fam.values(1, hi).tobytes(), fam


@pytest.mark.parametrize(
    "fam, lo, hi",
    [
        (PowerLaw(1e-300, -400.0), 1, 40),  # n ** 400 overflows from n = 6
        (PowerLaw(sys.float_info.min, -400.0), 1, 40),
        (PowerLaw(1e10, -100.0), 990, 1300),  # the product overflows before the power
        (LogPower(1e-300, -400.0), 200, 2000),
    ],
)
def test_overflowing_powers_clamp_to_one_in_both_paths(fam, lo, hi):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = fam.values(lo, hi)
        expected = [fam.value(n) for n in range(lo, hi + 1)]
    assert got.tolist() == expected
    assert got[-1] == 1.0


@pytest.mark.parametrize("family, base", [(PowerLaw, "n"), (LogPower, "ln(n+1)")])
def test_negative_exponent_prints_its_sign_once(family, base):
    # the overflow spec's family: p_n = 1e-300 * n^400
    fam = family(1e-300, -400.0)
    texts = [fam.describe(), fam.series_class(0)[1], fam.series_class(1)[1]]
    for text in texts:
        assert f"1e-300*{base}^400)" in text
        assert "^-" not in text
    # an exponent >= 0 keeps the minus of its reciprocal power
    assert f"2*{base}^-0.5)" in family(2.0, 0.5).describe()
    assert f"1*{base}^-0)" in family(1.0, 0.0).describe()


@pytest.mark.parametrize("family", [PowerLaw, LogPower])
def test_subnormal_scale_is_rejected(family):
    with pytest.raises(ModelValueError) as info:
        family(sys.float_info.min / 2.0, 1.0)
    assert info.value.field == "scale"
    assert family(sys.float_info.min, 1.0).value(1) > 0.0
    assert family(0.0, 1.0).value(1) == 0.0


def test_logpower_values():
    fam = LogPower(1.0, 1.0)
    assert fam.value(1) == 1.0  # 1/ln 2 > 1 clamps
    assert fam.value(10) == pytest.approx(1.0 / math.log(11.0))
    assert fam.limit() == 0.0
    cls, _ = fam.series_class(0)
    assert cls is SeriesClass.DIVERGENT
    cls, _ = fam.series_class(4)
    assert cls is SeriesClass.DIVERGENT


def test_explicit_list_and_tail():
    fam = ExplicitList((0.5, 0.25), tail=0.1)
    assert [fam.value(n) for n in (1, 2, 3, 99)] == [0.5, 0.25, 0.1, 0.1]
    assert fam.limit() == 0.1
    cls, _ = fam.series_class(0)
    assert cls is SeriesClass.DIVERGENT


def test_explicit_list_without_tail_raises_past_end():
    fam = ExplicitList((0.5, 0.25))
    assert fam.value(2) == 0.25
    with pytest.raises(SequenceIndexError):
        fam.value(3)
    assert fam.series_class(0) is None


def test_explicit_zero_tail_sums():
    fam = ExplicitList((0.5, 0.25, 0.125), tail=0.0)
    lo, hi = fam.tail_sum_bounds(2)
    assert lo < 0.375 < hi and hi - lo < 1e-15
    assert fam.tail_sum_bounds(4) == (0.0, 0.0)
    cls, _ = fam.series_class(0)
    assert cls is SeriesClass.CONVERGENT


@pytest.mark.parametrize(
    "fam",
    [
        Constant(0.0),
        Constant(0.5),
        PowerLaw(0.0, 2.0),
        PowerLaw(1.0, 0.5),
        PowerLaw(1.0, 1.0),
        PowerLaw(1.0, 2.0),
        LogPower(0.0, 2.0),
        LogPower(1.0, 2.0),
        ExplicitList((0.5, 0.25), tail=0.0),
        ExplicitList((0.5, 0.25), tail=0.5),
        ExplicitList((0.5, 0.25)),
    ],
    ids=repr,
)
def test_tail_sum_bound_is_none_everywhere_or_nowhere(fam):
    # a finite upper end, and a divergent lower one, hold at every start or at none
    bounds = [fam.tail_sum_bounds(n) for n in (1, 2, 10**6)]
    assert len({math.isfinite(hi) for _, hi in bounds}) == 1
    assert len({lo == math.inf for lo, _ in bounds}) == 1
    assert all(0.0 <= lo <= hi for lo, hi in bounds)


def test_explicit_rejects_bad_values():
    with pytest.raises(ValueError):
        ExplicitList((0.5, 1.5))
    with pytest.raises(ValueError):
        ExplicitList((0.5,), tail=-0.1)


@settings(max_examples=300, deadline=None)
@given(
    any_families(),
    st.integers(min_value=-20, max_value=40) | st.integers(2**40 - 40, 2**40),
    st.integers(min_value=1, max_value=30),
)
def test_nonincreasing_from_holds_and_agrees_with_tail_sup(family, lo, width):
    # from the index it states, on any range: below 1 (negative offsets reach
    # there), in saturated heads, across explicit ties, and near 2**40
    k = family.nonincreasing_from()
    if k is None:
        return
    if isinstance(family, ExplicitList):
        assert k == 1 or family.value(k - 1) < family.value(k)  # the least such index
        lo = max(lo, 1)
    start = max(lo, k)
    values = family.values(start, start + width)
    assert (np.diff(values) <= 0.0).all(), (start, values)
    for n in range(start, start + width + 1):
        assert family.tail_sup(n) == family.value(n)
    assert family.evaluation_error() < 1e-13


def test_values_at_the_top_of_the_index_range_match_value():
    top = (1 << 63) - 1
    for fam in (PowerLaw(1.0, 0.5), LogPower(2.0, 1.5), Constant(0.25)):
        expected = [fam.value(n) for n in range(top - 3, top + 1)]
        assert fam.values(top - 3, top).tolist() == expected


def test_index_range_is_int64_to_the_top_and_raises_past_memory():
    top = (1 << 63) - 1
    for lo, hi in ((1, 5), (top - 3, top), (7, 6)):
        out = families.index_range(lo, hi)
        assert out.dtype == np.int64 and out.tolist() == list(range(lo, hi + 1))
    # numpy raises ValueError past sys.maxsize bytes, or comes back empty near 2**63
    for hi in (top, sys.maxsize // 8 + 1):
        with pytest.raises(MemoryError):
            families.index_range(1, hi)


def underflow_examples(test):
    """CI's underflow spec, scale 1e-300 and exponent 30, at n = 1..40: its
    values are subnormal at n = 2..6 and 0 from n = 7 on."""
    for n in range(40, 0, -1):
        test = example(PowerLaw, 1e-300, 30.0, n)(test)
    return test


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([PowerLaw, LogPower]),
    st.sampled_from([1.0, 0.3]) | st.floats(1e-3, 3.0),
    st.sampled_from([1.0, 2.0, -1.0, 0.5]) | st.floats(-3.0, 4.0),
    st.integers(min_value=1, max_value=10**6) | st.integers(2**53 - 10, 2**63 - 1),
)
@underflow_examples
def test_evaluation_error_bounds_the_distance_to_the_exact_formula(kind, scale, exponent, n):
    # the formula v at 60 digits on the float parameters, clamped like value:
    # |value - v| <= e v + FLOOR
    family = kind(scale, exponent)
    with mpmath.workdps(60):
        base = mpmath.mpf(n) if kind is PowerLaw else mpmath.log(mpmath.mpf(n) + 1)
        exact = min(max(mpmath.mpf(scale) * base ** (-mpmath.mpf(exponent)), 0), 1)
        bound = mpmath.mpf(family.evaluation_error()) * exact + mpmath.mpf(FLOOR)
        assert abs(mpmath.mpf(family.value(n)) - exact) <= bound, (family, n)


def exact_power_tail(scale, exponent, n):
    """sum_{j >= n} min(1, scale * j^-exponent) at 40 digits, indices j <= 0
    saturating to 1: the clamped head counted term by term, the rest a
    Hurwitz zeta value."""
    c, s = mpmath.mpf(scale), mpmath.mpf(exponent)
    m = max(n, 1)
    first = max(m, int(mpmath.ceil(c ** (1 / s))))  # the first index with c j^-s <= 1
    while first > m and c * mpmath.mpf(first - 1) ** -s <= 1:
        first -= 1
    while c * mpmath.mpf(first) ** -s > 1:
        first += 1
    return (m - n) + (first - m) + c * mpmath.zeta(s, first)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([1.0, 0.5, 2.5, 40.0]) | st.floats(1e-3, 50.0),
    st.sampled_from([2.0, 1.5, 1.0 + 2.0**-20]) | st.floats(1.0, 6.0, exclude_min=True),
    st.integers(min_value=-5, max_value=10**6) | st.integers(2**53 - 10, 2**60),
)
def test_power_law_tail_sum_bounds_bracket_the_hurwitz_zeta(scale, exponent, n):
    # clamped heads (scale > 1) and saturated indices (n <= 0) included
    lo, hi = PowerLaw(scale, exponent).tail_sum_bounds(n)
    with mpmath.workdps(40):
        exact = exact_power_tail(scale, exponent, n)
        assert mpmath.mpf(lo) <= exact <= mpmath.mpf(hi), (lo, exact, hi)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from([0.0, 0.1, 0.5, 1.0]) | st.floats(0.0, 1.0), max_size=12),
    st.integers(min_value=1, max_value=14),
)
def test_zero_tailed_list_tail_sum_bounds_bracket_the_exact_sum(head, n):
    lo, hi = ExplicitList(tuple(head), tail=0.0).tail_sum_bounds(n)
    exact = sum(map(Fraction, head[n - 1 :]), Fraction(0))
    assert Fraction(lo) <= exact <= Fraction(hi)


@settings(max_examples=200, deadline=None)
@given(any_families(), st.integers(min_value=1, max_value=10**6))
def test_a_divergent_family_bounds_its_tail_sum_below_by_infinity(family, n):
    lo, hi = family.tail_sum_bounds(n)
    assert 0.0 <= lo <= hi
    classified = family.series_class(0)
    if classified is not None and classified[0] is SeriesClass.DIVERGENT:
        assert lo == hi == math.inf
