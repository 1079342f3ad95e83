import math
import sys
import warnings

import numpy as np
import pytest

from cantelli import families
from cantelli.families import (
    Constant,
    ExplicitList,
    LogPower,
    ModelValueError,
    PowerLaw,
    SequenceIndexError,
    SeriesClass,
)

from conftest import reference_powers

EXPONENTS = (0.5, 1.0, 1.5, 2.0, 3.0, -1.0, -2.5)


def test_constant_basics():
    fam = Constant(0.5)
    assert fam.value(1) == 0.5
    assert fam.value(10**6) == 0.5
    assert fam.limit() == 0.5
    assert fam.tail_sum_bound(1) is None
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
        bound = fam.tail_sum_bound(n)
        partial = math.fsum(fam.value(j) for j in range(n, n + 20000))
        assert bound >= partial
        # and it is not absurdly loose
        assert bound <= partial + 2.0 * fam.value(n)
    assert PowerLaw(1.0, 1.0).tail_sum_bound(1) is None


def test_powerlaw_tail_sum_bound_counts_saturated_head():
    # value(n <= 0) saturates to 1, so the sum from -3 is 4 + pi^2/6
    fam = PowerLaw(1.0, 2.0)
    assert fam.tail_sum_bound(-3) >= 4.0 + math.pi**2 / 6.0
    for n in (-3, 0, 1):
        partial = math.fsum(fam.value(j) for j in range(n, n + 20000))
        assert fam.tail_sum_bound(n) >= partial


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
    assert fam.tail_sum_bound(2) == pytest.approx(0.375)
    assert fam.tail_sum_bound(4) == 0.0
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
    # IndependentModel.union_bound has no fallback for a bound missing at some n only
    assert len({fam.tail_sum_bound(n) is None for n in (1, 2, 10**6)}) == 1


def test_explicit_rejects_bad_values():
    with pytest.raises(ValueError):
        ExplicitList((0.5, 1.5))
    with pytest.raises(ValueError):
        ExplicitList((0.5,), tail=-0.1)
