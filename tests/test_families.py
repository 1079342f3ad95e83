import math

import pytest

from cantelli.families import (
    Constant,
    ExplicitList,
    LogPower,
    PowerLaw,
    SequenceIndexError,
    SeriesClass,
)


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


def test_explicit_rejects_bad_values():
    with pytest.raises(ValueError):
        ExplicitList((0.5, 1.5))
    with pytest.raises(ValueError):
        ExplicitList((0.5,), tail=-0.1)
