"""The error model's helpers against exact arithmetic.

Each property computes, from a helper's float inputs, the exact value the
helper's bound must hold: with mpmath at 50 digits where a power enters, and
as a ``Fraction`` (exact at any magnitude, subnormals included) where the
value is rational.  The exact value must lie inside the returned bound.
"""

import math
import operator
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st

from cantelli.bounds import FLOOR, ROUNDOFF, above, below, compensated_sum_error, gamma, outward
from cantelli.families import LogPower, PowerLaw
from cantelli.summation import compensated_sum

SUBNORMALS = st.integers(min_value=1, max_value=2**52 - 1).map(lambda m: m * math.ulp(0.0))
# nonnegative floats over the whole range, subnormals and their edge included
NONNEGATIVE = (
    st.floats(min_value=0.0, max_value=sys.float_info.max)
    | SUBNORMALS
    | st.sampled_from([0.0, math.ulp(0.0), sys.float_info.min, 2.0 * sys.float_info.min, 1.0])
)
# probabilities: what the scans sum
PROBABILITIES = st.floats(min_value=0.0, max_value=1.0) | SUBNORMALS
COUNTS = st.integers(min_value=1, max_value=2**40) | st.sampled_from([1, 2, 3, 4, 2**40])
# the real counts the power families pass, |s| B + 3: the shipped exponents
# 1, 1.5 and 2 with PowerLaw's B = 1, and any exponent with either family's B
EXPONENTS = st.floats(min_value=0.0, max_value=2.0**20) | st.sampled_from([1.0, 1.5, 2.0])
REAL_COUNTS = st.sampled_from([4.0, 4.5, 5.0]) | st.builds(
    lambda s, base: abs(s) * base + 3.0,
    EXPONENTS,
    st.sampled_from([PowerLaw._BASE_ERROR, LogPower._BASE_ERROR]),
)
FINITE = st.floats(allow_nan=False, allow_infinity=False) | SUBNORMALS
OPERATIONS = st.sampled_from([operator.add, operator.sub, operator.mul, operator.truediv])


def exact(op, a: float, b: float) -> Fraction:
    return op(Fraction(a), Fraction(b))


@settings(max_examples=300, deadline=None)
@given(OPERATIONS, FINITE, FINITE)
def test_one_rounding_is_relative_down_to_the_floor(op, a, b):
    # the model's first two assumptions: an operation on floats lies within
    # u of its exact result, or within FLOOR below the normal range
    assume(op is not operator.truediv or b != 0.0)
    x = op(a, b)
    assume(math.isfinite(x))
    v = exact(op, a, b)
    assert abs(Fraction(x) - v) <= Fraction(ROUNDOFF) * abs(v) + Fraction(FLOOR)


@settings(max_examples=600, deadline=None)
@given(COUNTS | REAL_COUNTS)
def test_gamma_holds_the_largest_relative_error_of_k_roundings(k):
    # the product of k factors (1 + d)^(+-1), |d| <= u, farthest from 1 is (1 - u)^-k
    with mpmath.workdps(50):
        worst = (1 - mpmath.mpf(ROUNDOFF)) ** -k - 1
        assert worst <= mpmath.mpf(gamma(k)), (k, worst, gamma(k))
    assert gamma(2**53) == math.inf


@pytest.mark.parametrize("k", [0.5, 2.5, 2.9999999999999996, -1.5])
def test_gamma_rejects_a_non_integer_count_below_3(k):
    # from 2 to 3 the bound can miss (1 - u)^-k - 1; no caller passes such a k
    with pytest.raises(ValueError, match="non-integer count"):
        gamma(k)
    assert gamma(2.0) == gamma(2) and gamma(3.0) == gamma(3)


@settings(max_examples=500, deadline=None)
@given(
    NONNEGATIVE,
    st.integers(min_value=3, max_value=2**26)
    | st.floats(min_value=3.0, max_value=2.0**26)
    | st.sampled_from([3, 4, 8, 10.0, 14.0, 2**26]),
)
def test_scalings_hold_every_value_that_c_minus_3_roundings_took_to_x(x, c):
    # c - 3 roundings in general; c - 2 where the factor 1 -+ c u is a float
    down = 2 if c == int(c) else 3
    up = 2 if c == int(c) and int(c) % 2 == 0 else 3
    slack = FLOOR if x < 2.0 * sys.float_info.min else 0.0
    with mpmath.workdps(50):
        u, xx = mpmath.mpf(ROUNDOFF), mpmath.mpf(x)
        least = xx / (1 + u) ** (c - down)
        most = xx / (1 - u) ** (c - up)
        assert mpmath.mpf(below(x, c)) - mpmath.mpf(slack) <= least, (x, c)
        assert mpmath.mpf(above(x, c)) + mpmath.mpf(slack) >= most, (x, c)


@settings(max_examples=300, deadline=None)
@given(OPERATIONS, FINITE, FINITE)
def test_one_float_outward_holds_a_rounded_result(op, a, b):
    assume(op is not operator.truediv or b != 0.0)
    x = op(a, b)
    assume(abs(x) < sys.float_info.max)  # one float past it is inf
    lo, hi = outward(x, x)
    assert lo < x < hi
    assert Fraction(lo) <= exact(op, a, b) <= Fraction(hi)


@settings(max_examples=200, deadline=None)
@given(st.lists(PROBABILITIES, min_size=1, max_size=12))
def test_one_float_outward_holds_a_correctly_rounded_sum(values):
    # what ExplicitList reads its zero-tailed head sum by
    total = math.fsum(values)
    assume(total > 0.0)
    lo, hi = outward(total, total)
    assert Fraction(lo) <= sum(map(Fraction, values)) <= Fraction(hi)


@settings(max_examples=300, deadline=None)
@given(st.lists(PROBABILITIES, min_size=1, max_size=60), COUNTS)
def test_compensated_sum_error_holds_the_exact_sum(values, k):
    # a bound for k terms holds any fewer: the scans pass their truncation
    k = max(k, len(values))
    total = compensated_sum(values)
    error = compensated_sum_error(k, total)
    assert abs(Fraction(total) - sum(map(Fraction, values))) <= Fraction(error), (values, k)
