import functools
import math
import operator
import struct

import numpy as np
from hypothesis import example, given, settings, strategies as st

from cantelli.summation import CompensatedSum, compensated_cumsum, compensated_sum


def test_matches_fsum_on_harmonic():
    values = [1.0 / n for n in range(1, 100001)]
    assert abs(compensated_sum(values) - math.fsum(values)) < 1e-12


def test_cumsum_checkpoints_match_fsum():
    values = np.array([n**-2.0 for n in range(1, 100001)])
    sums = compensated_cumsum(values)
    for cut in (10, 1000, 100000):
        assert abs(sums[cut - 1] - math.fsum(values[:cut])) < 1e-12


def test_beats_naive_on_adversarial_cancellation():
    # large value followed by many tiny ones: naive accumulation loses them
    values = [1e16] + [1.0] * 1000
    assert functools.reduce(operator.add, values) != math.fsum(values)
    assert compensated_sum(values) == math.fsum(values)


def test_empty_sum_is_zero():
    assert compensated_sum([]) == 0.0


def _scalar_neumaier(values, total=0.0, compensation=0.0):
    """The scalar Neumaier loop, one value at a time: the (total, compensation)
    state after each value, continuing from the given state."""
    states = []
    for x in values:
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
        states.append((total, compensation))
    return states


def _scalar_partial_sums(values):
    return [total + compensation for total, compensation in _scalar_neumaier(values)]


# at most 300 values of magnitude <= 1e300: every sum stays finite
magnitudes = st.floats(min_value=-1e300, max_value=1e300)


@settings(max_examples=300, deadline=None)
@given(st.lists(magnitudes | st.sampled_from([0.0, -0.0, 1e-300, 5e-324, 1.0]), max_size=300))
def test_array_sums_equal_the_scalar_loop_bit_for_bit(values):
    expected = _scalar_partial_sums(values)
    got = compensated_cumsum(np.array(values, dtype=float))
    assert np.array_equal(got, expected)
    assert np.signbit(got).tolist() == np.signbit(np.array(expected, dtype=float)).tolist()
    total = compensated_sum(values)
    assert total == (expected[-1] if values else 0.0)
    assert math.copysign(1.0, total) == math.copysign(1.0, expected[-1] if values else 0.0)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        magnitudes | st.sampled_from([0.0, -0.0, 5e-324, 0.1, 3.0, 1e16, -1e16]), max_size=120
    ),
    st.lists(st.integers(min_value=0, max_value=40), max_size=6),
)
# (1e16 + 3) + 3 rounds differently from 1e16 + (3 + 3)
@example(values=[1e16, 3.0, 3.0], cuts=[1])
def test_sum_continued_in_chunks_equals_the_one_shot_sum(values, cuts):
    running, scalar = CompensatedSum(), (0.0, 0.0)
    total, done = compensated_sum([], running), 0
    for size in cuts + [len(values)]:
        chunk = values[done : done + size]
        total = compensated_sum(chunk, running)
        scalar = ([scalar] + _scalar_neumaier(chunk, *scalar))[-1]
        done += len(chunk)
        # the running state, not just its value, is the scalar loop's
        state = (running._total, running._compensation)
        assert struct.pack("<2d", *state) == struct.pack("<2d", *scalar)
    expected = compensated_sum(values)
    assert total == expected
    assert math.copysign(1.0, total) == math.copysign(1.0, expected)
