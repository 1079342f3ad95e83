import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtri

from cantelli import (
    EventSchedule,
    ExplicitList,
    IndependentModel,
    MarkovModel,
    build_outcome_space,
    estimate_tail_union,
    estimate_window_prob,
    oracle_window_prob,
    wilson_interval,
)
from cantelli.montecarlo import _Z, CHUNK, _chunk_rng, _holds
from cantelli.windows import WindowPattern, first_occurrence

from conftest import (
    REPO,
    constraints,
    make_coin,
    make_flipflop,
    make_interleaved,
    make_nested,
    random_markov,
    reference_window_prob,
)


def test_wilson_interval_contains_point_and_stays_in_unit():
    for successes, n in ((0, 100), (1, 100), (50, 100), (100, 100)):
        lo, hi = wilson_interval(successes, n)
        assert 0.0 <= lo <= successes / n <= hi <= 1.0
    lo, hi = wilson_interval(0, 1000)
    assert lo == 0.0 and hi < 0.005  # behaves near zero


def test_wilson_validation():
    with pytest.raises(ValueError):
        wilson_interval(1, 0)


def test_z_is_scipy_ndtri_bits():
    assert _Z == float(ndtri(0.975))


def test_simulate_runs_without_scipy():
    code = (
        "import sys, cantelli.cli\n"
        "assert cantelli.cli.main(['simulate', 'specs/coin-half.json', '--count', '1000']) == 0\n"
        "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
    )
    subprocess.run(
        [sys.executable, "-c", code],
        cwd=REPO,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        check=True,
        capture_output=True,
    )


def draw_paths(model, horizon, count, seed):
    """Indicator paths A_1..A_horizon, one row per path, drawn chunk by chunk."""
    full, rest = divmod(count, CHUNK)
    sizes = [CHUNK] * full + ([rest] if rest else [])
    return np.vstack(
        [
            model.sample_indicator_block([_chunk_rng(seed, j)], [(1, horizon)], size)[0]
            for j, size in enumerate(sizes)
        ]
    )


def test_coin_marginal_frequencies_within_band():
    paths = draw_paths(make_coin(), 10, 100000, seed=2024)
    assert paths.shape == (100000, 10)
    freq = paths.mean(axis=0)
    assert np.all(freq >= 0.494) and np.all(freq <= 0.506)


def test_flipflop_paths_alternate_exactly():
    paths = draw_paths(make_flipflop(), 8, 50, seed=1)
    assert np.array_equal(paths, np.tile([False, True], (50, 4)))


def test_nested_paths_are_nested():
    paths = draw_paths(make_nested(), 12, 200, seed=3)
    assert paths.shape == (200, 12)
    assert not np.any(paths[:, 1:] & ~paths[:, :-1])


def test_estimate_window_prob_coin():
    est = estimate_window_prob(make_coin(), first_occurrence(1, 2), 100000, seed=7)
    assert est.lower <= 0.125 <= est.upper
    assert est.samples == 100000


def test_estimate_empty_window_is_exactly_zero():
    est = estimate_window_prob(make_nested(), first_occurrence(1, 1), 1000, seed=5)
    assert est.point == 0.0
    assert est.successes == 0


def test_oracle_and_sampler_read_a_window_value_bit_by_bit():
    # two models with one indicator path each: the value whose bit i is
    # A_{start+i} on that path has probability 1 for the oracle and for the
    # sampler, and every other value of the same field 0
    horizon = 8
    independent = IndependentModel(ExplicitList((1.0, 0.0, 0.0, 1.0, 1.0), tail=0.0))
    # states 0, 1, 2, 0, ... against the sets {0}, {0}, {2}, {1}, {2}, then {1}
    rotation = MarkovModel(
        np.roll(np.eye(3), 1, axis=1),
        np.array([1.0, 0.0, 0.0]),
        EventSchedule(3, explicit=[[0], [0], [2], [1], [2]], tail=[1]),
    )
    for model, path in ((independent, "10011000"), (rotation, "10100001")):
        space = build_outcome_space(model, horizon)
        for start in range(1, horizon + 1):
            for width in range(1, horizon - start + 2):
                # the field's bits, A_start first, as a binary number
                match = int(path[start - 1 : start - 1 + width][::-1], 2)
                for value in range(2**width):
                    w = WindowPattern(start, width, value)
                    expected = 1.0 if value == match else 0.0
                    assert oracle_window_prob(space, w) == expected
                    assert estimate_window_prob(model, w, count=100, seed=0).point == expected


def test_estimate_tail_union_values():
    coin_est = estimate_tail_union(make_coin(), 1, 20, 100000, seed=11)
    assert coin_est.lower <= 1.0 - 2.0**-21 <= coin_est.upper
    nested_est = estimate_tail_union(make_nested(), 10, 100, 100000, seed=12)
    assert nested_est.lower <= 0.1 <= nested_est.upper
    inter_est = estimate_tail_union(make_interleaved(), 20, 400, 100000, seed=13)
    assert inter_est.lower <= 2.0 / 10.0 - 1.0 / 100.0 <= inter_est.upper


def test_estimates_are_bit_identical_for_same_seed():
    model = random_markov(np.random.default_rng(31))
    w = first_occurrence(2, 1)
    a = estimate_window_prob(model, w, 30000, seed=99)
    b = estimate_window_prob(model, w, 30000, seed=99)
    assert a == b
    c = estimate_window_prob(model, w, 30000, seed=100)
    assert a != c


def test_paths_reproducible_per_stream():
    model = random_markov(np.random.default_rng(32))
    first = draw_paths(model, 6, CHUNK + 5, seed=8)
    again = draw_paths(model, 6, CHUNK + 5, seed=8)
    assert first.shape == (CHUNK + 5, 6)
    assert np.array_equal(first, again)
    # paths past the chunk boundary come from the next substream
    (chunk1,) = model.sample_indicator_block([_chunk_rng(8, 1)], [(1, 6)], 5)
    assert np.array_equal(first[CHUNK:], chunk1)


def test_chunk_streams_are_uncorrelated():
    coin = make_coin()
    means = [
        coin.sample_indicator_block([_chunk_rng(21, j)], [(1, 1)], CHUNK)[0].mean()
        for j in range(256)
    ]
    even, odd = means[0::2], means[1::2]
    r = np.corrcoef(even, odd)[0, 1]
    # 128 pairs of independent substream means: |r| ~ N(0, 1/sqrt(128))
    assert abs(r) < 0.25


def test_small_model_coverage_quick():
    rng = np.random.default_rng(41)
    covered = 0
    runs = 20
    for i in range(runs):
        model = random_markov(rng, max_states=3)
        n = int(rng.integers(1, 5))
        m = int(rng.integers(0, 3))
        w = first_occurrence(n, m)
        exact = reference_window_prob(model, w)
        est = estimate_window_prob(model, w, 20000, seed=1000 + i)
        covered += est.lower <= exact <= est.upper
    assert covered >= 17


def test_estimate_requires_enough_samples():
    with pytest.raises(ValueError):
        estimate_window_prob(make_coin(), first_occurrence(1, 0), 10, seed=1)


@st.composite
def queries_with_blocks(draw):
    """A window or (n, span) union and a block of indicators as wide as its span.

    Half the blocks are transposed views, laid out as the Markov sampler's are.
    """
    n = draw(st.integers(min_value=1, max_value=5))
    width = draw(st.integers(min_value=1, max_value=7))
    if draw(st.booleans()):
        query = (n, width - 1)
    else:
        # any value of the field, not only the prefix, suffix and all-complement ones
        query = WindowPattern(n, width, draw(st.integers(min_value=0, max_value=2**width - 1)))
    count = draw(st.integers(min_value=1, max_value=50))
    cells = draw(st.lists(st.booleans(), min_size=count * width, max_size=count * width))
    if draw(st.booleans()):
        block = np.array(cells, dtype=bool).reshape(width, count).T
    else:
        block = np.array(cells, dtype=bool).reshape(count, width)
    return query, block


@settings(max_examples=200, deadline=None)
@given(queries_with_blocks())
def test_holds_matches_row_wise_reference(query_block):
    query, block = query_block
    before = block.copy()
    if isinstance(query, tuple):
        expected = block.any(axis=1)
    else:
        expected = (block == [occur for _, occur in constraints(query)]).all(axis=1)
    held = _holds(query, block)
    assert held.dtype == bool
    assert np.array_equal(held, expected)
    assert np.array_equal(block, before)  # the sampled block is left as it was
