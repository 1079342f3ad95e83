"""The multi-window sampler and the batched Monte Carlo estimator.

One sampler call draws a block per window from one generator.  Each block must
equal a single-window draw from a fresh generator in the same state, and a
per-path loop over the same uniforms is the reference for what each backend
samples.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cantelli import (
    EventSchedule,
    ExplicitList,
    GlobalThresholds,
    IndependentModel,
    LatentUniformModel,
    LogPower,
    MarkovModel,
    PerLatentThresholds,
    PowerLaw,
    estimate_frequencies,
    estimate_tail_union,
    estimate_window_prob,
)
from cantelli.montecarlo import CHUNK, _chunk_rng
from cantelli.windows import Orientation, all_complement, first_occurrence

from conftest import make_interleaved, make_nested, random_markov

LENGTH = 40  # explicit lists cover every index a drawn window reaches

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def independent_models(draw):
    values = draw(st.lists(unit, min_size=LENGTH, max_size=LENGTH))
    return IndependentModel(ExplicitList(tuple(values), tail=draw(unit)))


@st.composite
def markov_models(draw):
    s = draw(st.integers(min_value=2, max_value=4))
    weights = st.sampled_from([0.0, 0.0, 0.1, 0.25, 0.5, 1.0, 3.0])
    rows = []
    for _ in range(s):
        row = draw(st.lists(weights, min_size=s, max_size=s).filter(lambda r: sum(r) > 0))
        rows.append(np.array(row) / sum(row))
    initial = np.array(draw(st.lists(weights, min_size=s, max_size=s).filter(lambda r: sum(r) > 0)))
    initial /= initial.sum()
    event_set = st.lists(st.integers(min_value=0, max_value=s - 1), max_size=s, unique=True)
    mode = draw(st.sampled_from(["constant", "cycle", "explicit"]))
    if mode == "constant":
        events = EventSchedule(s, constant=draw(event_set))
    elif mode == "cycle":
        events = EventSchedule(s, cycle=draw(st.lists(event_set, min_size=1, max_size=4)))
    else:
        events = EventSchedule(
            s, explicit=draw(st.lists(event_set, max_size=12)), tail=draw(event_set)
        )
    return MarkovModel(np.array(rows), initial, events)


@st.composite
def latent_models(draw):
    num = draw(st.integers(min_value=1, max_value=3))
    coloring = list(range(num)) + draw(
        st.lists(st.integers(min_value=0, max_value=num - 1), max_size=3)
    )
    if draw(st.booleans()):
        values = draw(st.lists(unit, min_size=LENGTH, max_size=LENGTH))
        return LatentUniformModel(
            num, coloring, GlobalThresholds(ExplicitList(tuple(values), tail=draw(unit)))
        )
    family = st.one_of(
        st.builds(PowerLaw, st.floats(0.0, 2.0), st.floats(0.0, 2.0)),
        st.builds(LogPower, st.floats(0.0, 2.0), st.floats(0.0, 2.0)),
    )
    families = tuple(draw(family) for _ in range(num))
    offsets = tuple(draw(st.integers(min_value=-5, max_value=3)) for _ in range(num))
    return LatentUniformModel(num, coloring, PerLatentThresholds(families, offsets))


any_model = st.one_of(independent_models(), markov_models(), latent_models())
sample_window = st.tuples(
    st.integers(min_value=1, max_value=20), st.integers(min_value=1, max_value=20)
).map(lambda lw: (lw[0], lw[0] + lw[1] - 1))


def reference_block(model, rng, lo, hi, count):
    """A_lo..A_hi path by path, from the uniforms the backend's contract names."""
    out = np.empty((count, hi - lo + 1), dtype=bool)
    if isinstance(model, IndependentModel):
        u = rng.random((count, hi - lo + 1))
        for path in range(count):
            for i, n in enumerate(range(lo, hi + 1)):
                out[path, i] = u[path, i] < model.family.value(n)
    elif isinstance(model, LatentUniformModel):
        u = rng.random((count, model.num_latents))
        for path in range(count):
            for i, n in enumerate(range(lo, hi + 1)):
                out[path, i] = u[path, model.color(n)] < model.threshold(n)
    else:
        u = rng.random((hi, count))
        transition = model._transition
        for path in range(count):
            state = None
            for t in range(1, hi + 1):
                weights = model._initial if state is None else transition[state]
                state = first_state_below(weights, u[t - 1, path])
                if t >= lo:
                    out[path, t - lo] = model.event_mask(t)[state]
    return out


def first_state_below(weights, u):
    """The first state k with u < cumsum(weights)[k], else the last positive one."""
    total = 0.0
    for k, w in enumerate(weights):
        total += w
        if u < total and w > 0.0:
            return k
    return max(k for k, w in enumerate(weights) if w > 0.0)


@settings(max_examples=80, deadline=None)
@given(
    model=any_model,
    windows=st.lists(sample_window, min_size=1, max_size=5),
    count=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    chunk=st.integers(min_value=0, max_value=3),
)
def test_each_block_equals_a_fresh_single_window_draw(model, windows, count, seed, chunk):
    blocks = model.sample_indicator_block(_chunk_rng(seed, chunk), windows, count)
    assert len(blocks) == len(windows)
    for (lo, hi), block in zip(windows, blocks):
        (alone,) = model.sample_indicator_block(_chunk_rng(seed, chunk), [(lo, hi)], count)
        assert block.shape == alone.shape == (count, hi - lo + 1)
        assert block.dtype == bool
        assert np.array_equal(block, alone)


@settings(max_examples=40, deadline=None)
@given(
    model=any_model,
    window=sample_window,
    count=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_block_matches_per_path_reference(model, window, count, seed):
    (block,) = model.sample_indicator_block(_chunk_rng(seed, 0), [window], count)
    expected = reference_block(model, _chunk_rng(seed, 0), *window, count)
    assert np.array_equal(block, expected)


def test_far_windows_do_not_fill_the_gap():
    # a walk to 1e5 records only the two windows' indices
    model = random_markov(np.random.default_rng(3))
    near, far = model.sample_indicator_block(
        _chunk_rng(1, 0), [(1, 3), (100_000, 100_002)], 64
    )
    assert near.shape == far.shape == (64, 3)
    (alone,) = model.sample_indicator_block(_chunk_rng(1, 0), [(100_000, 100_002)], 64)
    assert np.array_equal(far, alone)


def test_bad_windows_raise():
    model = random_markov(np.random.default_rng(4))
    for window in ((0, 3), (5, 4)):
        with pytest.raises(ValueError):
            model.sample_indicator_block(_chunk_rng(1, 0), [window], 8)


class ConstantUniforms:
    """A generator stub whose every uniform is ``value``."""

    def __init__(self, value: float):
        self.value = value

    def random(self, size):
        return np.full(size, self.value)


EDGE_UNIFORMS = (0.0, 1.0 - 2.0**-53)


@pytest.mark.parametrize("u", EDGE_UNIFORMS)
def test_markov_sampler_never_enters_a_zero_probability_state(u):
    # from every state the chain moves to state 1; A_n = {state 0} never holds
    certain = MarkovModel(
        np.array([[0.0, 1.0, 0.0]] * 3), np.array([0.0, 1.0, 0.0]), EventSchedule(3, constant=[0])
    )
    # the row sums to 1 - 1e-12 (inside the tolerance); state 2 has probability 0
    short = MarkovModel(
        np.array([[0.5, 0.5 - 1e-12, 0.0]] * 3),
        np.array([1.0, 0.0, 0.0]),
        EventSchedule(3, constant=[2]),
    )
    for model in (certain, short):
        (block,) = model.sample_indicator_block(ConstantUniforms(u), [(1, 5)], 16)
        assert all(model.window_prob(first_occurrence(n, 0)) == 0.0 for n in range(1, 6))
        assert not block.any()


@pytest.mark.parametrize("u", EDGE_UNIFORMS)
def test_latent_sampler_never_realizes_a_zero_threshold(u):
    model = LatentUniformModel(1, [0], GlobalThresholds(ExplicitList((0.5, 0.0, 0.0), tail=0.0)))
    (block,) = model.sample_indicator_block(ConstantUniforms(u), [(1, 5)], 16)
    assert model.window_prob(first_occurrence(2, 0)) == 0.0
    assert not block[:, 1:].any()
    assert block[:, 0].all() == (u < 0.5)


@pytest.mark.parametrize("u", EDGE_UNIFORMS)
def test_independent_sampler_respects_certain_and_impossible_events(u):
    model = IndependentModel(ExplicitList((0.0, 1.0, 0.5), tail=0.0))
    (block,) = model.sample_indicator_block(ConstantUniforms(u), [(1, 4)], 16)
    assert not block[:, 0].any() and block[:, 1].all() and not block[:, 3].any()


def test_batched_estimates_equal_one_query_calls():
    queries = [
        first_occurrence(1, 0),
        first_occurrence(2, 2),
        first_occurrence(3, 1, Orientation.SUFFIX_COMPLEMENT),
        all_complement(2, 3),
        (1, 9),
        (4, 0),
        first_occurrence(2, 2),  # a repeated query gets the same estimate
    ]
    count = CHUNK + 300  # a full chunk and a partial one
    for model in (random_markov(np.random.default_rng(9)), make_nested(), make_interleaved()):
        batched = estimate_frequencies(model, queries, count, seed=17)
        for query, est in zip(queries, batched):
            if isinstance(query, tuple):
                alone = estimate_tail_union(model, *query, count, seed=17)
            else:
                alone = estimate_window_prob(model, query, count, seed=17)
            assert est == alone
        assert batched[1] == batched[-1]


def test_batched_estimator_keeps_the_one_query_errors():
    model = make_nested()
    with pytest.raises(ValueError, match="span"):
        estimate_frequencies(model, [first_occurrence(1, 0), (2, -1)], 1000, seed=1)
    with pytest.raises(ValueError, match="100 samples"):
        estimate_frequencies(model, [first_occurrence(1, 0)], 99, seed=1)
    assert estimate_frequencies(model, [], 1000, seed=1) == []
