"""The multi-window sampler and the batched Monte Carlo estimator.

One sampler call draws a block per window from a batch of generators.  Each
block must equal a single-window draw from fresh generators in the same
states, each generator's rows must equal a call with that generator alone, and
a per-path loop over the same uniforms is the reference for what each backend
samples.  A per-chunk loop over the sampler is the reference for the
estimator's batches.
"""

import json
import tracemalloc
from unittest import mock

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
from cantelli import models, montecarlo
from cantelli.cli import main, _simulate_checks
from cantelli.montecarlo import CHUNK, _chunk_rng, _holds
from cantelli.specfile import load_spec
from cantelli.windows import WindowPattern, all_complement, first_occurrence

from conftest import (
    SPECS,
    make_interleaved,
    make_nested,
    make_powerlaw,
    random_markov,
    reference_window_prob,
)

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
    scales = st.floats(0.0, 2.0, allow_subnormal=False)  # a subnormal scale is rejected
    family = st.one_of(
        st.builds(PowerLaw, scales, st.floats(0.0, 2.0)),
        st.builds(LogPower, scales, st.floats(0.0, 2.0)),
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
        u = rng.random((hi, count))
        for path in range(count):
            for i, n in enumerate(range(lo, hi + 1)):
                out[path, i] = u[n - 1, path] < model.family.value(n)
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
    blocks = model.sample_indicator_block([_chunk_rng(seed, chunk)], windows, count)
    assert len(blocks) == len(windows)
    for (lo, hi), block in zip(windows, blocks):
        (alone,) = model.sample_indicator_block([_chunk_rng(seed, chunk)], [(lo, hi)], count)
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
    (block,) = model.sample_indicator_block([_chunk_rng(seed, 0)], [window], count)
    expected = reference_block(model, _chunk_rng(seed, 0), *window, count)
    assert np.array_equal(block, expected)


def test_far_windows_do_not_fill_the_gap():
    # a walk to 1e5 records only the two windows' indices
    model = random_markov(np.random.default_rng(3))
    near, far = model.sample_indicator_block(
        [_chunk_rng(1, 0)], [(1, 3), (100_000, 100_002)], 64
    )
    assert near.shape == far.shape == (64, 3)
    (alone,) = model.sample_indicator_block([_chunk_rng(1, 0)], [(100_000, 100_002)], 64)
    assert np.array_equal(far, alone)


def test_bad_windows_raise():
    model = random_markov(np.random.default_rng(4))
    for window in ((0, 3), (5, 4)):
        with pytest.raises(ValueError):
            model.sample_indicator_block([_chunk_rng(1, 0)], [window], 8)


class ConstantUniforms:
    """A generator stub whose every uniform is ``value``."""

    def __init__(self, value: float):
        self.value = value

    def random(self, *, out):
        out.fill(self.value)
        return out


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
        (block,) = model.sample_indicator_block([ConstantUniforms(u)], [(1, 5)], 16)
        marginals = [reference_window_prob(model, first_occurrence(n, 0)) for n in range(1, 6)]
        assert marginals == [0.0] * 5
        assert not block.any()
    # the initial vector sums to 1 - 5e-13 and ends in a zero: a u past the
    # sum starts every path in state 1, the last positive one.  A_1 = {state 1}
    # and A_n = {state 2} after.
    short_start = MarkovModel(
        np.array([[0.5, 0.5, 0.0]] * 3),
        np.array([0.5, 0.5 - 5e-13, 0.0]),
        EventSchedule(3, explicit=[[1]], tail=[2]),
    )
    (block,) = short_start.sample_indicator_block([ConstantUniforms(u)], [(1, 5)], 16)
    assert (block[:, 0] == (u > 0.5)).all()
    assert not block[:, 1:].any()


@pytest.mark.parametrize("u", EDGE_UNIFORMS)
def test_latent_sampler_never_realizes_a_zero_threshold(u):
    model = LatentUniformModel(1, [0], GlobalThresholds(ExplicitList((0.5, 0.0, 0.0), tail=0.0)))
    (block,) = model.sample_indicator_block([ConstantUniforms(u)], [(1, 5)], 16)
    assert reference_window_prob(model, first_occurrence(2, 0)) == 0.0
    assert not block[:, 1:].any()
    assert block[:, 0].all() == (u < 0.5)


@pytest.mark.parametrize("u", EDGE_UNIFORMS)
def test_independent_sampler_respects_certain_and_impossible_events(u):
    model = IndependentModel(ExplicitList((0.0, 1.0, 0.5), tail=0.0))
    (block,) = model.sample_indicator_block([ConstantUniforms(u)], [(1, 4)], 16)
    assert not block[:, 0].any() and block[:, 1].all() and not block[:, 3].any()


def test_independent_windows_at_different_indices_are_independent(tmp_path):
    # a fair coin: two independent indices agree on half the paths, 4096 *
    # 0.5 +- 6 sd.  Blocks that read the same uniforms agree on every path.
    coin = make_powerlaw(0.5, 0.0)
    blocks = coin.sample_indicator_block([_chunk_rng(1, 0)], [(n, n) for n in range(1, 6)], 4096)
    for i, first in enumerate(blocks):
        for second in blocks[i + 1 :]:
            assert 0.45 <= np.mean(first == second) <= 0.55
    out = tmp_path / "simulate.json"
    assert main(["simulate", str(SPECS / "coin-half.json"), "--out", str(out)]) == 0
    checks = json.loads(out.read_text())["results"]["checks"]
    marginals = [c["successes"] for c in checks if c["check"].startswith("marginal")]
    assert len(marginals) == 5 and len(set(marginals)) == 5


def test_batched_estimates_equal_one_query_calls():
    queries = [
        first_occurrence(1, 0),
        first_occurrence(2, 2),
        WindowPattern(3, 2, 1),  # A_3, then one complement
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


@settings(max_examples=60, deadline=None)
@given(
    model=any_model,
    data=st.data(),
    generators=st.integers(min_value=1, max_value=4),
    share=st.integers(min_value=0, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    first_chunk=st.integers(min_value=0, max_value=3),
    draw_chunk=st.sampled_from([1, 7, 64, models._DRAW_CHUNK]),
)
def test_batch_rows_equal_one_generator_calls(
    model, data, generators, share, seed, first_chunk, draw_chunk
):
    # far windows leave a gap the Markov walk crosses step by step, about a
    # second per walk at 1e5, so chains go to 2e3 (1e5 is pinned below); a
    # small _DRAW_CHUNK cuts the walk into many uniform segments, which differ
    # between the batch and its one-generator calls
    far = 2_000 if isinstance(model, MarkovModel) else 100_000
    window = st.one_of(sample_window, sample_window.map(lambda w: (w[0] + far, w[1] + far)))
    windows = data.draw(st.lists(window, min_size=1, max_size=5))

    def rngs():
        return [_chunk_rng(seed, first_chunk + j) for j in range(generators)]

    with mock.patch.object(models, "_DRAW_CHUNK", draw_chunk):
        blocks = model.sample_indicator_block(rngs(), windows, generators * share)
        alone = [model.sample_indicator_block([rng], windows, share) for rng in rngs()]
    assert len(blocks) == len(windows)
    for k, ((lo, hi), block) in enumerate(zip(windows, blocks)):
        assert block.shape == (generators * share, hi - lo + 1)
        assert block.dtype == bool
        assert np.array_equal(block, np.concatenate([one[k] for one in alone]))


def test_far_window_batches_equal_one_generator_calls():
    windows = [(1, 3), (2, 6), (100_000, 100_002)]
    for model in (make_powerlaw(), random_markov(np.random.default_rng(3)), make_interleaved()):
        blocks = model.sample_indicator_block([_chunk_rng(5, 0), _chunk_rng(5, 1)], windows, 64)
        for j in range(2):
            alone = model.sample_indicator_block([_chunk_rng(5, j)], windows, 32)
            for block, one in zip(blocks, alone):
                assert np.array_equal(block[32 * j : 32 * (j + 1)], one)


def test_paths_must_split_evenly_over_the_generators():
    for model in (make_powerlaw(), random_markov(np.random.default_rng(4)), make_nested()):
        with pytest.raises(ValueError, match="split evenly"):
            model.sample_indicator_block([_chunk_rng(1, 0), _chunk_rng(1, 1)], [(1, 3)], 9)
        with pytest.raises(ValueError, match="split evenly"):
            model.sample_indicator_block([], [(1, 3)], 8)


def per_chunk_successes(model, queries, count, seed):
    """The estimator's successes from one sampler call per chunk: the reference
    for its batches of chunks."""
    windows = [
        (q.start, q.start + q.width - 1) if isinstance(q, WindowPattern) else (q[0], q[0] + q[1])
        for q in queries
    ]
    full, rest = divmod(count, CHUNK)
    sizes = [CHUNK] * full + ([rest] if rest else [])
    successes = [0] * len(queries)
    for j, size in enumerate(sizes):
        blocks = model.sample_indicator_block([_chunk_rng(seed, j)], windows, size)
        for k, (query, block) in enumerate(zip(queries, blocks)):
            successes[k] += int(np.count_nonzero(_holds(query, block)))
    return successes


BATCH_QUERIES = [
    first_occurrence(1, 0),
    first_occurrence(2, 2),
    WindowPattern(3, 2, 1),  # A_3, then one complement
    all_complement(2, 3),
    (1, 9),
    (4, 0),
]
BATCH_CELLS = 10  # rows of the block of BATCH_QUERIES: the distinct indices 1..10


@pytest.mark.parametrize("chunks_per_batch", [None, 1, 2, 3])
def test_batched_estimator_equals_the_per_chunk_loop(chunks_per_batch):
    # None keeps the module's budget: the 7 full chunks share one batch
    budget = (
        montecarlo._BATCH_DRAWS
        if chunks_per_batch is None
        else chunks_per_batch * CHUNK * max(BATCH_CELLS, montecarlo._PATH_DRAWS)
    )
    count = CHUNK * 7 + 300
    for model in (make_powerlaw(), random_markov(np.random.default_rng(9)), make_interleaved()):
        sizes = []
        sampler = model.sample_indicator_block

        def spy(rngs, windows, count):
            sizes.append((len(rngs), count))
            return sampler(rngs, windows, count)

        with mock.patch.object(montecarlo, "_BATCH_DRAWS", budget), mock.patch.object(
            model, "sample_indicator_block", spy
        ):
            estimates = montecarlo.estimate_frequencies(model, BATCH_QUERIES, count, seed=23)
        assert [e.successes for e in estimates] == per_chunk_successes(
            model, BATCH_QUERIES, count, 23
        )
        # full chunks in batches, the partial last chunk in a call of its own
        assert sizes[-1] == (1, 300)
        assert all(paths == generators * CHUNK for generators, paths in sizes[:-1])
        assert sum(generators for generators, _ in sizes[:-1]) == 7
        if chunks_per_batch is None:
            assert len(sizes) == 2
        else:
            assert max(generators for generators, _ in sizes) == chunks_per_batch


def test_estimator_memory_stays_bounded():
    # a batch holds a few chunks, never every path: drawing all 400000 paths
    # at once would take tens of MB.  The 12 rows of these checks make 16
    # chunks per batch, which peak at 2.5-3.6 MB.
    queries = [query for _, query in _simulate_checks(12)]
    markov = load_spec(SPECS / "markov-3state.json").model
    for model in (make_powerlaw(), markov, make_interleaved()):
        tracemalloc.start()
        try:
            montecarlo.estimate_frequencies(model, queries, 400_000, seed=7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20


# successes of each check of `simulate <spec>` at the spec's defaults.  The
# independent specs (coin-half, harmonic, partial-maxima, powerlaw-2) were
# counted path by path from each chunk's rng.random((horizon, paths)), with
# A_n = u[n - 1, path] < P(A_n); the others by the estimator with one sampler
# call per chunk
SPEC_DEFAULT_SUCCESSES = {
    "coin-half": [50030, 49960, 50069, 49921, 49910, 25175, 25146, 24876, 12472, 12502, 12491,
                  99922, 99818],
    "flipflop": [0, 100000, 0, 0, 100000, 100000, 0, 0, 0, 0, 0, 100000, 100000],
    "harmonic": [100000, 49920, 33312, 20011, 12425, 0, 16663, 14918, 0, 8347, 10041, 100000,
                 91607],
    "interleaved-nested": [100000, 100000, 100000, 49810, 25218, 0, 0, 24795, 0, 0, 0, 100000,
                           100000],
    "markov-3state": [0, 49815, 30815, 31128, 30803, 49815, 15799, 22170, 15799, 11726, 16538,
                      98097, 98097],
    "nested": [100000, 49951, 33554, 20173, 12542, 0, 0, 0, 0, 0, 0, 100000, 49951],
    "partial-maxima": [100000, 35192, 19216, 9067, 4466, 0, 12385, 7974, 0, 6559, 5362, 100000,
                       68935],
    "powerlaw-2": [100000, 25008, 11085, 3999, 1556, 0, 8355, 3781, 0, 4220, 2519, 100000,
                   45893],
}


@pytest.mark.parametrize("name", sorted(SPEC_DEFAULT_SUCCESSES))
def test_spec_default_simulate_successes_are_pinned(name, tmp_path):
    out = tmp_path / "simulate.json"
    assert main(["simulate", str(SPECS / f"{name}.json"), "--out", str(out)]) == 0
    checks = json.loads(out.read_text())["results"]["checks"]
    assert [check["successes"] for check in checks] == SPEC_DEFAULT_SUCCESSES[name]
