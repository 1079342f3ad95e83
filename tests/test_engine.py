"""The array query path against the scalar reference, compared exactly.

Every backend's ``window_series`` and scans must return the floats and
emptiness proofs the per-window loop returns, bit for bit: reports are built from the
arrays and must not change when the engine does.  The same holds for
``tail_union``'s doublings against one-shot sums, and for the Markov orbits
against plain walks of distributions and supports.  The per-window loops below
are the reference.
"""

import gc
import importlib.util
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cantelli import (
    Constant,
    EventSchedule,
    ExplicitList,
    GlobalThresholds,
    IndependentModel,
    LatentUniformModel,
    LogPower,
    MarkovModel,
    PerLatentThresholds,
    PowerLaw,
    SequenceFamily,
    limsup_estimate,
    tail_union,
)
from cantelli.families import SequenceIndexError
from cantelli.limsup import INITIAL_TRUNCATION
from cantelli.models import NumericFaultError, OccurrenceScan
from cantelli.specfile import parse_spec
from cantelli.summation import compensated_sum
from cantelli.windows import all_complement, first_occurrence

from conftest import REPO, make_absorbing, make_equal_rows, make_flipflop

probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
# a subnormal scale is a constructor error
scales = st.floats(min_value=0.0, max_value=3.0, allow_nan=False, allow_subnormal=False)
exponents = st.floats(min_value=-2.0, max_value=3.0, allow_nan=False)

power_families = st.one_of(
    st.builds(PowerLaw, scales, exponents), st.builds(LogPower, scales, exponents)
)
explicit_lists = st.builds(
    ExplicitList,
    st.lists(st.sampled_from([0.0, 0.25, 1.0]) | probs, max_size=12).map(tuple),
    probs,
)
families = st.one_of(power_families, explicit_lists, st.builds(Constant, probs))
prefix_lens = st.integers(min_value=0, max_value=4)


def reference_series(model, max_prefix_len, num_terms):
    """Row m: ``window_prob`` of the m-window at n = 1..num_terms."""
    return np.array(
        [
            [model.window_prob(first_occurrence(n, m)) for n in range(1, num_terms + 1)]
            for m in range(max_prefix_len + 1)
        ],
        dtype=float,
    )


def reference_empty(model, max_prefix_len, num_terms):
    """Row m: ``window_is_empty`` of the m-window at n = 1..num_terms."""
    return np.array(
        [
            [model.window_is_empty(first_occurrence(n, m)) for n in range(1, num_terms + 1)]
            for m in range(max_prefix_len + 1)
        ],
        dtype=bool,
    )


def reference_terms(model, n, count):
    return np.array([model.window_prob(first_occurrence(n, k)) for k in range(count)], dtype=float)


def reference_complement(model, n, length):
    return model.window_prob(all_complement(n, length)) if length else 1.0


def bits(x):
    """The bytes of a float or float array: equal bits, signs of zero included."""
    return np.asarray(x, dtype=float).tobytes()


@st.composite
def latent_models(draw):
    num = draw(st.integers(min_value=1, max_value=3))
    coloring = list(range(num)) + draw(
        st.lists(st.integers(min_value=0, max_value=num - 1), max_size=3)
    )
    coloring = draw(st.permutations(coloring))
    if draw(st.booleans()):
        return LatentUniformModel(num, coloring, GlobalThresholds(draw(families)))
    fams = tuple(draw(power_families) for _ in range(num))
    offsets = tuple(draw(st.integers(min_value=-5, max_value=3)) for _ in range(num))
    return LatentUniformModel(num, coloring, PerLatentThresholds(fams, offsets))


@st.composite
def markov_models(draw):
    # 9 states: numpy sums 8 or more entries pairwise, not left to right
    s = draw(st.sampled_from([1, 2, 3, 4, 9]))
    # sparse rows, so support propagation can prove windows empty
    raw = np.array(
        draw(st.lists(st.sampled_from([0.0, 0.0, 0.2, 0.5, 1.0]), min_size=s * s, max_size=s * s))
    ).reshape(s, s)
    raw[np.arange(s), draw(st.lists(st.integers(0, s - 1), min_size=s, max_size=s))] += 1.0
    transition = raw / raw.sum(axis=1, keepdims=True)
    initial = np.zeros(s)
    initial[draw(st.integers(0, s - 1))] = 1.0
    sets = st.lists(st.integers(0, s - 1), max_size=s, unique=True)
    mode = draw(st.sampled_from(["constant", "cycle", "explicit"]))
    if mode == "constant":
        events = EventSchedule(s, constant=draw(sets))
    elif mode == "cycle":
        events = EventSchedule(s, cycle=draw(st.lists(sets, min_size=1, max_size=3)))
    else:
        events = EventSchedule(s, explicit=draw(st.lists(sets, max_size=6)), tail=draw(sets))
    return MarkovModel(transition, initial, events)


models = st.one_of(
    st.builds(IndependentModel, families), latent_models(), markov_models()
)


@settings(max_examples=150, deadline=None)
@given(
    power_families,
    st.integers(min_value=-6, max_value=40),
    st.integers(min_value=0, max_value=30),
)
def test_power_family_values_match_value(fam, lo, span):
    hi = lo + span
    expected = np.array([fam.value(n) for n in range(lo, hi + 1)])
    assert np.array_equal(fam.values(lo, hi), expected)


wide_exponents = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


@settings(max_examples=50, deadline=None)
@given(
    st.one_of(
        st.builds(PowerLaw, scales, wide_exponents), st.builds(LogPower, scales, wide_exponents)
    ),
    st.integers(min_value=1, max_value=10**12),
    st.integers(min_value=0, max_value=4095),
)
def test_power_family_values_match_value_far_out(fam, lo, span):
    hi = lo + span
    expected = np.array([fam.value(n) for n in range(lo, hi + 1)])
    assert bits(fam.values(lo, hi)) == bits(expected)


def test_saturated_offset_values():
    assert PowerLaw(1.0, 1.0).values(-2, 1).tolist() == [1.0, 1.0, 1.0, 1.0]
    assert PowerLaw(2.0, 0.0).values(-1, 1).tolist() == [1.0, 1.0, 1.0]
    assert LogPower(0.5, -1.0).values(-1, 0).tolist() == [0.0, 0.0]
    assert PowerLaw(0.0, 1.0).values(-1, 2).tolist() == [0.0] * 4


def test_explicit_values_across_the_boundary():
    fam = ExplicitList((0.5, 0.25, 0.125), tail=0.1)
    for lo in range(1, 6):
        for hi in range(lo - 1, 8):
            expected = [fam.value(n) for n in range(lo, hi + 1)]
            assert fam.values(lo, hi).tolist() == expected


def test_explicit_values_past_an_untailed_list_raise():
    fam = ExplicitList((0.5, 0.25))
    assert fam.values(1, 2).tolist() == [0.5, 0.25]
    with pytest.raises(SequenceIndexError, match="at index 3"):
        fam.values(1, 3)
    with pytest.raises(SequenceIndexError, match="at index 5"):
        fam.values(5, 9)
    with pytest.raises(SequenceIndexError):
        fam.values(0, 1)


@settings(max_examples=300, deadline=None)
@given(models, prefix_lens, st.integers(min_value=1, max_value=60))
def test_window_series_matches_window_prob(model, max_prefix_len, num_terms):
    terms, empty = model.window_series(max_prefix_len, num_terms)
    assert terms.shape == empty.shape == (max_prefix_len + 1, num_terms)
    assert empty.dtype == bool
    assert bits(terms) == bits(reference_series(model, max_prefix_len, num_terms))
    assert np.array_equal(empty, reference_empty(model, max_prefix_len, num_terms))
    # a proved-empty window has probability exactly 0
    assert np.all(terms[empty] == 0.0)


@settings(max_examples=300, deadline=None)
@given(models, prefix_lens, st.integers(min_value=1, max_value=30), st.integers(0, 30))
def test_empty_series_matches_window_is_empty(model, prefix_len, lo, span):
    # the emptiness row of the m-window over n = lo..lo + span, read from a
    # table that starts at n = 1, agrees with window_is_empty window by window
    _, empty = model.window_series(prefix_len, lo + span)
    got = empty[prefix_len, lo - 1 :]
    expected = [
        model.window_is_empty(first_occurrence(n, prefix_len)) for n in range(lo, lo + span + 1)
    ]
    assert got.dtype == bool
    assert np.array_equal(got, np.array(expected, dtype=bool))


QUARTERS = [0.0, 0.25, 0.5, 0.75, 1.0]


@st.composite
def dyadic_rows(draw, s):
    """A probability vector over s states in quarters: it sums to 1 exactly."""
    cuts = sorted(draw(st.lists(st.sampled_from(QUARTERS), min_size=s - 1, max_size=s - 1)))
    return [b - a for a, b in zip([0.0, *cuts], [*cuts, 1.0])]


@st.composite
def early_repeating_chains(draw):
    """Chains whose distribution orbits mostly repeat early, over every repeating schedule.

    Dyadic rows in quarters, a 2- or 3-cycle, or a chain absorbed within two
    steps; and the three schedules with a period: constant, a cycle of 1-3
    sets, and an explicit list with a tail.
    """
    kind = draw(st.sampled_from(["dyadic", "cycle", "absorbing"]))
    if kind == "dyadic":
        s = draw(st.integers(min_value=1, max_value=3))
        transition = [draw(dyadic_rows(s)) for _ in range(s)]
    elif kind == "cycle":
        s = draw(st.integers(min_value=2, max_value=3))
        transition = np.roll(np.eye(s), 1, axis=1).tolist()
    else:
        # absorbed within two steps, so the orbit reaches its fixed point early
        s = 3
        transition = [[0.0, 0.5, 0.5], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]
    sets = st.lists(st.integers(0, s - 1), max_size=s, unique=True)
    mode = draw(st.sampled_from(["constant", "cycle", "explicit"]))
    if mode == "constant":
        events = EventSchedule(s, constant=draw(sets))
    elif mode == "cycle":
        events = EventSchedule(s, cycle=draw(st.lists(sets, min_size=1, max_size=3)))
    else:
        events = EventSchedule(s, explicit=draw(st.lists(sets, max_size=8)), tail=draw(sets))
    return MarkovModel(transition, draw(dyadic_rows(s)), events)


@settings(max_examples=100, deadline=None)
@given(early_repeating_chains(), prefix_lens, st.integers(min_value=60, max_value=500))
def test_markov_tiled_series_matches_window_prob(model, max_prefix_len, num_terms):
    # past the pre-period and one (orbit x schedule) period the table is
    # tiled, not evaluated; it must still equal the one-window reference
    terms, empty = model.window_series(max_prefix_len, num_terms)
    assert bits(terms) == bits(reference_series(model, max_prefix_len, num_terms))
    assert np.array_equal(empty, reference_empty(model, max_prefix_len, num_terms))


@pytest.mark.parametrize(
    "events",
    [
        EventSchedule(3, constant=[1]),
        EventSchedule(3, cycle=[[0], [1, 2], []]),
        EventSchedule(3, explicit=[[0], [], [2], [1]], tail=[0, 2]),
    ],
)
def test_markov_series_evaluates_one_period(events):
    # a 3-cycle from (3/4, 1/4, 0): both orbits repeat with period 3
    model = MarkovModel(np.roll(np.eye(3), 1, axis=1), [0.75, 0.25, 0.0], events)
    num_terms = 400
    for orbit in (model._dists, model._supports):
        rows, masks, period = model._table_columns(orbit, 2, num_terms)
        (c, cycle), (e, q) = orbit._cycle, events._period
        assert len(cycle) == 3 and period == math.lcm(3, q)
        assert len(rows) == max(c, e) - 1 + period < 20 and len(masks) == len(rows) + 2
    terms, empty = model.window_series(2, num_terms)
    assert bits(terms) == bits(reference_series(model, 2, num_terms))
    assert np.array_equal(empty, reference_empty(model, 2, num_terms))


def test_markov_series_that_never_repeats_walks_once():
    eps = 1e-9
    events = EventSchedule(2, cycle=[[0], [1]])
    model = _chain([[1 - eps, eps], [eps, 1 - eps]], [1.0, 0.0], events)()
    steps = []
    step = model._dists._step
    model._dists._step = lambda x: steps.append(x) or step(x)
    terms, empty = model.window_series(2, 3000)
    assert model._dists._cycle is None and len(steps) == 3000 - 1
    model._dists._step = step
    assert bits(terms) == bits(reference_series(model, 2, 3000))
    assert np.array_equal(empty, reference_empty(model, 2, 3000))


def test_markov_series_past_an_untailed_schedule_raises():
    # the chain repeats from time 2, but an explicit list with no tail has no period
    events = EventSchedule(2, explicit=[[0], [1], []])
    model = MarkovModel([[0.5, 0.5], [0.5, 0.5]], [1.0, 0.0], events)
    terms, empty = model.window_series(1, 2)
    assert bits(terms) == bits(reference_series(model, 1, 2))
    assert np.array_equal(empty, reference_empty(model, 1, 2))
    with pytest.raises(
        SequenceIndexError, match="event schedule of length 3 queried at time 4 with no tail"
    ):
        model.window_series(1, 3)


def test_markov_series_memory_is_bounded():
    # past one period the table is tiled in place, so the peak is about the
    # two output tables: 3 of the float table's size hold it
    num_terms, s = 100_000, 16
    rng = np.random.default_rng(5)
    transition = rng.random((s, s))
    transition /= transition.sum(axis=1, keepdims=True)
    initial = np.zeros(s)
    initial[0] = 1.0
    model = MarkovModel(transition, initial, EventSchedule(s, constant=[1, 5, 9, 12]))
    tracemalloc.start()
    try:
        model.window_series(3, num_terms)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * (3 + 1) * num_terms * 8


@settings(max_examples=200, deadline=None)
@given(models, st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=25))
def test_scans_match_window_prob(model, n, count):
    expected = reference_terms(model, n, count)
    assert np.array_equal(model.first_occurrence_terms(n, count), expected)
    assert model.all_complement_prob(n, count) == reference_complement(model, n, count)


@settings(max_examples=200, deadline=None)
@given(
    models,
    st.integers(min_value=1, max_value=30),
    st.lists(st.integers(min_value=0, max_value=12), max_size=5),
)
def test_scan_in_chunks_matches_window_prob(model, n, chunks):
    scan = OccurrenceScan(n)
    got = [np.empty(0)]
    for count in chunks:
        got.append(model.first_occurrence_terms(scan.end, count, scan))
        length = scan.end - n
        assert bits(model.all_complement_prob(n, length, scan)) == bits(
            reference_complement(model, n, length)
        )
    assert bits(np.concatenate(got)) == bits(reference_terms(model, n, sum(chunks)))


def test_scan_must_go_on_where_it_ended():
    model = IndependentModel(Constant(0.5))
    scan = OccurrenceScan(3)
    model.first_occurrence_terms(3, 4, scan)
    with pytest.raises(ValueError, match="ending at 7"):
        model.first_occurrence_terms(8, 1, scan)
    with pytest.raises(ValueError, match="does not cover"):
        model.all_complement_prob(3, 5, scan)
    assert model.all_complement_prob(3, 4, scan) == 0.5**4


def reference_tail_union(model, n, tol, k_max):
    """``tail_union``'s doubling loop, each sum and remainder taken afresh."""
    k = min(INITIAL_TRUNCATION, k_max)
    while True:
        partial = min(max(compensated_sum(reference_terms(model, n, k)), 0.0), 1.0)
        remainder = reference_complement(model, n, k)
        union_tail = model.union_bound(n + k)
        effective = remainder if union_tail is None else min(remainder, union_tail)
        if effective < tol or k >= k_max:
            return k, bits(partial), bits(remainder), union_tail, effective < tol
        k = min(2 * k, k_max)


@settings(max_examples=200, deadline=None)
@given(
    models,
    # Markov explicit schedules end by index 6, so most starts lie past them
    st.integers(min_value=1, max_value=30),
    st.sampled_from([1e-2, 1e-6, 1e-12]),
    st.sampled_from([1, 2, 16, 17, 32, 64, 100, 128]),
)
def test_tail_union_doublings_match_one_shot_sums(model, n, tol, k_max):
    est = tail_union(model, n, tol=tol, k_max=k_max)
    got = (
        est.truncation,
        bits(est.partial),
        bits(est.remainder_bound),
        est.union_tail_bound,
        est.tolerance_reached,
    )
    assert got == reference_tail_union(model, n, tol, k_max)


@settings(max_examples=40, deadline=None)
@given(markov_models(), prefix_lens, st.integers(min_value=1, max_value=30))
def test_markov_series_independent_of_query_order(model, max_prefix_len, num_terms):
    # a walked cursor, a found cycle and a far read must not change any value
    expected = reference_series(model, max_prefix_len, num_terms)
    model.window_series(0, 3 * num_terms)
    model.window_prob(first_occurrence(5 * num_terms, 1))
    assert bits(model.window_series(max_prefix_len, num_terms)[0]) == bits(expected)
    assert bits(reference_series(model, max_prefix_len, num_terms)) == bits(expected)


def test_markov_far_start_keeps_no_block():
    chain = MarkovModel(
        np.array([[0.5, 0.5], [0.25, 0.75]]), np.array([1.0, 0.0]), EventSchedule(2, constant=[0])
    )
    far = chain.window_prob(first_occurrence(200_000, 2))
    # the walk stopped at its first repeat, and far times read a short stored cycle
    t, v = chain._dists._cursor
    start, cycle = chain._dists._cycle
    assert t == start + len(cycle) and bits(v) == bits(cycle[0])
    assert len(cycle) <= 256
    # going back restarts from time 1, and forward again reproduces the value
    assert chain.window_prob(first_occurrence(3, 1)) == chain.window_prob(first_occurrence(3, 1))
    assert chain._dists._cursor[0] == 3
    assert chain.window_prob(first_occurrence(200_000, 2)) == far


def plain_walk(model, count):
    """Distributions at times 1..count, one v @ T step at a time."""
    rows = [model._initial]
    for _ in range(count - 1):
        rows.append(rows[-1] @ model._transition)
    return np.array(rows)


def _chain(transition, initial, events=None):
    transition = np.array(transition, dtype=float)
    s = len(transition)
    events = events or EventSchedule(s, constant=[0])
    return lambda: MarkovModel(transition, np.array(initial, dtype=float), events)


ORBIT_CHAINS = {
    "fixed-point": lambda: make_equal_rows([0.25, 0.75], [1.0, 0.0], [0]),
    "flipflop": make_flipflop,
    "absorbing": make_absorbing,
    "periodic": _chain(
        [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
        [0.5, 0.25, 0.25],
        EventSchedule(3, cycle=[[0], [1, 2]]),
    ),
    "explicit": _chain(
        [[0.9, 0.1, 0.0], [0.0, 0.7, 0.3], [0.2, 0.0, 0.8]],
        [1.0, 0.0, 0.0],
        EventSchedule(3, explicit=[[0], [], [1, 2]] * 4, tail=[2]),
    ),
}
WALK = 400
ORDERS = {
    "forward": [1, 2, 40, 41, 150, 151, 399, 400],
    "backward": [400, 399, 151, 150, 41, 40, 2, 1],
    "interleaved": [150, 2, 400, 41, 1, 399, 40, 151],
}


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("name", ORBIT_CHAINS)
def test_markov_orbit_matches_plain_walk(name, order):
    model = ORBIT_CHAINS[name]()
    walk = plain_walk(model, WALK)
    for i, t in enumerate(ORDERS[order]):
        assert bits(model._dists.rows(t, t)[0]) == bits(walk[t - 1])
        if i == 3:
            assert bits(model._dists.rows(1, 60)) == bits(walk[:60])
    assert bits(model._dists.rows(1, WALK)) == bits(walk)


@settings(max_examples=60, deadline=None)
@given(
    markov_models(),
    st.lists(st.integers(min_value=1, max_value=WALK), min_size=1, max_size=8),
    st.integers(min_value=1, max_value=WALK),
    st.integers(min_value=1, max_value=WALK),
)
def test_markov_orbit_matches_plain_walk_on_random_chains(model, times, lo, block_len):
    walk = plain_walk(model, WALK)
    for i, t in enumerate(times):
        if i == len(times) // 2:
            assert bits(model._dists.rows(1, block_len)) == bits(walk[:block_len])
        assert bits(model._dists.rows(t, t)[0]) == bits(walk[t - 1])
    lo = min(lo, block_len)
    assert bits(model._dists.rows(lo, block_len)) == bits(walk[lo - 1 : block_len])
    assert bits(model._dists.rows(1, WALK)) == bits(walk)


# the absorbing chain's mass 0.5^t leaves state 0 only by underflow, near t = 1075
@pytest.mark.parametrize("name", ["explicit", "periodic", "absorbing"])
def test_markov_far_time_reads_the_orbit(name):
    model = ORBIT_CHAINS[name]()
    v = model._initial
    for _ in range(100_000 - 1):
        v = v @ model._transition
    assert bits(model._dists.rows(100_000, 100_000)[0]) == bits(v)
    assert len(model._dists._cycle[1]) <= 256


def plain_support_walk(model, count):
    """Supports at times 1..count, one 0/1 matrix product at a time."""
    reach = (model._transition > 0.0).astype(int)
    rows = [model._initial > 0.0]
    for _ in range(count - 1):
        rows.append(rows[-1].astype(int) @ reach > 0)
    return np.array(rows)


# a walk over at most 2^9 supports meets Brent's repeat by time 3 * 2^9
SUPPORT_CYCLE_BY = 2048


@settings(max_examples=60, deadline=None)
@given(
    markov_models(),
    st.lists(
        st.tuples(st.integers(min_value=1, max_value=3 * WALK), st.integers(0, 40)),
        min_size=1,
        max_size=8,
    ),
)
def test_markov_supports_match_plain_walk(model, reads):
    walk = plain_support_walk(model, SUPPORT_CYCLE_BY)
    orbit = model._supports

    def check():
        for t, width in reads:
            assert np.array_equal(orbit.rows(t, t)[0], walk[t - 1])
            assert np.array_equal(orbit.rows(t, t + width), walk[t - 1 : t + width])

    check()
    assert np.array_equal(orbit.rows(SUPPORT_CYCLE_BY, SUPPORT_CYCLE_BY)[0], walk[-1])
    assert orbit._cycle is not None
    reads.reverse()
    check()


@pytest.mark.parametrize("name", ORBIT_CHAINS)
@pytest.mark.parametrize("which", ["_dists", "_supports"])
def test_markov_orbit_reads_past_its_cycle_take_no_step(name, which):
    orbit = getattr(ORBIT_CHAINS[name](), which)
    step, steps = orbit._step, []
    orbit._step = lambda x: steps.append(x) or step(x)
    orbit.rows(100_000, 100_000)
    start, cycle = orbit._cycle
    steps.clear()
    for t in (start, start + 1, start + len(cycle), 10**12):
        orbit.rows(t, t)
    orbit.rows(start, start + 3 * len(cycle) + 5)
    orbit.rows(10**12, 10**12 + 100)
    assert steps == []


def test_markov_series_keeps_no_block():
    path = REPO / "perfbench" / "workloads.py"
    loader = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(workloads)
    model = parse_spec(workloads.chain_spec(7)).model
    tracemalloc.start()
    try:
        model.window_series(3, 100_000)
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 1 << 20


def test_markov_orbit_that_never_repeats_is_the_plain_walk():
    # the distribution moves by about 1e-9 per step, far above one ulp
    eps = 1e-9
    model = _chain([[1 - eps, eps], [eps, 1 - eps]], [1.0, 0.0])()
    walk = plain_walk(model, 5000)
    assert bits(model._dists.rows(5000, 5000)[0]) == bits(walk[-1])
    assert bits(model._dists.rows(4000, 4000)[0]) == bits(walk[3999])
    assert bits(model._dists.rows(1, 5000)) == bits(walk)
    assert model._dists._cycle is None


def test_markov_limsup_to_1e12_reads_the_orbit():
    model = _chain(
        [[0.2, 0.3, 0.5], [0.4, 0.4, 0.2], [0.1, 0.6, 0.3]],
        [1.0, 0.0, 0.0],
        EventSchedule(3, constant=[2]),
    )()
    est = limsup_estimate(model, [10**6, 10**9, 10**12])
    assert all(s.tolerance_reached for s in est.samples)
    # every start lies on the orbit's fixed point, so the enclosures agree
    assert len({(s.partial, s.remainder_bound) for s in est.samples}) == 1
    # no walk went past the first repeat: every far start read the cycle
    start, cycle = model._dists._cycle
    assert model._dists._cursor[0] == start + len(cycle)
    assert len(cycle) <= 256


class _NaNFamily(SequenceFamily):
    def value(self, n: int) -> float:
        return float("nan") if n >= 3 else 0.5

    def limit(self):
        return None

    def describe(self) -> str:
        return "NaN from index 3"


@pytest.mark.parametrize("prefix_len", [0, 2])
def test_nan_family_is_a_numeric_fault_on_both_paths(prefix_len):
    model = IndependentModel(_NaNFamily())
    with pytest.raises(NumericFaultError):
        model.window_prob(first_occurrence(3 - prefix_len, prefix_len))
    with pytest.raises(NumericFaultError):
        model.window_series(prefix_len, 5)
    with pytest.raises(NumericFaultError):
        reference_series(model, prefix_len, 5)
