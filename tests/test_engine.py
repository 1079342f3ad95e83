"""The array query path against the scalar reference, compared exactly.

Every backend's ``window_series`` and scans must return the floats the
per-window loop returns, bit for bit: reports are built from the arrays and
must not change when the engine does.  A chain's ``tail_sum`` must agree with
the per-window emptiness check on every column through one period of its
supports and schedule, and with the support-orbit reference in conftest.
The same holds for ``tail_union``'s doublings against one-shot sums, for
``limsup_estimate``'s lockstep levels and many-start scans against one start
at a time, and for the Markov orbit against a plain walk of distributions.
The per-window loops below are the reference.
"""

import gc
import importlib.util
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
from cantelli import cli, limsup
from cantelli.cli import EXIT_MISMATCH, EXIT_OK, ORACLE_DIFF_TOL, verify_results
from cantelli.families import SequenceIndexError
from cantelli.limsup import INITIAL_TRUNCATION, _sample
from cantelli.models import NumericFaultError
from cantelli.oracle import build_outcome_space
from cantelli.specfile import load_spec, parse_spec
from cantelli.summation import compensated_sum
from cantelli.windows import all_complement, first_occurrence

from conftest import (
    REPO,
    constraints,
    early_repeating_chains,
    make_absorbing,
    make_equal_rows,
    make_flipflop,
    make_interleaved,
    random_schedule_chain,
    reference_markov_tail_sum,
    reference_tail_union,
    reference_window_prob,
    sparse_chain,
    sparse_markov_models,
)

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
    """Row m: ``reference_window_prob`` of the m-window at n = 1..num_terms."""
    return np.array(
        [
            [reference_window_prob(model, first_occurrence(n, m)) for n in range(1, num_terms + 1)]
            for m in range(max_prefix_len + 1)
        ],
        dtype=float,
    )


def plain_support_walk(model, count):
    """Supports at times 1..count, one 0/1 matrix product at a time."""
    reach = (model._transition > 0.0).astype(int)
    rows = [model._initial > 0.0]
    for _ in range(count - 1):
        rows.append(rows[-1].astype(int) @ reach > 0)
    return np.array(rows)


def window_is_empty(model, w, supports=None):
    """True only when the window event is provably empty (probability exactly 0).

    A structural check, one window at a time, never a float-underflow readout:
    a Markov support that the window's masks, walked through the reachable
    states, leave empty; a latent interval (lo, hi] with hi <= lo.  A chain's
    ``supports`` are ``plain_support_walk``'s rows through w.start at least,
    walked here when None.
    """
    pairs = constraints(w)
    if isinstance(model, MarkovModel):
        reach = model._transition > 0.0
        if supports is None:
            supports = plain_support_walk(model, w.start)
        supp = supports[w.start - 1]
        prev_idx = w.start
        for idx, occur in pairs:
            for _ in range(idx - prev_idx):
                supp = reach[supp].any(axis=0)
            mask = model.event_mask(idx)
            supp = supp & mask if occur else supp & ~mask
            prev_idx = idx
        return not supp.any()
    lo = [0.0] * model.num_latents
    hi = [1.0] * model.num_latents
    for idx, occur in pairs:
        j, a = model.color(idx), model.threshold(idx)
        if occur:
            hi[j] = min(hi[j], a)
        else:
            lo[j] = max(lo[j], a)
    return any(top <= bottom for bottom, top in zip(lo, hi))


def assert_markov_tail_sum_agrees(model, prefix_len, n):
    """A chain's ``tail_sum(m, n)`` is 0 exactly where ``window_is_empty``
    holds at n through one joint period L of its supports and schedule past
    the horizon h where both repeat: at n..max(n, h) + L - 1."""
    bound = model.tail_sum(prefix_len, n)
    # 2^S + 1 supports hold a repeat: time c's, first met again at time t
    first = {}
    for t, supp in enumerate(plain_support_walk(model, 2**model.num_states + 1), start=1):
        c = first.setdefault(supp.tobytes(), t)
        if c < t:
            break
    e, q = model._events._period
    columns = range(n, max(n, c, e) + math.lcm(t - c, q))
    supports = plain_support_walk(model, columns[-1])
    empty = all(
        window_is_empty(model, first_occurrence(j, prefix_len), supports) for j in columns
    )
    assert bound == (0.0 if empty else None), (prefix_len, n)


def reference_terms(model, n, count):
    return np.array(
        [reference_window_prob(model, first_occurrence(n, k)) for k in range(count)], dtype=float
    )


def reference_complement(model, n, length):
    return reference_window_prob(model, all_complement(n, length)) if length else 1.0


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
    terms = model.window_series(max_prefix_len, num_terms)
    assert terms.shape == (max_prefix_len + 1, num_terms)
    assert bits(terms) == bits(reference_series(model, max_prefix_len, num_terms))


@settings(max_examples=300, deadline=None)
@given(models, prefix_lens, st.integers(min_value=1, max_value=30), st.integers(0, 30))
def test_empty_series_matches_window_is_empty(model, prefix_len, lo, span):
    # tail_sum(m, lo) is 0 only where window_is_empty holds at every column
    # from lo on; for a chain with a period, exactly where it holds on the
    # columns through one period past the horizon
    bound = model.tail_sum(prefix_len, lo)
    assert bound in (None, 0.0)
    if isinstance(model, IndependentModel) or (
        isinstance(model, MarkovModel) and model._events._period is None
    ):
        assert bound is None
    elif isinstance(model, MarkovModel):
        assert_markov_tail_sum_agrees(model, prefix_len, lo)
    if bound == 0.0:
        # the columns lo..lo + span agree, and their terms are exactly 0
        far = range(lo, lo + span + 1)
        assert all(window_is_empty(model, first_occurrence(n, prefix_len)) for n in far)
        assert not model.window_series(prefix_len, lo + span)[prefix_len, lo - 1 :].any()


@settings(max_examples=100, deadline=None)
@given(early_repeating_chains(), prefix_lens, st.integers(min_value=60, max_value=500))
def test_markov_tiled_series_matches_window_prob(model, max_prefix_len, num_terms):
    # past the pre-period and one (orbit x schedule) period the table is
    # tiled, not evaluated; it must still equal the one-window reference
    terms = model.window_series(max_prefix_len, num_terms)
    assert bits(terms) == bits(reference_series(model, max_prefix_len, num_terms))
    for m in range(max_prefix_len + 1):
        for n in (1, 2, num_terms):
            assert_markov_tail_sum_agrees(model, m, n)


@st.composite
def seeded_chains(draw):
    """A chain of 1-6 states from ``random_schedule_chain`` or ``sparse_chain``."""
    build = draw(st.sampled_from([random_schedule_chain, sparse_chain]))
    return build(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), draw(st.integers(1, 6)))


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(sparse_markov_models(), early_repeating_chains(), seeded_chains()),
    st.lists(st.integers(1, 20) | st.sampled_from([10**3, 10**6, 10**12]), min_size=1, max_size=6),
)
def test_markov_tail_sum_matches_the_support_orbit_reference(model, times):
    for m in range(5):
        for n in times:
            assert model.tail_sum(m, n) == reference_markov_tail_sum(model, m, n), (m, n)


@pytest.mark.parametrize(
    "events",
    [
        EventSchedule(3, constant=[1]),
        EventSchedule(3, cycle=[[0], [1, 2], []]),
        EventSchedule(3, explicit=[[0], [], [2], [1]], tail=[0, 2]),
    ],
)
def test_markov_series_evaluates_one_period(events):
    # a 3-cycle from (3/4, 1/4, 0): the distributions repeat with period 3
    model = MarkovModel(np.roll(np.eye(3), 1, axis=1), [0.75, 0.25, 0.0], events)
    num_terms = 400
    rows, masks, period = model._table_columns(2, num_terms)
    (c, cycle), (e, q) = model._dists._cycle, events._period
    assert len(cycle) == 3 and period == math.lcm(3, q)
    assert len(rows) == max(c, e) - 1 + period < 20 and len(masks) == len(rows) + 2
    terms = model.window_series(2, num_terms)
    assert bits(terms) == bits(reference_series(model, 2, num_terms))


def test_markov_series_that_never_repeats_walks_once():
    eps = 1e-9
    events = EventSchedule(2, cycle=[[0], [1]])
    model = _chain([[1 - eps, eps], [eps, 1 - eps]], [1.0, 0.0], events)()
    steps = []
    step = model._dists._step
    model._dists._step = lambda x: steps.append(x) or step(x)
    terms = model.window_series(2, 3000)
    assert model._dists._cycle is None and len(steps) == 3000 - 1
    model._dists._step = step
    assert bits(terms) == bits(reference_series(model, 2, 3000))


def test_markov_tail_sum_proves_a_long_support_period_empty():
    # rotations of cycles 2, 3, 5, 7, 11, 13 and 17: the supports repeat with
    # period 510510, their product, but the (schedule row, state) graph that
    # tail_sum walks has only 58 pairs
    sizes = (2, 3, 5, 7, 11, 13, 17)
    transition, initial, at = np.zeros((sum(sizes), sum(sizes))), np.zeros(sum(sizes)), 0
    for size in sizes:
        for i in range(size):
            transition[at + i, at + (i + 1) % size] = 1.0
        initial[at] = 1.0 / len(sizes)
        at += size
    for members, bound in (([], 0.0), ([57], None)):
        model = MarkovModel(transition, initial, EventSchedule(sum(sizes), constant=members))
        assert model.tail_sum(1, 1) == bound
        assert model.tail_sum(3, 10**12) == bound


def test_markov_series_past_an_untailed_schedule_raises():
    # the chain repeats from time 2, but an explicit list with no tail has no period
    events = EventSchedule(2, explicit=[[0], [1], []])
    model = MarkovModel([[0.5, 0.5], [0.5, 0.5]], [1.0, 0.0], events)
    terms = model.window_series(1, 2)
    assert bits(terms) == bits(reference_series(model, 1, 2))
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
    [(terms, complements, _)] = model.first_occurrence_terms([n], count)
    assert np.array_equal(terms, reference_terms(model, n, count))
    expected = [reference_complement(model, n, length) for length in range(1, count + 1)]
    assert bits(complements) == bits(expected)


@settings(max_examples=300, deadline=None)
@given(
    models,
    st.integers(min_value=1, max_value=30),
    st.lists(st.integers(min_value=0, max_value=12), max_size=5),
)
def test_scan_in_chunks_matches_window_prob(model, n, chunks):
    # each chunk passes its carry to the next, and a chunk of 0 passes it on
    # as is
    total = sum(chunks)
    end, carry, terms, complements = n, None, [np.empty(0)], [np.empty(0)]
    for count in chunks:
        [(chunk_terms, chunk_complements, carry)] = model.first_occurrence_terms(
            [end], count, [carry]
        )
        terms.append(chunk_terms)
        complements.append(chunk_complements)
        end += count
    terms, complements = np.concatenate(terms), np.concatenate(complements)
    [(one_terms, one_complements, _)] = model.first_occurrence_terms([n], total)
    assert bits(terms) == bits(one_terms) == bits(reference_terms(model, n, total))
    # the complement after every index of every chunk, not only its last
    expected = [reference_complement(model, n, length) for length in range(1, total + 1)]
    assert bits(complements) == bits(one_complements) == bits(expected)


def reference_verify_results(model, horizon):
    """``verify_results`` one row at a time: a scan from each start stepped one
    index at a time, each oracle answer the sum of the bins under a mask over
    every code, and a dict for every row.

    The all-complement answers are ``reference_window_prob``'s, which the
    scans' complements return bit for bit (see the scan tests above), so the
    reference reads nothing of the scans' complements.
    """
    space = build_outcome_space(model, horizon)
    codes = np.arange(2**horizon)

    def window_oracle(w):
        span = ones = 0
        for idx, occur in constraints(w):
            span |= 1 << (idx - 1)
            ones |= int(occur) << (idx - 1)
        return float(space.probs[codes & span == ones].sum())

    def union_oracle(n, span):
        field = ((1 << (span + 1)) - 1) << (n - 1)
        return float(space.probs[codes & field != 0].sum())

    series = [model.window_series(m, horizon - m)[m] for m in range(horizon)]
    rows = []
    max_diff = 0.0
    for n in range(1, horizon + 1):
        for m in range(0, horizon - n + 1):
            w, engine = first_occurrence(n, m), float(series[m][n - 1])
            rows.append(("window", n, m, "prefix-complement", engine, window_oracle(w)))
        carry, terms = None, []
        for m in range(1, horizon - n + 2):
            [(term, _, carry)] = model.first_occurrence_terms([n + m - 1], 1, [carry])
            terms.append(term)
            engine = reference_complement(model, n, m)
            rows.append(("all-complement", n, m, "", engine, window_oracle(all_complement(n, m))))
        terms = np.concatenate(terms)
        for span in range(0, horizon - n + 1):
            engine = float(min(1.0, max(0.0, compensated_sum(terms[: span + 1]))))
            rows.append(("union", n, span, "", engine, union_oracle(n, span)))
    checks = []
    mismatches = 0
    for kind, n, m, orient, engine, oracle in rows:
        diff = abs(engine - oracle)
        max_diff = max(max_diff, diff)
        bad = diff > ORACLE_DIFF_TOL
        mismatches += bad
        checks.append(
            {
                "kind": kind,
                "n": n,
                "m": m,
                "orientation": orient,
                "engine": engine,
                "oracle": oracle,
                "diff": diff,
                "mismatch": bool(bad),
            }
        )
    return {
        "horizon": horizon,
        "checks_run": len(checks),
        "max_diff": max_diff,
        "mismatches": mismatches,
        "worst": sorted(checks, key=lambda c: -c["diff"])[:10],
    }, EXIT_MISMATCH if max_diff > ORACLE_DIFF_TOL else EXIT_OK


@pytest.mark.parametrize(
    "name, horizon",
    [(path.stem, None) for path in sorted((REPO / "specs").glob("*.json"))]
    + [("markov-3state", 12), ("interleaved-nested", 14), ("powerlaw-2", 14)],
)
def test_verify_matches_the_stepped_reference(name, horizon):
    # every shipped spec at its default horizon, and the benchmark's horizons
    spec = load_spec(REPO / "specs" / f"{name}.json")
    horizon = horizon or spec.defaults.horizon
    assert verify_results(spec.model, horizon) == reference_verify_results(spec.model, horizon)
    # the report holds ten rows, so hold every prefix-window answer to the table
    series = [spec.model.window_series(m, horizon - m)[m] for m in range(horizon)]
    for n in range(1, horizon + 1):
        terms = spec.model.first_occurrence_terms([n], horizon - n + 1)[0][0]
        for m in range(horizon - n + 1):
            assert bits(terms[m]) == bits(series[m][n - 1]), (n, m)


@pytest.mark.parametrize("name", [path.stem for path in sorted((REPO / "specs").glob("*.json"))])
def test_verify_union_rows_are_tail_union_partial_sums(name, monkeypatch):
    # verify's oracle check of the union rows covers limsup's summation: each
    # row equals tail_union's partial sum at truncation span + 1, bit for bit.
    # With that sum as the union oracle, and window oracles that rank below
    # every number (NaN), the worst row is the union row farthest from it.
    spec = load_spec(REPO / "specs" / f"{name}.json")
    model = spec.model

    def partial(space, n, span):
        return tail_union(model, n, tol=1e-300, k_max=span + 1).partial

    monkeypatch.setattr(cli, "oracle_union_prob", partial)
    monkeypatch.setattr(cli, "oracle_window_prob", lambda space, w: math.nan)
    worst = verify_results(model, spec.defaults.horizon)[0]["worst"]
    assert [row["kind"] for row in worst] == ["union"] * 10
    assert worst[0]["diff"] == 0.0, worst[0]


@settings(max_examples=100, deadline=None)
@given(models, st.integers(min_value=1, max_value=8))
def test_verify_on_random_models_matches_the_stepped_reference(model, horizon):
    try:
        expected = reference_verify_results(model, horizon)
    except (ValueError, ArithmeticError) as exc:
        # past the oracle's caps, or a threshold out of range: the same error
        with pytest.raises(type(exc)):
            verify_results(model, horizon)
        return
    assert verify_results(model, horizon) == expected


def one_shot_tail_union(model, n, tol, k_max):
    """``tail_union``'s doubling loop, each sum and remainder taken afresh."""
    k = min(INITIAL_TRUNCATION, k_max)
    while True:
        total = compensated_sum(reference_terms(model, n, k))
        est = _sample(model, n, k, total, reference_complement(model, n, k), tol, k_max)
        if est is not None:
            return (
                est.truncation,
                bits(est.partial),
                bits(est.remainder_bound),
                est.union_tail_bound,
                est.union_tail_lower,
                est.window_tail_m,
                est.tolerance_reached,
            )
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
        est.union_tail_lower,
        est.window_tail_m,
        est.tolerance_reached,
    )
    assert got == one_shot_tail_union(model, n, tol, k_max)


@st.composite
def scan_calls(draw):
    """(starts, count, carry kinds) of a many-start scan.

    Each start follows the one drawn before it: at the same index (its range
    nested in that one), overlapping it, adjacent to it, or far past it.  Or
    the starts are n, n + L and n + 7L, for L a multiple of 6, and 10**5 + j
    for a few j.  For most draws of ``early_repeating_chains`` the orbit and
    the schedule repeat with a joint period that divides 6, so past its
    beginning these starts, and the far ones of equal j mod 6, have one
    phase and one first distribution: their Markov scans are shared.  Then
    the starts are shuffled.  A start begins afresh (None) or goes on from a
    scan of the indices before it ("continued").
    """
    count = draw(st.integers(min_value=1, max_value=20))
    if draw(st.booleans()):
        period = 6 * draw(st.integers(min_value=1, max_value=3))
        n = draw(st.integers(min_value=1, max_value=1200))
        far = draw(st.lists(st.integers(min_value=0, max_value=13), min_size=2, max_size=4))
        starts = [n, n + period, n + 7 * period] + [10**5 + j for j in far]
    else:
        starts = [draw(st.integers(min_value=1, max_value=30))]
        for _ in range(draw(st.integers(min_value=0, max_value=4))):
            gap = draw(
                st.sampled_from([0, count])
                | st.integers(min_value=1, max_value=count)
                | st.integers(min_value=count + 1, max_value=count + 2000)
            )
            starts.append(starts[-1] + gap)
    starts = draw(st.permutations(starts))
    kinds = [
        draw(st.sampled_from([None, "continued"]) if n > 1 else st.none())
        for n in starts
    ]
    return starts, count, kinds


def scan_carry(model, n, kind):
    """The carry a scan from n begins with: None, or the state after n - 1."""
    if kind == "continued":
        before = min(n - 1, 5)
        return model.first_occurrence_terms([n - before], before)[0][2]
    return None


@settings(max_examples=200, deadline=None)
@given(models | early_repeating_chains(), scan_calls())
# x_n is one fixed point from n = 3 on, and E_n alternates: 10**5 and
# 10**5 + 1 start from equal distributions in different phases
@example(
    MarkovModel(
        [[0.0, 0.5, 0.5], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]],
        [1.0, 0.0, 0.0],
        EventSchedule(3, cycle=[[2], [1]]),
    ),
    ([10**5 + 1, 10**5, 10**5 + 2, 10**5 + 3], 5, [None, None, None, "continued"]),
)
def test_many_start_scan_equals_one_start_scans(model, call):
    # the starts share one evaluation of each merged run's inputs; each scan
    # must still be the one its start gives alone: terms, complements, carry
    starts, count, kinds = call
    carries = [scan_carry(model, n, kind) for n, kind in zip(starts, kinds)]
    many = model.first_occurrence_terms(starts, count, carries if any(kinds) else None)
    assert len(many) == len(starts)
    for n, carry, (terms, complements, after) in zip(starts, carries, many):
        [(one_terms, one_complements, one_after)] = model.first_occurrence_terms(
            [n], count, [carry]
        )
        assert bits(terms) == bits(one_terms), n
        assert bits(complements) == bits(one_complements), n
        assert bits(after) == bits(one_after), n


def test_markov_shared_scans_are_each_starts_own_arrays():
    # 10**5, 10**5 + 6 and 10**6 have one phase and one first distribution,
    # so one scan serves them; writing into one start's arrays leaves the
    # other starts' arrays as they were
    model = load_spec(REPO / "specs" / "markov-3state.json").model
    starts = [10**6, 10**5, 10**5 + 6]
    for written in range(len(starts)):
        scans = model.first_occurrence_terms(starts, 8)
        kept = [[bits(x) for x in scan] for scan in scans]
        assert kept[1] == kept[0] == kept[2]
        for x in scans[written]:
            x[...] = -1.0
        for i, scan in enumerate(scans):
            if i != written:
                assert [bits(x) for x in scan] == kept[i], (written, i)


def estimate_bits(est):
    """Every field of a ``TailUnionEstimate``, its floats as their bytes."""
    tail = None if est.union_tail_bound is None else bits(est.union_tail_bound)
    lower = None if est.union_tail_lower is None else bits(est.union_tail_lower)
    return (
        est.start,
        est.truncation,
        bits(est.partial),
        bits(est.remainder_bound),
        tail,
        lower,
        est.tolerance_reached,
        est.window_tail_bound,
        est.window_tail_m,
        bits(est.interval),
    )


@st.composite
def schedules(draw):
    """Increasing starts whose doublings overlap, touch or lie far apart."""
    starts = [draw(st.integers(min_value=1, max_value=30))]
    for _ in range(draw(st.integers(min_value=2, max_value=4))):
        gap = draw(
            st.integers(min_value=1, max_value=40)
            | st.sampled_from([16, 32])
            | st.integers(min_value=500, max_value=3000)
        )
        starts.append(starts[-1] + gap)
    return starts


@settings(max_examples=150, deadline=None)
@given(
    models,
    schedules(),
    st.sampled_from([1e-2, 1e-6, 1e-12]),
    st.sampled_from([1, 2, 16, 17, 32, 64, 100, 128]),
    st.sampled_from([limsup._SCAN_CHUNK, 1, 5, 16]),
)
def test_limsup_levels_equal_the_one_start_reference(model, schedule, tol, k_max, chunk):
    # a level scans its starts a chunk at a time; small chunks split levels
    with mock.patch.object(limsup, "_SCAN_CHUNK", chunk):
        est = limsup_estimate(model, schedule, tol=tol, k_max=k_max)
    expected = [reference_tail_union(model, n, tol, k_max) for n in schedule]
    assert [estimate_bits(s) for s in est.samples] == [estimate_bits(s) for s in expected]


def test_markov_far_limsup_equals_tail_union_at_each_start():
    # the benchmark's far Markov schedule: its starts share every level's scan
    spec, schedule = REPO / "specs" / "markov-3state.json", [10**5, 5 * 10**5, 10**6]
    est = limsup_estimate(load_spec(spec).model, schedule)
    expected = [tail_union(load_spec(spec).model, n) for n in schedule]
    assert [estimate_bits(s) for s in est.samples] == [estimate_bits(s) for s in expected]


@settings(max_examples=40, deadline=None)
@given(markov_models(), prefix_lens, st.integers(min_value=1, max_value=30))
def test_markov_series_independent_of_query_order(model, max_prefix_len, num_terms):
    # a walked cursor, a found cycle and a far read must not change any value
    expected = reference_series(model, max_prefix_len, num_terms)
    model.window_series(0, 3 * num_terms)
    reference_window_prob(model, first_occurrence(5 * num_terms, 1))
    assert bits(model.window_series(max_prefix_len, num_terms)) == bits(expected)
    assert bits(reference_series(model, max_prefix_len, num_terms)) == bits(expected)


def test_markov_far_start_keeps_no_block():
    chain = MarkovModel(
        np.array([[0.5, 0.5], [0.25, 0.75]]), np.array([1.0, 0.0]), EventSchedule(2, constant=[0])
    )
    far = reference_window_prob(chain, first_occurrence(200_000, 2))
    # the walk stopped at its first repeat, and far times read a short stored cycle
    t, v = chain._dists._cursor
    start, cycle = chain._dists._cycle
    assert t == start + len(cycle) and bits(v) == bits(cycle[0])
    assert len(cycle) <= 256
    # going back restarts from time 1, and forward again reproduces the value
    near = first_occurrence(3, 1)
    assert reference_window_prob(chain, near) == reference_window_prob(chain, near)
    assert chain._dists._cursor[0] == 3
    assert reference_window_prob(chain, first_occurrence(200_000, 2)) == far


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


@pytest.mark.parametrize("name", ORBIT_CHAINS)
@pytest.mark.parametrize("which", ["_dists"])
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
        reference_window_prob(model, first_occurrence(3 - prefix_len, prefix_len))
    with pytest.raises(NumericFaultError):
        model.window_series(prefix_len, 5)
    with pytest.raises(NumericFaultError):
        reference_series(model, prefix_len, 5)


def _engine_answers(model):
    """The table, the scans and the sampled blocks of ``model``."""
    answers = [model.window_series(3, 20)]
    for terms, complements, _ in model.first_occurrence_terms([1, 4, 9], 12):
        answers += [terms, complements]
    rngs = [np.random.default_rng(seed) for seed in (3, 4)]
    return answers + model.sample_indicator_block(rngs, [(1, 6), (4, 11), (15, 17)], 64)


def _raise(*args, **kwargs):
    raise AssertionError("read outside its input path")


def test_engines_read_inputs_only_through_inputs_and_the_oracle_never(monkeypatch):
    # the engines and the oracle share no input rule, so a fault in one rule
    # cannot move both sides of verify together.  One model per backend:
    # per-latent negative offsets, an explicit schedule with a tail, a power law
    chain = MarkovModel(
        [[0.5, 0.5, 0.0], [0.25, 0.25, 0.5], [0.0, 0.5, 0.5]],
        [1.0, 0.0, 0.0],
        EventSchedule(3, explicit=[[0], [1, 2], [], [0, 2]], tail=[1]),
    )
    models = [make_interleaved(), chain, IndependentModel(PowerLaw(1.0, 2.0))]
    expected = [_engine_answers(model) for model in models]
    scalar_rules = [
        (PowerLaw, "value"),
        (EventSchedule, "mask"),
        (MarkovModel, "event_mask"),
        (LatentUniformModel, "color"),
        (LatentUniformModel, "position"),
        (LatentUniformModel, "threshold"),
    ]
    with monkeypatch.context() as patch:
        for cls, name in scalar_rules:
            patch.setattr(cls, name, _raise)
        for model, answers in zip(models, expected):
            for got, want in zip(_engine_answers(model), answers, strict=True):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
    with monkeypatch.context() as patch:
        for cls in (IndependentModel, MarkovModel, LatentUniformModel):
            patch.setattr(cls, "_inputs", _raise)
        for model in models:
            assert build_outcome_space(model, 8).probs.shape == (2**8,)


def test_inputs_at_the_top_of_the_index_range_match_the_scalar_rules():
    # index arrays that reach 2**63 - 1 stay int64 and hold every index
    lo, hi = (1 << 63) - 4, (1 << 63) - 1
    schedule = EventSchedule(2, cycle=[[0], [1], []])
    masks = schedule.masks(lo, hi)
    assert [row.tolist() for row in masks] == [schedule.mask(n).tolist() for n in range(lo, hi + 1)]
    model = make_interleaved()
    colors, thresholds = model._inputs(lo, hi)
    assert colors.tolist() == [model.color(n) for n in range(lo, hi + 1)]
    assert thresholds.tolist() == [model.threshold(n) for n in range(lo, hi + 1)]
    # a chain's orbit fills far rows from its cycle
    orbit = make_flipflop()._dists
    assert bits(orbit.rows(lo, hi)) == bits([orbit.rows(n, n)[0] for n in range(lo, hi + 1)])
