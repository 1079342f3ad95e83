from __future__ import annotations

import math
from itertools import repeat
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from cantelli import (
    Constant,
    EventSchedule,
    EventSequenceModel,
    ExplicitList,
    GlobalThresholds,
    IndependentModel,
    LatentUniformModel,
    LogPower,
    MarkovModel,
    PerLatentThresholds,
    PowerLaw,
    TailUnionEstimate,
)
from cantelli.limsup import INITIAL_TRUNCATION, _sample
from cantelli.oracle import _binned, _code_type
from cantelli.summation import CompensatedSum, compensated_sum
from cantelli.windows import WindowPattern

REPO = Path(__file__).resolve().parent.parent
SPECS = REPO / "specs"


def reference_powers(bases: np.ndarray, exponent: float) -> np.ndarray:
    """``b ** exponent`` per base through Python's float pow.

    The reference for ``cantelli.families._powers``: the power-law families'
    array path must return exactly these bits, whatever numpy version runs it.
    """
    return np.array(list(map(float.__pow__, bases.tolist(), repeat(exponent))), dtype=float)


def constraints(w: WindowPattern) -> tuple[tuple[int, bool], ...]:
    """(index, must_occur) pairs of a window in increasing index order: bit i of
    its value says whether A_{start+i} occurs."""
    return tuple((w.start + i, bool(w.value >> i & 1)) for i in range(w.width))


def reference_window_prob(model: EventSequenceModel, w: WindowPattern) -> float:
    """The probability of one window, evaluated one constraint at a time.

    The scalar reference for every array query: ``window_series``, the
    scans and their complements must return exactly these bits.  An
    independent window multiplies its factors in index order; a Markov window
    propagates the distribution at its first index through masked steps; a
    latent window multiplies the latents' interval lengths.
    """

    def finish(prob: float) -> float:
        return float(EventSequenceModel._finish_probs(np.array([prob]))[0])

    if isinstance(model, IndependentModel):
        prob = 1.0
        for idx, occur in constraints(w):
            p = model.family.value(idx)
            prob *= p if occur else 1.0 - p
        return finish(prob)
    if isinstance(model, MarkovModel):
        v = model._dists.rows(w.start, w.start)[0]
        prev_idx = None
        for idx, occur in constraints(w):
            if prev_idx is not None:
                for _ in range(idx - prev_idx):
                    v = v @ model._transition
            mask = model.event_mask(idx)
            v = v * mask if occur else v * ~mask
            prev_idx = idx
        return finish(float(v.sum()))
    # per latent, U lies in (lo, hi]: complements raise lo, occurrences lower hi
    lo = [0.0] * model.num_latents
    hi = [1.0] * model.num_latents
    for idx, occur in constraints(w):
        j = model.color(idx)
        a = model.threshold(idx)
        if occur:
            hi[j] = min(hi[j], a)
        else:
            lo[j] = max(lo[j], a)
    prob = 1.0
    for bottom, top in zip(lo, hi):
        prob *= max(0.0, top - bottom)
    return finish(prob)


def reference_tail_union(
    model: EventSequenceModel, n: int, tol: float, k_max: int
) -> TailUnionEstimate:
    """``tail_union`` one start at a time: the doubling loop of a single start.

    The reference for the lockstep levels of ``limsup_estimate``: each of its
    estimates must equal this one at the same start, bit for bit.  The
    truncation doubles from 16 until ``limsup._sample`` finishes the
    estimate; each doubling continues the scan from its carry and the
    running compensated sum.
    """
    running = CompensatedSum()
    end, carry = n, None
    k = min(INITIAL_TRUNCATION, k_max)
    while True:
        [(terms, complements, carry)] = model.first_occurrence_terms([end], n + k - end, [carry])
        end = n + k
        total = compensated_sum(terms, running)
        estimate = _sample(model, n, k, total, float(complements[-1]), tol, k_max)
        if estimate is not None:
            return estimate
        k = min(2 * k, k_max)


def reference_independent_bins(model: IndependentModel, horizon: int) -> np.ndarray:
    """Every indicator pattern's probability, each the product of one row of a
    2^h x h factor matrix.

    The reference for the oracle's independent build: its bins must equal
    these bit for bit, each code's factors multiplied in index order.
    """
    p = np.array([model.family.value(i) for i in range(1, horizon + 1)])
    codes = np.arange(2**horizon)
    indicators = (codes[:, None] >> np.arange(horizon)) & 1 > 0
    return np.where(indicators, p, 1.0 - p).prod(axis=1)


def reference_markov_bins(model: MarkovModel, horizon: int) -> np.ndarray:
    """The bins of all S^h state paths, those of probability 0 included.

    The reference for the oracle's Markov build, which expands only the states
    the chain can occupy: its bins must equal these bit for bit.  Path a has
    its state at time t in the base-S digit (a // S**(horizon - t)) % S, and
    its probability is multiplied left to right in time order.
    """
    s = model.num_states
    code_type = _code_type(horizon)
    probs = model._initial.copy()
    codes = model.event_mask(1).astype(code_type)
    for t in range(2, horizon + 1):
        probs = (probs.reshape(-1, s, 1) * model._transition).reshape(-1)
        codes = (codes[:, None] | model.event_mask(t).astype(code_type) << (t - 1)).reshape(-1)
    return _binned(horizon, codes, probs).probs


def reference_markov_tail_sum(model: MarkovModel, prefix_len: int, n: int) -> float | None:
    """``model.tail_sum(prefix_len, n)`` from the chain's support orbit.

    The supports s_1 = (initial > 0), s_{t+1} = reach[s_t].any(0) are walked,
    with no step cap, to the first that repeats an earlier one: s_{c+p} = s_c.
    The schedule repeats from e with period q, so the column at time j (s_j
    and E_j..E_{j+m}) repeats with period L = lcm(p, q) from h = max(c, e)
    on, and the columns min(n, h)..h + L - 1 hold every column from n on.
    0.0 when no column's support, led through its m complements, meets its
    event set; None otherwise, and for an explicit list with no tail.
    """
    if model._events._period is None:
        return None
    reach = model._transition > 0.0
    supports, first = [model._initial > 0.0], {}
    while supports[-1].tobytes() not in first:
        first[supports[-1].tobytes()] = len(supports)
        supports.append(reach[supports[-1]].any(axis=0))
    c = first[supports[-1].tobytes()]
    p = len(supports) - c
    e, q = model._events._period
    h = max(c, e)
    for j in range(min(n, h), h + math.lcm(p, q)):
        supp = supports[j - 1 if j < c else c - 1 + (j - c) % p]
        for i in range(prefix_len):
            supp = reach[supp & ~model.event_mask(j + i)].any(axis=0)
        if (supp & model.event_mask(j + prefix_len)).any():
            return None
    return 0.0


@st.composite
def any_families(draw, tails=st.none()):
    """A family of each kind: saturated power heads, negative exponents,
    explicit heads with ties and rises, their tails drawn from ``tails`` or
    from the levels the heads take."""
    kind = draw(st.sampled_from(["constant", "powerlaw", "logpower", "explicit"]))
    level = st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)
    if kind == "constant":
        return Constant(draw(level))
    if kind == "explicit":
        head = tuple(draw(st.lists(level, max_size=8)))
        return ExplicitList(head, tail=draw(tails | level))
    scale = draw(st.sampled_from([0.0, 1.0, 2.5]) | st.floats(0.0, 3.0, allow_subnormal=False))
    exponent = draw(st.sampled_from([0.0, 1.0, -1.0]) | st.floats(-2.0, 3.0))
    return (PowerLaw if kind == "powerlaw" else LogPower)(scale, exponent)


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


def make_coin(p: float = 0.5) -> IndependentModel:
    return IndependentModel(Constant(p))


def make_powerlaw(scale: float = 1.0, exponent: float = 2.0) -> IndependentModel:
    return IndependentModel(PowerLaw(scale, exponent))


def make_nested() -> LatentUniformModel:
    return LatentUniformModel(1, [0], GlobalThresholds(PowerLaw(1.0, 1.0)))


def make_interleaved() -> LatentUniformModel:
    return LatentUniformModel(
        2,
        [0, 1],
        PerLatentThresholds((PowerLaw(1.0, 1.0), PowerLaw(1.0, 1.0)), (-1, 0)),
    )


def make_flipflop() -> MarkovModel:
    return MarkovModel(
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        np.array([0.0, 1.0]),
        EventSchedule(2, constant=[0]),
    )


def make_absorbing() -> MarkovModel:
    # active (0) survives with probability 1/2 each step; event: still active
    return MarkovModel(
        np.array([[0.5, 0.5], [0.0, 1.0]]),
        np.array([1.0, 0.0]),
        EventSchedule(2, constant=[0]),
    )


def make_equal_rows(row, initial, members) -> MarkovModel:
    row = np.asarray(row, dtype=float)
    return MarkovModel(
        np.tile(row, (len(row), 1)),
        np.asarray(initial, dtype=float),
        EventSchedule(len(row), constant=members),
    )


def random_stochastic(rng: np.random.Generator, size: int) -> np.ndarray:
    m = rng.random((size, size)) + 0.05
    return m / m.sum(axis=1, keepdims=True)


def random_markov(rng: np.random.Generator, max_states: int = 4) -> MarkovModel:
    s = int(rng.integers(2, max_states + 1))
    init = rng.random(s) + 0.05
    init /= init.sum()
    members = [int(x) for x in rng.choice(s, size=rng.integers(1, s), replace=False)]
    return MarkovModel(random_stochastic(rng, s), init, EventSchedule(s, constant=members))


def random_schedule_chain(rng, s):
    """A chain with some zero transitions and a constant, periodic or explicit schedule."""
    transition = rng.random((s, s)) * (rng.random((s, s)) < 0.8)
    transition[np.arange(s), rng.integers(0, s, size=s)] += 0.1
    transition /= transition.sum(axis=1, keepdims=True)
    initial = rng.random(s) + 0.01
    initial /= initial.sum()
    return MarkovModel(transition, initial, random_schedule(rng, s))


def random_event_set(rng, s):
    return [int(x) for x in np.flatnonzero(rng.random(s) < 0.5)]


def random_schedule(rng, s):
    """A constant, periodic or explicit schedule; an explicit list has a tail."""
    mode = int(rng.integers(3))
    if mode == 0:
        return EventSchedule(s, constant=random_event_set(rng, s))
    if mode == 1:
        return EventSchedule(
            s, cycle=[random_event_set(rng, s) for _ in range(int(rng.integers(1, 4)))]
        )
    return EventSchedule(
        s,
        explicit=[random_event_set(rng, s) for _ in range(int(rng.integers(0, 6)))],
        tail=random_event_set(rng, s),
    )


def sparse_chain(rng, s, initial=None):
    """A chain with zeros in its transition rows and, unless ``initial`` is
    given, in its initial vector: only some states can be occupied at each time."""
    transition = rng.random((s, s)) * (rng.random((s, s)) < 0.5)
    transition[np.arange(s), rng.integers(0, s, size=s)] += 0.1
    transition /= transition.sum(axis=1, keepdims=True)
    if initial is None:
        initial = rng.random(s) * (rng.random(s) < 0.5)
        initial[rng.integers(0, s)] += 0.1
        initial /= initial.sum()
    return MarkovModel(transition, initial, random_schedule(rng, s))


@st.composite
def sparse_markov_models(draw):
    """Chains with zero transitions and a one-state start: supports can run dry."""
    s = draw(st.integers(min_value=2, max_value=3))
    raw = np.array(
        draw(st.lists(st.sampled_from([0.0, 0.0, 0.5, 1.0]), min_size=s * s, max_size=s * s))
    ).reshape(s, s)
    raw[np.arange(s), draw(st.lists(st.integers(0, s - 1), min_size=s, max_size=s))] += 1.0
    init = np.zeros(s)
    init[draw(st.integers(min_value=0, max_value=s - 1))] = 1.0
    members = draw(
        st.lists(st.integers(min_value=0, max_value=s - 1), min_size=1, max_size=s, unique=True)
    )
    transition = raw / raw.sum(axis=1, keepdims=True)
    return MarkovModel(transition, init, EventSchedule(s, constant=members))


def random_independent(rng: np.random.Generator, length: int = 14) -> IndependentModel:
    values = rng.random(length)
    return IndependentModel(ExplicitList(tuple(values), tail=float(rng.random())))


def random_latent(rng: np.random.Generator, length: int = 14) -> LatentUniformModel:
    num = int(rng.integers(1, 4))
    cycle_len = int(rng.integers(1, 5))
    coloring = [int(rng.integers(0, num)) for _ in range(cycle_len)]
    coloring[: num] = list(range(num))[: cycle_len] or [0]
    # make sure every latent appears in the cycle
    for j in range(num):
        if j not in coloring:
            coloring[j % cycle_len] = j
    thresholds = ExplicitList(tuple(rng.random(length)), tail=float(rng.random()))
    return LatentUniformModel(num, coloring, GlobalThresholds(thresholds))


@pytest.fixture
def coin() -> IndependentModel:
    return make_coin()


@pytest.fixture
def nested() -> LatentUniformModel:
    return make_nested()


@pytest.fixture
def interleaved() -> LatentUniformModel:
    return make_interleaved()


@pytest.fixture
def flipflop() -> MarkovModel:
    return make_flipflop()


@pytest.fixture
def absorbing() -> MarkovModel:
    return make_absorbing()
