"""Model invariants as property tests against the enumeration oracle."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cantelli import (
    EventSchedule,
    ExplicitList,
    GlobalThresholds,
    IndependentModel,
    LatentUniformModel,
    MarkovModel,
    PerLatentThresholds,
    PowerLaw,
    build_outcome_space,
    limsup_estimate,
    oracle_union_prob,
    oracle_window_prob,
)
from cantelli.windows import WindowPattern, all_complement, first_occurrence

from conftest import (
    any_families,
    early_repeating_chains,
    reference_window_prob,
    sparse_markov_models,
)

HORIZON = 8

probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False)


@st.composite
def independent_models(draw):
    values = draw(st.lists(probs, min_size=HORIZON, max_size=HORIZON))
    return IndependentModel(ExplicitList(tuple(values), tail=draw(probs)))


@st.composite
def markov_models(draw):
    s = draw(st.integers(min_value=2, max_value=3))
    raw = draw(
        st.lists(
            st.lists(
                st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
                min_size=s,
                max_size=s,
            ),
            min_size=s,
            max_size=s,
        )
    )
    t = np.array(raw)
    t /= t.sum(axis=1, keepdims=True)
    raw_init = draw(
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=s, max_size=s)
    )
    init = np.array(raw_init)
    init /= init.sum()
    members = draw(
        st.lists(st.integers(min_value=0, max_value=s - 1), min_size=1, max_size=s, unique=True)
    )
    return MarkovModel(t, init, EventSchedule(s, constant=members))


@st.composite
def latent_models(draw):
    num = draw(st.integers(min_value=1, max_value=3))
    cycle = list(range(num)) + draw(
        st.lists(st.integers(min_value=0, max_value=num - 1), max_size=3)
    )
    values = draw(st.lists(probs, min_size=HORIZON, max_size=HORIZON))
    return LatentUniformModel(
        num, cycle, GlobalThresholds(ExplicitList(tuple(values), tail=draw(probs)))
    )


any_model = st.one_of(independent_models(), markov_models(), latent_models())


@st.composite
def windows_within_horizon(draw):
    """Any field of indicator bits inside the horizon, with any of its values."""
    start = draw(st.integers(min_value=1, max_value=HORIZON))
    width = draw(st.integers(min_value=1, max_value=HORIZON - start + 1))
    return WindowPattern(start, width, draw(st.integers(min_value=0, max_value=2**width - 1)))


@settings(max_examples=60, deadline=None)
@given(model=any_model, w=windows_within_horizon())
def test_window_prob_in_unit_interval_and_matches_oracle(model, w):
    p = reference_window_prob(model, w)
    assert 0.0 <= p <= 1.0
    if w.start + w.width - 1 <= HORIZON:
        space = build_outcome_space(model, HORIZON)
        assert p == pytest.approx(oracle_window_prob(space, w), abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(model=any_model, n=st.integers(min_value=1, max_value=3),
       length=st.integers(min_value=1, max_value=5))
def test_partition_identity(model, n, length):
    total = float(model.first_occurrence_terms([n], length)[0][0].sum())
    total += reference_window_prob(model, all_complement(n, length))
    assert total == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(model=any_model, n=st.integers(min_value=1, max_value=3),
       span=st.integers(min_value=0, max_value=5))
def test_truncated_union_matches_oracle(model, n, span):
    partial = float(model.first_occurrence_terms([n], span + 1)[0][0].sum())
    space = build_outcome_space(model, HORIZON)
    assert partial == pytest.approx(oracle_union_prob(space, n, span), abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(model=any_model, n=st.integers(min_value=1, max_value=3),
       m=st.integers(min_value=1, max_value=4))
def test_domination_chain(model, n, m):
    values = [reference_window_prob(model, first_occurrence(n + j, m - j)) for j in range(m + 1)]
    for shorter, longer in zip(values[1:], values):
        assert longer <= shorter + 1e-12


@settings(max_examples=60, deadline=None)
@given(model=st.one_of(any_model, sparse_markov_models()))
def test_emptiness_claims_are_sound(model):
    # every m-window within the horizon that tail_sum proves empty has
    # probability exactly 0 in the enumerated outcome space
    space = build_outcome_space(model, HORIZON)
    for m in range(HORIZON):
        for n in range(1, HORIZON - m + 1):
            if model.tail_sum(m, n) == 0.0:
                assert oracle_window_prob(space, first_occurrence(n, m)) == 0.0, (m, n)


UNION_HORIZON = 10


@st.composite
def bounded_families(draw, offset_min):
    """(family, offset): a family whose tail sum bound is finite.

    An explicit list is undefined at indices below 1, so its offset is at
    least 0; a power law saturates there and takes offsets from ``offset_min``.
    """
    if draw(st.booleans()):
        scales = st.floats(min_value=0.0, max_value=2.0, allow_subnormal=False)
        scale = draw(st.sampled_from([0.0, 1.0]) | scales)
        exponent = draw(st.floats(min_value=1.0, max_value=4.0, exclude_min=True))
        return PowerLaw(scale, exponent), draw(st.integers(min_value=offset_min, max_value=3))
    head = draw(st.lists(probs, max_size=UNION_HORIZON + 2))
    return ExplicitList(tuple(head), tail=0.0), draw(st.integers(min_value=0, max_value=3))


@st.composite
def union_bounded_models(draw):
    kind = draw(st.sampled_from(["independent", "global", "per-latent"]))
    if kind == "independent":
        return IndependentModel(draw(bounded_families(0))[0])
    num = draw(st.integers(min_value=1, max_value=3))
    cycle = list(range(num)) + draw(
        st.lists(st.integers(min_value=0, max_value=num - 1), max_size=3)
    )
    if kind == "global":
        return LatentUniformModel(num, cycle, GlobalThresholds(draw(bounded_families(0))[0]))
    drawn = [draw(bounded_families(-5)) for _ in range(num)]
    families, offsets = zip(*drawn)
    return LatentUniformModel(num, cycle, PerLatentThresholds(families, offsets))


@settings(max_examples=150, deadline=None)
@given(model=union_bounded_models())
def test_union_bound_is_sound(model):
    space = build_outcome_space(model, UNION_HORIZON)
    for n in range(1, UNION_HORIZON + 1):
        # a scan that has not begun leaves all of u_n
        bounds = model.remainder_bounds(n, 1.0)
        if bounds is not None:
            exact = oracle_union_prob(space, n, UNION_HORIZON - n)
            assert bounds[1] >= exact - 1e-12, (n, bounds, exact)


TAIL_HORIZON = 12


@st.composite
def threshold_families(draw, offset_min):
    """(family, offset) of any kind, monotone from some index or never.

    An explicit list is undefined below index 1, so its offset is at least 0.
    """
    family = draw(any_families(tails=st.nothing()))
    low = 0 if isinstance(family, ExplicitList) else offset_min
    return family, draw(st.integers(min_value=low, max_value=3))


@st.composite
def tail_models(draw):
    """Latent models on global or per-latent thresholds, with colorings whose
    gaps reach up to 6."""
    num = draw(st.integers(min_value=1, max_value=3))
    cycle = draw(st.permutations(list(range(num)) + draw(
        st.lists(st.integers(min_value=0, max_value=num - 1), max_size=3)
    )))
    if draw(st.booleans()):
        return LatentUniformModel(num, cycle, GlobalThresholds(draw(threshold_families(0))[0]))
    families, offsets = zip(*(draw(threshold_families(-5)) for _ in range(num)))
    return LatentUniformModel(num, cycle, PerLatentThresholds(families, offsets))


@settings(max_examples=200, deadline=None)
@given(model=st.one_of(tail_models(), early_repeating_chains()))
def test_window_tails_certified_zero_are_empty_for_the_oracle(model):
    # tail_sum(m, n) = 0 claims every m-window from n on is empty, not just
    # the evaluated ones: each within the horizon has probability exactly 0
    space = build_outcome_space(model, TAIL_HORIZON)
    for m in range(TAIL_HORIZON):
        last = TAIL_HORIZON - m
        first = next((n for n in range(1, last + 1) if model.tail_sum(m, n) == 0.0), None)
        if first is not None:
            assert all(model.tail_sum(m, n) == 0.0 for n in range(first, last + 1))
            for n in range(first, last + 1):
                assert oracle_window_prob(space, first_occurrence(n, m)) == 0.0, (m, n)


@settings(max_examples=100, deadline=None)
@given(
    model=st.one_of(tail_models(), independent_models(), markov_models()),
    n=st.integers(min_value=1, max_value=6),
    k_max=st.sampled_from([1, 2, 4, 16, 64]),
)
def test_limsup_upper_ends_hold_the_truncated_union(model, n, k_max):
    # u_n >= P(A_n or ... or A_h) for every h; a padded interval holds it
    # strictly, a Markov one within rounding (its ends are not padded yet)
    space = build_outcome_space(model, HORIZON)
    est = limsup_estimate(model, [n, n + 1, n + 2], tol=1e-6, k_max=k_max)
    for s in est.samples:
        # u_n <= 1, where the oracle's rounded sum may land one ulp past it
        union = min(oracle_union_prob(space, s.start, HORIZON - s.start), 1.0)
        slack = 1e-12 if isinstance(model, MarkovModel) else 0.0
        assert s.interval[1] >= union - slack, (s, union)
        if s.window_tail_bound == 0.0 and s.start + s.truncation - 1 <= HORIZON:
            union = min(oracle_union_prob(space, s.start, s.truncation - 1), 1.0)
            assert s.interval[0] <= union <= s.interval[1], (s, union)


@settings(max_examples=200, deadline=None)
@given(
    head=st.lists(st.sampled_from([0.0, 0.5, 1.0]) | probs, max_size=12),
    n=st.integers(min_value=1, max_value=8),
    tol=st.sampled_from([1e-2, 1e-6, 1e-300]),
    k_max=st.sampled_from([1, 2, 4, 16, 64]),
)
def test_independent_limsup_intervals_hold_the_exact_value(head, n, tol, k_max):
    # past a zero tail the union is a finite product: u_n = 1 - prod_{j>=n} (1 - p_j)
    model = IndependentModel(ExplicitList(tuple(head), tail=0.0))
    est = limsup_estimate(model, [n, n + 1, n + 2], tol=tol, k_max=k_max)
    for s in est.samples:
        survive = Fraction(1)
        for p in head[s.start - 1 :]:
            survive *= 1 - Fraction(p)
        lo, hi = s.interval
        assert Fraction(lo) <= 1 - survive <= Fraction(hi), (s, head)
