"""Model invariants as property tests against the enumeration oracle."""

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
    oracle_union_prob,
    oracle_window_prob,
)
from cantelli.windows import Orientation, Terminal, WindowPattern, all_complement

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
    start = draw(st.integers(min_value=1, max_value=HORIZON - 1))
    terminal = draw(st.sampled_from(list(Terminal)))
    min_len = 1 if terminal is Terminal.ALL_COMPLEMENT else 0
    span = HORIZON - start
    prefix = draw(st.integers(min_value=min_len, max_value=max(min_len, span)))
    orientation = draw(st.sampled_from(list(Orientation)))
    return WindowPattern(start, prefix, terminal, orientation)


@settings(max_examples=60, deadline=None)
@given(model=any_model, w=windows_within_horizon())
def test_window_prob_in_unit_interval_and_matches_oracle(model, w):
    p = model.window_prob(w)
    assert 0.0 <= p <= 1.0
    if w.last_index <= HORIZON:
        space = build_outcome_space(model, HORIZON)
        assert p == pytest.approx(oracle_window_prob(space, w), abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(model=any_model, n=st.integers(min_value=1, max_value=3),
       length=st.integers(min_value=1, max_value=5))
def test_partition_identity(model, n, length):
    total = float(model.first_occurrence_terms(n, length).sum())
    total += model.window_prob(all_complement(n, length))
    assert total == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(model=any_model, n=st.integers(min_value=1, max_value=3),
       span=st.integers(min_value=0, max_value=5))
def test_truncated_union_matches_oracle(model, n, span):
    partial = float(model.first_occurrence_terms(n, span + 1).sum())
    space = build_outcome_space(model, HORIZON)
    assert partial == pytest.approx(oracle_union_prob(space, n, span), abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(model=any_model, n=st.integers(min_value=1, max_value=3),
       m=st.integers(min_value=1, max_value=4))
def test_domination_chain(model, n, m):
    from cantelli.windows import first_occurrence

    values = [model.window_prob(first_occurrence(n + j, m - j)) for j in range(m + 1)]
    for shorter, longer in zip(values[1:], values):
        assert longer <= shorter + 1e-12


@settings(max_examples=30, deadline=None)
@given(model=any_model, w=windows_within_horizon())
def test_emptiness_claims_are_sound(model, w):
    if model.window_is_empty(w):
        assert model.window_prob(w) == 0.0


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
        bound = model.union_bound(n)
        if bound is not None:
            exact = oracle_union_prob(space, n, UNION_HORIZON - n)
            assert bound >= exact - 1e-12, (n, bound, exact)
