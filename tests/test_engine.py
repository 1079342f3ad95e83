"""The array query path against the scalar reference, compared exactly.

Every backend's ``window_series``/``empty_series`` and scans must return the
floats the per-window loop returns, bit for bit: reports are built from the
arrays and must not change when the engine does.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    SequenceFamily,
)
from cantelli.families import SequenceIndexError
from cantelli.models import NumericFaultError
from cantelli.windows import Orientation, SeriesKind, first_occurrence

probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
scales = st.floats(min_value=0.0, max_value=3.0, allow_nan=False)
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
kinds = st.builds(
    SeriesKind, st.integers(min_value=0, max_value=4), st.sampled_from(list(Orientation))
)


def reference_series(model, kind, num_terms):
    return EventSequenceModel.window_series(model, kind, num_terms)


def reference_empty(model, kind, lo, hi):
    return EventSequenceModel.empty_series(model, kind, lo, hi)


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


@settings(max_examples=50, deadline=None)
@given(power_families, st.integers(min_value=1, max_value=10**9))
def test_power_family_values_match_value_far_out(fam, lo):
    expected = np.array([fam.value(n) for n in range(lo, lo + 50)])
    assert np.array_equal(fam.values(lo, lo + 49), expected)


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
@given(models, kinds, st.integers(min_value=1, max_value=40))
def test_window_series_matches_window_prob(model, kind, num_terms):
    expected = reference_series(model, kind, num_terms)
    assert np.array_equal(model.window_series(kind, num_terms), expected)


@settings(max_examples=300, deadline=None)
@given(models, kinds, st.integers(min_value=1, max_value=30), st.integers(0, 30))
def test_empty_series_matches_window_is_empty(model, kind, lo, span):
    expected = reference_empty(model, kind, lo, lo + span)
    got = model.empty_series(kind, lo, lo + span)
    assert got.dtype == bool
    assert np.array_equal(got, expected)


@settings(max_examples=200, deadline=None)
@given(models, st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=25))
def test_scans_match_window_prob(model, n, count):
    # the base-class scans are the per-window loops over window_prob
    expected = EventSequenceModel.first_occurrence_terms(model, n, count)
    assert np.array_equal(model.first_occurrence_terms(n, count), expected)
    expected = EventSequenceModel.all_complement_prob(model, n, count)
    assert model.all_complement_prob(n, count) == expected


@settings(max_examples=40, deadline=None)
@given(markov_models(), kinds, st.integers(min_value=1, max_value=30))
def test_markov_series_independent_of_query_order(model, kind, num_terms):
    # a grown distribution block and a far cursor must not change any value
    expected = reference_series(model, kind, num_terms)
    model.window_series(SeriesKind(0), 3 * num_terms)
    model.window_prob(first_occurrence(5 * num_terms, 1))
    assert np.array_equal(model.window_series(kind, num_terms), expected)
    assert np.array_equal(reference_series(model, kind, num_terms), expected)


def test_markov_far_start_keeps_no_block():
    chain = MarkovModel(
        np.array([[0.5, 0.5], [0.25, 0.75]]), np.array([1.0, 0.0]), EventSchedule(2, constant=[0])
    )
    far = chain.window_prob(first_occurrence(200_000, 2))
    assert chain._block.shape == (1, 2)
    assert chain._cursor[0] == 200_000
    # going back restarts from the block, and forward again reproduces the value
    assert chain.window_prob(first_occurrence(3, 1)) == chain.window_prob(first_occurrence(3, 1))
    assert chain.window_prob(first_occurrence(200_000, 2)) == far


class _NaNFamily(SequenceFamily):
    def value(self, n: int) -> float:
        return float("nan") if n >= 3 else 0.5

    def limit(self):
        return None

    def describe(self) -> str:
        return "NaN from index 3"


@pytest.mark.parametrize("kind", [SeriesKind(0), SeriesKind(2, Orientation.SUFFIX_COMPLEMENT)])
def test_nan_family_is_a_numeric_fault_on_both_paths(kind):
    model = IndependentModel(_NaNFamily())
    with pytest.raises(NumericFaultError):
        model.window_prob(kind.window(3))
    with pytest.raises(NumericFaultError):
        model.window_series(kind, 5)
    with pytest.raises(NumericFaultError):
        reference_series(model, kind, 5)
