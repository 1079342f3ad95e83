import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cantelli import (
    Constant,
    DecayVerdict,
    EventSchedule,
    EventSequenceModel,
    ExplicitList,
    GlobalThresholds,
    IndependentModel,
    LatentUniformModel,
    MarkovModel,
    ModelValueError,
    NumericFaultError,
    PerLatentThresholds,
    PowerLaw,
    marginal_decay_check,
)
from cantelli.families import SequenceIndexError, SeriesClass
from cantelli.windows import WindowPattern, all_complement, first_occurrence

from conftest import (
    make_absorbing,
    make_coin,
    make_equal_rows,
    make_flipflop,
    make_interleaved,
    make_nested,
    random_independent,
    random_latent,
    random_markov,
    reference_window_prob,
)


def test_coin_window_prob():
    prob = reference_window_prob(make_coin(), first_occurrence(1, 2))
    assert prob == pytest.approx(0.125, abs=0)


def test_nested_one_gap_window_is_empty():
    nested = make_nested()
    w = first_occurrence(1, 1)
    assert reference_window_prob(nested, w) == 0.0
    assert nested.window_series(1, 1)[1, 0] == 0.0
    assert nested.tail_sum(1, 1) == 0.0


def test_marginal_prob_examples():
    power = IndependentModel(PowerLaw(1.0, 2.0))
    assert reference_window_prob(power, first_occurrence(10, 0)) == pytest.approx(0.01)
    assert reference_window_prob(make_nested(), first_occurrence(5, 0)) == pytest.approx(0.2)
    eq = make_equal_rows([0.3, 0.7], [0.3, 0.7], members=[1])
    for n in (2, 3, 7):
        assert reference_window_prob(eq, first_occurrence(n, 0)) == pytest.approx(0.7, abs=1e-14)


def test_marginal_prob_equals_trivial_window():
    # the decay check reads the marginals from row 0 of the series table
    model = random_markov(np.random.default_rng(0))
    marginals = model.window_series(0, 5)[0]
    for n in (1, 2, 5):
        assert marginals[n - 1] == reference_window_prob(model, first_occurrence(n, 0))


def test_suffix_orientation_independent_formula():
    model = IndependentModel(ExplicitList((0.3, 0.6, 0.9), tail=0.2))
    w = WindowPattern(1, 3, 1)  # A_1, then two complements
    assert reference_window_prob(model, w) == pytest.approx(0.3 * 0.4 * 0.1, abs=1e-15)


def test_suffix_windows_of_nested_model():
    # A_n minus A_{n+1} on one latent with thresholds 1/n: probability 1/(n(n+1))
    nested = make_nested()
    got = [reference_window_prob(nested, WindowPattern(n, 2, 1)) for n in range(1, 13)]
    assert np.allclose(got, [1.0 / (n * (n + 1)) for n in range(1, 13)], atol=1e-15)


def test_prefix_window_exact_product():
    model = IndependentModel(ExplicitList((0.3, 0.6, 0.9), tail=0.2))
    assert reference_window_prob(model, first_occurrence(1, 1)) == (1.0 - 0.3) * 0.6


@pytest.mark.parametrize(
    "build",
    [make_coin, make_nested, make_interleaved, make_flipflop, make_absorbing],
)
def test_window_probs_within_unit_interval(build):
    model = build()
    for n in (1, 2, 3):
        for m in (0, 1, 2, 4):
            assert 0.0 <= reference_window_prob(model, first_occurrence(n, m)) <= 1.0
            if m >= 1:
                assert 0.0 <= reference_window_prob(model, all_complement(n, m)) <= 1.0


@pytest.mark.parametrize("seed", range(6))
def test_monotonicity_under_constraint_extension(seed):
    rng = np.random.default_rng(seed)
    model = [random_independent, random_markov, random_latent][seed % 3](rng)
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            longer = reference_window_prob(model, first_occurrence(n, m))
            shorter = reference_window_prob(model, first_occurrence(n + 1, m - 1))
            assert longer <= shorter + 1e-12
            if m >= 2:
                assert reference_window_prob(model, all_complement(n, m)) <= (
                    reference_window_prob(model, all_complement(n, m - 1)) + 1e-12
                )


def test_partition_identity_exact():
    for build in (make_coin, make_nested, make_interleaved, make_flipflop, make_absorbing):
        model = build()
        for n in (1, 2):
            for length in (1, 3, 7, 12):
                total = sum(
                    reference_window_prob(model, first_occurrence(n, k)) for k in range(length)
                ) + reference_window_prob(model, all_complement(n, length))
                assert total == pytest.approx(1.0, abs=1e-12)


def test_first_occurrence_terms_match_window_prob():
    rng = np.random.default_rng(11)
    for build in (random_independent, random_markov, random_latent):
        model = build(rng)
        terms = model.first_occurrence_terms([2], 9)[0][0]
        direct = [reference_window_prob(model, first_occurrence(2, k)) for k in range(9)]
        assert np.allclose(terms, direct, atol=1e-13)


@pytest.mark.parametrize(
    "model", [make_coin(), IndependentModel(PowerLaw(0.0, 2.0)), make_flipflop(), make_nested()]
)
def test_scans_past_sys_maxsize_bytes_raise_memory_error(model):
    # numpy raises ValueError for such an array; nothing is evaluated first
    with pytest.raises(MemoryError, match=f"a scan of {1 << 62} terms"):
        model.first_occurrence_terms([1], 1 << 62)


def test_all_complement_prob_matches_window_prob():
    rng = np.random.default_rng(12)
    for build in (random_independent, random_markov, random_latent):
        model = build(rng)
        complements = model.first_occurrence_terms([3], 8)[0][1]
        for length in (1, 4, 8):
            assert complements[length - 1] == pytest.approx(
                reference_window_prob(model, all_complement(3, length)), abs=1e-13
            )


def test_equal_row_markov_matches_independent():
    row = [0.25, 0.35, 0.4]
    initial = [0.6, 0.2, 0.2]
    members = [0, 2]
    chain = make_equal_rows(row, initial, members)
    p1 = initial[0] + initial[2]
    p_rest = row[0] + row[2]
    indep = IndependentModel(ExplicitList((p1,), tail=p_rest))
    rng = np.random.default_rng(13)
    for _ in range(300):
        n = int(rng.integers(1, 10))
        m = int(rng.integers(0, 5))
        # a prefix window, or A_n then m complements
        w = first_occurrence(n, m) if rng.random() < 0.5 else WindowPattern(n, m + 1, 1)
        expected = reference_window_prob(indep, w)
        assert reference_window_prob(chain, w) == pytest.approx(expected, abs=1e-12)


def decay(model, tol=1e-6):
    """The decay check on the model's first 4096 marginals."""
    return marginal_decay_check(model, model.window_series(0, 4096)[0], tol)


def test_decay_examples():
    assert decay(IndependentModel(PowerLaw(1.0, 2.0)))[0] is DecayVerdict.CERTIFIED_ZERO_LIMIT
    assert decay(make_coin())[0] is DecayVerdict.NOT_DECAYING
    assert decay(make_flipflop())[0] is DecayVerdict.NOT_DECAYING


def test_decay_note_describes_an_explicit_list():
    model = IndependentModel(ExplicitList((0.5,) * 8, 0.0))
    assert decay(model) == (
        DecayVerdict.CERTIFIED_ZERO_LIMIT,
        "analytic marginal limit 0 (independent events, explicit"
        " [0.5, 0.5, 0.5, 0.5, 0.5, 0.5, ...] (8 values, tail 0))",
    )


@pytest.mark.parametrize("tol", [0.0, -1.0, 1.0, 1e300, float("inf"), float("nan")])
def test_decay_tolerance_outside_zero_one_is_rejected(tol):
    # marginals are probabilities: a tolerance of 1 or more sees every one as decayed
    with pytest.raises(ValueError, match=r"decay tolerance must be in \(0, 1\)"):
        decay(make_flipflop(), tol)


def test_decay_probe_path_likely_zero():
    # absorbing chain states no marginal limit; probes must see the decay
    verdict, note = decay(make_absorbing())
    assert verdict is DecayVerdict.LIKELY_ZERO_LIMIT
    assert note == "marginals below 1e-06 at the 12 largest probes"


def test_decay_inconclusive_when_probes_have_not_settled():
    # survival 0.999 per step decays too slowly for the default probe range
    slow = MarkovModel(
        np.array([[0.999, 0.001], [0.0, 1.0]]),
        np.array([1.0, 0.0]),
        EventSchedule(2, constant=[0]),
    )
    verdict, note = decay(slow)
    assert verdict is DecayVerdict.INCONCLUSIVE
    assert "not fallen below" in note


def test_markov_validation_errors():
    good = np.array([[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(ValueError, match="row 0 sums"):
        MarkovModel(np.array([[0.6, 0.5], [0.5, 0.5]]), np.array([1.0, 0.0]),
                    EventSchedule(2, constant=[0]))
    with pytest.raises(ValueError, match="initial"):
        MarkovModel(good, np.array([0.9, 0.0]), EventSchedule(2, constant=[0]))
    with pytest.raises(ValueError, match="outside"):
        EventSchedule(2, constant=[3])


@pytest.mark.parametrize(
    "transition, initial, field",
    [
        ([[float("nan"), 1.0], [0.5, 0.5]], [1.0, 0.0], "transition[0]"),
        ([[0.5, 0.5], [1.0]], [1.0, 0.0], "transition[1]"),
        ([[0.5, 0.5], [0.5, 0.5]], [float("nan"), 1.0], "initial"),
        ([[0.5, 0.5], [0.5, 0.5]], [-1.0, 2.0], "initial"),
    ],
)
def test_markov_constructor_names_the_bad_entry(transition, initial, field):
    with pytest.raises(ModelValueError) as exc:
        MarkovModel(transition, initial, EventSchedule(2, constant=[0]))
    assert exc.value.field == field


def test_markov_events_must_cover_the_chain_states():
    # a three-state schedule on a two-state chain used to fail mid-query
    with pytest.raises(ModelValueError) as exc:
        MarkovModel([[0.5, 0.5], [0.5, 0.5]], [1.0, 0.0], EventSchedule(3, constant=[2]))
    assert exc.value.field == "events"
    assert "3 states" in str(exc.value)


def test_event_schedule_modes():
    sched = EventSchedule(3, cycle=[[0], [1, 2]])
    assert sched.mask(1).tolist() == [True, False, False]
    assert sched.mask(2).tolist() == [False, True, True]
    assert sched.mask(3).tolist() == [True, False, False]
    expl = EventSchedule(3, explicit=[[0], [1]], tail=[2])
    assert expl.mask(2).tolist() == [False, True, False]
    assert expl.mask(9).tolist() == [False, False, True]
    no_tail = EventSchedule(3, explicit=[[0]])
    with pytest.raises(ValueError, match="no tail"):
        no_tail.mask(2)


@pytest.mark.parametrize("mode", [{"constant": [0]}, {"cycle": [[0], [1]]}])
def test_event_schedule_tail_follows_only_an_explicit_list(mode):
    # a constant set or a cycle already repeats: a tail given with one would
    # be dropped, so it is refused by its key
    with pytest.raises(ModelValueError) as exc:
        EventSchedule(2, **mode, tail=[1])
    assert exc.value.field == "tail"


@st.composite
def event_schedules(draw):
    """An event schedule in any mode: constant, cycle, explicit with or without a tail."""
    states = draw(st.integers(1, 4))
    sets = st.lists(st.integers(0, states - 1), max_size=states)
    mode = draw(st.sampled_from(["constant", "cycle", "explicit", "explicit+tail"]))
    if mode == "constant":
        return EventSchedule(states, constant=draw(sets))
    if mode == "cycle":
        return EventSchedule(states, cycle=draw(st.lists(sets, min_size=1, max_size=5)))
    tail = draw(sets) if mode == "explicit+tail" else None
    return EventSchedule(states, explicit=draw(st.lists(sets, max_size=6)), tail=tail)


@settings(max_examples=300, deadline=None)
@given(event_schedules(), st.integers(1, 12), st.integers(0, 12))
def test_event_schedule_mask_equals_its_row_of_masks(sched, lo, span):
    # mask(n), the scalar rule the oracle and the reference read, checks masks(lo, hi)
    hi = lo + span
    try:
        rows = sched.masks(lo, hi)
    except SequenceIndexError as exc:
        with pytest.raises(SequenceIndexError) as scalar:
            for n in range(lo, hi + 1):
                sched.mask(n)
        assert str(scalar.value) == str(exc)
        return
    assert len(rows) == span + 1
    for n in range(lo, hi + 1):
        mask = sched.mask(n)
        assert not mask.flags.writeable
        assert mask.tolist() == rows[n - lo].tolist()


def test_latent_coloring_validation():
    with pytest.raises(ValueError, match="never appear"):
        LatentUniformModel(
            2,
            [0],
            thresholds=__import__("cantelli").PerLatentThresholds(
                (Constant(0.5), Constant(0.5)), (0, 0)
            ),
        )
    with pytest.raises(ValueError, match="outside"):
        LatentUniformModel(1, [1], GlobalThresholds(Constant(0.5)))


def test_latent_position_bookkeeping():
    model = LatentUniformModel(2, [0, 1, 0], GlobalThresholds(Constant(0.5)))
    # indices: 1->0, 2->1, 3->0, 4->0, 5->1, 6->0 ...
    assert [model.color(n) for n in range(1, 7)] == [0, 1, 0, 0, 1, 0]
    assert [model.position(n) for n in range(1, 7)] == [1, 1, 2, 3, 2, 4]


def test_latent_closed_forms():
    model = LatentUniformModel(2, [0, 1], GlobalThresholds(PowerLaw(1.0, 2.0)))
    assert model.series_class(0) == (
        SeriesClass.CONVERGENT,
        "marginal sum converges per latent family: p_n = min(1, 1*n^-2): terms"
        " dominated by the p-series with exponent 2 > 1",
    )
    # thresholds with no tail bound nothing past their list
    tailless = LatentUniformModel(2, [0, 1], GlobalThresholds(ExplicitList((0.5,) * 8)))
    assert tailless.remainder_bounds(3, 0.5) == (None, 1.0)


def test_latent_window_tail_starts_where_thresholds_stop_rising():
    # latent 0 holds indices 1, 4, 7, ... at thresholds 0.3, 0.5, 0.2, 0.2, ...
    # (offset 1), latent 1 the rest, saturated at 1 and then falling: M = 4;
    # the largest gap is latent 0's, g = 3, so every m-window from 4 + 3 - m
    # on is empty
    rising = ExplicitList((0.1, 0.3, 0.5), tail=0.2)
    model = LatentUniformModel(
        2, [0, 1, 1], PerLatentThresholds((rising, PowerLaw(1.0, 1.0)), (1, -3))
    )
    assert [model.threshold(n) for n in (1, 4, 7, 10)] == [0.3, 0.5, 0.2, 0.2]
    assert (model.tail_sum(3, 4), model.tail_sum(3, 3)) == (0.0, None)
    assert (model.tail_sum(5, 2), model.tail_sum(5, 1)) == (0.0, None)
    assert model.tail_sum(2, 10**6) is None
    assert EventSequenceModel.tail_sum(model, 3, 4) is None


@st.composite
def colorings(draw):
    num = draw(st.integers(min_value=1, max_value=4))
    extra = draw(st.lists(st.integers(min_value=0, max_value=num - 1), max_size=5))
    return num, draw(st.permutations(list(range(num)) + extra))


@settings(max_examples=200, deadline=None)
@given(colorings(), st.integers(min_value=1, max_value=60), st.data())
def test_latent_positions_match_a_brute_force_count(drawn, n, data):
    num, coloring = drawn
    offsets = tuple(data.draw(st.integers(min_value=-5, max_value=3)) for _ in range(num))
    model = LatentUniformModel(
        num, coloring, PerLatentThresholds((Constant(0.5),) * num, offsets)
    )
    colors = [coloring[(i - 1) % len(coloring)] for i in range(1, n + len(coloring) + 1)]

    def count(k, j):
        return sum(1 for c in colors[:k] if c == j)

    for j in range(num):
        assert [model._count(k, j) for k in range(n + 1)] == [count(k, j) for k in range(n + 1)]
    assert model.position(n) == count(n, colors[n - 1])
    # each latent's thresholds start at the position of its first index >= n
    firsts = [next(i for i in range(n, len(colors) + 1) if colors[i - 1] == j) for j in range(num)]
    starts = [start for _, start in model._families_with_start(n)]
    assert starts == [count(i, j) + offsets[j] for j, i in enumerate(firsts)]


def test_finish_prob_guards():
    finish = EventSequenceModel._finish_probs
    assert finish(np.array([1.0 + 1e-12, -1e-12, 0.5])).tolist() == [1.0, 0.0, 0.5]
    # inside [0, 1], signed zeros and subnormals included, the array itself
    x = np.array([0.0, -0.0, 5e-324, 0.25, 1.0 - 2.0**-53, 1.0])
    assert finish(x) is x
    # past the slack, the first faulty entry is named, whatever follows it
    for bad, message in [
        ([float("nan")], "non-finite window probability: nan"),
        ([0.5, float("nan"), 2.0], "non-finite window probability: nan"),
        ([0.5, 1.0 + 1e-12, -1.0, float("inf")], "window probability -1.0 below 0"),
        ([1.0 + 2e-9, float("nan")], r"window probability 1\.000000002 above 1"),
    ]:
        with pytest.raises(NumericFaultError, match=message):
            finish(np.array(bad))


def test_markov_queries_are_pure_under_threads():
    def queries(chain):
        # a series table, then scans from far and near starts, which walk the
        # orbit forward and back from its one cursor
        table = chain.window_series(3, 30)
        scans = [chain.first_occurrence_terms([n], 4)[0][0] for n in (29, 1, 17, 2)]
        return [table.tobytes()] + [terms.tobytes() for terms in scans]

    expected = queries(random_markov(np.random.default_rng(21), max_states=4))

    fresh = random_markov(np.random.default_rng(21), max_states=4)
    results: dict[int, list[bytes]] = {}

    def worker(tid: int) -> None:
        results[tid] = queries(fresh)

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for got in results.values():
        assert got == expected


def test_markov_window_is_empty_via_support():
    ff = make_flipflop()
    # tail_sum(m, n) is 0 only when every m-window from n on is empty.
    # Started in state 1: being in state 0 at time 1 is impossible, at time 2 certain
    assert reference_window_prob(ff, first_occurrence(1, 0)) == 0.0
    assert reference_window_prob(ff, first_occurrence(2, 0)) == 1.0
    assert ff.tail_sum(0, 1) is None and ff.tail_sum(0, 10**12) is None
    # not-A_2 then A_3 is impossible, but not-A_3 then A_4 is certain
    assert reference_window_prob(ff, first_occurrence(2, 1)) == 0.0
    assert reference_window_prob(ff, first_occurrence(3, 1)) == 1.0
    assert ff.tail_sum(1, 2) is None and ff.tail_sum(1, 1001) is None
    # two complements in a row never happen: every 2-window is empty
    assert ff.tail_sum(2, 1) == 0.0 and ff.tail_sum(2, 10**12) == 0.0
    # events at times 1 and 2 only: the marginal tail is empty from 3 on
    once = MarkovModel([[1.0]], [1.0], EventSchedule(1, explicit=[[0], [0]], tail=[]))
    assert once.tail_sum(0, 2) is None and once.tail_sum(0, 3) == 0.0
    # an explicit list with no tail never repeats: no proof
    untailed = MarkovModel([[1.0]], [1.0], EventSchedule(1, explicit=[[0], []]))
    assert untailed.tail_sum(0, 2) is None


def test_nested_sampling_respects_nesting():
    nested = make_nested()
    rng = np.random.default_rng(5)
    (block,) = nested.sample_indicator_block([rng], [(1, 10)], 500)
    # A_{n+1} implies A_n: indicator columns are non-increasing along each row
    assert not np.any(block[:, 1:] & ~block[:, :-1])
