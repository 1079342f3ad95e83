import threading

import numpy as np
import pytest

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
    PowerLaw,
    marginal_decay_check,
)
from cantelli.windows import Orientation, all_complement, first_occurrence

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
)


def test_coin_window_prob():
    assert make_coin().window_prob(first_occurrence(1, 2)) == pytest.approx(0.125, abs=0)


def test_nested_one_gap_window_is_empty():
    nested = make_nested()
    w = first_occurrence(1, 1)
    assert nested.window_prob(w) == 0.0
    assert nested.window_is_empty(w)


def test_marginal_prob_examples():
    power = IndependentModel(PowerLaw(1.0, 2.0))
    assert power.window_prob(first_occurrence(10, 0)) == pytest.approx(0.01)
    assert make_nested().window_prob(first_occurrence(5, 0)) == pytest.approx(0.2)
    eq = make_equal_rows([0.3, 0.7], [0.3, 0.7], members=[1])
    for n in (2, 3, 7):
        assert eq.window_prob(first_occurrence(n, 0)) == pytest.approx(0.7, abs=1e-14)


def test_marginal_prob_equals_trivial_window():
    # the decay check reads the marginals from row 0 of the series table
    model = random_markov(np.random.default_rng(0))
    marginals = model.window_series(0, 5)[0][0]
    for n in (1, 2, 5):
        assert marginals[n - 1] == model.window_prob(first_occurrence(n, 0))


def test_suffix_orientation_independent_formula():
    model = IndependentModel(ExplicitList((0.3, 0.6, 0.9), tail=0.2))
    w = first_occurrence(1, 2, Orientation.SUFFIX_COMPLEMENT)
    assert model.window_prob(w) == pytest.approx(0.3 * 0.4 * 0.1, abs=1e-15)


def test_suffix_windows_of_nested_model():
    # A_n minus A_{n+1} on one latent with thresholds 1/n: probability 1/(n(n+1))
    nested = make_nested()
    got = [nested.window_prob(first_occurrence(n, 1, Orientation.SUFFIX_COMPLEMENT))
           for n in range(1, 13)]
    assert np.allclose(got, [1.0 / (n * (n + 1)) for n in range(1, 13)], atol=1e-15)


def test_prefix_window_exact_product():
    model = IndependentModel(ExplicitList((0.3, 0.6, 0.9), tail=0.2))
    assert model.window_prob(first_occurrence(1, 1)) == (1.0 - 0.3) * 0.6


@pytest.mark.parametrize(
    "build",
    [make_coin, make_nested, make_interleaved, make_flipflop, make_absorbing],
)
def test_window_probs_within_unit_interval(build):
    model = build()
    for n in (1, 2, 3):
        for m in (0, 1, 2, 4):
            assert 0.0 <= model.window_prob(first_occurrence(n, m)) <= 1.0
            if m >= 1:
                assert 0.0 <= model.window_prob(all_complement(n, m)) <= 1.0


@pytest.mark.parametrize("seed", range(6))
def test_monotonicity_under_constraint_extension(seed):
    rng = np.random.default_rng(seed)
    model = [random_independent, random_markov, random_latent][seed % 3](rng)
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            longer = model.window_prob(first_occurrence(n, m))
            shorter = model.window_prob(first_occurrence(n + 1, m - 1))
            assert longer <= shorter + 1e-12
            if m >= 2:
                assert model.window_prob(all_complement(n, m)) <= (
                    model.window_prob(all_complement(n, m - 1)) + 1e-12
                )


def test_partition_identity_exact():
    for build in (make_coin, make_nested, make_interleaved, make_flipflop, make_absorbing):
        model = build()
        for n in (1, 2):
            for length in (1, 3, 7, 12):
                total = sum(
                    model.window_prob(first_occurrence(n, k)) for k in range(length)
                ) + model.window_prob(all_complement(n, length))
                assert total == pytest.approx(1.0, abs=1e-12)


def test_first_occurrence_terms_match_window_prob():
    rng = np.random.default_rng(11)
    for build in (random_independent, random_markov, random_latent):
        model = build(rng)
        terms = model.first_occurrence_terms(2, 9)
        direct = [model.window_prob(first_occurrence(2, k)) for k in range(9)]
        assert np.allclose(terms, direct, atol=1e-13)


def test_all_complement_prob_matches_window_prob():
    rng = np.random.default_rng(12)
    for build in (random_independent, random_markov, random_latent):
        model = build(rng)
        for length in (1, 4, 8):
            assert model.all_complement_prob(3, length) == pytest.approx(
                model.window_prob(all_complement(3, length)), abs=1e-13
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
        orient = Orientation.PREFIX_COMPLEMENT if rng.random() < 0.5 else Orientation.SUFFIX_COMPLEMENT
        w = first_occurrence(n, m, orient)
        assert chain.window_prob(w) == pytest.approx(indep.window_prob(w), abs=1e-12)


def decay(model, tol=1e-6):
    """The decay check on the model's first 4096 marginals."""
    return marginal_decay_check(model, model.window_series(0, 4096)[0][0], tol)


def test_decay_examples():
    assert decay(IndependentModel(PowerLaw(1.0, 2.0)))[0] is DecayVerdict.CERTIFIED_ZERO_LIMIT
    assert decay(make_coin())[0] is DecayVerdict.NOT_DECAYING
    assert decay(make_flipflop())[0] is DecayVerdict.NOT_DECAYING


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


def test_finish_prob_guards():
    assert EventSequenceModel._finish_prob(1.0 + 1e-12) == 1.0
    assert EventSequenceModel._finish_prob(-1e-12) == 0.0
    with pytest.raises(NumericFaultError):
        EventSequenceModel._finish_prob(float("nan"))
    with pytest.raises(NumericFaultError):
        EventSequenceModel._finish_prob(1.5)


def test_markov_queries_are_pure_under_threads():
    model = random_markov(np.random.default_rng(21), max_states=4)
    windows = [first_occurrence(n, m) for n in range(1, 30) for m in range(0, 4)]
    expected = [model.window_prob(w) for w in windows]

    fresh = random_markov(np.random.default_rng(21), max_states=4)
    results: dict[int, list[float]] = {}

    def worker(tid: int) -> None:
        results[tid] = [fresh.window_prob(w) for w in windows]

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for got in results.values():
        assert got == expected


def test_markov_window_is_empty_via_support():
    ff = make_flipflop()
    # started in state 1: being in state 0 at time 1 is impossible
    assert ff.window_is_empty(first_occurrence(1, 0))
    assert ff.window_prob(first_occurrence(1, 0)) == 0.0
    assert not ff.window_is_empty(first_occurrence(2, 0))
    # the complement run not-A_3 A_4 is certain, not empty
    assert ff.window_prob(first_occurrence(3, 1)) == 1.0
    assert not ff.window_is_empty(first_occurrence(3, 1))
    # not-A_2 then A_3 needs the chain out of state 0 at time 2: impossible
    assert ff.window_prob(first_occurrence(2, 1)) == 0.0
    assert ff.window_is_empty(first_occurrence(2, 1))
    # support cycling keeps long-horizon checks cheap and correct
    assert ff.window_is_empty(first_occurrence(1002, 1))
    assert not ff.window_is_empty(first_occurrence(1001, 1))


def test_nested_sampling_respects_nesting():
    nested = make_nested()
    rng = np.random.default_rng(5)
    (block,) = nested.sample_indicator_block([rng], [(1, 10)], 500)
    # A_{n+1} implies A_n: indicator columns are non-increasing along each row
    assert not np.any(block[:, 1:] & ~block[:, :-1])
