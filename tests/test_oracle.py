import itertools
import math

import mpmath
import numpy as np
import pytest

from cantelli import (
    Constant,
    EventSchedule,
    ExplicitList,
    IndependentModel,
    MarkovModel,
    build_outcome_space,
    oracle_union_prob,
    oracle_window_prob,
)
from cantelli.oracle import HorizonExceededError
from cantelli.specfile import load_spec
from cantelli.windows import WindowPattern, all_complement, first_occurrence

from conftest import (
    SPECS,
    constraints,
    make_absorbing,
    make_coin,
    make_flipflop,
    make_nested,
    random_independent,
    random_latent,
    random_event_set,
    random_markov,
    random_schedule_chain,
    reference_independent_bins,
    reference_markov_bins,
    reference_window_prob,
    sparse_chain,
)


def test_coin_space_examples():
    sp = build_outcome_space(make_coin(), 3)
    assert oracle_window_prob(sp, first_occurrence(1, 2)) == pytest.approx(0.125, abs=0)
    assert oracle_union_prob(sp, 1, 2) == pytest.approx(0.875, abs=0)


def test_nested_space_examples():
    sp = build_outcome_space(make_nested(), 4)
    assert oracle_union_prob(sp, 2, 2) == pytest.approx(0.5, abs=1e-15)
    # any window with a complement before an occurrence is empty
    for n in range(1, 4):
        for m in range(1, 5 - n):
            assert oracle_window_prob(sp, first_occurrence(n, m)) == 0.0


def test_atom_probabilities_sum_to_one():
    rng = np.random.default_rng(3)
    for build in (random_independent, random_markov, random_latent):
        sp = build_outcome_space(build(rng), 6)
        assert abs(sp.probs.sum() - 1.0) <= 1e-12


def test_independent_oracle_matches_product_formula():
    rng = np.random.default_rng(4)
    model = random_independent(rng)
    sp = build_outcome_space(model, 10)
    for _ in range(1000):
        n = int(rng.integers(1, 10))
        m = int(rng.integers(0, 11 - n))
        w = first_occurrence(n, m)
        expected = reference_window_prob(model, w)
        assert oracle_window_prob(sp, w) == pytest.approx(expected, abs=1e-12)


def test_markov_union_equals_first_occurrence_sum():
    rng = np.random.default_rng(5)
    model = random_markov(rng, max_states=3)
    sp = build_outcome_space(model, 10)
    for n in (1, 2, 4):
        for span in (0, 2, 5):
            occ = sum(
                oracle_window_prob(sp, first_occurrence(n, k)) for k in range(span + 1)
            )
            assert occ == pytest.approx(oracle_union_prob(sp, n, span), abs=1e-10)


def test_first_occurrence_masks_partition_atom_space():
    # the first-occurrence events and the all-complement partition the codes,
    # and each answer is the sum of the bins under its mask, bit for bit
    rng = np.random.default_rng(6)
    rows = code_bits(8)
    windows = [first_occurrence(1, k) for k in range(8)] + [all_complement(1, 8)]
    masks = [reference_window_mask(rows, w) for w in windows]
    for a, b in itertools.combinations(masks, 2):
        assert not np.any(a & b)
    assert np.all(np.any(masks, axis=0))
    for build in (random_independent, random_markov, random_latent):
        sp = build_outcome_space(build(rng), 8)
        for w, mask in zip(windows, masks):
            assert oracle_window_prob(sp, w) == sp.probs[mask].sum()


def test_permutation_invariance():
    # merging outcomes into code bins changes no answer: a per-outcome reference
    # oracle over the chain's paths, listed in a random order, agrees
    rng = np.random.default_rng(7)
    horizon = 6
    model = random_schedule_chain(rng, 3)
    sp = build_outcome_space(model, horizon)
    probs, codes = path_atoms(model, horizon)
    perm = rng.permutation(len(probs))
    probs, rows = probs[perm], code_bits(horizon)[codes[perm]]
    for n in range(1, horizon + 1):
        for w in all_windows(n, horizon):
            expected = probs[reference_window_mask(rows, w)].sum()
            assert oracle_window_prob(sp, w) == pytest.approx(expected, abs=1e-15)
        for span in range(0, horizon - n + 1):
            expected = probs[rows[:, n - 1 : n + span].any(axis=1)].sum()
            assert oracle_union_prob(sp, n, span) == pytest.approx(expected, abs=1e-15)


def test_horizon_caps_raise():
    with pytest.raises(HorizonExceededError):
        build_outcome_space(make_coin(), 15)

    four_state = MarkovModel(
        np.full((4, 4), 0.25), np.array([1.0, 0.0, 0.0, 0.0]), EventSchedule(4, constant=[0])
    )
    with pytest.raises(HorizonExceededError):
        build_outcome_space(four_state, 14)  # 4^14 paths exceed the cap
    sp = build_outcome_space(make_coin(), 5)
    with pytest.raises(HorizonExceededError):
        oracle_window_prob(sp, first_occurrence(4, 3))
    with pytest.raises(HorizonExceededError):
        oracle_union_prob(sp, 2, 5)


def test_one_state_chain_cap_counts_codes():
    # one path, but 2^h bins: 2^23 fit under the cap, 2^24 do not
    chain = MarkovModel([[1.0]], [1.0], EventSchedule(1, cycle=[[0], []]))
    sp = build_outcome_space(chain, 23)
    assert len(sp.probs) == 2**23
    assert oracle_window_prob(sp, first_occurrence(2, 1)) == 1.0
    assert oracle_union_prob(sp, 2, 0) == 0.0
    del sp
    with pytest.raises(HorizonExceededError, match=r"2\^24 indicator codes exceed the cap"):
        build_outcome_space(chain, 24)


def test_degenerate_marginals_enumeration():
    model = IndependentModel(Constant(1.0))
    sp = build_outcome_space(model, 4)
    assert oracle_window_prob(sp, first_occurrence(1, 0)) == 1.0
    assert oracle_window_prob(sp, first_occurrence(1, 1)) == 0.0
    assert oracle_window_prob(sp, all_complement(1, 2)) == 0.0


def markov_build_cases():
    """(model, horizon): sparse random chains, one-hot starts, deterministic
    cycles, 1-state chains and explicit schedules with and without a tail."""
    rng = np.random.default_rng(15)
    for s, horizon in ((2, 10), (3, 10), (4, 8), (4, 1), (5, 6)):
        for _ in range(4):
            chain = sparse_chain(rng, s)
            yield chain, horizon
            untailed = EventSchedule(s, explicit=[random_event_set(rng, s) for _ in range(horizon)])
            yield MarkovModel(chain._transition, chain._initial, untailed), horizon
        for k in range(s):
            yield sparse_chain(rng, s, initial=np.eye(s)[k]), horizon
    yield make_flipflop(), 10
    yield make_absorbing(), 10
    cycle = np.roll(np.eye(3), 1, axis=1)
    yield MarkovModel(cycle, [0.0, 0.0, 1.0], EventSchedule(3, cycle=[[0], [1, 2]])), 10
    yield MarkovModel(cycle, [0.5, 0.0, 0.5], EventSchedule(3, explicit=[[0]] * 10)), 10
    yield MarkovModel([[1.0]], [1.0], EventSchedule(1, cycle=[[0], []])), 10
    yield MarkovModel([[1.0]], [1.0], EventSchedule(1, explicit=[[0], [], [0]], tail=[])), 7
    yield MarkovModel([[1.0]], [1.0], EventSchedule(1, explicit=[[], [0], [0]])), 3


def test_markov_build_equals_the_all_paths_reference():
    # the paths through states the chain cannot occupy have probability +0.0:
    # leaving them out, in order, keeps every bin's bits
    for model, horizon in markov_build_cases():
        sp = build_outcome_space(model, horizon)
        assert np.array_equal(sp.probs, reference_markov_bins(model, horizon))


@pytest.mark.parametrize("name", ["coin-half", "harmonic", "partial-maxima", "powerlaw-2"])
def test_independent_build_equals_the_factor_matrix_reference_on_shipped_specs(name):
    model = load_spec(SPECS / f"{name}.json").model
    for horizon in (1, 2, 7, 13, 14):
        sp = build_outcome_space(model, horizon)
        assert np.array_equal(sp.probs, reference_independent_bins(model, horizon))


def test_independent_build_equals_the_factor_matrix_reference_at_certain_marginals():
    # marginals exactly 0 and 1 give factors 0 and 1 on either side of a code
    rng = np.random.default_rng(16)
    levels = [0.0, 1.0, 0.5, 0.1, 1.0 / 3.0]
    for _ in range(12):
        head = tuple(float(x) for x in rng.choice(levels, size=int(rng.integers(0, 10))))
        head += tuple(rng.random(int(rng.integers(0, 4))))
        model = IndependentModel(ExplicitList(head, tail=float(rng.choice(levels))))
        for horizon in (1, 5, 11, 14):
            sp = build_outcome_space(model, horizon)
            assert np.array_equal(sp.probs, reference_independent_bins(model, horizon))


def path_atoms(model, horizon):
    """Every path of itertools.product: its probability, multiplied left to
    right in time order, and its indicator code."""
    probs, codes = [], []
    for path in itertools.product(range(model.num_states), repeat=horizon):
        p = model._initial[path[0]]
        for a, b in zip(path, path[1:]):
            p = p * model._transition[a, b]
        probs.append(p)
        codes.append(sum(int(model.event_mask(t)[state]) << (t - 1) for t, state in enumerate(path, 1)))
    return np.array(probs), np.array(codes)


def test_markov_space_matches_path_enumeration():
    # each bin is the exact sum of its paths' probabilities, rounded about once
    rng = np.random.default_rng(12)
    for s, horizon in ((2, 8), (3, 8), (4, 8), (3, 1), (4, 5), (1, 6)):
        model = random_schedule_chain(rng, s)
        sp = build_outcome_space(model, horizon)
        probs, codes = path_atoms(model, horizon)
        assert len(sp.probs) == 2**horizon
        for code in range(2**horizon):
            exact = math.fsum(probs[codes == code])
            assert abs(sp.probs[code] - exact) <= 4 * np.spacing(exact)


def code_bits(horizon):
    """Row c holds the bits of code c: A_t holds where bit t - 1 is set."""
    return (np.arange(2**horizon)[:, None] >> np.arange(horizon)) & 1 > 0


def reference_window_mask(rows, w):
    expected = np.ones(len(rows), dtype=bool)
    for idx, occur in constraints(w):
        expected &= rows[:, idx - 1] == occur
    return expected


def all_windows(n, horizon):
    windows = [all_complement(n, m) for m in range(1, horizon - n + 2)]
    for m in range(0, horizon - n + 1):
        # a prefix window, and A_n then m complements
        windows += [first_occurrence(n, m), WindowPattern(n, m + 1, 1)]
    return windows


def test_masks_match_row_major_reference():
    # a query reads a view of the bins; its answer equals the sum of the bins
    # a row-major mask over every code selects, bit for bit
    rng = np.random.default_rng(13)
    horizon = 8
    rows = code_bits(horizon)
    for s in (2, 3, 4, 2, 3, 4):
        sp = build_outcome_space(random_schedule_chain(rng, s), horizon)
        for n in range(1, horizon + 1):
            for w in all_windows(n, horizon):
                assert oracle_window_prob(sp, w) == sp.probs[reference_window_mask(rows, w)].sum()
            for span in range(0, horizon - n + 1):
                expected = sp.probs[rows[:, n - 1 : n + span].any(axis=1)].sum()
                assert oracle_union_prob(sp, n, span) == expected


def test_answers_match_mpmath_sums():
    # every answer is within 4 ulps of the mpmath sum of the path probabilities
    # it covers, the paths enumerated independently of the oracle
    rng = np.random.default_rng(14)
    horizon = 8
    rows = code_bits(horizon)
    with mpmath.workprec(400):
        for s in (1, 2, 3, 4, 4):
            model = random_schedule_chain(rng, s)
            sp = build_outcome_space(model, horizon)
            probs, codes = path_atoms(model, horizon)
            bins = [mpmath.fsum(mpmath.mpf(float(p)) for p in probs[codes == c])
                    for c in range(2**horizon)]

            def check(answer, mask):
                exact = mpmath.fsum(b for b, held in zip(bins, mask) if held)
                assert abs(mpmath.mpf(answer) - exact) <= 4 * np.spacing(float(exact))

            for n in range(1, horizon + 1):
                for w in all_windows(n, horizon):
                    check(oracle_window_prob(sp, w), reference_window_mask(rows, w))
                for span in range(0, horizon - n + 1):
                    check(oracle_union_prob(sp, n, span), rows[:, n - 1 : n + span].any(axis=1))
