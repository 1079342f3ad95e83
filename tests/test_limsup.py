from fractions import Fraction

import numpy as np
import pytest

from cantelli import (
    EventSchedule,
    IndependentModel,
    SequenceFamily,
    TailUnionEstimate,
    LatentUniformModel,
    MarkovModel,
    PerLatentThresholds,
    PowerLaw,
    build_outcome_space,
    families,
    limsup,
    limsup_estimate,
    oracle_union_prob,
    tail_union,
)
from cantelli.limsup import aitken_extrapolate
from cantelli.windows import first_occurrence

from conftest import (
    make_absorbing,
    make_coin,
    make_interleaved,
    make_nested,
    make_powerlaw,
    random_independent,
    random_latent,
    random_markov,
    reference_powers,
    reference_tail_union,
    reference_window_prob,
)


def test_coin_tail_union_geometric():
    # the marginals' sum diverges, so u_17 = 1 and the remainder past the
    # first level is all of the all-complement probability: no second level
    est = tail_union(make_coin(), 1, tol=1e-6, k_max=64)
    assert est.truncation == 16
    assert est.partial == 1.0 - 2.0**-16  # dyadic sums are exact
    assert est.remainder_bound == est.union_tail_lower == est.union_tail_bound == 2.0**-16
    assert est.tolerance_reached
    lo, hi = est.interval
    assert lo < 1.0 == hi and 1.0 - lo < 1e-13


def test_absorbing_chain_tail_union_certain():
    est = tail_union(make_absorbing(), 1, tol=1e-9, k_max=64)
    assert est.partial == 1.0
    assert est.remainder_bound == 0.0
    assert est.tolerance_reached


def test_nested_tail_union_ends_at_its_window_tail():
    # every 1-window of nested is empty for every n, so the sum of the 1-window
    # terms from n + K - 1 on, 0, bounds u_n - partial from the first level on
    nested = make_nested()
    est = tail_union(nested, 8, tol=1e-6, k_max=256)
    assert est.tolerance_reached
    assert est.truncation == 16
    assert est.partial == 1.0 / 8.0
    assert (est.window_tail_bound, est.window_tail_m) == (0.0, 1)
    # the all-complement probability stalls at 1 - a_n, the union tail at 1/(n + K)
    assert est.remainder_bound == pytest.approx(1.0 - 1.0 / 8.0, abs=1e-12)
    assert est.union_tail_bound == pytest.approx(1.0 / (8 + 16), abs=1e-12)
    assert min(est.remainder_bound, est.union_tail_bound, est.window_tail_bound) == 0.0
    # rounding is the interval's only width, padded outward around 1/8
    lo, hi = est.interval
    assert lo < 1.0 / 8.0 < hi and hi - lo < 1e-12


@pytest.mark.parametrize(
    "make, starts, exact",
    [
        (make_nested, (8, 16, 32), (Fraction(1, 8), Fraction(1, 16), Fraction(1, 32))),
        (
            make_interleaved,
            (20, 40, 100),
            (Fraction(19, 100), Fraction(39, 400), Fraction(99, 2500)),
        ),
    ],
    ids=["nested", "interleaved-nested"],
)
@pytest.mark.parametrize("k_max", [256, 1 << 15])
def test_window_tail_intervals_hold_the_exact_value(make, starts, exact, k_max):
    est = limsup_estimate(make(), starts, tol=1e-6, k_max=k_max)
    assert not est.stalled and est.fit_note == "accepted"
    assert est.alpha_fit == est.alpha_point == 0.0
    for s, u in zip(est.samples, exact):
        assert s.tolerance_reached and s.truncation == 16 and s.window_tail_bound == 0.0
        lo, hi = s.interval
        assert Fraction(lo) <= u <= Fraction(hi), (s.start, s.interval)
    if make is make_interleaved:
        # the rounded partial sums miss on both sides: only the padded ends hold
        assert Fraction(est.samples[0].partial) > exact[0]
        assert Fraction(est.samples[2].partial) < exact[2]


def test_window_tails_of_models_without_a_bound_are_null():
    for model in (make_coin(), make_powerlaw(1.0, 1.0), make_absorbing()):
        est = tail_union(model, 8, tol=1e-6, k_max=64)
        assert est.window_tail_bound is None and est.window_tail_m is None


def test_tail_union_matches_oracle_truncation():
    rng = np.random.default_rng(23)
    for build in (random_independent, random_markov, random_latent):
        model = build(rng)
        space = build_outcome_space(model, 12)
        for n in (1, 2):
            partial = float(model.first_occurrence_terms([n], 10)[0][0].sum())
            assert partial == pytest.approx(oracle_union_prob(space, n, 9), abs=1e-10)


def test_union_bound_respects_saturated_offsets():
    # latent 0 first appears at index 21 with position 1 - 5 <= 0, where its
    # threshold saturates to 1, so A_21 is certain and u_1 = 1
    model = LatentUniformModel(
        2,
        [1] * 20 + [0],
        PerLatentThresholds((PowerLaw(0.01, 1.0), PowerLaw(0.5, 1.0)), (-5, 0)),
    )
    assert reference_window_prob(model, first_occurrence(21, 0)) == 1.0
    assert tail_union(model, 1, k_max=16).interval[1] == 1.0


@pytest.mark.parametrize(
    "make, starts, k_max",
    [(lambda: make_powerlaw(1.0, 1.0), (8, 16, 32), 2**17), (make_interleaved, (20, 40, 100), 2**15)],
    ids=["harmonic", "interleaved-nested"],
)
def test_tail_union_matches_the_python_pow_reference(make, starts, k_max, monkeypatch):
    # no padded interval is narrower than 1e-300, so every start scans to k_max
    def run():
        model = make()
        return [tail_union(model, n, tol=1e-300, k_max=k_max) for n in starts]

    def bits(est):
        return np.array([est.partial, est.remainder_bound, *est.interval]).tobytes()

    shipped = run()
    assert [est.truncation for est in shipped] == [k_max] * len(starts)
    monkeypatch.setattr(families, "_powers", reference_powers)
    for got, expected in zip(shipped, run()):
        assert bits(got) == bits(expected), got.start


def test_tail_union_argument_validation():
    with pytest.raises(ValueError):
        tail_union(make_coin(), 0)
    with pytest.raises(ValueError):
        tail_union(make_coin(), 1, tol=0.0)
    with pytest.raises(ValueError):
        tail_union(make_coin(), 1, k_max=0)


def test_limsup_coin_alpha_one():
    est = limsup_estimate(make_coin(), [8, 16, 32], tol=1e-6, k_max=64)
    assert abs(est.alpha_point - 1.0) < 1e-6
    assert est.alpha_upper == 1.0
    assert est.monotone_consistent
    assert not est.stalled


def test_limsup_powerlaw_alpha_tiny():
    model = IndependentModel(PowerLaw(1.0, 2.0))
    est = limsup_estimate(model, [10, 100, 1000], tol=1e-6, k_max=1 << 15)
    assert est.alpha_upper <= 0.002
    assert est.monotone_consistent
    # the infinite product telescopes: u_n = 1 - prod (1 - 1/j^2) = 1/n exactly
    for s in est.samples:
        assert s.interval[0] <= 1.0 / s.start <= s.interval[1] + 1e-12


def test_limsup_interleaved_closed_form():
    inter = make_interleaved()
    est = limsup_estimate(inter, [10, 20, 100], tol=1e-6, k_max=1024)
    for s, k in zip(est.samples, (5, 10, 50)):
        assert s.partial == pytest.approx(2.0 / k - 1.0 / k**2, abs=1e-10)
        lo, hi = s.interval
        assert Fraction(lo) <= Fraction(2, k) - Fraction(1, k**2) <= Fraction(hi)
    # every 2-window is empty: the window tail certifies convergence to the partial
    assert not est.stalled
    assert [(s.truncation, s.window_tail_m) for s in est.samples] == [(16, 2)] * 3


def test_limsup_monotone_consistency_flag():
    est = limsup_estimate(make_nested(), [8, 16, 32], tol=1e-6, k_max=128)
    assert est.monotone_consistent
    assert not est.stalled
    assert est.fit_note == "accepted"
    # powerlaw-2's remainder past n + K is known to within about (n + K)^-2 / 2:
    # at K = 128 that is above tolerance, and the stall is reported
    est = limsup_estimate(make_powerlaw(1.0, 2.0), [8, 16, 32], tol=1e-6, k_max=128)
    assert est.monotone_consistent
    assert est.stalled
    assert est.fit_note.startswith("remainder stalled")


def test_limsup_schedule_validation():
    with pytest.raises(ValueError):
        limsup_estimate(make_coin(), [8, 16])
    with pytest.raises(ValueError):
        limsup_estimate(make_coin(), [8, 8, 16])


def test_aitken_guards():
    val, note = aitken_extrapolate([1.0, 1.0, 1.0])
    assert val is None and "zero" in note
    val, note = aitken_extrapolate([0.4, 0.6, 0.5])
    assert val is None and "sign" in note
    val, note = aitken_extrapolate([0.5, 0.4, 0.6])
    assert val is None
    # geometric decay extrapolates to its limit
    seq = [1.0 + 0.5**k for k in range(1, 6)]
    val, note = aitken_extrapolate(seq)
    assert note == "accepted"
    assert val == pytest.approx(1.0, abs=1e-12)


def test_alpha_point_respects_stall():
    powerlaw = make_powerlaw(1.0, 2.0)
    est = limsup_estimate(powerlaw, [8, 16, 32], tol=1e-6, k_max=128)
    assert est.stalled
    assert est.alpha_fit is None
    assert est.alpha_point == est.samples[-1].midpoint


def test_absorbing_chain_stalls_without_analytic_bound():
    # past time 1, "never active again" and "dead already" coincide, so the
    # all-complement remainder stalls at 1 - P(active at n) and no closed-form
    # tail bound exists for the chain: the interval stays honestly wide
    est = tail_union(make_absorbing(), 4, tol=1e-6, k_max=64)
    q = 0.5**3
    assert est.partial == pytest.approx(q, abs=1e-15)
    assert est.remainder_bound == pytest.approx(1.0 - q, abs=1e-15)
    assert est.union_tail_bound is None
    assert not est.tolerance_reached
    assert est.interval[1] == pytest.approx(1.0, abs=1e-12)


def test_certified_io_zero_models_have_shrinking_alpha():
    # whenever the series criterion certifies i.o.-probability zero, the
    # tail-union upper bounds must come down with it at desk scale
    from cantelli import Conclusion, sweep_prefix_len

    cases = [
        (make_nested(), 1, [8, 16, 32], 128),
        (make_interleaved(), 2, [20, 40, 100], 1024),
        (IndependentModel(PowerLaw(1.0, 2.0)), 0, [10, 100, 1000], 1 << 15),
    ]
    for model, m, schedule, k_max in cases:
        res = sweep_prefix_len(model, m, 2000).results[m]
        assert res.conclusion is Conclusion.IO_PROB_ZERO and res.certified
        est = limsup_estimate(model, schedule, tol=1e-6, k_max=k_max)
        assert est.alpha_upper < 0.1
        uppers = [s.interval[1] for s in est.samples]
        assert uppers[-1] <= uppers[0]


class CountingFamily(SequenceFamily):
    """A family that counts the indices it is evaluated at, and states no
    closed form: nothing bounds an independent remainder from below, so a
    start scans to k_max."""

    def __init__(self, inner: SequenceFamily):
        self.inner = inner
        self.evaluated = 0

    def value(self, n):
        self.evaluated += 1
        return self.inner.value(n)

    def values(self, lo, hi):
        self.evaluated += max(0, hi - lo + 1)
        return self.inner.values(lo, hi)

    def limit(self):
        return self.inner.limit()

    def describe(self):
        return self.inner.describe()


def test_limsup_evaluates_no_index_between_far_starts():
    # every start scans to k_max; the gaps between far starts are never
    # evaluated
    family = CountingFamily(PowerLaw(1.0, 1.0))
    est = limsup_estimate(IndependentModel(family), [10, 10**6, 4 * 10**6])
    assert family.evaluated <= sum(s.truncation for s in est.samples)


def test_limsup_evaluates_overlapping_starts_once_per_level():
    # each level evaluates the union of its starts' ranges, not each range
    starts, k_max = [10, 20, 40], 1024
    family = CountingFamily(PowerLaw(1.0, 1.0))
    est = limsup_estimate(IndependentModel(family), starts, k_max=k_max)
    levels, k = [(0, 16)], 16
    while k < k_max:
        levels.append((k, min(2 * k, k_max)))
        k = levels[-1][1]
    expected = sum(
        len({n + j for n in starts for j in range(first, end)}) for first, end in levels
    )
    assert [s.truncation for s in est.samples] == [k_max] * 3
    assert family.evaluated == expected < sum(s.truncation for s in est.samples)


@pytest.mark.parametrize(
    "make, starts, k_max",
    [(lambda: make_powerlaw(1.0, 1.0), [8, 16, 32], 2**17), (make_interleaved, [20, 40, 100], 2**15)],
    ids=["harmonic", "interleaved-nested"],
)
def test_limsup_levels_at_scale_equal_the_one_start_reference(make, starts, k_max):
    # the benchmark's far limsup commands, their levels wider than one scan
    # chunk: no padded interval is narrower than 1e-300, so no start stops early
    model = make()
    est = limsup_estimate(model, starts, tol=1e-300, k_max=k_max)
    assert [s.truncation for s in est.samples] == [k_max] * len(starts)
    assert k_max > limsup._SCAN_CHUNK
    assert est.samples == [reference_tail_union(model, n, 1e-300, k_max) for n in starts]


def test_long_independent_scans_pad_the_family_error_once():
    # the family's error is relative, so it moves the survival product by e
    # in all, not by e per term: at 2**20 terms each interval is 9.32e-10
    # wide, where k e made it 3.26e-9
    est = limsup_estimate(make_powerlaw(1.0, 2.0), [5, 1005, 2005], tol=1e-300, k_max=1 << 20)
    for s in est.samples:
        lo, hi = s.interval
        assert s.truncation == 1 << 20 and hi - lo < 1e-9, s
        assert Fraction(lo) <= Fraction(1, s.start) <= Fraction(hi), s


def test_enclosure_slack_grows_with_the_truncation():
    # powerlaw-2 from 5 over 2**20 terms: the remainder, a product of 2**20
    # rounded factors, takes partial + remainder 1.5e-12 past 1.  A chain has
    # no closed form and no padding, so the interval's upper end clamps to 1
    partial, remainder = 0.19999923706345724, 0.8000007629380222
    est = limsup._sample(make_absorbing(), 5, 1 << 20, partial, remainder, 1e-300, 1 << 20)
    assert est.interval == (partial, 1.0)
    with pytest.raises(ValueError, match="inconsistent enclosure"):
        TailUnionEstimate(5, 16, partial, remainder, None, None, False, interval=(partial, 1.0))
    with pytest.raises(ValueError, match="inconsistent enclosure"):
        TailUnionEstimate(1, 1 << 20, 0.5, 0.6, None, None, False, interval=(0.5, 1.0))


@pytest.mark.xfail(strict=True, reason="Markov scans derive no scan_error, so no padding")
def test_markov_intervals_hold_their_exact_value():
    # every state is an event, so u_n = 1 at every start; the scan's rounding
    # takes the sum at start 3 to 0.9999999999999998, and nothing pads it
    model = MarkovModel([[0.5, 0.5], [1 / 3, 2 / 3]], [0.5, 0.5], EventSchedule(2, constant=[0, 1]))
    est = limsup_estimate(model, [1, 2, 3], k_max=1)
    assert all(lo <= 1.0 <= hi for lo, hi in (s.interval for s in est.samples))
