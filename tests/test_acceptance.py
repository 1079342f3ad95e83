"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
Every tolerance is pinned here; nothing is deferred to later calibration.
"""

from __future__ import annotations

import contextlib
import json
import math
import time

import numpy as np
import pytest

from cantelli import (
    Conclusion,
    DecayVerdict,
    IndependentModel,
    PowerLaw,
    VerdictLabel,
    build_outcome_space,
    estimate_window_prob,
    limsup_estimate,
    oracle_union_prob,
    oracle_window_prob,
    sweep_prefix_len,
    tail_union,
)
from cantelli.cli import main as cli_main
from cantelli.windows import WindowPattern, all_complement, first_occurrence

from conftest import (
    make_coin,
    make_equal_rows,
    make_interleaved,
    make_nested,
    random_independent,
    random_latent,
    random_markov,
    reference_window_prob,
)


@contextlib.contextmanager
def criterion(num: int, label: str, budget: float | None = None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL: {label}")
        raise
    dt = time.perf_counter() - t0
    if budget is not None and dt > budget:
        print(f"ACCEPTANCE {num:02d} FAIL: {label} (runtime {dt:.1f}s over {budget:.0f}s)")
        raise AssertionError(f"criterion {num} exceeded runtime budget: {dt:.1f}s > {budget}s")
    print(f"ACCEPTANCE {num:02d} PASS: {label} ({dt:.1f}s)")


MARKOV_HORIZON = {2: 12, 3: 10, 4: 9}


def _battery(seed: int = 20260808):
    """>= 100 randomized models with their oracle horizons."""
    rng = np.random.default_rng(seed)
    models = []
    for _ in range(40):
        models.append((random_independent(rng, 12), 12))
    for _ in range(30):
        model = random_markov(rng, max_states=4)
        models.append((model, MARKOV_HORIZON[model.num_states]))
    for _ in range(30):
        models.append((random_latent(rng, 12), 12))
    return models


@pytest.fixture(scope="module")
def battery_with_spaces():
    return [(m, h, build_outcome_space(m, h)) for m, h in _battery()]


def _all_windows(horizon: int):
    for n in range(1, horizon + 1):
        for m in range(0, horizon - n + 1):
            yield first_occurrence(n, m)
            if m >= 1:
                yield WindowPattern(n, m + 1, 1)  # A_n, then m complements
        for length in range(1, horizon - n + 2):
            yield all_complement(n, length)


def test_criterion_01_oracle_equivalence(battery_with_spaces):
    with criterion(1, "oracle equivalence on 100 randomized models", budget=60.0):
        assert len(battery_with_spaces) >= 100
        worst = 0.0
        for model, horizon, space in battery_with_spaces:
            for w in _all_windows(horizon):
                diff = abs(reference_window_prob(model, w) - oracle_window_prob(space, w))
                worst = max(worst, diff)
                assert diff <= 1e-10
        print(f"  worst engine-vs-oracle diff: {worst:.2e}")


def test_criterion_02_partition_identity(battery_with_spaces):
    with criterion(2, "first-occurrence partition identity"):
        for model, _, _ in battery_with_spaces:
            for n in (1, 2, 3):
                for length in range(1, 13):
                    [(terms, complements, _)] = model.first_occurrence_terms([n], length)
                    total = float(terms.sum()) + float(complements[-1])
                    assert abs(total - 1.0) <= 1e-12


def test_criterion_03_truncated_union_identity(battery_with_spaces):
    with criterion(3, "truncated first-occurrence sum equals union probability"):
        for model, horizon, space in battery_with_spaces:
            for n in (1, 2):
                for k in (1, 4, min(9, horizon - n + 1)):
                    partial = float(model.first_occurrence_terms([n], k)[0][0].sum())
                    assert abs(partial - oracle_union_prob(space, n, k - 1)) <= 1e-10


def test_criterion_04_termwise_domination():
    with criterion(4, "termwise domination chains, 1000 spot checks"):
        rng = np.random.default_rng(99)
        builders = [random_independent, random_markov, random_latent]
        checks = 0
        while checks < 1000:
            model = builders[checks % 3](rng)
            n = int(rng.integers(1, 12))
            m = int(rng.integers(1, 6))
            chain = [
                reference_window_prob(model, first_occurrence(n + j, m - j)) for j in range(m + 1)
            ]
            for longer, shorter in zip(chain, chain[1:]):
                assert longer <= shorter + 1e-12
            marginal = reference_window_prob(model, first_occurrence(n + m, 0))
            assert chain[-1] == pytest.approx(marginal, abs=0)
            checks += 1


def test_criterion_05_nested_showcase():
    with criterion(5, "nested model: divergent marginals, empty one-gap windows", budget=5.0):
        nested = make_nested()
        sweep = sweep_prefix_len(nested, 1, 10000)
        marginal_report = sweep.results[0]
        reference = math.fsum(min(1.0, 1.0 / n) for n in range(1, 10001))
        assert marginal_report.partial_sum == pytest.approx(reference, abs=1e-10)
        assert marginal_report.partial_sum >= 9.0

        gap_report = sweep.results[1]
        assert np.all(gap_report.terms == 0.0)
        assert gap_report.verdict.label is VerdictLabel.CERTIFIED_CONVERGENT

        result = sweep.results[1]
        assert sweep.decay[0] is DecayVerdict.CERTIFIED_ZERO_LIMIT
        assert result.conclusion is Conclusion.IO_PROB_ZERO
        assert result.certified


def test_criterion_06_interleaved_showcase():
    with criterion(6, "interleaved model: only the two-gap criterion certifies", budget=5.0):
        inter = make_interleaved()
        sweep = sweep_prefix_len(inter, 3, 10000)
        one_gap = sweep.results[1]
        assert one_gap.tail_fit.slope == pytest.approx(-1.0, abs=0.1)
        sums = one_gap.partial_sums
        increments = [
            sums[99], sums[999] - sums[99], sums[9999] - sums[999],
        ]
        assert all(inc >= 2.0 for inc in increments)  # keeps growing every decade

        two_gap = sweep.results[2]
        assert np.all(two_gap.terms == 0.0)
        assert two_gap.verdict.label is VerdictLabel.CERTIFIED_CONVERGENT

        assert sweep.least_io_zero == 2
        assert sweep.least_certified_io_zero == 2


def test_criterion_07_limsup_showcase():
    with criterion(7, "tail-union limit showcases", budget=10.0):
        coin_est = limsup_estimate(make_coin(), [8, 16, 32], tol=1e-6, k_max=64)
        assert abs(coin_est.alpha_point - 1.0) <= 1e-6
        for sample in coin_est.samples:
            # the marginals' sum diverges, so the remainder past the first
            # level is known on both sides: it is the all-complement 2^-16
            assert sample.truncation == 16 and sample.tolerance_reached

        pl2 = IndependentModel(PowerLaw(1.0, 2.0))
        pl2_est = limsup_estimate(pl2, [10, 100, 1000], tol=1e-6, k_max=1 << 15)
        assert pl2_est.alpha_upper <= 0.002

        inter = make_interleaved()
        for k in (5, 10, 50):
            est = tail_union(inter, 2 * k, tol=1e-6, k_max=1024)
            assert est.partial == pytest.approx(2.0 / k - 1.0 / k**2, abs=1e-10)


def test_criterion_08_monte_carlo_coverage():
    with criterion(8, "Wilson coverage >= 90/100 at 1e5 samples, reproducible", budget=120.0):
        rng = np.random.default_rng(424242)
        builders = [random_independent, random_markov, random_latent]
        estimates = []
        covered = 0
        for i in range(100):
            model = builders[i % 3](rng)
            n = int(rng.integers(1, 5))
            m = int(rng.integers(0, 4))
            w = first_occurrence(n, m)
            exact = reference_window_prob(model, w)
            est = estimate_window_prob(model, w, 100000, seed=5000 + i)
            estimates.append((i, w, est))
            covered += est.lower <= exact <= est.upper
        assert covered >= 90
        print(f"  coverage: {covered}/100")
        # bit-identical reproduction for a few spot checks
        rng = np.random.default_rng(424242)
        for i in range(100):
            model = builders[i % 3](rng)
            rng.integers(1, 5), rng.integers(0, 4)  # keep the stream aligned
            if i in (0, 17, 63):
                idx, w, est = estimates[i]
                assert estimate_window_prob(model, w, 100000, seed=5000 + i) == est


def test_criterion_09_equal_row_embedding():
    with criterion(9, "equal-row chain agrees with the independent model"):
        from cantelli import ExplicitList

        rng = np.random.default_rng(7)
        checks = 0
        while checks < 1000:
            s = int(rng.integers(2, 5))
            row = rng.random(s) + 0.05
            row /= row.sum()
            initial = rng.random(s) + 0.05
            initial /= initial.sum()
            members = sorted(
                int(x) for x in rng.choice(s, size=int(rng.integers(1, s)), replace=False)
            )
            chain = make_equal_rows(row, initial, members)
            indep = IndependentModel(
                ExplicitList(
                    (float(initial[members].sum()),), tail=float(row[members].sum())
                )
            )
            for _ in range(25):
                n = int(rng.integers(1, 12))
                m = int(rng.integers(0, 6))
                # a prefix window, or A_n then m complements
                w = first_occurrence(n, m) if rng.random() < 0.5 else WindowPattern(n, m + 1, 1)
                assert reference_window_prob(chain, w) == pytest.approx(
                    reference_window_prob(indep, w), abs=1e-12
                )
                checks += 1


def test_criterion_10_analyze_performance(tmp_path):
    with criterion(10, "analyze: 1e4 terms, 16-state chain, m <= 4", budget=10.0):
        rng = np.random.default_rng(1234)
        size = 16
        # dyadic rows survive the JSON round trip with row sums exactly 1
        weights = rng.integers(1, 64, size=(size, size))
        rows = [[int(w) / 1024 for w in row] for row in weights]
        for row in rows:
            row[-1] = (1024 - sum(int(x * 1024) for x in row[:-1])) / 1024
        spec = {
            "name": "perf-16",
            "model": {
                "family": "markov",
                "transition": rows,
                "initial": [1.0] + [0.0] * (size - 1),
                "events": {"mode": "constant", "members": [0, 5, 11]},
            },
        }
        spec_path = tmp_path / "perf-16.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "report.json"
        code = cli_main(
            ["analyze", str(spec_path), "--terms", "10000", "--m-max", "4",
             "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert len(report["results"]["criteria"]) == 5
        assert report["results"]["criteria"][4]["terms_evaluated"] == 10000
