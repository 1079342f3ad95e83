import dataclasses
import json
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.stats import binom

import cantelli.cli as cli
from cantelli import LimsupEstimate, NumericFaultError, TailUnionEstimate
from cantelli.cli import (
    EXIT_DISAGREEMENT,
    EXIT_MISMATCH,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_SPEC,
    limsup_results,
    main,
)
from cantelli.specfile import load_spec

from conftest import REPO, SPECS


def run(args):
    return main([str(a) for a in args])


def test_analyze_interleaved_least_m(tmp_path):
    out = tmp_path / "report.json"
    code = run(["analyze", SPECS / "interleaved-nested.json", "--terms", "2000",
                "--out", out])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert report["results"]["least_m_io_zero"] == 2
    assert report["results"]["least_m_io_zero_certified"] == 2
    by_m = {c["m"]: c for c in report["results"]["criteria"]}
    assert by_m[2]["conclusion"] == "io-prob-zero"
    assert by_m[1]["conclusion"] == "no-conclusion"


def test_analyze_coin_io_prob_one(tmp_path):
    out = tmp_path / "report.json"
    code = run(["analyze", SPECS / "coin-half.json", "--terms", "500", "--out", out])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert report["results"]["criteria"][0]["conclusion"] == "io-prob-one"
    assert report["results"]["criteria"][0]["certified"] is True


def test_analyze_decay_matches_the_criteria_that_used_it(tmp_path):
    # events hold only at times 1500..4999: the marginals look decayed up to
    # --terms 1000 but not up to 4096, so a second, wider probe set disagrees
    spec = tmp_path / "late-events.json"
    spec.write_text(json.dumps({
        "model": {
            "family": "markov",
            "transition": [[1.0]],
            "initial": [1.0],
            "events": {"mode": "explicit", "sets": [[]] * 1499 + [[0]] * 3500, "tail": []},
        }
    }))
    out = tmp_path / "report.json"
    assert run(["analyze", spec, "--terms", "1000", "--out", out]) == EXIT_OK
    results = json.loads(out.read_text())["results"]
    assert results["decay"]["verdict"] == "likely-zero-limit"
    for c in results["criteria"][1:]:
        assert c["conclusion"] == "io-prob-zero"
        assert c["note"].endswith(f"; marginal decay: {results['decay']['note']}")


ANALYZE_CRITERION_KEYS = {
    "m", "orientation", "conclusion", "certified", "verdict", "terms_evaluated",
    "partial_sum", "partial_sum_checkpoints", "tail_slope", "tail_residual",
    "zero_fraction", "first_terms", "note",
}


@pytest.mark.parametrize("spec", sorted(p.name for p in SPECS.glob("*.json")))
def test_analyze_report_keys(spec, tmp_path):
    # a field dropped from the criterion record changes the report on purpose
    out = tmp_path / "report.json"
    assert run(["analyze", SPECS / spec, "--terms", "500", "--out", out]) == EXIT_OK
    results = json.loads(out.read_text())["results"]
    assert set(results) == {
        "decay", "criteria", "least_m_io_zero", "least_m_io_zero_certified"
    }
    assert set(results["decay"]) == {"verdict", "note"}
    assert results["criteria"]
    for c in results["criteria"]:
        assert set(c) == ANALYZE_CRITERION_KEYS
        assert set(c["verdict"]) == {"label", "justification"}


def test_analyze_malformed_spec_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "model": {
            "family": "markov",
            "transition": [[0.6, 0.5], [0.5, 0.5]],
            "initial": [1.0, 0.0],
            "events": {"mode": "constant", "members": [0]},
        }
    }))
    code = run(["analyze", bad])
    assert code == EXIT_SPEC
    err = capsys.readouterr().err
    assert "transition[0]" in err


def test_too_few_terms_without_a_closed_form_exit_2(capsys):
    assert run(["analyze", SPECS / "markov-3state.json", "--terms", "50"]) == EXIT_SPEC
    err = capsys.readouterr().err
    assert "need 100 or a closed-form series class" in err
    assert "metadata" not in err


def test_reports_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run(["analyze", SPECS / "nested.json", "--terms", "800", "--out", out]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    c, d = tmp_path / "c.json", tmp_path / "d.json"
    for out in (c, d):
        assert run(["simulate", SPECS / "coin-half.json", "--count", "5000",
                    "--out", out]) == EXIT_OK
    assert c.read_bytes() == d.read_bytes()


def test_consecutive_calls_share_one_parser(capsys, monkeypatch):
    # main builds its parser once per process; a call after other commands and
    # a rejected flag parses and reports as the first call did, and a command
    # replaced after the parser was built is the one that runs
    analyze = ["analyze", SPECS / "nested.json", "--terms", "800"]
    assert run(analyze) == EXIT_OK
    first = capsys.readouterr().out
    assert run(["simulate", SPECS / "coin-half.json", "--count", "1000", "--seed", "3"]) == EXIT_OK
    with pytest.raises(SystemExit) as exc:
        run(["analyze", SPECS / "nested.json", "--no-such-flag"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(analyze) == EXIT_OK
    assert capsys.readouterr().out == first
    assert cli.build_parser() is cli.build_parser()
    monkeypatch.setattr(cli, "cmd_analyze", lambda args: EXIT_NUMERIC)
    assert run(analyze) == EXIT_NUMERIC


def test_report_numbers_round_trip(tmp_path):
    out = tmp_path / "r.json"
    run(["limsup", SPECS / "powerlaw-2.json", "--out", out])
    report = json.loads(out.read_text())
    reparsed = json.loads(json.dumps(report))
    assert reparsed == report
    sample = report["results"]["samples"][-1]
    assert sample["interval"][1] == report["results"]["alpha_upper"]


def test_series_csv_round_trip(tmp_path):
    out = tmp_path / "series.csv"
    code = run(["analyze", SPECS / "coin-half.json", "--terms", "200",
                "--m-max", "1", "--format", "csv", "--out", out])
    assert code == EXIT_OK
    m0 = tmp_path / "series.m0.csv"
    m1 = tmp_path / "series.m1.csv"
    assert m0.exists() and m1.exists()
    lines = m1.read_text().strip().splitlines()
    assert lines[0] == "n,term,partial_sum"
    n, term, partial = lines[3].split(",")
    assert (int(n), float(term)) == (3, 0.25)
    assert float(partial) == 0.75


def test_csv_requires_out_and_analyze(tmp_path, capsys):
    code = run(["analyze", SPECS / "coin-half.json", "--terms", "200", "--format", "csv"])
    assert code == EXIT_SPEC
    with pytest.raises(SystemExit) as exc:
        run(["limsup", SPECS / "coin-half.json", "--format", "csv"])
    assert exc.value.code == EXIT_SPEC


def test_limsup_commands(tmp_path):
    out = tmp_path / "coin.json"
    assert run(["limsup", SPECS / "coin-half.json", "--out", out]) == EXIT_OK
    report = json.loads(out.read_text())
    assert abs(report["results"]["alpha_point"] - 1.0) < 1e-6

    out2 = tmp_path / "nested.json"
    assert run(["limsup", SPECS / "nested.json", "--out", out2]) == EXIT_OK
    nested = json.loads(out2.read_text())
    assert nested["results"]["stalled"] is False
    for sample in nested["results"]["samples"]:
        assert sample["tolerance_reached"] is True and sample["truncation"] == 16
        assert (sample["window_tail_bound"], sample["window_tail_m"]) == (0.0, 1)
        assert sample["partial"] == pytest.approx(1.0 / sample["start"], abs=1e-12)

    out_h = tmp_path / "harmonic.json"
    assert run(["limsup", SPECS / "harmonic.json", "--out", out_h]) == EXIT_OK
    harmonic = json.loads(out_h.read_text())
    # the marginals' sum diverges, so every remainder is known at the first level
    assert harmonic["results"]["stalled"] is False
    for sample in harmonic["results"]["samples"]:
        assert sample["tolerance_reached"] is True and sample["truncation"] == 16
        assert sample["union_tail_lower"] == sample["remainder_bound"]
        assert sample["window_tail_bound"] is None

    out3 = tmp_path / "pl2.json"
    assert run(["limsup", SPECS / "powerlaw-2.json", "--out", out3]) == EXIT_OK
    pl2 = json.loads(out3.read_text())
    assert pl2["results"]["alpha_upper"] <= 0.002


@pytest.mark.parametrize("spec", sorted(p.name for p in SPECS.glob("*.json")))
def test_limsup_report_is_its_records(spec):
    # a field added to either record changes the report on purpose
    results, code = limsup_results(load_spec(SPECS / spec).model, (8, 16, 32), 1e-6, 256)
    assert code == EXIT_OK
    assert set(results) == {f.name for f in dataclasses.fields(LimsupEstimate)}
    sample_keys = {f.name for f in dataclasses.fields(TailUnionEstimate)}
    assert "interval" in sample_keys
    assert results["samples"] and all(set(s) == sample_keys for s in results["samples"])


@pytest.mark.parametrize("name", ["nested", "interleaved-nested", "markov-3state"])
def test_limsup_start_past_int64_is_spec_error(name, capsys):
    schedule = "1000,9223372036854775000,9223372036854775800"
    assert run(["limsup", SPECS / f"{name}.json", "--schedule", schedule]) == EXIT_SPEC
    assert capsys.readouterr().err.startswith("spec error: --schedule: ")
    # the largest start whose scan ends at 2**63 - 1 still runs
    last = (1 << 63) - 1 - 4096
    schedule = f"1000,2000,{last}"
    assert run(["limsup", SPECS / f"{name}.json", "--schedule", schedule, "--k-max", "4096",
                "--tol", "1e-300"]) == EXIT_OK


@pytest.mark.parametrize("schedule", ["5,1005,2005", "7,1007,2007"])
def test_limsup_powerlaw_at_large_k_max_encloses_one_over_n(schedule, tmp_path):
    # 2**20 terms round partial + remainder past 1 by more than a fixed 1e-12;
    # no enclosure is narrower than the tolerance, so every start scans them
    out = tmp_path / "limsup.json"
    code = run(["limsup", SPECS / "powerlaw-2.json", "--schedule", schedule,
                "--k-max", str(1 << 20), "--tol", "1e-300", "--out", out])
    assert code == EXIT_OK
    samples = json.loads(out.read_text())["results"]["samples"]
    assert [s["start"] for s in samples] == [int(n) for n in schedule.split(",")]
    for s in samples:
        assert s["truncation"] == 1 << 20
        lo, hi = s["interval"]
        assert lo <= 1.0 / s["start"] <= hi


def exact_tail_union(name, n):
    """u_n of an independent shipped spec: a Fraction, or an mpf at 40 digits."""
    if name in ("coin-half", "harmonic"):
        return Fraction(1)  # the marginals' sum diverges
    if name == "powerlaw-2":
        return Fraction(1, n)  # prod_{j>=n} (1 - j^-2) telescopes to (n - 1) / n
    # partial-maxima: sum_{j>=n} log1p(-j^-1.5) = -sum_{k>=1} zeta(1.5 k, n) / k
    with mpmath.workdps(40):
        log_survive, k = mpmath.mpf(0), 1
        while True:
            term = mpmath.zeta(mpmath.mpf(1.5) * k, n) / k
            log_survive -= term
            if term < mpmath.mpf(10) ** -45:
                return 1 - mpmath.exp(log_survive)
            k += 1


@pytest.mark.parametrize(
    "name, flags",
    [
        ("coin-half", []),
        ("harmonic", []),
        ("harmonic", ["--k-max", "131072"]),
        ("powerlaw-2", []),
        ("partial-maxima", []),
    ],
)
def test_independent_limsup_intervals_hold_the_exact_value(name, flags, tmp_path):
    out = tmp_path / "limsup.json"
    assert run(["limsup", SPECS / f"{name}.json", *flags, "--out", out]) == EXIT_OK
    results = json.loads(out.read_text())["results"]
    assert results["stalled"] is False
    for s in results["samples"]:
        lo, hi = s["interval"]
        exact = exact_tail_union(name, s["start"])
        if isinstance(exact, Fraction):
            assert Fraction(lo) <= exact <= Fraction(hi), s
        else:
            with mpmath.workdps(40):
                assert mpmath.mpf(lo) <= exact <= mpmath.mpf(hi), s
    if name == "harmonic":
        assert {s["truncation"] for s in results["samples"]} == {16}


def test_limsup_past_an_untailed_list_is_spec_error(tmp_path, capsys):
    path = tmp_path / "short.json"
    marginal = {"family": "explicit", "values": [0.5, 0.25, 0.125]}
    path.write_text(json.dumps({"model": {"family": "independent", "marginal": marginal}}))
    assert run(["limsup", path]) == EXIT_SPEC
    err = capsys.readouterr().err
    index = int(re.search(r"explicit list of length 3 queried at index (\d+)", err).group(1))
    assert index > 3


def test_limsup_default_start_past_int64_is_spec_error(tmp_path, capsys):
    spec = json.loads((SPECS / "nested.json").read_text())
    spec["defaults"]["schedule"] = [8, 16, 1 << 63]
    path = tmp_path / "far.json"
    path.write_text(json.dumps(spec))
    assert run(["limsup", path]) == EXIT_SPEC
    assert capsys.readouterr().err.startswith(f"spec error: {path}.defaults.schedule: ")


def test_simulate_clean_pass(tmp_path):
    out = tmp_path / "sim.json"
    code = run(["simulate", SPECS / "coin-half.json", "--count", "20000", "--out", out])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert report["results"]["flagged"] == 0


def test_simulate_markov_within_intervals(tmp_path):
    out = tmp_path / "sim.json"
    code = run(["simulate", SPECS / "markov-3state.json", "--count", "20000", "--out", out])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    for check in report["results"]["checks"]:
        assert check["flagged"] is False


def test_simulate_handles_exact_zero_and_one(tmp_path):
    # flip-flop marginals are exactly 0 or 1; the z-score degenerates and the
    # comparison must fall back to exact success counting
    out = tmp_path / "sim.json"
    code = run(["simulate", SPECS / "flipflop.json", "--count", "5000", "--out", out])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    exacts = {c["check"]: c["exact"] for c in report["results"]["checks"]}
    assert exacts["marginal n=1"] == 0.0
    assert exacts["marginal n=2"] == 1.0
    assert report["results"]["flagged"] == 0


def test_simulate_underflowing_se_is_not_a_disagreement(tmp_path):
    # exact values down to 4.9e-324: exact * (1 - exact) / count underflows to
    # 0, but an exact value in (0, 1) still takes the statistical test
    spec = {"model": {"family": "independent",
                      "marginal": {"family": "powerlaw", "scale": 1e-300, "exponent": 30.0}}}
    path = tmp_path / "underflow.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "sim.json"
    code = run(["simulate", path, "--count", "5000", "--seed", "5", "--horizon", "7",
                "--out", out])
    assert code == EXIT_OK
    checks = json.loads(out.read_text())["results"]["checks"]
    assert min(c["exact"] for c in checks) == 5e-324
    assert all(c["successes"] == 0 and c["z"] is not None for c in checks)
    assert not any(c["flagged"] for c in checks)


class Corrupted:
    """A backend whose first-occurrence terms, simulate's exact values, are
    ``corrupt(terms)``."""

    def __init__(self, inner, corrupt):
        self._inner = inner
        self._corrupt = corrupt

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def first_occurrence_terms(self, starts, count, carries=None):
        return [
            (self._corrupt(terms), complements, carry)
            for terms, complements, carry in self._inner.first_occurrence_terms(
                starts, count, carries
            )
        ]


def test_simulate_corrupted_backend_exit_4(tmp_path, monkeypatch):
    real_build = cli.build_model
    monkeypatch.setattr(
        cli,
        "build_model",
        lambda spec: Corrupted(real_build(spec), lambda terms: np.minimum(1.0, terms + 0.05)),
    )
    code = run(["simulate", SPECS / "coin-half.json", "--count", "20000",
                "--out", tmp_path / "sim.json"])
    assert code == EXIT_DISAGREEMENT


def test_simulate_flags_an_exact_twice_the_truth(tmp_path, monkeypatch):
    # the engine answers 0.1 where the marginals are 0.05
    spec = {"model": {"family": "independent",
                      "marginal": {"family": "explicit", "values": [0.05], "tail": 0.05}}}
    path = tmp_path / "five.json"
    path.write_text(json.dumps(spec))
    real_build = cli.build_model
    monkeypatch.setattr(
        cli, "build_model", lambda spec: Corrupted(real_build(spec), lambda terms: 2.0 * terms)
    )
    out = tmp_path / "sim.json"
    assert run(["simulate", path, "--count", "5000", "--out", out]) == EXIT_DISAGREEMENT
    checks = json.loads(out.read_text())["results"]["checks"]
    assert all(c["flagged"] for c in checks if c["check"].startswith("marginal"))


def test_simulate_flags_by_the_binomial_tail(tmp_path):
    # about 0.05 failures are expected at 0.99999 over 5000 paths: one failure
    # sits 4.33 normal sigma out, but 5% of the binomial law lies at or past it
    spec = {"model": {"family": "independent",
                      "marginal": {"family": "explicit", "values": [1.0],
                                   "tail": 0.8078545813302384}}}
    path = tmp_path / "near-one.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "sim.json"
    code = run(["simulate", path, "--count", "5000", "--seed", "4", "--horizon", "8",
                "--out", out])
    assert code == EXIT_OK
    union = {c["check"]: c for c in json.loads(out.read_text())["results"]["checks"]}["union n=2..8"]
    assert union["successes"] == 4999 and union["z"] < -4.0 and not union["flagged"]


def _exactly_improbable(successes, count, p):
    # the binomial tail on the observed side of the mean, from scipy
    tail = (
        binom.cdf(successes, count, p) if successes <= count * p
        else binom.sf(successes - 1, count, p)
    )
    return bool(tail < 0.5 * math.erfc(cli.SIGMA_FLAG / math.sqrt(2.0)))


def test_improbable_is_the_exact_binomial_tail():
    # the first two sum 14 and 8 terms before the tail is decided; the rest
    # put the successes 3.5 to 5 standard deviations from the mean, either side
    cases = [(707, 400000, 0.0020463477809189545), (1102, 5000, 0.24391087688713198)]
    rng = random.Random(2026)
    while len(cases) < 402:
        count = int(10 ** rng.uniform(2.0, 6.0))
        p = 10 ** rng.uniform(-4.0, math.log10(0.9999))
        z = rng.uniform(3.5, 5.0) * rng.choice((-1, 1))
        successes = round(count * p + z * math.sqrt(count * p * (1.0 - p)))
        if 0 <= successes <= count:
            cases.append((successes, count, p))
    wrong = [c for c in cases if cli._improbable(*c) != _exactly_improbable(*c)]
    assert not wrong


def test_verify_ok_and_mismatch_exit_5(tmp_path, monkeypatch):
    assert run(["verify", SPECS / "markov-3state.json", "--horizon", "7",
                "--out", tmp_path / "v.json"]) == EXIT_OK
    report = json.loads((tmp_path / "v.json").read_text())
    assert report["results"]["max_diff"] < 1e-10

    real_oracle = cli.oracle_window_prob
    monkeypatch.setattr(
        cli, "oracle_window_prob", lambda sp, w: min(1.0, real_oracle(sp, w) + 1e-6)
    )
    code = run(["verify", SPECS / "markov-3state.json", "--horizon", "7",
                "--out", tmp_path / "v2.json"])
    assert code == EXIT_MISMATCH


def test_verify_horizon_past_cap_is_spec_error(capsys):
    assert run(["verify", SPECS / "coin-half.json", "--horizon", "20"]) == EXIT_SPEC
    assert capsys.readouterr().err.startswith("spec error: --horizon: ")


def test_verify_one_state_chain_past_code_cap_is_spec_error(tmp_path, capsys):
    # one state path, but the oracle bins 2^24 indicator codes
    spec = {
        "name": "one-state",
        "model": {
            "family": "markov",
            "transition": [[1.0]],
            "initial": [1.0],
            "events": {"mode": "constant", "members": [0]},
        },
    }
    path = tmp_path / "one-state.json"
    path.write_text(json.dumps(spec))
    assert run(["verify", path, "--horizon", "24"]) == EXIT_SPEC
    assert "2^24 indicator codes exceed the cap of 10000000" in capsys.readouterr().err


@pytest.mark.parametrize("horizon", [100_000_000, (1 << 63) - 1])
def test_verify_markov_far_horizon_is_spec_error_without_the_power(horizon, capsys):
    # 3**horizon is never built: the horizon alone passes the cap's bit length
    assert run(["verify", SPECS / "markov-3state.json", "--horizon", horizon]) == EXIT_SPEC
    err = capsys.readouterr().err
    assert err.startswith("spec error: --horizon: ")
    assert f"3^{horizon} state paths exceed the cap of 10000000" in err


@pytest.mark.parametrize("name", ["markov-3state", "interleaved-nested", "powerlaw-2"])
def test_simulate_at_the_last_index_is_spec_error(name, capsys):
    # index arrays reaching 2**63 - 1 stay int64, so the request fails as too big
    assert run(["simulate", SPECS / f"{name}.json", "--horizon", (1 << 63) - 1]) == EXIT_SPEC
    assert capsys.readouterr().err.startswith("spec error: ")


@pytest.mark.parametrize("size", [1 << 62, 10**15])
@pytest.mark.parametrize(
    "command, flag, sizes",
    [("analyze", "--terms", "--terms, {spec}.defaults.m_max"),
     ("simulate", "--horizon", "{spec}.defaults.count, --horizon")],
)
def test_sizes_past_memory_name_their_sources(command, flag, sizes, size, capsys):
    # 2**62 passes sys.maxsize bytes, where numpy raised an unnamed ValueError;
    # 10**15 is refused by the allocator
    spec = SPECS / "coin-half.json"
    assert run([command, spec, flag, size]) == EXIT_SPEC
    assert capsys.readouterr().err == (
        f"spec error: {sizes.format(spec=spec)}: the request does not fit in memory\n"
    )


@pytest.mark.parametrize(
    "model",
    [
        {"family": "independent",
         "marginal": {"family": "explicit", "values": [0.5, 0.25, 0.125, 0.5, 0.5, 0.5]}},
        {"family": "markov", "transition": [[0.5, 0.5], [0.25, 0.75]], "initial": [1.0, 0.0],
         "events": {"mode": "explicit", "sets": [[0], [1], [0], [], [0, 1], [1]]}},
        {"family": "latent-uniform", "num_latents": 2, "coloring": [0, 1],
         "thresholds": {"family": "explicit", "values": [0.9, 0.8, 0.5, 0.4, 0.25, 0.2]}},
    ],
)
def test_verify_reads_no_index_past_the_horizon(model, tmp_path):
    # a model defined only up to index 6 verifies at horizon 6, and not past it
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"name": "short", "model": model}))
    assert run(["verify", path, "--horizon", "6", "--out", tmp_path / "v.json"]) == EXIT_OK
    assert json.loads((tmp_path / "v.json").read_text())["results"]["checks_run"] == 63
    assert run(["verify", path, "--horizon", "7"]) == EXIT_SPEC


@pytest.mark.parametrize("name", [path.stem for path in sorted(SPECS.glob("*.json"))])
def test_verify_checks_the_rows_the_commands_report(name, tmp_path):
    # per start n, the prefix windows, the all-complement windows and the
    # unions over n..h: 3 h (h + 1) / 2 rows, every window a prefix window
    out = tmp_path / "v.json"
    assert run(["verify", SPECS / f"{name}.json", "--out", out]) == EXIT_OK
    results = json.loads(out.read_text())["results"]
    h = load_spec(SPECS / f"{name}.json").defaults.horizon
    assert results["horizon"] == h and results["checks_run"] == 3 * h * (h + 1) // 2
    windows = [row for row in results["worst"] if row["kind"] == "window"]
    assert all(row["orientation"] == "prefix-complement" for row in windows)


@pytest.mark.parametrize("horizon", ["0", "-4"])
def test_simulate_horizon_below_one_is_spec_error(horizon, capsys):
    # no check fits below horizon 1, and an empty list must not pass
    assert run(["simulate", SPECS / "coin-half.json", "--horizon", horizon]) == EXIT_SPEC
    assert "horizon must be >= 1" in capsys.readouterr().err


def test_simulate_spec_default_horizon_zero_is_spec_error(tmp_path, capsys):
    spec = json.loads((SPECS / "coin-half.json").read_text())
    spec.setdefault("defaults", {})["horizon"] = 0
    path = tmp_path / "h0.json"
    path.write_text(json.dumps(spec))
    assert run(["simulate", path]) == EXIT_SPEC
    assert capsys.readouterr().err.startswith(f"spec error: {path}.defaults.horizon: ")


def test_simulate_negative_seed_names_the_flag(capsys):
    assert run(["simulate", SPECS / "coin-half.json", "--seed", "-1"]) == EXIT_SPEC
    assert "spec error: --seed: expected a non-negative integer, got -1" in capsys.readouterr().err


def test_simulate_negative_default_seed_names_the_spec_field(tmp_path, capsys):
    spec = json.loads((SPECS / "coin-half.json").read_text())
    spec.setdefault("defaults", {})["seed"] = -3
    path = tmp_path / "seed.json"
    path.write_text(json.dumps(spec))
    assert run(["simulate", path]) == EXIT_SPEC
    assert f"{path}.defaults.seed: expected a non-negative integer, got -3" in (
        capsys.readouterr().err
    )


def test_numeric_fault_exit_3(tmp_path, monkeypatch):
    real_build = cli.build_model

    class Faulty:
        def __init__(self, inner):
            self._inner = inner

        def __getattr__(self, name):
            return getattr(self._inner, name)

        def window_series(self, max_prefix_len, num_terms):
            raise NumericFaultError("injected non-finite value")

    monkeypatch.setattr(cli, "build_model", lambda spec: Faulty(real_build(spec)))
    code = run(["analyze", SPECS / "coin-half.json", "--terms", "200",
                "--out", tmp_path / "r.json"])
    assert code == EXIT_NUMERIC


def test_oversized_request_exit_2(tmp_path, monkeypatch, capsys):
    real_build = cli.build_model

    class Oversized:
        def __init__(self, inner):
            self._inner = inner

        def __getattr__(self, name):
            return getattr(self._inner, name)

        def window_series(self, max_prefix_len, num_terms):
            raise MemoryError("injected allocation failure")

    monkeypatch.setattr(cli, "build_model", lambda spec: Oversized(real_build(spec)))
    code = run(["analyze", SPECS / "powerlaw-2.json", "--terms", "200",
                "--out", tmp_path / "r.json"])
    assert code == EXIT_SPEC
    assert "does not fit in memory" in capsys.readouterr().err


def test_table_format_renders(capsys):
    assert run(["analyze", SPECS / "nested.json", "--terms", "500",
                "--format", "table"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "least m concluding" in out
    assert run(["limsup", SPECS / "coin-half.json", "--format", "table"]) == EXIT_OK
    assert "alpha" in capsys.readouterr().out


def test_limsup_table_notes_a_stall(capsys):
    args = ["limsup", SPECS / "partial-maxima.json", "--k-max", "64", "--format", "table"]
    assert run(args) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[2].split() == ["start", "K", "partial", "upper", "reached"]
    assert [int(row.split()[0]) for row in lines[3 : lines.index("", 3)]] == [10, 100, 1000]
    assert lines[-1] == "note: remainder stalled above tolerance for at least one start"


def test_simulate_table_lists_every_check(capsys):
    assert run(["simulate", SPECS / "coin-half.json", "--format", "table"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    rows = [line for line in lines if line.endswith(("  ok", "  FLAG"))]
    assert len(rows) == 13 and rows[0].startswith("marginal n=1 ")
    assert lines[-1] == "disagreements beyond 4 sigma: 0"


def test_verify_table_lists_the_worst_rows(capsys):
    assert run(["verify", SPECS / "flipflop.json", "--format", "table"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("checks: 234, ")
    assert lines[3].split() == ["kind", "n", "m", "engine", "oracle", "diff"]
    assert len(lines[4:]) == 10 and all(line.startswith("window ") for line in lines[4:])


def test_table_prints_no_negative_zero_slope(capsys):
    # markov-3state's m = 2 tail is constant and fits a slope of -7e-31
    assert run(["analyze", SPECS / "markov-3state.json", "--format", "table"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "-0.0000" not in out and out.count(" 0.0000\n") == 4


def test_missing_spec_file_exit_2(tmp_path, capsys):
    assert run(["analyze", tmp_path / "nope.json"]) == EXIT_SPEC
    assert f"{tmp_path / 'nope.json'}: spec file not found" in capsys.readouterr().err
    assert run(["analyze", tmp_path]) == EXIT_SPEC
    assert f"{tmp_path}: cannot read the spec file" in capsys.readouterr().err
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"name": "caf\xe9", "model": {}}')
    assert run(["analyze", latin]) == EXIT_SPEC
    assert f"{latin}: not UTF-8 text" in capsys.readouterr().err


def test_unwritable_out_exit_2(tmp_path, capsys):
    missing = tmp_path / "missing"
    for fmt, out in [("json", missing / "r.json"), ("csv", missing / "x.csv"), ("json", tmp_path)]:
        assert run(["analyze", SPECS / "coin-half.json", "--terms", "200", "--format", fmt,
                    "--out", out]) == EXIT_SPEC
        # csv rows go to x.m0.csv, so the message is matched up to the suffix
        assert f"--out: cannot write {out.parent / out.stem}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "limsup", "simulate", "verify"])
def test_nan_markov_spec_exit_2(tmp_path, command, capsys):
    spec = json.loads((SPECS / "markov-3state.json").read_text())
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(spec).replace("0.1", "NaN", 1))
    assert "NaN" in path.read_text()
    assert run([command, path]) == EXIT_SPEC
    assert "spec.model.transition[" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["analyze", "--tol", "nan"],
        ["limsup", "--tol", "nan"],
        ["limsup", "--tol", "inf"],
        ["analyze", "--tol", "-1"],
        ["analyze", "--m-max", "-1"],
        ["analyze", "--tol", "inf"],
        ["analyze", "--tol", "1"],
        ["analyze", "--tol", "1e300"],
        ["analyze", "--terms", "0"],
        ["analyze", "--terms", "-5"],
        ["analyze", "--terms", "50"],
        ["analyze", "--m-max", "9"],
        ["analyze", "--tol", "0"],
        ["analyze", "--tol", "2"],
        ["limsup", "--tol", "0"],
        ["limsup", "--k-max", "0"],
        ["limsup", "--schedule", "1,2"],
        ["limsup", "--schedule", "3,2,1"],
        ["limsup", "--schedule", "0,2,3"],
        ["simulate", "--count", "50"],
        ["simulate", "--horizon", "0"],
        ["simulate", "--seed", "-1"],
        ["verify", "--horizon", "0"],
        ["verify", "--horizon", "15"],
        # past the int64 index range
        ["analyze", "--terms", "100000000000000000000"],
        ["simulate", "--horizon", "100000000000000000000"],
        ["limsup", "--k-max", "100000000000000000000"],
    ],
)
def test_bad_flag_values_exit_2(args, capsys):
    assert run([args[0], SPECS / "markov-3state.json", *args[1:]]) == EXIT_SPEC
    # the message names the flag that gave the value
    assert capsys.readouterr().err.startswith(f"spec error: {args[1]}: ")


@pytest.mark.parametrize(
    "command, spec, key, value",
    [
        ("analyze", "coin-half", "terms", 0),
        ("analyze", "coin-half", "m_max", 9),
        ("limsup", "coin-half", "schedule", [1, 2]),
        ("limsup", "coin-half", "k_max", 0),
        ("simulate", "coin-half", "count", 50),
        ("verify", "coin-half", "horizon", 15),
    ],
)
def test_bad_spec_default_names_the_spec_field(command, spec, key, value, tmp_path, capsys):
    data = json.loads((SPECS / f"{spec}.json").read_text())
    data.setdefault("defaults", {})[key] = value
    path = tmp_path / "bad-default.json"
    path.write_text(json.dumps(data))
    assert run([command, path]) == EXIT_SPEC
    assert capsys.readouterr().err.startswith(f"spec error: {path}.defaults.{key}: ")


def test_bad_fallback_value_names_the_flag_and_its_default(tmp_path, capsys):
    # the spec sets no defaults, so verify's horizon is the built-in 10
    path = tmp_path / "six.json"
    path.write_text(json.dumps({"model": {
        "family": "markov",
        "transition": [[1 / 6] * 6] * 6,
        "initial": [1 / 6] * 6,
        "events": {"mode": "constant", "members": [0]},
    }}))
    assert run(["verify", path]) == EXIT_SPEC
    assert capsys.readouterr().err == (
        "spec error: --horizon (default 10): 6^10 state paths exceed the cap of 10000000\n"
    )


def test_non_string_model_family_exit_2(tmp_path, capsys):
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"model": {"family": []}}))
    assert run(["analyze", path]) == EXIT_SPEC
    assert capsys.readouterr().err.startswith("spec error: spec.model.family: ")


def test_spec_decay_tolerance_of_one_or_more_exit_2(tmp_path, capsys):
    # every marginal is below a tolerance of 2, which would read a recurrent chain
    # as decaying; limsup's remainder tolerance only stops its sums early
    spec = json.loads((SPECS / "flipflop.json").read_text())
    spec["defaults"]["tol"] = 2.0
    path = tmp_path / "tol2.json"
    path.write_text(json.dumps(spec))
    assert run(["analyze", path]) == EXIT_SPEC
    assert capsys.readouterr().err.startswith(
        f"spec error: {path}.defaults.tol: decay tolerance must be in (0, 1)"
    )
    assert run(["limsup", path]) == EXIT_OK


def _power_law_spec(tmp_path, scale, exponent):
    path = tmp_path / "power.json"
    path.write_text(json.dumps({"model": {
        "family": "independent",
        "marginal": {"family": "powerlaw", "scale": scale, "exponent": exponent},
    }}))
    return path


@pytest.mark.parametrize("command", ["analyze", "limsup", "simulate", "verify"])
def test_overflowing_power_law_runs_clean(tmp_path, command):
    # n ** 400 overflows from n = 6: an overflowed power is +inf and clamps to 1
    spec = _power_law_spec(tmp_path, 1e-300, -400.0)
    proc = subprocess.run(
        [sys.executable, "-m", "cantelli.cli", command, str(spec)],
        cwd=REPO,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stderr.startswith(f"[cantelli] {command} finished in ")
    assert len(proc.stderr.splitlines()) == 1, proc.stderr


def test_overflow_spec_note_prints_the_exponent_sign_once(tmp_path):
    spec, out = _power_law_spec(tmp_path, 1e-300, -400.0), tmp_path / "report.json"
    assert run(["analyze", spec, "--terms", "100", "--out", out]) == EXIT_OK
    note = json.loads(out.read_text())["results"]["criteria"][0]["note"]
    assert "p_n = min(1, 1e-300*n^400)" in note


@pytest.mark.parametrize("family", ["powerlaw", "logpower"])
def test_subnormal_scale_exit_2(tmp_path, family, capsys):
    spec = _power_law_spec(tmp_path, 1e-310, 2.0)
    spec.write_text(spec.read_text().replace('"powerlaw"', f'"{family}"'))
    assert run(["analyze", spec]) == EXIT_SPEC
    assert "spec.model.marginal.scale: " in capsys.readouterr().err


def test_reader_closing_the_pipe_keeps_the_exit_code():
    # the reader is gone before the report is written: no traceback, and the
    # command's own exit code, not 1 from a BrokenPipeError
    proc = subprocess.Popen(
        [sys.executable, "-m", "cantelli.cli", "verify", str(SPECS / "markov-3state.json"),
         "--horizon", "12"],
        cwd=REPO,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read().decode()
    assert proc.wait() == EXIT_OK
    assert "Traceback" not in err and "BrokenPipeError" not in err
