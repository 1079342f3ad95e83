import json
import os
import subprocess
import sys

import numpy as np
import pytest

import cantelli.cli as cli
from cantelli import NumericFaultError
from cantelli.cli import (
    EXIT_DISAGREEMENT,
    EXIT_MISMATCH,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_SPEC,
    main,
)

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
    assert nested["results"]["stalled"] is True
    last = nested["results"]["samples"][-1]
    assert last["tolerance_reached"] is False
    n_last = last["start"]
    assert last["partial"] == pytest.approx(1.0 / n_last, abs=1e-12)

    out3 = tmp_path / "pl2.json"
    assert run(["limsup", SPECS / "powerlaw-2.json", "--out", out3]) == EXIT_OK
    pl2 = json.loads(out3.read_text())
    assert pl2["results"]["alpha_upper"] <= 0.002


@pytest.mark.parametrize("name", ["nested", "interleaved-nested", "markov-3state"])
def test_limsup_start_past_int64_is_spec_error(name, capsys):
    schedule = "1000,9223372036854775000,9223372036854775800"
    assert run(["limsup", SPECS / f"{name}.json", "--schedule", schedule]) == EXIT_SPEC
    assert "spec error: --schedule" in capsys.readouterr().err
    # the largest start whose scan ends at 2**63 - 1 still runs
    last = (1 << 63) - 1 - 4096
    schedule = f"1000,2000,{last}"
    assert run(["limsup", SPECS / f"{name}.json", "--schedule", schedule, "--k-max", "4096",
                "--tol", "1e-300"]) == EXIT_OK


def test_limsup_default_start_past_int64_is_spec_error(tmp_path, capsys):
    spec = json.loads((SPECS / "nested.json").read_text())
    spec["defaults"]["schedule"] = [8, 16, 1 << 63]
    path = tmp_path / "far.json"
    path.write_text(json.dumps(spec))
    assert run(["limsup", path]) == EXIT_SPEC
    assert "defaults.schedule" in capsys.readouterr().err


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


def test_simulate_corrupted_backend_exit_4(tmp_path, monkeypatch):
    real_build = cli.build_model

    class Corrupted:
        def __init__(self, inner):
            self._inner = inner

        def __getattr__(self, name):
            return getattr(self._inner, name)

        def window_series(self, max_prefix_len, num_terms):
            # simulate reads its exact window values from the series table
            terms, empty = self._inner.window_series(max_prefix_len, num_terms)
            return np.minimum(1.0, terms + 0.05), empty

    monkeypatch.setattr(cli, "build_model", lambda spec: Corrupted(real_build(spec)))
    code = run(["simulate", SPECS / "coin-half.json", "--count", "20000",
                "--out", tmp_path / "sim.json"])
    assert code == EXIT_DISAGREEMENT


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
    assert "spec error" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "model",
    [
        {"family": "independent",
         "marginal": {"family": "explicit", "values": [0.5, 0.25, 0.125, 0.5, 0.5, 0.5]}},
        {"family": "markov", "transition": [[0.5, 0.5], [0.25, 0.75]], "initial": [1.0, 0.0],
         "events": {"mode": "explicit", "sets": [[0], [1], [0], [], [0, 1], [1]]}},
    ],
)
def test_verify_reads_no_index_past_the_horizon(model, tmp_path):
    # a model defined only up to index 6 verifies at horizon 6, and not past it
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"name": "short", "model": model}))
    assert run(["verify", path, "--horizon", "6", "--out", tmp_path / "v.json"]) == EXIT_OK
    assert json.loads((tmp_path / "v.json").read_text())["results"]["checks_run"] == 78
    assert run(["verify", path, "--horizon", "7"]) == EXIT_SPEC


@pytest.mark.parametrize("horizon", ["0", "-4"])
def test_simulate_horizon_below_one_is_spec_error(horizon, capsys):
    # no check fits below horizon 1, and an empty list must not pass
    assert run(["simulate", SPECS / "coin-half.json", "--horizon", horizon]) == EXIT_SPEC
    assert "horizon must be >= 1" in capsys.readouterr().err


def test_simulate_spec_default_horizon_zero_is_spec_error(tmp_path):
    spec = json.loads((SPECS / "coin-half.json").read_text())
    spec.setdefault("defaults", {})["horizon"] = 0
    path = tmp_path / "h0.json"
    path.write_text(json.dumps(spec))
    assert run(["simulate", path]) == EXIT_SPEC


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

        def window_prob(self, w):
            raise NumericFaultError("injected non-finite value")

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


def test_table_prints_no_negative_zero_slope(capsys):
    # markov-3state's m = 2 tail is constant and fits a slope of -7e-31
    assert run(["analyze", SPECS / "markov-3state.json", "--format", "table"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "-0.0000" not in out and out.count(" 0.0000\n") == 4


def test_missing_spec_file_exit_2(tmp_path):
    assert run(["analyze", tmp_path / "nope.json"]) == EXIT_SPEC


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
        ["analyze", "--tol", "-1"],
        ["analyze", "--m-max", "-1"],
        ["analyze", "--tol", "inf"],
        ["analyze", "--tol", "1"],
        ["analyze", "--tol", "1e300"],
    ],
)
def test_bad_flag_values_exit_2(args):
    assert run([args[0], SPECS / "markov-3state.json", *args[1:]]) == EXIT_SPEC


def test_spec_decay_tolerance_of_one_or_more_exit_2(tmp_path, capsys):
    # every marginal is below a tolerance of 2, which would read a recurrent chain
    # as decaying; limsup's remainder tolerance only stops its sums early
    spec = json.loads((SPECS / "flipflop.json").read_text())
    spec["defaults"]["tol"] = 2.0
    path = tmp_path / "tol2.json"
    path.write_text(json.dumps(spec))
    assert run(["analyze", path]) == EXIT_SPEC
    assert "decay tolerance must be in (0, 1)" in capsys.readouterr().err
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
