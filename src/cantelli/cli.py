"""Batch CLI: analyze | limsup | simulate | verify.

Reads a JSON model spec, runs the requested analysis, and writes a
machine-readable JSON report (or a plain table, or series CSV).  Reports are
byte-identical for identical (spec, flags, seed, version); wall-clock timing
goes to stderr only.  Exit codes: 0 ok, 2 spec/usage error, 3 numeric fault,
4 Monte Carlo disagreement, 5 oracle mismatch.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .criteria import SweepResult, sweep_prefix_len
from .families import ModelValueError
from .limsup import INDEX_MAX, limsup_estimate
from .models import EventSequenceModel, NumericFaultError
from .montecarlo import estimate_frequencies
from .oracle import (
    build_outcome_space,
    oracle_union_prob,
    oracle_window_prob,
)
from .specfile import SpecError, build_model, load_spec
from .summation import compensated_cumsum, compensated_sum
from .windows import WindowPattern, all_complement, first_occurrence

EXIT_OK = 0
EXIT_SPEC = 2
EXIT_NUMERIC = 3
EXIT_DISAGREEMENT = 4
EXIT_MISMATCH = 5

ORACLE_DIFF_TOL = 1e-10
SIGMA_FLAG = 4.0

_FALLBACKS = {
    "terms": 10000,
    "m_max": 3,
    "tol": 1e-6,
    "seed": 0,
    "schedule": (8, 16, 32, 64),
    "count": 100000,
    "horizon": 10,
    "k_max": 1 << 15,
}
# the values that size a command's arrays
_SIZES = {"terms", "m_max", "schedule", "count", "horizon", "k_max"}


def _run(args: argparse.Namespace, build_results, table_renderer) -> int:
    """Run a command: ``build_results(model, **values)`` gives its results and exit code.

    The values are the parser's dests that have a fallback, each resolved once
    from its flag, else the spec default, else the fallback.  A
    ``ModelValueError`` on a value is re-raised as a ``SpecError`` naming its
    source, and a ``MemoryError`` as one naming the sources of the size values.
    """
    spec = load_spec(args.spec)
    model = build_model(spec)
    values, sources = {}, {}
    for key in [key for key in _FALLBACKS if key in vars(args)]:
        flag = f"--{key.replace('_', '-')}"
        value, source = getattr(args, key), flag
        if value is None:
            value, source = getattr(spec.defaults, key), f"{args.spec}.defaults.{key}"
        if value is None:
            value, source = _FALLBACKS[key], f"{flag} (default {_FALLBACKS[key]})"
        values[key], sources[key] = value, source
    try:
        results, code = build_results(model, **values)
    except ModelValueError as exc:
        if exc.field not in sources:
            raise
        raise SpecError(sources[exc.field], exc.message) from None
    except MemoryError:
        field = ", ".join(source for key, source in sources.items() if key in _SIZES)
        raise SpecError(field, "the request does not fit in memory") from None
    report = {
        "tool": {"name": "cantelli", "version": __version__},
        "command": args.command,
        "spec": spec.echo(),
        "flags": values,
        "results": results,
    }
    if args.format != "csv":  # analyze's results wrote the series files
        _emit(report, args, table_renderer)
    return code


def _checkpoints(n: int) -> list[int]:
    pts = [10, 100, 1000, 10000, 100000]
    return [p for p in pts if p <= n] + ([n] if n not in pts else [])


# ---------------------------------------------------------------------------
# analyze


def _analyze_results(sweep: SweepResult) -> dict:
    decay_verdict, decay_note = sweep.decay
    criteria = []
    for res in sweep.results:
        criteria.append(
            {
                "m": res.prefix_len,
                "orientation": "prefix-complement",
                "conclusion": res.conclusion.value,
                "certified": res.certified,
                "verdict": {
                    "label": res.verdict.label.value,
                    "justification": res.verdict.justification,
                },
                "terms_evaluated": len(res.terms),
                "partial_sum": res.partial_sum,
                "partial_sum_checkpoints": {
                    str(p): float(res.partial_sums[p - 1]) for p in _checkpoints(len(res.terms))
                },
                "tail_slope": res.tail_fit.slope,
                "tail_residual": res.tail_fit.residual,
                "zero_fraction": res.tail_fit.zero_fraction,
                "first_terms": [float(t) for t in res.terms[:10]],
                "note": res.note,
            }
        )
    return {
        "decay": {"verdict": decay_verdict.value, "note": decay_note},
        "criteria": criteria,
        "least_m_io_zero": sweep.least_io_zero,
        "least_m_io_zero_certified": sweep.least_certified_io_zero,
    }


def _analyze_table(report: dict) -> str:
    lines = [
        f"model: {report['spec'].get('name', '?')}",
        f"decay: {report['results']['decay']['verdict']} ({report['results']['decay']['note']})",
        "",
        f"{'m':>3}  {'verdict':<22} {'conclusion':<16} {'certified':<9} "
        f"{'partial sum':>14} {'tail slope':>11}",
    ]
    for c in report["results"]["criteria"]:
        slope = "n/a" if c["tail_slope"] is None else f"{c['tail_slope']:.4f}"
        if slope == "-0.0000":  # the sign of a slope that rounds to zero is noise
            slope = "0.0000"
        lines.append(
            f"{c['m']:>3}  {c['verdict']['label']:<22} {c['conclusion']:<16} "
            f"{str(c['certified']):<9} {c['partial_sum']:>14.6g} {slope:>11}"
        )
    least = report["results"]["least_m_io_zero"]
    lines.append("")
    lines.append(
        "least m concluding i.o.-probability zero: "
        + ("none" if least is None else str(least))
    )
    return "\n".join(lines)


def cmd_analyze(args: argparse.Namespace) -> int:
    def results(model: EventSequenceModel, terms: int, m_max: int, tol: float):
        sweep = sweep_prefix_len(model, m_max, terms, tol)
        if args.format == "csv":
            if args.out is None:
                raise SpecError("--out", "csv format requires an output path")
            out = Path(args.out)
            for res in sweep.results:
                path = out.with_name(f"{out.stem}.m{res.prefix_len}{out.suffix or '.csv'}")
                _write_series_csv(path, res.terms, res.partial_sums)
        return _analyze_results(sweep), EXIT_OK

    return _run(args, results, _analyze_table)


def _write_series_csv(path: Path, terms: np.ndarray, partial_sums: np.ndarray) -> None:
    rows = ["n,term,partial_sum"]
    rows += [
        f"{n},{float(terms[n - 1])!r},{float(partial_sums[n - 1])!r}"
        for n in range(1, len(terms) + 1)
    ]
    _write_out(path, "\n".join(rows) + "\n")


# ---------------------------------------------------------------------------
# limsup


def limsup_results(
    model: EventSequenceModel, schedule, tol: float, k_max: int
) -> tuple[dict, int]:
    est = limsup_estimate(model, schedule, tol, k_max)
    return {**vars(est), "samples": [dict(vars(s)) for s in est.samples]}, EXIT_OK


def _limsup_table(report: dict) -> str:
    r = report["results"]
    lines = [
        f"model: {report['spec'].get('name', '?')}",
        "",
        f"{'start':>7} {'K':>7} {'partial':>12} {'upper':>12} {'reached':<7}",
    ]
    for s in r["samples"]:
        lines.append(
            f"{s['start']:>7} {s['truncation']:>7} {s['partial']:>12.6g} "
            f"{s['interval'][1]:>12.6g} {str(s['tolerance_reached']):<7}"
        )
    lines.append("")
    lines.append(f"alpha upper bound: {r['alpha_upper']:.6g}")
    fit = "n/a" if r["alpha_fit"] is None else f"{r['alpha_fit']:.6g}"
    lines.append(f"alpha extrapolated: {fit} ({r['fit_note']})")
    lines.append(f"alpha point estimate: {r['alpha_point']:.6g}")
    if r["stalled"]:
        lines.append("note: remainder stalled above tolerance for at least one start")
    return "\n".join(lines)


def cmd_limsup(args: argparse.Namespace) -> int:
    return _run(args, limsup_results, _limsup_table)


# ---------------------------------------------------------------------------
# simulate


def _simulate_checks(
    horizon: int,
) -> list[tuple[str, WindowPattern | tuple[int, int]]]:
    """(label, query) per check; a query is a window or an (n, span) tail union."""
    if horizon < 1:
        raise ModelValueError("horizon", "horizon must be >= 1")
    if horizon > INDEX_MAX:
        raise ModelValueError("horizon", f"horizon {horizon} passes the largest index {INDEX_MAX}")
    checks: list[tuple[str, WindowPattern | tuple[int, int]]] = []
    for n in (1, 2, 3, 5, 8):
        if n <= horizon:
            checks.append((f"marginal n={n}", first_occurrence(n, 0)))
    for m in (1, 2):
        for n in (1, 2, 4):
            if n + m <= horizon:
                checks.append((f"window n={n} m={m}", first_occurrence(n, m)))
    for n in (1, 2):
        if n < horizon:
            checks.append((f"union n={n}..{horizon}", (n, horizon - n)))
    return checks


def _improbable(successes: int, count: int, p: float) -> bool:
    """Whether ``successes`` of ``count`` trials at 0 < p < 1 lies in a tail of
    the binomial law that holds less than half the two-sided level of
    ``SIGMA_FLAG`` standard deviations.

    The tail is the one on the observed count's side of count * p.  Its terms
    are summed in log space outward from the observed count, and shrink by a
    ratio that falls as they go, so the sum stops once it reaches half the
    level, or once the geometric bound on the terms left keeps it below.
    """
    half_level = 0.5 * math.erfc(SIGMA_FLAG / math.sqrt(2.0))
    k, log_p, log_q = successes, math.log(p), math.log1p(-p)
    if k > count * p:  # the upper tail of the successes is the lower of the failures
        k, log_p, log_q = count - k, log_q, log_p
    log_term = (
        math.lgamma(count + 1) - math.lgamma(k + 1) - math.lgamma(count - k + 1)
        + k * log_p + (count - k) * log_q
    )
    total = 0.0
    for j in range(k, 0, -1):
        term = math.exp(log_term)
        total += term
        # P(j - 1) / P(j), below 1 in the lower tail
        log_ratio = math.log(j / (count - j + 1)) + log_q - log_p
        ratio = math.exp(log_ratio)
        if total >= half_level or total + term * ratio / (1.0 - ratio) < half_level:
            return total < half_level
        log_term += log_ratio
    return total + math.exp(log_term) < half_level


def simulate_results(
    model: EventSequenceModel, count: int, seed: int, horizon: int
) -> tuple[dict, int]:
    checks = _simulate_checks(horizon)
    # exact values from the scans verify checks, one scan of n..horizon per
    # start: a window's is term m of it, a union's the compensated sum of its
    # terms, as tail_union takes it
    starts = {query.start if isinstance(query, WindowPattern) else query[0] for _, query in checks}
    scans = {n: model.first_occurrence_terms([n], horizon - n + 1)[0][0] for n in sorted(starts)}
    exacts = []
    for _, query in checks:
        if isinstance(query, WindowPattern):
            exacts.append(float(scans[query.start][query.width - 1]))
        else:
            n, span = query
            exacts.append(float(min(1.0, max(0.0, compensated_sum(scans[n][: span + 1])))))
    # one pass over the sample chunks serves every check
    estimates = estimate_frequencies(model, [query for _, query in checks], count, seed)
    rows = []
    flagged = 0
    for (label, _), exact, est in zip(checks, exacts, estimates):
        if exact in (0.0, 1.0):
            bad = est.successes != (0 if exact == 0.0 else count)
            z = float("inf") if bad else 0.0
        else:
            se = (exact * (1.0 - exact) / count) ** 0.5
            if se == 0.0:
                # the product underflows where each factor's root does not
                se = math.sqrt(exact) * math.sqrt((1.0 - exact) / count)
            z = (est.point - exact) / se
            bad = _improbable(est.successes, count, exact)
        flagged += bad
        rows.append(
            {
                "check": label,
                "exact": exact,
                "estimate": est.point,
                "interval": [est.lower, est.upper],
                "successes": est.successes,
                "z": z if np.isfinite(z) else None,
                "flagged": bool(bad),
            }
        )
    results = {"checks": rows, "flagged": flagged, "count": count, "seed": seed}
    return results, EXIT_DISAGREEMENT if flagged else EXIT_OK


def _simulate_table(report: dict) -> str:
    r = report["results"]
    lines = [
        f"model: {report['spec'].get('name', '?')}  (count={r['count']}, seed={r['seed']})",
        "",
        f"{'check':<24} {'exact':>12} {'estimate':>12} {'z':>8}  flag",
    ]
    for c in r["checks"]:
        z = "inf" if c["z"] is None else f"{c['z']:.2f}"
        lines.append(
            f"{c['check']:<24} {c['exact']:>12.6g} {c['estimate']:>12.6g} {z:>8}  "
            + ("FLAG" if c["flagged"] else "ok")
        )
    lines.append("")
    lines.append(f"disagreements beyond {SIGMA_FLAG:g} sigma: {r['flagged']}")
    return "\n".join(lines)


def cmd_simulate(args: argparse.Namespace) -> int:
    return _run(args, simulate_results, _simulate_table)


# ---------------------------------------------------------------------------
# verify


def verify_results(model: EventSequenceModel, horizon: int) -> tuple[dict, int]:
    space = build_outcome_space(model, horizon)
    # The rows are what the other commands report: prefix windows (the terms
    # of analyze, simulate and limsup), all-complement windows (limsup's
    # remainders) and unions (limsup's partial sums, simulate's union exacts),
    # all from limsup's scan of n..horizon, which reads no index past the
    # horizon: a model defined only that far still verifies.
    rows: list[tuple[str, int, int, str]] = []
    answers: list[tuple[float, float]] = []  # (engine, oracle) per row
    for n in range(1, horizon + 1):
        [(terms, complements, _)] = model.first_occurrence_terms([n], horizon - n + 1)
        for m, engine in enumerate(terms):
            rows.append(("window", n, m, "prefix-complement"))
            answers.append((float(engine), oracle_window_prob(space, first_occurrence(n, m))))
        for m, engine in enumerate(complements, start=1):
            rows.append(("all-complement", n, m, ""))
            answers.append((engine, oracle_window_prob(space, all_complement(n, m))))
        # the union rows sum the terms as tail_union does, so the oracle
        # checks limsup's partial sums too
        for span, total in enumerate(compensated_cumsum(terms)):
            rows.append(("union", n, span, ""))
            answers.append((min(1.0, max(0.0, total)), oracle_union_prob(space, n, span)))
    engine, oracle = np.array(answers).T
    diff = np.abs(engine - oracle)
    bad = diff > ORACLE_DIFF_TOL
    max_diff = float(diff.max())
    worst = []
    # a stable sort, so tied rows keep their order
    for i in np.argsort(-diff, kind="stable")[:10]:
        kind, n, m, orient = rows[i]
        worst.append(
            {
                "kind": kind,
                "n": n,
                "m": m,
                "orientation": orient,
                "engine": float(engine[i]),
                "oracle": float(oracle[i]),
                "diff": float(diff[i]),
                "mismatch": bool(bad[i]),
            }
        )
    return {
        "horizon": horizon,
        "checks_run": len(rows),
        "max_diff": max_diff,
        "mismatches": int(bad.sum()),
        "worst": worst,
    }, EXIT_MISMATCH if max_diff > ORACLE_DIFF_TOL else EXIT_OK


def _verify_table(report: dict) -> str:
    r = report["results"]
    lines = [
        f"model: {report['spec'].get('name', '?')}  (horizon={r['horizon']})",
        f"checks: {r['checks_run']}, max |engine - oracle| = {r['max_diff']:.3e},"
        f" mismatches beyond {ORACLE_DIFF_TOL:g}: {r['mismatches']}",
        "",
        f"{'kind':<16} {'n':>4} {'m':>4} {'engine':>14} {'oracle':>14} {'diff':>10}",
    ]
    for c in r["worst"]:
        lines.append(
            f"{c['kind']:<16} {c['n']:>4} {c['m']:>4} {c['engine']:>14.10f} "
            f"{c['oracle']:>14.10f} {c['diff']:>10.2e}"
        )
    return "\n".join(lines)


def cmd_verify(args: argparse.Namespace) -> int:
    return _run(args, verify_results, _verify_table)


# ---------------------------------------------------------------------------
# plumbing


def _emit(report: dict, args: argparse.Namespace, table_renderer) -> None:
    if args.format == "table":
        text = table_renderer(report)
    else:
        text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        _write_out(Path(args.out), text + "\n")
        return
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe: point stdout at devnull so that the flush
        # at exit cannot raise, and keep the command's own exit code
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _write_out(path: Path, text: str) -> None:
    try:
        path.write_text(text)
    except OSError as exc:
        raise SpecError("--out", f"cannot write {path}: {exc.strerror or exc}") from None


def _parse_schedule(text: str) -> list[int]:
    try:
        values = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad schedule {text!r}; expected n1,n2,...")
    return values


@functools.cache  # built on first use, once per process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cantelli",
        description=(
            "Decide whether events of a stochastic model occur infinitely often:"
            " convergence criteria, tail-union limits, Monte Carlo and brute-force"
            " cross checks."
        ),
    )
    parser.add_argument("--version", action="version", version=f"cantelli {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, formats: tuple[str, ...] = ("json", "table")) -> None:
        p.add_argument("spec", help="path to a JSON model spec")
        p.add_argument("--out", help="write the report here instead of stdout")
        p.add_argument("--format", choices=formats, default="json", help="report format")

    p = sub.add_parser("analyze", help="window-series criteria sweep")
    common(p, ("json", "csv", "table"))
    p.add_argument("--terms", type=int, help="number of series terms")
    p.add_argument("--m-max", type=int, dest="m_max", help="largest complement-run length")
    p.add_argument("--tol", type=float, help="decay/series tolerance")

    p = sub.add_parser("limsup", help="tail-union enclosure of P(infinitely often)")
    common(p)
    p.add_argument("--schedule", type=_parse_schedule, help="start indices n1,n2,...")
    p.add_argument("--tol", type=float, help="remainder tolerance")
    p.add_argument("--k-max", type=int, dest="k_max", help="truncation cap")

    p = sub.add_parser("simulate", help="Monte Carlo vs exact cross-check")
    common(p)
    p.add_argument("--count", type=int, help="sample paths")
    p.add_argument("--seed", type=int, help="base seed")
    p.add_argument("--horizon", type=int, help="indicator horizon")

    p = sub.add_parser("verify", help="exhaustive-enumeration oracle check")
    common(p)
    p.add_argument("--horizon", type=int, help="oracle horizon")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        # looked up per call, not bound into the cached parser, so that a
        # cmd_* replaced after the first call (a wrapper, a stub) is the one run
        code = globals()[f"cmd_{args.command}"](args)
    except NumericFaultError as exc:
        print(f"numeric fault: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        # spec errors, a bad value named by its source, and bad data found
        # mid-analysis
        print(f"spec error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except MemoryError:
        # a spec too large to load; a command's own sizes are named by _run
        print("spec error: the request does not fit in memory", file=sys.stderr)
        return EXIT_SPEC
    print(
        f"[cantelli] {args.command} finished in {time.perf_counter() - started:.2f}s",
        file=sys.stderr,
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
