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
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .criteria import SweepResult, sweep_prefix_len
from .limsup import limsup_estimate
from .models import EventSequenceModel, NumericFaultError, OccurrenceScan
from .montecarlo import estimate_frequencies
from .oracle import (
    build_outcome_space,
    oracle_union_prob,
    oracle_window_prob,
)
from .specfile import ModelSpec, SpecError, build_model, load_spec
from .windows import Orientation, WindowPattern, all_complement, first_occurrence

EXIT_OK = 0
EXIT_SPEC = 2
EXIT_NUMERIC = 3
EXIT_DISAGREEMENT = 4
EXIT_MISMATCH = 5

ORACLE_DIFF_TOL = 1e-10
SIGMA_FLAG = 4.0
INDEX_MAX = (1 << 63) - 1  # indices are held in int64 arrays

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


def _resolve(flag_value, spec: ModelSpec, key: str):
    if flag_value is not None:
        return flag_value
    spec_value = getattr(spec.defaults, key)
    if spec_value is not None:
        return spec_value
    return _FALLBACKS[key]


def _json_default(x):
    # numpy floats are floats, which json writes as their repr already
    if isinstance(x, (np.generic, np.ndarray)):
        return x.tolist()
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


def _report_shell(command: str, spec: ModelSpec, flags: dict) -> dict:
    return {
        "tool": {"name": "cantelli", "version": __version__},
        "command": command,
        "spec": spec.echo(),
        "flags": flags,
        "results": {},
    }


def _checkpoints(n: int) -> list[int]:
    pts = [10, 100, 1000, 10000, 100000]
    return [p for p in pts if p <= n] + ([n] if n not in pts else [])


# ---------------------------------------------------------------------------
# analyze


def _analyze_results(sweep: SweepResult) -> dict:
    decay_verdict, decay_note = sweep.decay
    criteria = []
    for res in sweep.results:
        rep = res.series
        criteria.append(
            {
                "m": res.prefix_len,
                "orientation": Orientation.PREFIX_COMPLEMENT.value,
                "conclusion": res.conclusion.value,
                "certified": res.certified,
                "verdict": {
                    "label": rep.verdict.label.value,
                    "justification": rep.verdict.justification,
                },
                "terms_evaluated": len(rep.terms),
                "partial_sum": float(rep.partial_sum),
                "partial_sum_checkpoints": {
                    str(p): float(rep.partial_sums[p - 1]) for p in _checkpoints(len(rep.terms))
                },
                "tail_slope": rep.tail_fit.slope,
                "tail_residual": rep.tail_fit.residual,
                "zero_fraction": rep.tail_fit.zero_fraction,
                "first_terms": [float(t) for t in rep.terms[:10]],
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
    spec = load_spec(args.spec)
    model = build_model(spec)
    terms = _resolve(args.terms, spec, "terms")
    m_max = _resolve(args.m_max, spec, "m_max")
    tol = _resolve(args.tol, spec, "tol")
    flags = {"terms": terms, "m_max": m_max, "tol": tol}
    report = _report_shell("analyze", spec, flags)
    sweep = sweep_prefix_len(model, m_max, terms, tol)
    report["results"] = _analyze_results(sweep)
    if args.format == "csv":
        if args.out is None:
            raise SpecError("--out", "csv format requires an output path")
        out = Path(args.out)
        for res in sweep.results:
            path = out.with_name(f"{out.stem}.m{res.prefix_len}{out.suffix or '.csv'}")
            _write_series_csv(path, res.series.terms, res.series.partial_sums)
        return EXIT_OK
    _emit(report, args, _analyze_table)
    return EXIT_OK


def _write_series_csv(path: Path, terms: np.ndarray, partial_sums: np.ndarray) -> None:
    rows = ["n,term,partial_sum"]
    rows += [
        f"{n},{float(terms[n - 1])!r},{float(partial_sums[n - 1])!r}"
        for n in range(1, len(terms) + 1)
    ]
    path.write_text("\n".join(rows) + "\n")


# ---------------------------------------------------------------------------
# limsup


def limsup_results(model: EventSequenceModel, schedule, tol: float, k_max: int) -> dict:
    est = limsup_estimate(model, schedule, tol, k_max)
    return {
        "samples": [
            {
                "start": s.start,
                "truncation": s.truncation,
                "partial": s.partial,
                "remainder_bound": s.remainder_bound,
                "union_tail_bound": s.union_tail_bound,
                "interval": list(s.interval),
                "tolerance_reached": s.tolerance_reached,
            }
            for s in est.samples
        ],
        "alpha_upper": est.alpha_upper,
        "alpha_fit": est.alpha_fit,
        "alpha_point": est.alpha_point,
        "fit_note": est.fit_note,
        "stalled": est.stalled,
        "monotone_consistent": est.monotone_consistent,
    }


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
    spec = load_spec(args.spec)
    model = build_model(spec)
    tol = _resolve(args.tol, spec, "tol")
    k_max = _resolve(args.k_max, spec, "k_max")
    schedule = _resolve(args.schedule, spec, "schedule")
    # a start's scan reads indices up to n + k_max
    too_far = [n for n in schedule if n > INDEX_MAX - k_max]
    if too_far:
        raise SpecError(
            "--schedule" if args.schedule is not None else f"{args.spec}.defaults.schedule",
            f"start {too_far[0]} plus k_max {k_max} passes the largest index {INDEX_MAX}",
        )
    flags = {"schedule": list(schedule), "tol": tol, "k_max": k_max}
    report = _report_shell("limsup", spec, flags)
    report["results"] = limsup_results(model, schedule, tol, k_max)
    _emit(report, args, _limsup_table)
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate


def _simulate_checks(
    horizon: int,
) -> list[tuple[str, WindowPattern | tuple[int, int]]]:
    """(label, query) per check; a query is a window or an (n, span) tail union."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
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


def simulate_results(
    model: EventSequenceModel, count: int, seed: int, horizon: int
) -> tuple[dict, int]:
    checks = _simulate_checks(horizon)
    # exact values from the paths the reports read, as verify takes them:
    # windows from row m of window_series(m, horizon - m), unions from the scan
    series: dict[int, np.ndarray] = {}
    exacts = []
    for _, query in checks:
        if isinstance(query, WindowPattern):
            m = query.prefix_len
            if m not in series:
                series[m] = model.window_series(m, horizon - m)[0][m]
            exacts.append(float(series[m][query.start - 1]))
        else:
            n, span = query
            partial = model.first_occurrence_terms(n, span + 1)
            exacts.append(float(min(1.0, max(0.0, partial.sum()))))
    # one pass over the sample chunks serves every check
    estimates = estimate_frequencies(model, [query for _, query in checks], count, seed)
    rows = []
    flagged = 0
    for (label, _), exact, est in zip(checks, exacts, estimates):
        se = (exact * (1.0 - exact) / count) ** 0.5
        if se == 0.0:
            bad = est.successes != (0 if exact == 0.0 else count)
            z = float("inf") if bad else 0.0
        else:
            z = (est.point - exact) / se
            bad = abs(z) > SIGMA_FLAG
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
    return {"checks": rows, "flagged": flagged, "count": count, "seed": seed}, flagged


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
    spec = load_spec(args.spec)
    model = build_model(spec)
    count = _resolve(args.count, spec, "count")
    seed = _resolve(args.seed, spec, "seed")
    if seed < 0:
        raise SpecError(
            "--seed" if args.seed is not None else f"{args.spec}.defaults.seed",
            f"expected a non-negative integer, got {seed}",
        )
    horizon = _resolve(args.horizon, spec, "horizon")
    flags = {"count": count, "seed": seed, "horizon": horizon}
    report = _report_shell("simulate", spec, flags)
    report["results"], flagged = simulate_results(model, count, seed, horizon)
    _emit(report, args, _simulate_table)
    return EXIT_DISAGREEMENT if flagged else EXIT_OK


# ---------------------------------------------------------------------------
# verify


def verify_results(model: EventSequenceModel, horizon: int) -> tuple[dict, float]:
    space = build_outcome_space(model, horizon)
    # The engine answers come from the paths the reports read: prefix windows
    # from the series table analyze sums, all-complement and union rows from
    # the scans limsup runs.  Row m of window_series(m, horizon - m) reads no
    # index past the horizon, so a model defined only that far still verifies.
    series = [model.window_series(m, horizon - m)[0][m] for m in range(horizon)]
    rows = []
    max_diff = 0.0
    for n in range(1, horizon + 1):
        for m in range(0, horizon - n + 1):
            windows = [(first_occurrence(n, m), float(series[m][n - 1]))]
            if m:
                suffix = first_occurrence(n, m, Orientation.SUFFIX_COMPLEMENT)
                windows.append((suffix, model.window_prob(suffix)))
            for w, engine in windows:
                oracle = oracle_window_prob(space, w)
                rows.append(("window", n, m, w.orientation.value, engine, oracle))
        # one scan from n, stepped an index at a time, serves both kinds of row
        scan, terms, complements = OccurrenceScan(n), [], []
        for m in range(1, horizon - n + 2):
            terms.append(model.first_occurrence_terms(scan.end, 1, scan))
            complements.append(model.all_complement_prob(n, m, scan))
        for m, engine in enumerate(complements, start=1):
            oracle = oracle_window_prob(space, all_complement(n, m))
            rows.append(("all-complement", n, m, "", engine, oracle))
        terms = np.concatenate(terms)
        for span in range(0, horizon - n + 1):
            engine = float(min(1.0, max(0.0, terms[: span + 1].sum())))
            oracle = oracle_union_prob(space, n, span)
            rows.append(("union", n, span, "", engine, oracle))
    checks = []
    mismatches = 0
    for kind, n, m, orient, engine, oracle in rows:
        diff = abs(engine - oracle)
        max_diff = max(max_diff, diff)
        bad = diff > ORACLE_DIFF_TOL
        mismatches += bad
        checks.append(
            {
                "kind": kind,
                "n": n,
                "m": m,
                "orientation": orient,
                "engine": engine,
                "oracle": oracle,
                "diff": diff,
                "mismatch": bool(bad),
            }
        )
    return {
        "horizon": horizon,
        "checks_run": len(checks),
        "max_diff": max_diff,
        "mismatches": mismatches,
        "worst": sorted(checks, key=lambda c: -c["diff"])[:10],
    }, max_diff


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
    spec = load_spec(args.spec)
    model = build_model(spec)
    horizon = _resolve(args.horizon, spec, "horizon")
    flags = {"horizon": horizon}
    report = _report_shell("verify", spec, flags)
    report["results"], max_diff = verify_results(model, horizon)
    _emit(report, args, _verify_table)
    return EXIT_MISMATCH if max_diff > ORACLE_DIFF_TOL else EXIT_OK


# ---------------------------------------------------------------------------
# plumbing


def _emit(report: dict, args: argparse.Namespace, table_renderer) -> None:
    if args.format == "table":
        text = table_renderer(report)
    else:
        text = json.dumps(report, indent=2, sort_keys=True, default=_json_default)
    if args.out:
        Path(args.out).write_text(text + "\n")
        return
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe: point stdout at devnull so that the flush
        # at exit cannot raise, and keep the command's own exit code
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _parse_schedule(text: str) -> list[int]:
    try:
        values = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad schedule {text!r}; expected n1,n2,...")
    if not values:
        raise argparse.ArgumentTypeError("schedule is empty")
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

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("spec", help="path to a JSON model spec")
        p.add_argument("--out", help="write the report here instead of stdout")
        p.add_argument(
            "--format", choices=("json", "csv", "table"), default="json",
            help="report format (csv only for analyze series)",
        )

    p = sub.add_parser("analyze", help="window-series criteria sweep")
    common(p)
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
    if args.format == "csv" and args.command != "analyze":
        parser.error("csv format is only available for analyze")
    started = time.perf_counter()
    try:
        # looked up per call, not bound into the cached parser, so that a
        # cmd_* replaced after the first call (a wrapper, a stub) is the one run
        code = globals()[f"cmd_{args.command}"](args)
    except NumericFaultError as exc:
        print(f"numeric fault: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        # spec errors (SpecError, HorizonExceededError) and bad data or flags found mid-analysis
        print(f"spec error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except MemoryError:
        # a size flag (--terms, --count, --schedule, ...) past what memory holds
        print("spec error: the request does not fit in memory", file=sys.stderr)
        return EXIT_SPEC
    print(
        f"[cantelli] {args.command} finished in {time.perf_counter() - started:.2f}s",
        file=sys.stderr,
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
