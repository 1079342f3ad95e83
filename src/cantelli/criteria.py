"""Series criteria for deciding P(events occur infinitely often) = 0.

For a model and a complement-run length m, the window series is

    sum_n P( not-A_n ... not-A_{n+m-1}, A_{n+m} )

(m = 0 gives the plain marginal series sum_n P(A_n), the classical
Borel-Cantelli criterion).  A convergent window series plus decaying marginals
forces P(A_n infinitely often) = 0; for m = 0 the decay hypothesis is not
needed, and for independent models a divergent marginal series forces
probability 1.  Verdicts separate what is certified (closed forms, exact-zero
tails with structural emptiness proofs) from what is merely likely (fitted
tail exponents).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .families import SeriesClass
from .models import DecayVerdict, EventSequenceModel, IndependentModel, marginal_decay_check
from .summation import compensated_cumsum

__all__ = [
    "VerdictLabel",
    "Verdict",
    "InsufficientDataError",
    "series_terms",
    "TailFit",
    "fit_tail",
    "classify_series",
    "SeriesReport",
    "build_series_report",
    "Conclusion",
    "CriterionResult",
    "SweepResult",
    "sweep_prefix_len",
]

MIN_TERMS_FOR_FIT = 100
MAX_PREFIX_LEN = 8
SLOPE_CONVERGENT = -1.1
SLOPE_DIVERGENT = -0.9


class VerdictLabel(enum.Enum):
    CERTIFIED_CONVERGENT = "certified-convergent"
    CERTIFIED_DIVERGENT = "certified-divergent"
    LIKELY_CONVERGENT = "likely-convergent"
    LIKELY_DIVERGENT = "likely-divergent"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Verdict:
    label: VerdictLabel
    justification: str

    @property
    def certified(self) -> bool:
        return self.label in (
            VerdictLabel.CERTIFIED_CONVERGENT,
            VerdictLabel.CERTIFIED_DIVERGENT,
        )

    @property
    def convergent(self) -> bool:
        return self.label in (
            VerdictLabel.CERTIFIED_CONVERGENT,
            VerdictLabel.LIKELY_CONVERGENT,
        )

    @property
    def divergent(self) -> bool:
        return self.label in (
            VerdictLabel.CERTIFIED_DIVERGENT,
            VerdictLabel.LIKELY_DIVERGENT,
        )


class InsufficientDataError(ValueError):
    """Too few terms to classify and no closed-form class to fall back on."""


def series_terms(
    model: EventSequenceModel, max_prefix_len: int, num_terms: int
) -> tuple[np.ndarray, np.ndarray]:
    """``model.window_series``: the (terms, empty) tables of the m-window series.

    Row m of each covers n = 1..num_terms for m = 0..max_prefix_len.
    """
    if max_prefix_len < 0:
        raise ValueError(f"complement run length must be >= 0, got {max_prefix_len}")
    if num_terms < 1:
        raise ValueError("num_terms must be >= 1")
    return model.window_series(max_prefix_len, num_terms)


@dataclass(frozen=True)
class TailFit:
    """Least-squares slope of log(term) against log(n) over the last decade."""

    slope: float | None
    residual: float | None
    points: int
    zero_fraction: float


def fit_tail(terms: np.ndarray) -> TailFit:
    """The least-squares line through (log n, log term) over the tail window.

    The window is n = max(1, N // 10)..N of the N evaluated terms; only its
    positive terms enter the fit (``points`` of them), and ``zero_fraction``
    is the share of the window that is not positive.  With x and y centred
    on their means, slope = sum(x*y) / sum(x*x) and ``residual`` is the root
    mean square of y - slope*x.  Every sum is ``np.sum`` of a product, never
    a BLAS or LAPACK call (``np.dot``, ``@``, ``np.linalg``): with its
    threads unpinned, BLAS costs far more than the fit on short tails.
    """
    n_total = len(terms)
    lo = max(1, n_total // 10)
    window = terms[lo - 1 :]
    positive = window > 0.0
    points = int(np.count_nonzero(positive))
    zero_fraction = 1.0 - points / len(window) if len(window) else 1.0
    if points < 5:
        return TailFit(None, None, points, zero_fraction)
    x = np.log(np.arange(lo, n_total + 1, dtype=float))
    if points < len(window):
        x, window = x[positive], window[positive]
    y = np.log(window)
    x -= np.mean(x)
    y -= np.mean(y)
    slope = float(np.sum(x * y) / np.sum(x * x))
    x *= slope
    y -= x
    # the rounded means leave the residuals a common offset (2e-13 on a constant
    # tail near 1e-300), which would be the whole residual there: take it out
    y -= np.mean(y)
    residual = float(np.sqrt(np.sum(y * y) / points))
    return TailFit(slope, residual, points, zero_fraction)


def _zero_tail_start(terms: np.ndarray) -> int | None:
    """1-based index from which all evaluated terms are exactly zero, or None."""
    nonzero = terms[::-1] != 0.0
    if not nonzero.any():
        return 1
    zeros = int(np.argmax(nonzero))  # the exact zeros after the last nonzero term
    return len(terms) - zeros + 1 if zeros else None


def classify_series(
    terms: np.ndarray,
    empty: np.ndarray,
    fit: TailFit,
    classified: tuple[SeriesClass, str] | None,
) -> Verdict:
    """Issue a convergence verdict for the evaluated terms of one window series.

    ``empty`` is the series' row of emptiness proofs from ``window_series``
    and ``classified`` its closed-form class, ``model.series_class(m)``, or None.
    Certified verdicts come from exact-zero tails whose windows are all proved
    empty, or from ``classified``; everything else rests on the fitted tail
    exponent ``fit`` (``fit_tail(terms)``) with a +-0.1 buffer around the
    p-series boundary.  No terms at all give no verdict, whatever ``classified``
    says.
    """
    if len(terms) == 0:
        raise InsufficientDataError("0 terms evaluated; a verdict needs at least one")
    if len(terms) < MIN_TERMS_FOR_FIT and classified is None:
        raise InsufficientDataError(
            f"{len(terms)} terms evaluated; need {MIN_TERMS_FOR_FIT} or analytic metadata"
        )

    # Exact zeros observed beat a declared class: verify them structurally.
    zero_start = _zero_tail_start(terms)
    if zero_start is not None and zero_start <= len(terms) // 2 + 1:
        if empty[zero_start - 1 :].all():
            return Verdict(
                VerdictLabel.CERTIFIED_CONVERGENT,
                f"eventually zero terms: every window from n = {zero_start} is provably"
                " empty, so the series is a finite sum",
            )
        return Verdict(
            VerdictLabel.LIKELY_CONVERGENT,
            f"terms are numerically zero from n = {zero_start} but the backend does"
            " not prove the windows empty",
        )

    if classified is not None:
        cls, why = classified
        if cls is SeriesClass.CONVERGENT:
            return Verdict(VerdictLabel.CERTIFIED_CONVERGENT, why)
        return Verdict(VerdictLabel.CERTIFIED_DIVERGENT, why)

    if fit.slope is None:
        # too few nonzero points to fit; a mostly-zero tail still suggests
        # convergence, but scattered zeros alone never certify it
        if fit.zero_fraction > 0.5:
            return Verdict(
                VerdictLabel.LIKELY_CONVERGENT,
                f"{fit.zero_fraction:.0%} of tail terms are exactly zero and the"
                " nonzero residue is too sparse to fit",
            )
        return Verdict(VerdictLabel.INCONCLUSIVE, "tail fit unavailable (too few nonzero terms)")
    exponent = f"{fit.slope:.3f}"
    if exponent == "-0.000":  # a constant tail fits a slope of +-1e-31; its sign is noise
        exponent = "0.000"
    if fit.slope < SLOPE_CONVERGENT:
        return Verdict(
            VerdictLabel.LIKELY_CONVERGENT,
            f"fitted tail exponent {exponent} < {SLOPE_CONVERGENT}",
        )
    if fit.slope > SLOPE_DIVERGENT:
        return Verdict(
            VerdictLabel.LIKELY_DIVERGENT,
            f"fitted tail exponent {exponent} > {SLOPE_DIVERGENT}",
        )
    return Verdict(
        VerdictLabel.INCONCLUSIVE,
        f"fitted tail exponent {exponent} sits in the p-series boundary buffer"
        f" [{SLOPE_CONVERGENT}, {SLOPE_DIVERGENT}]",
    )


class Conclusion(enum.Enum):
    IO_PROB_ZERO = "io-prob-zero"
    IO_PROB_ONE = "io-prob-one"
    NO_CONCLUSION = "no-conclusion"


@dataclass
class SeriesReport:
    """Evaluated terms, compensated partial sums, tail fit and verdict."""

    prefix_len: int
    terms: np.ndarray
    partial_sums: np.ndarray
    tail_fit: TailFit
    verdict: Verdict

    def __post_init__(self) -> None:
        if np.any(self.terms < 0.0):
            raise ValueError("series terms must be nonnegative")
        if np.any(np.diff(self.partial_sums) < -1e-15):
            raise ValueError("partial sums must be non-decreasing")

    @property
    def partial_sum(self) -> float:
        return float(self.partial_sums[-1])


def build_series_report(
    model: EventSequenceModel, prefix_len: int, terms: np.ndarray, empty: np.ndarray
) -> SeriesReport:
    """The report on ``terms`` and ``empty``, rows of the ``prefix_len``-window series."""
    fit = fit_tail(terms)
    return SeriesReport(
        prefix_len=prefix_len,
        terms=terms,
        partial_sums=compensated_cumsum(terms),
        tail_fit=fit,
        verdict=classify_series(terms, empty, fit, model.series_class(prefix_len)),
    )


@dataclass
class CriterionResult:
    """Outcome of one convergence criterion at a given complement-run length."""

    prefix_len: int
    conclusion: Conclusion
    certified: bool
    decay: DecayVerdict | None
    decay_note: str
    series: SeriesReport
    note: str


def _label(prefix_len: int) -> str:
    if prefix_len == 0:
        return "marginal series"
    return f"window series (m={prefix_len}, prefix complements)"


def _criterion(
    model: EventSequenceModel,
    report: SeriesReport,
    decay: tuple[DecayVerdict, str] | None,
) -> CriterionResult:
    """The criterion's conclusion from a series report and, for m >= 1, the decay check.

    Concludes IO_PROB_ZERO when the series verdict is convergent and (for
    m >= 1) the marginals provably or plausibly decay to zero; the conclusion
    is certified only when both inputs are.  IO_PROB_ONE is issued only for
    independent models with a divergent marginal series.  Dependent models
    with divergent series get NO_CONCLUSION: the criteria are sufficient, not
    necessary.
    """
    prefix_len = report.prefix_len
    needs_decay = prefix_len >= 1
    decay_verdict, decay_note = decay if needs_decay else (None, "")

    decay_ok = decay_verdict in (
        DecayVerdict.CERTIFIED_ZERO_LIMIT,
        DecayVerdict.LIKELY_ZERO_LIMIT,
    )
    if report.verdict.convergent and (not needs_decay or decay_ok):
        certified = report.verdict.certified and (
            not needs_decay or decay_verdict is DecayVerdict.CERTIFIED_ZERO_LIMIT
        )
        conclusion = Conclusion.IO_PROB_ZERO
        note = (
            f"{_label(prefix_len)} converges ({report.verdict.justification})"
            + ("" if not needs_decay else f"; marginal decay: {decay_note}")
        )
    elif (
        prefix_len == 0
        and isinstance(model, IndependentModel)
        and report.verdict.divergent
    ):
        conclusion = Conclusion.IO_PROB_ONE
        certified = report.verdict.certified
        note = (
            "independent events with divergent marginal series"
            f" ({report.verdict.justification})"
        )
    else:
        conclusion = Conclusion.NO_CONCLUSION
        certified = False
        if report.verdict.divergent and prefix_len == 0:
            note = "marginal series diverges but events are dependent; criterion is one-sided"
        elif report.verdict.divergent:
            note = "window series diverges; criterion is one-sided, no conclusion"
        elif not decay_ok and needs_decay and report.verdict.convergent:
            note = f"series converges but marginal decay unsettled: {decay_note}"
        else:
            note = f"series verdict inconclusive ({report.verdict.justification})"
    return CriterionResult(
        prefix_len, conclusion, certified, decay_verdict, decay_note, report, note
    )


@dataclass
class SweepResult:
    """Criteria for m = 0..max_prefix_len and the one decay check they share."""

    decay: tuple[DecayVerdict, str]
    results: list[CriterionResult] = field(default_factory=list)
    least_io_zero: int | None = None
    least_certified_io_zero: int | None = None


def sweep_prefix_len(
    model: EventSequenceModel,
    max_prefix_len: int = 3,
    num_terms: int = 2000,
    tol: float = 1e-6,
) -> SweepResult:
    """Run the criterion for every complement-run length 0..max_prefix_len.

    Reports the least length that concludes IO_PROB_ZERO (and the least doing
    so with certification), or None.  One ``series_terms`` call evaluates
    every series with its emptiness proofs, and the decay check probes its
    marginal row once; every criterion uses that result.
    """
    if not 0 <= max_prefix_len <= MAX_PREFIX_LEN:
        raise ValueError(f"max_prefix_len {max_prefix_len} outside 0..{MAX_PREFIX_LEN}")
    # the decay check reads the table, so reject its tolerance before the table is built
    if not 0.0 < tol < 1.0:
        raise ValueError(f"decay tolerance must be in (0, 1), got {tol!r}")
    terms, empty = series_terms(model, max_prefix_len, num_terms)
    out = SweepResult(marginal_decay_check(model, terms[0], tol))
    for m in range(max_prefix_len + 1):
        res = _criterion(model, build_series_report(model, m, terms[m], empty[m]), out.decay)
        out.results.append(res)
        if res.conclusion is Conclusion.IO_PROB_ZERO:
            if out.least_io_zero is None:
                out.least_io_zero = m
            if res.certified and out.least_certified_io_zero is None:
                out.least_certified_io_zero = m
    return out
