"""Series criteria for deciding P(events occur infinitely often) = 0.

For a model and a complement-run length m, the window series is

    sum_n P( not-A_n ... not-A_{n+m-1}, A_{n+m} )

(m = 0 gives the plain marginal series sum_n P(A_n), the classical
Borel-Cantelli criterion).  A convergent window series plus decaying marginals
forces P(A_n infinitely often) = 0; for m = 0 the decay hypothesis is not
needed, and for independent models a divergent marginal series forces
probability 1.  Verdicts separate what is certified (closed forms, exact-zero
tails with structural emptiness proofs) from what is merely likely (fitted
tail exponents).  A sweep checks the decay once; every criterion reads that
one verdict, ``SweepResult.decay``.  The records are frozen and built once.
"""

from __future__ import annotations

import enum
import functools
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .families import ModelValueError, SeriesClass
from .limsup import INDEX_MAX, MAX_PREFIX_LEN
from .models import (
    DecayVerdict,
    EventSequenceModel,
    IndependentModel,
    marginal_decay_check,
)
from .summation import compensated_cumsum

__all__ = [
    "VerdictLabel",
    "Verdict",
    "InsufficientDataError",
    "series_terms",
    "TailFit",
    "fit_tail",
    "classify_series",
    "Conclusion",
    "CriterionResult",
    "SweepResult",
    "sweep_prefix_len",
]

MIN_TERMS_FOR_FIT = 100
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


class InsufficientDataError(ModelValueError):
    """Too few terms to classify and no closed-form class to fall back on."""

    def __init__(self, message: str):
        super().__init__("terms", message)


def series_terms(
    model: EventSequenceModel, max_prefix_len: int, num_terms: int
) -> np.ndarray:
    """``model.window_series``: the terms table of the m-window series.

    Row m covers n = 1..num_terms for m = 0..max_prefix_len.  A table past
    ``sys.maxsize`` bytes raises ``MemoryError``.
    """
    if max_prefix_len < 0:
        raise ModelValueError("m_max", f"complement run length must be >= 0, got {max_prefix_len}")
    if num_terms < 1:
        raise ModelValueError("terms", "num_terms must be >= 1")
    if num_terms + max_prefix_len > INDEX_MAX:  # a window reads up to n + max_prefix_len
        message = (
            f"num_terms {num_terms} plus max_prefix_len {max_prefix_len}"
            f" passes the largest index {INDEX_MAX}"
        )
        raise ModelValueError("terms", message)
    if (max_prefix_len + 1) * num_terms > sys.maxsize // 8:  # float64 entries
        raise MemoryError(f"a {max_prefix_len + 1} x {num_terms} table does not fit in memory")
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
    tail_sum: Callable[[int], float | None],
    fit: TailFit,
    classified: tuple[SeriesClass, str] | None,
) -> Verdict:
    """Issue a convergence verdict for the evaluated terms of one window series.

    ``tail_sum(n)`` bounds the terms from n on (``model.tail_sum(m, n)``) and
    ``classified`` is the closed-form class, ``model.series_class(m)``, or None.
    Certified verdicts come from ``classified``, else from an exact-zero run
    from n with ``tail_sum(n)`` 0, read only once such a run shows; the rest rests on the fitted tail
    exponent ``fit`` (``fit_tail(terms)``) with a +-0.1 buffer around the
    p-series boundary.  No terms at all give no verdict, whatever ``classified``
    says.
    """
    if len(terms) == 0:
        raise InsufficientDataError("0 terms evaluated; a verdict needs at least one")
    if len(terms) < MIN_TERMS_FOR_FIT and classified is None:
        raise InsufficientDataError(
            f"{len(terms)} terms evaluated; need {MIN_TERMS_FOR_FIT} or a closed-form series class"
        )

    # A closed form holds for every n, observed zeros only up to N: it goes first.
    if classified is not None:
        cls, why = classified
        if cls is SeriesClass.CONVERGENT:
            return Verdict(VerdictLabel.CERTIFIED_CONVERGENT, why)
        return Verdict(VerdictLabel.CERTIFIED_DIVERGENT, why)

    zero_start = _zero_tail_start(terms)
    if zero_start is not None and zero_start <= len(terms) // 2 + 1:
        if tail_sum(zero_start) == 0.0:
            return Verdict(
                VerdictLabel.CERTIFIED_CONVERGENT,
                f"eventually zero terms: every window from n = {zero_start} is provably"
                " empty, so the series is a finite sum",
            )
        return Verdict(
            VerdictLabel.LIKELY_CONVERGENT,
            f"terms are numerically zero from n = {zero_start} but the backend does"
            " not prove every window from there on empty",
        )

    if fit.slope is None:
        # fewer than 5 nonzero points in a tail window of at least 91 terms
        # (MIN_TERMS_FOR_FIT): a mostly-zero tail suggests convergence, but
        # scattered zeros alone never certify it
        return Verdict(
            VerdictLabel.LIKELY_CONVERGENT,
            f"{fit.zero_fraction:.0%} of tail terms are exactly zero and the"
            " nonzero residue is too sparse to fit",
        )
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


@dataclass(frozen=True)
class CriterionResult:
    """One criterion at a complement-run length: its series, verdict and conclusion."""

    prefix_len: int
    terms: np.ndarray
    partial_sums: np.ndarray
    tail_fit: TailFit
    verdict: Verdict
    conclusion: Conclusion
    certified: bool
    note: str

    def __post_init__(self) -> None:
        if np.any(self.terms < 0.0):
            raise ValueError("series terms must be nonnegative")
        if np.any(np.diff(self.partial_sums) < -1e-15):
            raise ValueError("partial sums must be non-decreasing")

    @property
    def partial_sum(self) -> float:
        return float(self.partial_sums[-1])


def _label(prefix_len: int) -> str:
    if prefix_len == 0:
        return "marginal series"
    return f"window series (m={prefix_len}, prefix complements)"


def _criterion(
    model: EventSequenceModel,
    prefix_len: int,
    terms: np.ndarray,
    decay: tuple[DecayVerdict, str],
) -> CriterionResult:
    """The criterion on ``terms``, the row of the ``prefix_len``-window series.

    Concludes IO_PROB_ZERO when the series verdict is convergent and (for
    m >= 1) the marginals provably or plausibly decay to zero; the conclusion
    is certified only when both inputs are.  IO_PROB_ONE is issued only for
    independent models with a divergent marginal series.  Dependent models
    with divergent series get NO_CONCLUSION: the criteria are sufficient, not
    necessary.
    """
    fit = fit_tail(terms)
    partial_sums = compensated_cumsum(terms)
    tail_sum = functools.partial(model.tail_sum, prefix_len)
    verdict = classify_series(terms, tail_sum, fit, model.series_class(prefix_len))
    needs_decay = prefix_len >= 1
    decay_verdict, decay_note = decay if needs_decay else (None, "")

    decay_ok = decay_verdict in (
        DecayVerdict.CERTIFIED_ZERO_LIMIT,
        DecayVerdict.LIKELY_ZERO_LIMIT,
    )
    if verdict.convergent and (not needs_decay or decay_ok):
        certified = verdict.certified and (
            not needs_decay or decay_verdict is DecayVerdict.CERTIFIED_ZERO_LIMIT
        )
        conclusion = Conclusion.IO_PROB_ZERO
        note = (
            f"{_label(prefix_len)} converges ({verdict.justification})"
            + ("" if not needs_decay else f"; marginal decay: {decay_note}")
        )
    elif prefix_len == 0 and isinstance(model, IndependentModel) and verdict.divergent:
        conclusion = Conclusion.IO_PROB_ONE
        certified = verdict.certified
        note = f"independent events with divergent marginal series ({verdict.justification})"
    else:
        conclusion = Conclusion.NO_CONCLUSION
        certified = False
        if verdict.divergent and prefix_len == 0:
            note = "marginal series diverges but events are dependent; criterion is one-sided"
        elif verdict.divergent:
            note = "window series diverges; criterion is one-sided, no conclusion"
        elif not decay_ok and needs_decay and verdict.convergent:
            note = f"series converges but marginal decay unsettled: {decay_note}"
        else:
            note = f"series verdict inconclusive ({verdict.justification})"
    return CriterionResult(
        prefix_len, terms, partial_sums, fit, verdict, conclusion, certified, note
    )


@dataclass(frozen=True)
class SweepResult:
    """Criteria for m = 0..max_prefix_len and the one decay check they share."""

    decay: tuple[DecayVerdict, str]
    results: list[CriterionResult]
    least_io_zero: int | None
    least_certified_io_zero: int | None


def sweep_prefix_len(
    model: EventSequenceModel,
    max_prefix_len: int = 3,
    num_terms: int = 2000,
    tol: float = 1e-6,
) -> SweepResult:
    """Run the criterion for every complement-run length 0..max_prefix_len.

    Reports the least length that concludes IO_PROB_ZERO (and the least doing
    so with certification), or None.  One ``series_terms`` call evaluates
    every series, and the decay check probes its marginal row once; every
    criterion uses that result.
    """
    if not 0 <= max_prefix_len <= MAX_PREFIX_LEN:
        raise ModelValueError(
            "m_max", f"max_prefix_len {max_prefix_len} outside 0..{MAX_PREFIX_LEN}"
        )
    # the decay check reads the table, so reject its tolerance before the table is built
    if not 0.0 < tol < 1.0:
        raise ModelValueError("tol", f"decay tolerance must be in (0, 1), got {tol!r}")
    terms = series_terms(model, max_prefix_len, num_terms)
    decay = marginal_decay_check(model, terms[0], tol)
    results = [
        _criterion(model, m, terms[m], decay) for m in range(max_prefix_len + 1)
    ]
    zero = [r for r in results if r.conclusion is Conclusion.IO_PROB_ZERO]
    return SweepResult(
        decay,
        results,
        next((r.prefix_len for r in zero), None),
        next((r.prefix_len for r in zero if r.certified), None),
    )
