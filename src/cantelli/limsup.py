"""Estimating P(events occur infinitely often) through first-occurrence sums.

For any event sequence, P(union of A_j, j >= n) equals the sum over k of
P(first occurrence at n + k): the first-occurrence events are disjoint and
exhaust the union.  That tail-union probability u_n is non-increasing in n and
its limit is exactly P(A_n infinitely often).  This module truncates the inner
sum with a certified remainder (the all-complement window bounds everything
past the truncation, and analytic tail bounds tighten it when a backend has
them) and tracks u_n along a schedule of start indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .models import EventSequenceModel, OccurrenceScan
from .summation import CompensatedSum, compensated_sum

__all__ = [
    "TailUnionEstimate",
    "tail_union",
    "LimsupEstimate",
    "limsup_estimate",
    "aitken_extrapolate",
]

INITIAL_TRUNCATION = 16


@dataclass(frozen=True)
class TailUnionEstimate:
    """Truncated first-occurrence sum with a certified enclosure of u_n.

    ``partial`` is the sum of the first ``truncation`` first-occurrence terms,
    a lower bound on u_n.  ``remainder_bound`` is the all-complement window
    probability over the truncated range; ``union_tail_bound`` is an analytic
    upper bound on the union past the truncation when the model has one.  The
    interval upper end uses the smaller of the two.
    """

    start: int
    truncation: int
    partial: float
    remainder_bound: float
    union_tail_bound: float | None
    tolerance: float
    tolerance_reached: bool

    @property
    def effective_remainder(self) -> float:
        if self.union_tail_bound is None:
            return self.remainder_bound
        return min(self.remainder_bound, self.union_tail_bound)

    @property
    def interval(self) -> tuple[float, float]:
        return self.partial, min(1.0, self.partial + self.effective_remainder)

    @property
    def midpoint(self) -> float:
        lo, hi = self.interval
        return 0.5 * (lo + hi)

    def __post_init__(self) -> None:
        if not 0.0 <= self.partial <= self.partial + self.remainder_bound <= 1.0 + 1e-12:
            raise ValueError(
                f"inconsistent enclosure: partial {self.partial!r},"
                f" remainder {self.remainder_bound!r}"
            )


def tail_union(
    model: EventSequenceModel,
    n: int,
    tol: float = 1e-6,
    k_max: int = 1 << 15,
) -> TailUnionEstimate:
    """Enclose u_n = P(union of A_j, j >= n) by adaptive truncation.

    The truncation doubles from 16 until the effective remainder drops below
    ``tol`` or reaches ``k_max``.  Each doubling goes on with one scan of
    first-occurrence terms and one running compensated sum, so it computes
    only the terms it adds; the partial sum and remainder equal a one-shot
    computation at the final truncation bit for bit.  Failing to reach
    tolerance is reported on the estimate, not raised: a stalled remainder is
    an honest answer for persistently dependent models.
    """
    if n < 1:
        raise ValueError("start index must be >= 1")
    if not tol > 0.0:
        raise ValueError("tolerance must be positive")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    scan = OccurrenceScan(n)
    running = CompensatedSum()
    k = min(INITIAL_TRUNCATION, k_max)
    while True:
        terms = model.first_occurrence_terms(scan.end, n + k - scan.end, scan)
        partial = min(max(compensated_sum(terms, running), 0.0), 1.0)
        remainder = model.all_complement_prob(n, k, scan)
        union_tail = model.union_bound(n + k)
        effective = remainder if union_tail is None else min(remainder, union_tail)
        if effective < tol or k >= k_max:
            return TailUnionEstimate(
                start=n,
                truncation=k,
                partial=partial,
                remainder_bound=remainder,
                union_tail_bound=union_tail,
                tolerance=tol,
                tolerance_reached=effective < tol,
            )
        k = min(2 * k, k_max)


def aitken_extrapolate(values: Sequence[float]) -> tuple[float | None, str]:
    """One Aitken delta-squared step on the last three values.

    Rejects (returns None with the reason) when differences are non-monotone
    or the second difference is numerically degenerate; a wrong limit is worse
    than no limit.
    """
    if len(values) < 3:
        return None, "need at least three samples"
    diffs = np.diff(np.asarray(values, dtype=float))
    if np.any(diffs > 0.0) and np.any(diffs < 0.0):
        return None, "sample differences change sign"
    mags = np.abs(diffs)
    if np.any(mags[1:] > mags[:-1] + 1e-15):
        return None, "sample differences are not shrinking"
    x0, x1, x2 = values[-3], values[-2], values[-1]
    denom = x2 - 2.0 * x1 + x0
    if abs(denom) < 1e-15 * max(1.0, abs(x2)):
        return None, "second difference is numerically zero"
    accel = x2 - (x2 - x1) ** 2 / denom
    return float(min(max(accel, 0.0), 1.0)), "accepted"


@dataclass
class LimsupEstimate:
    """u_n enclosures along a schedule, with an extrapolated limit when safe."""

    samples: list[TailUnionEstimate] = field(default_factory=list)
    alpha_upper: float = 1.0
    alpha_fit: float | None = None
    fit_note: str = ""
    alpha_point: float = 1.0
    stalled: bool = False
    monotone_consistent: bool = True


def limsup_estimate(
    model: EventSequenceModel,
    schedule: Sequence[int],
    tol: float = 1e-6,
    k_max: int = 1 << 15,
) -> LimsupEstimate:
    """Track u_n along ``schedule`` and enclose alpha = lim u_n.

    ``alpha_upper`` is the upper end of the last enclosure (u_n decreases to
    alpha, so every u_n upper bound is an alpha upper bound).  Aitken
    extrapolation of the midpoints is attempted only when every sample reached
    tolerance; otherwise the stall is reported and the intervals stand alone.
    """
    schedule = [int(n) for n in schedule]
    if len(schedule) < 3:
        raise ValueError("schedule needs at least three start indices")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be strictly increasing")
    samples = [tail_union(model, n, tol, k_max) for n in schedule]
    stalled = any(not s.tolerance_reached for s in samples)
    # u_n is non-increasing: a later interval must not sit strictly above an
    # earlier one.
    monotone = all(
        later.interval[0] <= earlier.interval[1] + 1e-12
        for earlier, later in zip(samples, samples[1:])
    )
    est = LimsupEstimate(
        samples=samples,
        alpha_upper=samples[-1].interval[1],
        stalled=stalled,
        monotone_consistent=monotone,
    )
    if stalled:
        est.alpha_fit = None
        est.fit_note = "remainder stalled above tolerance; reporting intervals only"
        est.alpha_point = samples[-1].midpoint
        return est
    mids = [s.midpoint for s in samples]
    fit, note = aitken_extrapolate(mids)
    est.alpha_fit = fit
    est.fit_note = note
    est.alpha_point = fit if fit is not None else mids[-1]
    return est
