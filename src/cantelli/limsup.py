"""Estimating P(events occur infinitely often) through first-occurrence sums.

For any event sequence, P(union of A_j, j >= n) equals the sum over k of
P(first occurrence at n + k): the first-occurrence events are disjoint and
exhaust the union.  That tail-union probability u_n is non-increasing in n and
its limit is exactly P(A_n infinitely often).  This module truncates the inner
sum at K and encloses the remainder, everything past the truncation.  Its
upper end is the least of three bounds: the all-complement window, which the
same scan returns; the backend's analytic bound on the union, when it has
one; and the paper's window criterion, when the backend bounds a window
series' tail (a first occurrence past the truncation makes a window near it
occur).  Its lower end is 0, except for independent events, whose remainder
is exactly the all-complement probability R_K times u_{n+K}, and u_{n+K} is
bounded on both sides by the marginals' tail sum (it is 1 where that sum
diverges).  Both ends are padded outward by a derived bound on their
rounding wherever the backend derives one, and a start stops once its
padded interval is narrower than the tolerance.  It tracks u_n along a schedule of start
indices.  The schedule's starts take their
doublings in lockstep, one level at a time, so each level evaluates the
model's per-index inputs once per merged run of the starts' ranges;
``tail_union`` is the one-start case.
The two records, ``TailUnionEstimate`` per start and ``LimsupEstimate`` for
the schedule, are ``limsup``'s report as they are: its keys are their fields.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from typing import Any, Sequence

import numpy as np

from .families import ROUNDOFF, ModelValueError
from .models import EventSequenceModel
from .summation import CompensatedSum, compensated_sum

__all__ = [
    "TailUnionEstimate",
    "tail_union",
    "LimsupEstimate",
    "limsup_estimate",
    "aitken_extrapolate",
]

INITIAL_TRUNCATION = 16
# the terms a level scans per start and call: bounds the memory of the
# levels whatever k_max is
_SCAN_CHUNK = 1 << 13
INDEX_MAX = (1 << 63) - 1  # indices are held in int64 arrays
# the longest complement run of the window criteria, and of the window tails
# that bound a remainder
MAX_PREFIX_LEN = 8


@dataclass(frozen=True)
class TailUnionEstimate:
    """Truncated first-occurrence sum with a certified enclosure of u_n.

    ``partial`` is the sum of the first K = ``truncation`` first-occurrence
    terms, a lower bound on u_n.  Three bounds hold the rest, u_n - partial,
    from above, and the interval's upper end uses the least
    (``effective_remainder``): ``remainder_bound``, the all-complement window
    probability R_K over the truncated range; ``union_tail_bound``, an
    analytic bound from the union past the truncation; and
    ``window_tail_bound``, the paper's window criterion: a first occurrence at
    n + K or later makes the m-window at n + K - m or later occur (m <= K), so
    the m-window terms from n + K - m on bound the rest.  ``window_tail_m`` is
    that m.  ``union_tail_lower`` bounds the rest from below, and the
    interval's lower end adds it: for independent events R_K times a lower
    bound on u_{n+K}, which is R_K itself where the marginals' sum diverges.
    ``union_tail_bound`` and ``union_tail_lower`` are None when the model has
    no closed form for that end (latent models state no lower end), and the
    window tail too.

    ``rounding`` is a derived bound on how far either interval end, as
    computed, lies from the exact value it stands for; both ends move outward
    by it, and one ulp further.  It is zero where the backend derives no
    bound on its scan's rounding (``scan_error``).  ``tolerance_reached``
    says the interval, padded, is narrower than the tolerance.
    """

    start: int
    truncation: int
    partial: float
    remainder_bound: float
    union_tail_bound: float | None
    union_tail_lower: float | None
    tolerance_reached: bool
    window_tail_bound: float | None = None
    window_tail_m: int | None = None
    rounding: InitVar[float] = 0.0
    interval: tuple[float, float] = field(init=False)

    @property
    def effective_remainder(self) -> float:
        bounds = (self.remainder_bound, self.union_tail_bound, self.window_tail_bound)
        return min(b for b in bounds if b is not None)

    @property
    def midpoint(self) -> float:
        lo, hi = self.interval
        return 0.5 * (lo + hi)

    def __post_init__(self, rounding: float) -> None:
        # partial + remainder is 1 up to rounding, over a floor for short
        # scans.  The independent scan's remainder is a product of
        # ``truncation`` rounded factors, so each term scanned may take the
        # sum a few units of roundoff past 1 (2**20 terms of powerlaw-2 take
        # it 1.5e-12 past).  For the Markov scan (``truncation`` matrix-vector
        # products) and the latent scan this allowance is a heuristic, not a
        # derived bound.
        slack = 1e-12 + 4 * self.truncation * ROUNDOFF
        if not 0.0 <= self.partial <= self.partial + self.remainder_bound <= 1.0 + slack:
            raise ValueError(
                f"inconsistent enclosure: partial {self.partial!r},"
                f" remainder {self.remainder_bound!r}"
            )
        lower = self.union_tail_lower or 0.0
        interval = _enclosure(self.partial, lower, self.effective_remainder, rounding)
        object.__setattr__(self, "interval", interval)


def _enclosure(partial: float, lower: float, upper: float, rounding: float) -> tuple[float, float]:
    """[partial + lower, partial + upper], each end moved outward by
    ``rounding`` and one ulp further where ``rounding`` is nonzero, within [0, 1]."""
    lo, hi = partial + lower, partial + upper
    if rounding:
        lo, hi = np.nextafter(lo - rounding, -1.0), np.nextafter(hi + rounding, 2.0)
    return max(float(lo), 0.0), min(float(hi), 1.0)


def tail_union(
    model: EventSequenceModel,
    n: int,
    tol: float = 1e-6,
    k_max: int = 1 << 15,
) -> TailUnionEstimate:
    """Enclose u_n = P(union of A_j, j >= n) by adaptive truncation.

    The truncation doubles from 16 until the padded interval is narrower
    than ``tol`` or it reaches ``k_max``: the one-start case of
    ``_tail_unions``.
    """
    return _tail_unions(model, [n], tol, k_max)[0]


def _tail_unions(
    model: EventSequenceModel, starts: Sequence[int], tol: float, k_max: int
) -> list[TailUnionEstimate]:
    """Enclose u_n for each n of ``starts``, the starts in lockstep.

    Each start's truncation doubles from 16 until its interval, partial plus
    ``union_tail_lower`` (or 0) to partial plus the effective remainder, each
    end padded by ``_rounding``, is narrower than ``tol``, or it reaches
    ``k_max``: the padding grows with the truncation, so a tolerance below it
    scans to ``k_max``.  The starts take the doublings
    level by level: ``first_occurrence_terms`` scans, for every start still
    short of tolerance, the terms that level adds, ``_SCAN_CHUNK`` terms per
    start and call at most, so the per-index inputs of overlapping starts are
    evaluated once and far-apart starts read only their own ranges.  A start
    passes its scan's carry from call to call and continues one running
    compensated sum, so it computes only the terms it adds; the remainder is
    the last complement of the scan.  Each estimate equals a one-shot
    computation at its final truncation bit for bit, whichever starts share
    the levels.  Failing to reach tolerance is reported on the estimate, not
    raised: a stalled remainder is an honest answer for persistently
    dependent models.
    """
    if min(starts) < 1:
        raise ModelValueError("schedule", "start index must be >= 1")
    if not 0.0 < tol < math.inf:
        raise ModelValueError("tol", "tolerance must be positive and finite")
    if k_max < 1:
        raise ModelValueError("k_max", "k_max must be >= 1")
    if k_max > INDEX_MAX:
        raise ModelValueError("k_max", f"k_max {k_max} passes the largest index {INDEX_MAX}")
    too_far = [n for n in starts if n > INDEX_MAX - k_max]  # a scan reads up to n + k_max
    if too_far:
        message = f"start {too_far[0]} plus k_max {k_max} passes the largest index {INDEX_MAX}"
        raise ModelValueError("schedule", message)
    estimates: list[Any] = [None] * len(starts)
    running = [CompensatedSum() for _ in starts]
    remainders = [1.0] * len(starts)
    carries: list[Any] = [None] * len(starts)
    active = list(range(len(starts)))  # the starts short of tolerance and of k_max
    scanned, k = 0, min(INITIAL_TRUNCATION, k_max)
    while active:
        for first in range(scanned, k, _SCAN_CHUNK):
            scans = model.first_occurrence_terms(
                [starts[i] + first for i in active],
                min(_SCAN_CHUNK, k - first),
                [carries[i] for i in active],
            )
            for i, (terms, complements, carry) in zip(active, scans):
                compensated_sum(terms, running[i])
                remainders[i], carries[i] = float(complements[-1]), carry
        going = []
        for i in active:
            n, remainder = starts[i], remainders[i]
            union_lower, union_tail = model.remainder_bounds(n + k, remainder) or (None, None)
            window_tail, window_m = _window_tail(model, n, k)
            effective = min(b for b in (remainder, union_tail, window_tail) if b is not None)
            partial = min(max(running[i].value, 0.0), 1.0)
            # an end reads the remainder's bounds unless a zero window tail closes it
            rounding = _rounding(model, k, partial, None if window_tail == 0.0 else remainder)
            lo, hi = _enclosure(partial, union_lower or 0.0, effective, rounding)
            reached = hi - lo < tol
            if reached or k >= k_max:
                estimates[i] = TailUnionEstimate(
                    start=n,
                    truncation=k,
                    partial=partial,
                    remainder_bound=remainder,
                    union_tail_bound=union_tail,
                    union_tail_lower=union_lower,
                    tolerance_reached=reached,
                    window_tail_bound=window_tail,
                    window_tail_m=window_m,
                    rounding=rounding,
                )
            else:
                going.append(i)
        active = going
        scanned, k = k, min(2 * k, k_max)
    return estimates


def _window_tail(model: EventSequenceModel, n: int, k: int) -> tuple[float | None, int | None]:
    """The least ``model.tail_sum(m, n + k - m)`` over m = 0..min(k, MAX_PREFIX_LEN),
    with its least m: a bound on u_n past truncation k; (None, None) when the
    model bounds none there, or has no ``scan_error`` to pad a zero tail by."""
    if not math.isfinite(model.scan_error(k)):
        return None, None
    bounds = ((model.tail_sum(m, n + k - m), m) for m in range(min(k, MAX_PREFIX_LEN) + 1))
    return min(((b, m) for b, m in bounds if b is not None), default=(None, None))


def _rounding(model: EventSequenceModel, k: int, partial: float, remainder: float | None) -> float:
    """A bound on how far an interval end of a scan's first k terms lies from
    the exact value it stands for; 0 where the model's ``scan_error`` is inf.

    The end is ``partial`` plus, unless ``remainder`` is None, a bound on
    the rest read from the all-complement probability ``remainder``: that
    probability itself, its product with a certified factor in [0, 1], or a
    closed form no greater than it.  The rounded terms sum to within
    ``model.scan_error(k)`` of the exact sum, and their compensated sum to
    within (2u + gamma_k^2) s of their sum s: Neumaier's additions are
    error-free transformations, which Ogita, Rump and Oishi (SIAM J. Sci.
    Comput. 26, 2005, Prop. 4.5) bound by u s + gamma_{k-1}^2 s.  The
    remainder is within ``model.scan_error(k)`` of its exact value too, and
    the product and the sum with ``partial`` round once each.
    """
    error = model.scan_error(k)
    if not math.isfinite(error):
        return 0.0
    gamma = k * ROUNDOFF / (1.0 - k * ROUNDOFF)
    relative = 2.0 * ROUNDOFF + gamma * gamma
    bound = error + relative * partial / (1.0 - relative)
    if remainder is not None:
        bound += error + 4.0 * ROUNDOFF * (partial + remainder)
    return bound


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


@dataclass(frozen=True)
class LimsupEstimate:
    """u_n enclosures along a schedule, with an extrapolated limit when safe."""

    samples: list[TailUnionEstimate]
    alpha_upper: float
    alpha_fit: float | None
    fit_note: str
    alpha_point: float
    stalled: bool
    monotone_consistent: bool


def limsup_estimate(
    model: EventSequenceModel,
    schedule: Sequence[int],
    tol: float = 1e-6,
    k_max: int = 1 << 15,
) -> LimsupEstimate:
    """Track u_n along ``schedule`` and enclose alpha = lim u_n.

    The samples come from one lockstep run of the schedule's starts
    (``_tail_unions``); each equals ``tail_union`` at its start, bit for bit.

    ``alpha_upper`` is the upper end of the last enclosure (u_n decreases to
    alpha, so every u_n upper bound is an alpha upper bound).  Aitken
    extrapolation of the midpoints is attempted only when every sample reached
    tolerance; otherwise the stall is reported and the intervals stand alone.
    """
    schedule = [int(n) for n in schedule]
    if len(schedule) < 3:
        raise ModelValueError("schedule", "schedule needs at least three start indices")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ModelValueError("schedule", "schedule must be strictly increasing")
    samples = _tail_unions(model, schedule, tol, k_max)
    stalled = any(not s.tolerance_reached for s in samples)
    # u_n is non-increasing: a later interval must not sit strictly above an
    # earlier one.
    monotone = all(
        later.interval[0] <= earlier.interval[1] + 1e-12
        for earlier, later in zip(samples, samples[1:])
    )
    mids = [s.midpoint for s in samples]
    if stalled:
        fit, note = None, "remainder stalled above tolerance; reporting intervals only"
    else:
        fit, note = aitken_extrapolate(mids)
    return LimsupEstimate(
        samples=samples,
        alpha_upper=samples[-1].interval[1],
        alpha_fit=fit,
        fit_note=note,
        alpha_point=fit if fit is not None else mids[-1],
        stalled=stalled,
        monotone_consistent=monotone,
    )
