"""Compensated (Neumaier) summation for long nonnegative series."""

from __future__ import annotations

from typing import Sequence

import numpy as np


class CompensatedSum:
    """Running sum with a Neumaier compensation term.

    Keeps the error of accumulating N terms near one ulp instead of N ulps,
    which matters for 1e5-term partial sums checked against 1e-10 tolerances.
    Adding x sets t = total + x, adds the rounding error of t to the
    compensation ((total - t) + x when |total| >= |x|, else (x - t) + total)
    and makes t the total.  ``extend`` and the array functions below take
    those steps over a whole array.
    """

    __slots__ = ("_total", "_compensation")

    def __init__(self) -> None:
        self._total = 0.0
        self._compensation = 0.0

    def extend(self, values: Sequence[float] | np.ndarray) -> None:
        """Add each of ``values`` in order."""
        total, compensation = _neumaier(values, self._total, self._compensation)
        if len(total):
            self._total, self._compensation = float(total[-1]), float(compensation[-1])

    @property
    def value(self) -> float:
        return self._total + self._compensation


def _neumaier(
    values: Sequence[float] | np.ndarray, total: float = 0.0, compensation: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Running totals and compensations of the Neumaier step (see
    ``CompensatedSum``) over ``values``, starting from a running sum with that
    ``total`` and ``compensation``.

    Both are left-to-right running sums (``np.add.accumulate`` adds one value
    at a time), and each correction term is the scalar step's expression, so
    every entry equals a scalar loop's bit for bit.  The totals accumulate in
    one buffer behind the old total, the corrections are computed in place
    (the step's other expression only where it applies), and the old
    compensation joins the first correction before they accumulate.
    """
    x = np.asarray(values, dtype=float)
    totals = np.empty(x.size + 1)
    totals[0] = total
    totals[1:] = x
    with np.errstate(all="ignore"):  # Python floats overflow silently too
        np.add.accumulate(totals, out=totals)
        prev, totals = totals[:-1], totals[1:]
        correction = prev - totals
        correction += x
        # where |prev| >= |x| fails (NaN too), the step's other expression
        other = np.flatnonzero(~(np.abs(prev) >= np.abs(x)))
        if other.size:
            correction[other] = (x[other] - totals[other]) + prev[other]
        correction[:1] += compensation
        np.add.accumulate(correction, out=correction)
    return totals, correction


def compensated_sum(
    values: Sequence[float] | np.ndarray, running: CompensatedSum | None = None
) -> float:
    """Compensated sum of ``values``; given a ``running`` sum, the sum continued
    from it, which ``running`` then holds (a sum taken in chunks equals the
    one-shot sum bit for bit)."""
    running = CompensatedSum() if running is None else running
    running.extend(values)
    return running.value


def compensated_cumsum(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """Running compensated partial sums, same length as ``values``."""
    total, compensation = _neumaier(values)
    with np.errstate(all="ignore"):
        return np.add(total, compensation, out=compensation)
