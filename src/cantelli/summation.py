"""Compensated (Neumaier) summation for long nonnegative series."""

from __future__ import annotations

from typing import Sequence

import numpy as np


class CompensatedSum:
    """Running sum with a Neumaier compensation term.

    Keeps the error of accumulating N terms near one ulp instead of N ulps,
    which matters for 1e5-term partial sums checked against 1e-10 tolerances.
    The array functions below take the same steps over a whole array.
    """

    __slots__ = ("_total", "_compensation")

    def __init__(self) -> None:
        self._total = 0.0
        self._compensation = 0.0

    def add(self, x: float) -> None:
        t = self._total + x
        if abs(self._total) >= abs(x):
            self._compensation += (self._total - t) + x
        else:
            self._compensation += (x - t) + self._total
        self._total = t

    @property
    def value(self) -> float:
        return self._total + self._compensation


def _neumaier(values: Sequence[float] | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Running totals and compensations of ``CompensatedSum.add`` over ``values``.

    Both are left-to-right running sums (``np.add.accumulate`` adds one value
    at a time), and each correction term is the scalar step's expression, so
    every entry equals the scalar loop's bit for bit.
    """
    x = np.asarray(values, dtype=float)
    with np.errstate(all="ignore"):  # Python floats overflow silently too
        totals = np.add.accumulate(np.concatenate(([0.0], x)))
        prev, total = totals[:-1], totals[1:]
        correction = np.where(np.abs(prev) >= np.abs(x), (prev - total) + x, (x - total) + prev)
        compensation = np.add.accumulate(np.concatenate(([0.0], correction)))[1:]
    return total, compensation


def compensated_sum(values: Sequence[float] | np.ndarray) -> float:
    total, compensation = _neumaier(values)
    return float(total[-1] + compensation[-1]) if len(total) else 0.0


def compensated_cumsum(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """Running compensated partial sums, same length as ``values``."""
    total, compensation = _neumaier(values)
    with np.errstate(all="ignore"):
        return total + compensation
