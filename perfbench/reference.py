"""A fixed reference kernel that gauges how fast the host runs at the moment.

The benchmark's host lends each virtual CPU a share of a shared machine, and
how fast that CPU runs Python changes by up to 1.7x within seconds, and
differently on each CPU.  Big-array numpy work barely changes; interpreter work
(dict updates, attribute access, small-array numpy calls) changes most.  Timing
this kernel next to the program's work, on the same CPU, measures that speed:
``scaled(seconds, before, after)`` converts a measured time into seconds on a
host where the kernel takes ``REFERENCE_S``.  The kernel uses no cantelli code,
so a change to the program moves the scaled time as much as the raw one.
"""

from __future__ import annotations

import time

import numpy as np

# A round figure within the kernel's range (0.06-0.16 s) on the 2-core x86 VM
# the benchmark was written on.  It only sets the scale of the scaled times;
# any fixed value would do, as long as it never changes between commits.
REFERENCE_S = 0.1


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float) -> None:
        self.a = a
        self.b = b

    def at(self, x: float) -> float:
        return self.a * x + self.b


def _dict_loop() -> float:
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(75000):
        k = i % 997
        table[k] = table.get(k, 0.0) + i * 0.5
        acc += table[k] / (k + 1.0)
    return acc


def _objects() -> float:
    acc = 0.0
    for i in range(30000):
        p = _Point(i * 0.5, 1.0)
        acc += p.at(2.0) + len((p.a, p.b, i))
    return acc


def _small_arrays() -> float:
    a = np.arange(16, dtype=float)
    acc = 0.0
    for i in range(4000):
        acc += float(np.sum(a * 0.5 + i))
    return acc


def _big_arrays() -> float:
    a = np.random.default_rng(0).random(150000)
    acc = 0.0
    for _ in range(30):
        acc += float(np.cumsum(a)[-1])
        a = np.sqrt(a + 1.0)
    return acc


def reference_s() -> float:
    """Seconds the reference kernel takes now."""
    start = time.perf_counter()
    _dict_loop()
    _objects()
    _small_arrays()
    _big_arrays()
    return time.perf_counter() - start


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two kernel times, in reference seconds."""
    return seconds * REFERENCE_S / ((before + after) / 2)
