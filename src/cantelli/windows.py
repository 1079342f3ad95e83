"""Window queries: the event that A_start..A_{start+width-1} take fixed values.

A window is one contiguous field of indicator bits with one fixed value: bit i
of ``value`` says whether A_{start+i} occurs.  The oracle reads that field of
its binned codes and the sampler compares each column of a block against its
bit.  A series is named by its complement-run length m: its windows are
``first_occurrence(n, m)``, one per start index n.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class WindowPattern:
    """The event that A_{start+i} occurs exactly where bit i of ``value`` is set,
    for i = 0..width-1."""

    start: int
    width: int
    value: int

    def __post_init__(self) -> None:
        if self.start < 1:
            raise ValueError(f"window start must be >= 1, got {self.start}")
        if self.width < 1:
            raise ValueError(f"window width must be >= 1, got {self.width}")
        if not 0 <= self.value < 1 << self.width:
            raise ValueError(f"window value {self.value} outside 0..2^{self.width} - 1")


def first_occurrence(n: int, m: int) -> WindowPattern:
    """m complements starting at n, then an occurrence at n + m."""
    return WindowPattern(n, m + 1, 1 << m)


def all_complement(n: int, length: int) -> WindowPattern:
    """No occurrence anywhere in [n, n + length - 1]."""
    return WindowPattern(n, length, 0)
