"""Window patterns: conjunction events over a run of an event sequence.

A window is a run of complement constraints with (optionally) one occurrence
constraint at one end.  Windows are the query language every model backend
answers: ``constraints()`` lowers a pattern to (index, must_occur) pairs.  A
series is named by its complement-run length m: its windows are
``first_occurrence(n, m)``, one per start index n.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Orientation(enum.Enum):
    # complements first, occurrence last: not-A_n ... not-A_{n+m-1}, A_{n+m}
    PREFIX_COMPLEMENT = "prefix-complement"
    # occurrence first, complements after: A_n, not-A_{n+1} ... not-A_{n+m}
    SUFFIX_COMPLEMENT = "suffix-complement"


class Terminal(enum.Enum):
    OCCURRENCE = "occurrence"
    ALL_COMPLEMENT = "all-complement"


@dataclass(frozen=True)
class WindowPattern:
    """A conjunction of event/complement constraints on consecutive indices.

    ``prefix_len`` counts the complement run (the suffix run under
    SUFFIX_COMPLEMENT orientation).  ``prefix_len = 0`` with OCCURRENCE is the
    bare event at ``start``.  ALL_COMPLEMENT drops the occurrence and requires
    ``prefix_len >= 1``.
    """

    start: int
    prefix_len: int = 0
    terminal: Terminal = Terminal.OCCURRENCE
    orientation: Orientation = Orientation.PREFIX_COMPLEMENT

    def __post_init__(self) -> None:
        if self.start < 1:
            raise ValueError(f"window start must be >= 1, got {self.start}")
        if self.prefix_len < 0:
            raise ValueError(f"complement run length must be >= 0, got {self.prefix_len}")
        if self.terminal is Terminal.ALL_COMPLEMENT and self.prefix_len < 1:
            raise ValueError("an all-complement window needs prefix_len >= 1")

    @property
    def first_index(self) -> int:
        return self.start

    @property
    def last_index(self) -> int:
        if self.terminal is Terminal.ALL_COMPLEMENT:
            return self.start + self.prefix_len - 1
        return self.start + self.prefix_len

    def constraints(self) -> tuple[tuple[int, bool], ...]:
        """(index, must_occur) pairs in increasing index order."""
        n, m = self.start, self.prefix_len
        if self.terminal is Terminal.ALL_COMPLEMENT:
            return tuple((n + i, False) for i in range(m))
        if self.orientation is Orientation.PREFIX_COMPLEMENT:
            return tuple((n + i, False) for i in range(m)) + ((n + m, True),)
        return ((n, True),) + tuple((n + 1 + i, False) for i in range(m))


def first_occurrence(
    n: int, k: int, orientation: Orientation = Orientation.PREFIX_COMPLEMENT
) -> WindowPattern:
    """k complements starting at n, then an occurrence at n + k."""
    return WindowPattern(n, k, Terminal.OCCURRENCE, orientation)


def all_complement(n: int, length: int) -> WindowPattern:
    """No occurrence anywhere in [n, n + length - 1]."""
    return WindowPattern(n, length, Terminal.ALL_COMPLEMENT)
