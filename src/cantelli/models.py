"""Event-sequence models: exact window-probability backends.

Three backends answer arbitrary window queries in closed form or by dynamic
programming:

* ``IndependentModel``: independent events with marginals from a sequence
  family; window probabilities are products.
* ``MarkovModel``: a finite chain observed through time-indexed event sets;
  window probabilities come from masked vector-matrix propagation.
* ``LatentUniformModel``: events are threshold cells of a few shared
  uniform latents; window probabilities are products of interval lengths, and
  emptiness is decidable exactly.  This backend builds the nested and
  interleaved counterexamples that separate the window criteria.

Each backend answers two kinds of query.  ``window_prob`` takes one window.
``window_series`` evaluates the window series of every complement-run length
0..m at once, from one evaluation of the family, threshold or distribution
arrays, and returns ``window_prob``'s answers bit for bit.  Its ``empty``
table is the package's one emptiness proof: row m marks the m-windows that are
provably empty.  The Markov tables evaluate their columns through one common
period of the chain's orbit and its event schedule, and copy the rest.
``first_occurrence_terms`` and ``all_complement_prob`` both read one
first-occurrence scan per backend (``_scan``), which an ``OccurrenceScan``
carries on chunk by chunk.  ``sample_indicator_block`` draws sampled
indicators for many windows and a batch of generators in one call: it fills
one row per distinct index the windows cover, evaluates each row's family,
threshold or event-mask constants once for the whole batch, and reads each
window's block off its rows.  Each generator's rows equal, bit for bit, a call
with that generator alone, whichever windows and generators share the call.

A backend states the closed forms it can certify through ``marginal_limit``,
``series_class``, ``union_bound`` and ``describe``; the base class knows none
(None, or ""), and every certification rests on the justification or
description the backend records.

All models are immutable after construction and all queries are pure; the
Markov backend caches only its two ``_Orbit`` walks, of distributions and supports.
"""

from __future__ import annotations

import enum
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .families import ModelValueError, SequenceFamily, SequenceIndexError, SeriesClass
from .windows import WindowPattern

__all__ = [
    "NumericFaultError",
    "EventSequenceModel",
    "OccurrenceScan",
    "IndependentModel",
    "EventSchedule",
    "MarkovModel",
    "GlobalThresholds",
    "PerLatentThresholds",
    "LatentUniformModel",
    "DecayVerdict",
    "marginal_decay_check",
]

_PROB_SLACK = 1e-9
# how far a Markov transition row or initial vector may sum from 1
ROW_SUM_TOL = 1e-12
# uniforms a Markov walk draws at a time over all its generators, and an
# independent sampler per generator: bounds the samplers' memory at far and
# wide windows and wide batches
_DRAW_CHUNK = 1 << 16


class NumericFaultError(ArithmeticError):
    """A probability computation produced a non-finite or out-of-range value."""


class EventSequenceModel(ABC):
    """Exact probabilities of window events over an infinite event sequence."""

    @abstractmethod
    def window_prob(self, w: WindowPattern) -> float:
        """Probability of the conjunction event described by ``w``."""

    @abstractmethod
    def sample_indicator_block(
        self,
        rngs: Sequence[np.random.Generator],
        windows: Sequence[tuple[int, int]],
        count: int,
    ) -> list[np.ndarray]:
        """Sample ``count`` independent realizations of A_lo..A_hi per (lo, hi) window.

        Returns one boolean array of shape (count, hi - lo + 1) per window.  The
        paths split evenly over the generators: ``rngs[j]`` draws rows
        j * count / len(rngs) up to (j + 1) * count / len(rngs), and those rows
        equal what a call with ``[rngs[j]]`` alone gives for its share.  A
        generator's uniforms are keyed by index, not by window: an independent
        A_n reads row n - 1 of ``rng.random((n, share))``, a Markov A_n its
        rows 0..n - 1, which walk the chain to time n, and a latent A_n the
        leading ``rng.random((share, L))`` that every index shares.  So each
        block equals what generators in the same states give for that window
        alone: a block is a pure function of the generator states and its own
        window, whatever other windows share the call.
        """

    def marginal_limit(self) -> float | None:
        """lim P(A_n), or None."""
        return None

    def series_class(self, prefix_len: int) -> tuple[SeriesClass, str] | None:
        """(class, justification) of the window series with ``prefix_len`` complements, or None."""
        return None

    def union_bound(self, n: int) -> float | None:
        """An upper bound on P(union_{j>=n} A_j), or None."""
        return None

    def describe(self) -> str:
        return ""

    @abstractmethod
    def window_series(self, max_prefix_len: int, num_terms: int) -> tuple[np.ndarray, np.ndarray]:
        """Every m-window series for m = 0..max_prefix_len, from one evaluation.

        Returns (terms, empty), two (max_prefix_len + 1, num_terms) tables.
        ``terms[m, n - 1]`` is ``window_prob(first_occurrence(n, m))``, bit for
        bit.  ``empty[m, n - 1]`` is True only when that window is provably
        empty (probability exactly 0), by a structural check (a zero or one
        marginal, support reachability, interval emptiness), never a
        float-underflow readout.  Row 0 of ``terms`` is the marginals P(A_n).
        """

    def first_occurrence_terms(
        self, n: int, count: int, scan: OccurrenceScan | None = None
    ) -> np.ndarray:
        """Terms P(first occurrence at n + k) for k = 0..count-1.

        Given a ``scan`` that ends at n, the scan goes on: the terms are those
        of a first occurrence after ``scan.start`` (no occurrence in
        [scan.start, n + k - 1], one at n + k), and the scan then ends at
        n + count.  Terms computed in chunks equal one scan's bit for bit.
        """
        if scan is None:
            scan = OccurrenceScan(n)
        elif scan.end != n:
            raise ValueError(f"a scan ending at {scan.end} cannot go on at {n}")
        if count == 0:
            return np.empty(0)
        terms, scan.carry = self._scan(n, count, scan.carry)
        scan.end = n + count
        return terms

    def all_complement_prob(
        self, n: int, length: int, scan: OccurrenceScan | None = None
    ) -> float:
        """P(no occurrence anywhere in [n, n + length - 1]).

        A ``scan`` of exactly that range gives it without scanning again.
        """
        if scan is None:
            scan = OccurrenceScan(n)
            self.first_occurrence_terms(n, length, scan)
        elif (scan.start, scan.end) != (n, n + length):
            raise ValueError(
                f"a scan of {scan.start}..{scan.end - 1} does not cover {n}..{n + length - 1}"
            )
        return 1.0 if scan.carry is None else self._complement(scan.carry)

    @abstractmethod
    def _scan(self, n: int, count: int, carry: Any) -> tuple[np.ndarray, Any]:
        """First-occurrence terms at n..n + count - 1 and the carry after them.

        ``carry`` is the state after index n - 1 of a scan begun earlier, or
        None to begin at n.  Each term equals ``window_prob`` of its
        first-occurrence window from the scan's start, bit for bit.
        """

    @abstractmethod
    def _complement(self, carry: Any) -> float:
        """The all-complement probability of the range a scan's carry follows."""

    @staticmethod
    def _finish_prob(x: float) -> float:
        if not math.isfinite(x):
            raise NumericFaultError(f"non-finite window probability: {x!r}")
        if x < 0.0:
            if x < -_PROB_SLACK:
                raise NumericFaultError(f"window probability {x!r} below 0")
            return 0.0
        if x > 1.0:
            if x > 1.0 + _PROB_SLACK:
                raise NumericFaultError(f"window probability {x!r} above 1")
            return 1.0
        return x

    @classmethod
    def _finish_probs(cls, x: np.ndarray) -> np.ndarray:
        """``_finish_prob`` elementwise; a fault names the first faulty entry."""
        bad = ~((x >= -_PROB_SLACK) & (x <= 1.0 + _PROB_SLACK))
        if bad.any():
            cls._finish_prob(float(x[np.argmax(bad)]))
        return np.where(x < 0.0, 0.0, np.where(x > 1.0, 1.0, x))


class OccurrenceScan:
    """A first-occurrence scan of the indices start..end - 1.

    ``first_occurrence_terms(scan.end, count, scan)`` goes on with the next
    ``count`` indices, and ``all_complement_prob(scan.start, scan.end -
    scan.start, scan)`` reads the all-complement probability of the range.
    ``carry`` is the backend's state after the last scanned index.
    """

    __slots__ = ("start", "end", "carry")

    def __init__(self, start: int):
        self.start = self.end = start
        self.carry: Any = None


def _share(
    rngs: Sequence[np.random.Generator], windows: Sequence[tuple[int, int]], count: int
) -> int:
    """The paths each generator of a sampler call draws, once the call is checked."""
    for lo, hi in windows:
        if not 1 <= lo <= hi:
            raise ValueError(f"sample window ({lo}, {hi}) needs 1 <= lo <= hi")
    if not rngs or count % len(rngs):
        raise ValueError(f"{count} paths do not split evenly over {len(rngs)} generators")
    return count // len(rngs)


def _draw(rngs: Sequence[np.random.Generator], shape: tuple[int, ...]) -> np.ndarray:
    """Each generator's ``rng.random(shape)``, stacked along a new first axis."""
    out = np.empty((len(rngs), *shape))
    for rng, row in zip(rngs, out):
        rng.random(out=row)
    return out


def _merged(windows: Sequence[tuple[int, int]]) -> list[list[int]]:
    """The windows' indices as runs [lo, hi] in increasing order.

    Overlapping and adjacent windows merge into one run.
    """
    merged: list[list[int]] = []
    for lo, hi in sorted(windows):
        if merged and lo <= merged[-1][1] + 1:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return merged


def block_rows(windows: Sequence[tuple[int, int]]) -> int:
    """The rows of a sampler call's block: the distinct indices its windows cover."""
    return sum(hi - lo + 1 for lo, hi in _merged(windows))


def _stacked_runs(
    windows: Sequence[tuple[int, int]], count: int
) -> tuple[list[tuple[int, int, int]], np.ndarray, list[np.ndarray]]:
    """Stack the indices the sample windows cover as the rows of one array.

    Returns the merged runs as (lo, hi, row of lo) in increasing order, the
    uninitialized (``block_rows(windows)``, count) array, and each window's
    (count, width) block as a transposed view of its rows: filling a run's
    rows fills every block that reads them.
    """
    runs, rows = [], 0
    for lo, hi in _merged(windows):
        runs.append((lo, hi, rows))
        rows += hi - lo + 1
    held = np.empty((rows, count), dtype=bool)
    blocks = []
    for lo, hi in windows:
        first = next(row + lo - run_lo for run_lo, run_hi, row in runs if run_lo <= lo <= run_hi)
        blocks.append(held[first : first + hi - lo + 1].T)
    return runs, held, blocks


def _tile(table: np.ndarray, evaluated: int, period: int) -> None:
    """Fill the columns of ``table`` from ``evaluated`` on with copies.

    Each column copies the one ``period`` before it.  The copies double in
    width, so a table of N columns takes O(log N) slices.
    """
    start, end = evaluated - period, evaluated
    while end < table.shape[1]:
        width = min(end - start, table.shape[1] - end)
        table[:, end : end + width] = table[:, start : start + width]
        end += width


# ---------------------------------------------------------------------------
# independent backend


class IndependentModel(EventSequenceModel):
    """Independent events A_n with P(A_n) given by a sequence family."""

    def __init__(self, marginal: SequenceFamily):
        self._family = marginal

    @property
    def family(self) -> SequenceFamily:
        return self._family

    def marginal_limit(self) -> float | None:
        return self._family.limit()

    def series_class(self, prefix_len: int) -> tuple[SeriesClass, str] | None:
        return self._family.series_class(prefix_len)

    def union_bound(self, n: int) -> float | None:
        # the union bound: P(union) <= sum of the marginals
        b = self._family.tail_sum_bound(n)
        return None if b is None else min(1.0, b)

    def describe(self) -> str:
        return f"independent events, {self._family.describe()}"

    def window_prob(self, w: WindowPattern) -> float:
        prob = 1.0
        for idx, occur in w.constraints():
            p = self._family.value(idx)
            prob *= p if occur else 1.0 - p
        return self._finish_prob(prob)

    def window_series(self, max_prefix_len: int, num_terms: int) -> tuple[np.ndarray, np.ndarray]:
        # the window at n multiplies its factors in index order, as window_prob
        # does: row m is the product of the first m complements, times p.  It
        # is empty where p is 0 or a complement's p is 1 (dead).
        p = self._family.values(1, num_terms + max_prefix_len)
        terms = np.empty((max_prefix_len + 1, num_terms))
        empty = np.empty(terms.shape, dtype=bool)
        survive = np.ones(num_terms)  # 1.0 * x is x exactly
        dead = np.zeros(num_terms, dtype=bool)
        for m in range(max_prefix_len + 1):
            window = p[m : m + num_terms]
            terms[m] = self._finish_probs(survive * window)
            empty[m] = dead | (window == 0.0)
            survive *= 1.0 - window
            dead |= window == 1.0
        return terms, empty

    def _scan(self, n: int, count: int, carry: Any) -> tuple[np.ndarray, Any]:
        # carry: the survival product, multiplied left to right from 1.0
        p = self._family.values(n, n + count - 1)
        survive = np.cumprod(np.concatenate(([1.0 if carry is None else carry], 1.0 - p)))
        return survive[:count] * p, float(survive[-1])

    def _complement(self, carry: Any) -> float:
        return self._finish_prob(carry)

    def sample_indicator_block(
        self,
        rngs: Sequence[np.random.Generator],
        windows: Sequence[tuple[int, int]],
        count: int,
    ) -> list[np.ndarray]:
        # index n of a generator reads row n - 1 of its rng.random((hi, share)):
        # each run advances every stream over the gap before it, draws its
        # rows a segment at a time into one buffer and compares each row once
        # against its marginal, strict < so that a marginal of 0 never
        # realizes its event
        share = _share(rngs, windows, count)
        runs, held, blocks = _stacked_runs(windows, count)
        segment = max(1, _DRAW_CHUNK // max(1, share))
        buffer = np.empty((segment, share))
        columns = [slice(j * share, (j + 1) * share) for j in range(len(rngs))]
        at = 1  # the index every stream stands at
        for lo, hi, row in runs:
            if lo > at:
                for rng in rngs:
                    rng.bit_generator.advance((lo - at) * share)
            for first in range(lo, hi + 1, segment):
                last = min(hi, first + segment - 1)
                u = buffer[: last - first + 1]
                p = self._family.values(first, last)[:, None]
                rows = held[row + first - lo : row + last - lo + 1]
                for rng, column in zip(rngs, columns):
                    rng.random(out=u)
                    np.less(u, p, out=rows[:, column])
            at = hi + 1
        return blocks


# ---------------------------------------------------------------------------
# finite Markov backend


class EventSchedule:
    """Time-indexed event sets E_n over a finite state space.

    Modes: a constant set, a periodic cycle of sets, or an explicit list with
    a declared constant tail set.  Errors name a bad state by its spec key:
    ``members[k]``, ``cycle[i][k]``, ``sets[i][k]`` or ``tail[k]``.
    """

    def __init__(
        self,
        num_states: int,
        *,
        constant: Sequence[int] | None = None,
        cycle: Sequence[Sequence[int]] | None = None,
        explicit: Sequence[Sequence[int]] | None = None,
        tail: Sequence[int] | None = None,
    ):
        modes = sum(x is not None for x in (constant, cycle, explicit))
        if modes != 1:
            raise ValueError("exactly one of constant/cycle/explicit must be given")
        self._num_states = num_states
        if constant is not None:
            self._cycle = (self._mask(constant, "members"),)
            self._explicit: tuple[np.ndarray, ...] | None = None
            self._tail: np.ndarray | None = None
        elif cycle is not None:
            if not cycle:
                raise ModelValueError("cycle", "periodic event schedule needs at least one set")
            self._cycle = tuple(self._mask(s, f"cycle[{i}]") for i, s in enumerate(cycle))
            self._explicit = None
            self._tail = None
        else:
            assert explicit is not None
            self._cycle = ()
            self._explicit = tuple(self._mask(s, f"sets[{i}]") for i, s in enumerate(explicit))
            self._tail = self._mask(tail, "tail") if tail is not None else None
        # mask rows that ``masks`` indexes: the cycle, or the explicit sets and tail
        rows = self._cycle or self._explicit + ((self._tail,) if self._tail is not None else ())
        # (e, q) with E_n = E_{n - q} for n - q >= e, or None: an explicit
        # list without a tail never repeats
        if self._explicit is None:
            self._period: tuple[int, int] | None = (1, len(self._cycle))
        else:
            self._period = (len(self._explicit) + 1, 1) if self._tail is not None else None
        self._rows = np.array(rows, dtype=bool).reshape(-1, num_states)
        self._rows.setflags(write=False)

    def _mask(self, members: Sequence[int], field: str) -> np.ndarray:
        mask = np.zeros(self._num_states, dtype=bool)
        for k, s in enumerate(members):
            if not 0 <= int(s) < self._num_states:
                raise ModelValueError(
                    f"{field}[{k}]", f"event-set state {s} outside 0..{self._num_states - 1}"
                )
            mask[int(s)] = True
        mask.setflags(write=False)
        return mask

    def mask(self, n: int) -> np.ndarray:
        """Boolean membership mask of E_n."""
        if n < 1:
            raise ValueError(f"event schedule queried at time {n} < 1")
        if self._explicit is not None:
            if n <= len(self._explicit):
                return self._explicit[n - 1]
            if self._tail is None:
                raise self._past_end(n)
            return self._tail
        return self._cycle[(n - 1) % len(self._cycle)]

    def masks(self, lo: int, hi: int) -> np.ndarray:
        """Masks of E_lo..E_hi as the rows of a bool array."""
        if lo < 1:
            raise ValueError(f"event schedule queried at time {lo} < 1")
        times = np.arange(lo, hi + 1)
        if self._explicit is None:
            return self._rows[(times - 1) % len(self._rows)]
        length = len(self._explicit)
        if hi > length and self._tail is None:
            raise self._past_end(max(lo, length + 1))
        return self._rows[np.minimum(times, length + 1) - 1]

    def _past_end(self, n: int) -> SequenceIndexError:
        return SequenceIndexError(
            f"event schedule of length {len(self._explicit or ())} queried at time {n}"
            " with no tail declared"
        )


def _check_distribution(v: Sequence[float], size: int, field: str, name: str) -> None:
    """Reject ``v`` unless it is ``size`` nonnegative entries summing to 1."""
    if len(v) != size:
        raise ModelValueError(field, f"expected {size} entries, got {len(v)}")
    total = float(sum(v))
    if not abs(total - 1.0) <= ROW_SUM_TOL:
        raise ModelValueError(field, f"{name} sums to {total!r}, expected 1")
    if not all(x >= 0.0 for x in v):
        raise ModelValueError(field, "negative entry")


class _Orbit:
    """The walk x_1 = ``first``, x_{t+1} = ``step(x_t)`` of a deterministic map.

    Once the walk meets a bitwise repeat (x_t == x_c, found by Brent's cycle
    detection: one byte compare per step and one checkpoint), every later x
    is a row of the cycle x_c..x_{t-1}, and reads at or past c never walk; a
    walk that never repeats is the plain walk.  The orbit holds one forward
    cursor (a time and its x) and the cycle once found, each replaced by a
    single assignment, so reads stay pure without a lock.
    """

    def __init__(self, first: np.ndarray, step: Callable[[np.ndarray], np.ndarray]):
        self._first = first
        self._step = step
        self._cursor = (1, first)
        # (time c, read-only rows x_c..x_{c+period-1}) once the walk repeats
        self._cycle: tuple[int, np.ndarray] | None = None

    def head(self, n: int) -> tuple[np.ndarray, tuple[int, int] | None]:
        """x_1..x_k and the cycle's (start c, period p) if known, walking toward n >= 1 once.

        The walk records its rows in doubling blocks and stops at n or at its
        first repeat, so k is n, or at least c + p - 1 once the cycle is known:
        the rows then hold one whole period, and every later x is one of them.
        """
        blocks, lo = [], 1
        while lo <= n and (self._cycle is None or lo < self._cycle[0] + len(self._cycle[1])):
            hi = min(n, 2 * lo + 1022)
            blocks.append(self.rows(lo, hi))
            lo = hi + 1
        rows = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
        return rows, self._cycle and (self._cycle[0], len(self._cycle[1]))

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """x_lo..x_hi (1-based) as the rows of a new array."""
        if lo < 1:
            raise ValueError(f"time index {lo} < 1")
        out = np.empty((hi - lo + 1, *self._first.shape), self._first.dtype)
        cycle = self._cycle
        # t: the last time written, from which the cycle fills the rest
        t = lo - 1 if cycle and lo >= cycle[0] else max(lo - 1, self._walk(lo, hi, out)[0])
        if t < hi:
            start, cycle = self._cycle
            out[t + 1 - lo :] = cycle[(np.arange(t + 1, hi + 1) - start) % len(cycle)]
        return out

    def _walk(self, lo: int, stop: int, out: np.ndarray) -> tuple[int, np.ndarray]:
        """Walk from the cursor (from time 1 if it is past ``lo``) toward ``stop``.

        Writes each x_t with t >= lo to ``out[t - lo]`` and returns the
        (t, x_t) where the walk ended: at ``stop``, before a known cycle, or at
        the first repeat, which sets the cycle.
        """
        t, x = self._cursor
        if t > lo:
            t, x = 1, self._first
        if t == lo:
            out[0] = x
        watch = self._cycle is None
        if not watch:
            stop = min(stop, self._cycle[0] - 1)
        elif t < stop:
            mark_t, mark_x, mark, power = t, x, x.tobytes(), 1
        while t < stop:
            x = self._step(x)
            t += 1
            if t >= lo:
                out[t - lo] = x
            if watch:
                key = x.tobytes()
                if key == mark:
                    rows = [mark_x]
                    while len(rows) < t - mark_t:
                        rows.append(self._step(rows[-1]))
                    cycle = np.array(rows)
                    cycle.setflags(write=False)
                    self._cycle = (mark_t, cycle)
                    break
                if t - mark_t == power:
                    mark_t, mark_x, mark, power = t, x, key, 2 * power
        self._cursor = (t, x)
        return t, x


class MarkovModel(EventSequenceModel):
    """Finite chain; A_n holds when the state at time n lies in E_n.

    Window probabilities are computed by propagating the time-n distribution
    through masked transition steps.  A window series propagates the
    distributions at times 1..k as one stacked array, row by row with the same
    vector-matrix products as a single window, and its emptiness table runs
    the supports the same way.  Column n of either table reads only x_n (the
    distribution or support at time n) and E_n..E_{n+m}; both repeat from
    some time on, so k ends one common period of the two, and the columns
    past k are copies (``_table_columns``).  A chain whose orbit does not
    repeat within N, or an explicit schedule with no tail, has k = N.  The
    distributions (step v -> v @ T) and their supports (s -> reach[s].any(0))
    are two ``_Orbit`` walks, each walked at most once per table; no series
    block is kept, so memory stays O(S^2 + cycle) between queries.

    The constructor is the one check of the chain.  ``transition`` must be a
    nonempty square list of rows, and each row and ``initial`` a probability
    vector (nonnegative, summing to 1 within ``ROW_SUM_TOL``).  A bad entry
    raises ``ModelValueError`` naming ``transition[i]`` or ``initial``, and
    an event schedule over another state count one naming ``events``; NaN
    fails every check.
    """

    def __init__(
        self,
        transition: Sequence[Sequence[float]],
        initial: Sequence[float],
        events: EventSchedule,
    ):
        s = len(transition)
        if s == 0:
            raise ModelValueError("transition", "expected a nonempty list of rows")
        for i, row in enumerate(transition):
            _check_distribution(row, s, f"transition[{i}]", f"row {i}")
        _check_distribution(initial, s, "initial", "initial vector")
        if events._num_states != s:
            raise ModelValueError(
                "events", f"event schedule over {events._num_states} states, chain has {s}"
            )
        self._transition = np.array(transition, dtype=float)
        self._transition.setflags(write=False)
        self._initial = np.array(initial, dtype=float)
        self._initial.setflags(write=False)
        self._events = events
        self._num_states = s
        transition, reach = self._transition, self._transition > 0.0
        # the distributions at times 1, 2, ..., and their supports
        self._dists = _Orbit(self._initial, lambda v: v @ transition)
        self._supports = _Orbit(self._initial > 0.0, lambda s: reach[s].any(axis=0))
        # sampling cut points: a path enters the first state k with u < cut[k].
        # Cuts are the cumulative sums, +inf from the last positive entry on, so
        # no state of probability 0 is entered and a u at or past a sum short of
        # 1 lands on the last positive state.
        self._initial_cuts = self._sampling_cuts(self._initial[None, :])[0]
        self._cut_columns = tuple(self._sampling_cuts(self._transition).T[:-1])

    @property
    def num_states(self) -> int:
        return self._num_states

    def event_mask(self, n: int) -> np.ndarray:
        return self._events.mask(n)

    @staticmethod
    def _sampling_cuts(rows: np.ndarray) -> np.ndarray:
        size = rows.shape[1]
        last_positive = size - 1 - np.argmax(rows[:, ::-1] > 0.0, axis=1)
        return np.where(
            np.arange(size) < last_positive[:, None], np.cumsum(rows, axis=1), np.inf
        )

    def window_prob(self, w: WindowPattern) -> float:
        constraints = w.constraints()
        if not constraints:
            return 1.0
        start = constraints[0][0]
        v = self._dists.rows(start, start)[0]
        prev_idx = None
        for idx, occur in constraints:
            if prev_idx is not None:
                for _ in range(idx - prev_idx):
                    v = v @ self._transition
            mask = self._events.mask(idx)
            v = v * mask if occur else v * ~mask
            prev_idx = idx
        return self._finish_prob(float(v.sum()))

    def window_series(self, max_prefix_len: int, num_terms: int) -> tuple[np.ndarray, np.ndarray]:
        terms = np.empty((max_prefix_len + 1, num_terms))
        empty = np.empty(terms.shape, dtype=bool)
        # dists row n - 1: the distribution at time n + m with the complements
        # at n..n + m - 1 masked in, as window_prob propagates it
        dists, masks, period = self._table_columns(self._dists, max_prefix_len, num_terms)
        k = len(dists)
        for m in range(max_prefix_len + 1):
            window = masks[m : m + k]
            terms[m, :k] = self._finish_probs((dists * window).sum(axis=1))
            if m < max_prefix_len:
                dists = dists * ~window
                # one vector-matrix product per row, bit-identical to window_prob's
                # (a matrix-matrix product rounds differently)
                dists = (dists[:, None, :] @ self._transition)[:, 0, :]
        _tile(terms, k, period)
        # the support pass runs once the distribution temporaries are freed, so
        # the two passes' peaks do not add up.  Its 0/1 products count at most
        # S paths, which float32 holds exactly.
        del dists
        reach = (self._transition > 0.0).astype(np.float32)
        supp, masks, period = self._table_columns(self._supports, max_prefix_len, num_terms)
        k = len(supp)
        for m in range(max_prefix_len + 1):
            window = masks[m : m + k]
            empty[m, :k] = ~(supp & window).any(axis=1)
            if m < max_prefix_len:
                supp = (supp & ~window).astype(np.float32) @ reach > 0.0
        _tile(empty, k, period)
        return terms, empty

    def _table_columns(
        self, orbit: _Orbit, max_prefix_len: int, num_terms: int
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """What the evaluated columns of a window table read, and the table's period.

        Column n - 1 of a window table reads only the orbit's x_n and the
        masks of E_n..E_{n+M}.  When x repeats from time c with period p, and
        E from time e with period q, column n - 1 equals column n - 1 - L for
        n > k = max(c, e) - 1 + L, where L = lcm(p, q); otherwise k = N.
        Returns x_1..x_k, the masks of E_1..E_{k+M} and L (0 with no period).
        """
        head, cycle = orbit.head(num_terms)
        k, period = num_terms, 0
        if cycle is not None and self._events._period is not None:
            (c, p), (e, q) = cycle, self._events._period
            period = math.lcm(p, q)
            k = min(num_terms, max(c, e) - 1 + period)
        rows = head[:k] if k <= len(head) else np.concatenate((head, orbit.rows(len(head) + 1, k)))
        return rows, self._events.masks(1, k + max_prefix_len), period

    def _scan(self, n: int, count: int, carry: Any) -> tuple[np.ndarray, Any]:
        # carry: the distribution masked to the complement at the last index,
        # before its step to the next
        v = self._dists.rows(n, n)[0] if carry is None else carry @ self._transition
        masks = self._events.masks(n, n + count - 1)
        hits = np.empty((count, self._num_states))
        for k, mask in enumerate(masks):
            if k:
                v = v @ self._transition
            np.multiply(v, mask, out=hits[k])
            v = v * ~mask
        # summed per row like window_prob's vector sum
        return self._finish_probs(hits.sum(axis=1)), v

    def _complement(self, carry: Any) -> float:
        return self._finish_prob(float(carry.sum()))

    def _walk(self, rngs: Sequence[np.random.Generator], steps: int, share: int):
        """States of the len(rngs) * share paths at times 1..steps, one array per time.

        Generator j's uniforms are the rows of ``rng.random((steps, share))``,
        drawn a segment of rows at a time (one stream, so the same draws); the
        uniforms at time t are the generators' rows for t, side by side.  A
        segment holds at most ``_DRAW_CHUNK`` uniforms over all generators.
        Each step compares the uniforms against one cut column at a time.
        """
        count = len(rngs) * share
        segment = max(1, _DRAW_CHUNK // max(1, count))
        states = None
        for done in range(0, steps, segment):
            draws = _draw(rngs, (min(segment, steps - done), share))
            for u in draws.transpose(1, 0, 2).reshape(draws.shape[1], count):
                if states is None:
                    states = np.searchsorted(self._initial_cuts, u, side="right")
                else:
                    moved = np.zeros(count, dtype=np.intp)
                    for cuts in self._cut_columns:
                        moved += cuts[states] <= u
                    states = moved
                yield states

    def sample_indicator_block(
        self,
        rngs: Sequence[np.random.Generator],
        windows: Sequence[tuple[int, int]],
        count: int,
    ) -> list[np.ndarray]:
        # one walk of every path to the last window's end serves every window
        share = _share(rngs, windows, count)
        runs, held, blocks = _stacked_runs(windows, count)
        walk = enumerate(self._walk(rngs, runs[-1][1] if runs else 0, share), start=1)
        for lo, hi, row in runs:
            masks = self._events.masks(lo, hi)
            for t, states in walk:
                if t >= lo:
                    held[row + t - lo] = masks[t - lo][states]
                if t == hi:
                    break
        return blocks


# ---------------------------------------------------------------------------
# latent-uniform backend


@dataclass(frozen=True)
class GlobalThresholds:
    """One threshold family evaluated at the global index: a_n = family.value(n)."""

    family: SequenceFamily


@dataclass(frozen=True)
class PerLatentThresholds:
    """Per-latent families evaluated at the within-latent position (plus offset).

    The k-th event assigned to latent j gets threshold families[j].value(k +
    offsets[j]).  Offsets let interleaved subsequences share threshold levels
    across latents, which is how the separating examples for the multi-gap
    window criterion are built.
    """

    families: tuple[SequenceFamily, ...]
    offsets: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.families) != len(self.offsets):
            raise ModelValueError("offsets", "families and offsets must have equal length")


class LatentUniformModel(EventSequenceModel):
    """Events are threshold cells of shared uniform-[0,1] latents.

    A periodic coloring assigns each index n a latent c(n); the event is
    A_n = {U_{c(n)} <= a_n}.  A window constrains each latent to an interval,
    so window probabilities are exact products of interval lengths and
    emptiness is an exact comparison, not a float artifact.
    """

    def __init__(
        self,
        num_latents: int,
        coloring: Sequence[int],
        thresholds: GlobalThresholds | PerLatentThresholds,
    ):
        if num_latents < 1:
            raise ModelValueError("num_latents", f"need at least one latent, got {num_latents}")
        coloring = tuple(int(c) for c in coloring)
        if not coloring:
            raise ModelValueError("coloring", "cycle must be nonempty")
        for i, c in enumerate(coloring):
            if not 0 <= c < num_latents:
                raise ModelValueError(f"coloring[{i}]", f"{c} outside 0..{num_latents - 1}")
        if isinstance(thresholds, PerLatentThresholds):
            if len(thresholds.families) != num_latents:
                raise ModelValueError(
                    "thresholds",
                    f"{len(thresholds.families)} threshold families for {num_latents} latents",
                )
            missing = set(range(num_latents)) - set(coloring)
            if missing:
                raise ModelValueError(
                    "coloring", f"latents {sorted(missing)} never appear in the coloring"
                )
        self._num_latents = num_latents
        self._coloring = coloring
        self._coloring_array = np.array(coloring)
        self._coloring_array.setflags(write=False)
        self._thresholds = thresholds
        # positions of each latent within one coloring cycle
        self._cycle_slots: list[list[int]] = [[] for _ in range(num_latents)]
        for slot, c in enumerate(coloring):
            self._cycle_slots[c].append(slot)

    @property
    def num_latents(self) -> int:
        return self._num_latents

    def color(self, n: int) -> int:
        return self._coloring[(n - 1) % len(self._coloring)]

    def _count(self, k: int, latent: int) -> int:
        """How many of the indices 1..k the coloring assigns to ``latent``."""
        full, rest = divmod(k, len(self._coloring))
        slots = self._cycle_slots[latent]
        return full * len(slots) + sum(1 for s in slots if s < rest)

    def position(self, n: int) -> int:
        """1-based count of indices <= n sharing n's latent."""
        return self._count(n, self.color(n))

    def threshold(self, n: int) -> float:
        if isinstance(self._thresholds, GlobalThresholds):
            a = self._thresholds.family.value(n)
        else:
            j = self.color(n)
            a = self._thresholds.families[j].value(
                self.position(n) + self._thresholds.offsets[j]
            )
        if not 0.0 <= a <= 1.0:
            raise ValueError(f"threshold a_{n} = {a!r} outside [0, 1]")
        return a

    def _colors(self, lo: int, hi: int) -> np.ndarray:
        """``color(n)`` for n = lo..hi."""
        return self._coloring_array[(np.arange(lo, hi + 1) - 1) % len(self._coloring)]

    def _threshold_array(self, lo: int, hi: int, colors: np.ndarray) -> np.ndarray:
        """``threshold(n)`` for n = lo..hi, given their colors.

        Zeros come out as +0.0, so numpy's max may stand in for Python's: the
        sign of a zero threshold changes no result of this backend.
        """
        if isinstance(self._thresholds, GlobalThresholds):
            a = self._thresholds.family.values(lo, hi)
        else:
            a = np.empty(hi - lo + 1)
            # the indices of one latent have consecutive positions
            for j, (fam, offset) in enumerate(
                zip(self._thresholds.families, self._thresholds.offsets)
            ):
                at = np.flatnonzero(colors == j)
                if at.size:
                    first = self._count(lo - 1, j) + 1 + offset
                    a[at] = fam.values(first, first + at.size - 1)
        bad = ~((a >= 0.0) & (a <= 1.0))
        if bad.any():
            k = int(np.argmax(bad))
            raise ValueError(f"threshold a_{lo + k} = {float(a[k])!r} outside [0, 1]")
        return a + 0.0

    def _latent_intervals(self, w: WindowPattern) -> list[tuple[float, float]]:
        """Per-latent (excluded_below, included_up_to) bounds: U in (lo, hi]."""
        lo = [0.0] * self._num_latents
        hi = [1.0] * self._num_latents
        for idx, occur in w.constraints():
            j = self.color(idx)
            a = self.threshold(idx)
            if occur:
                hi[j] = min(hi[j], a)
            else:
                lo[j] = max(lo[j], a)
        return list(zip(lo, hi))

    def window_prob(self, w: WindowPattern) -> float:
        prob = 1.0
        for lo, hi in self._latent_intervals(w):
            prob *= max(0.0, hi - lo)
        return self._finish_prob(prob)

    def window_series(self, max_prefix_len: int, num_terms: int) -> tuple[np.ndarray, np.ndarray]:
        # the m-window at n constrains each latent to the span hi - lo of
        # _latent_intervals; below[j] is latent j's largest complement threshold
        # so far (0.0 and 1.0 leave max and min alone)
        colors = self._colors(1, num_terms + max_prefix_len)
        a = self._threshold_array(1, num_terms + max_prefix_len, colors)
        below = np.zeros((self._num_latents, num_terms))
        terms = np.empty((max_prefix_len + 1, num_terms))
        empty = np.zeros(terms.shape, dtype=bool)
        for m in range(max_prefix_len + 1):
            mine, at = colors[m : m + num_terms], a[m : m + num_terms]
            prob = None
            for j in range(self._num_latents):
                span = np.where(mine == j, at, 1.0) - below[j]
                # a difference of thresholds in [0, 1] is <= 0 exactly when hi <= lo
                empty[m] |= span <= 0.0
                length = np.where(span > 0.0, span, 0.0)  # max(0.0, hi - lo)
                prob = length if prob is None else prob * length
            terms[m] = self._finish_probs(prob)
            for j in range(self._num_latents):
                np.maximum(below[j], np.where(mine == j, at, 0.0), out=below[j])
        return terms, empty

    def _scan(self, n: int, count: int, carry: Any) -> tuple[np.ndarray, Any]:
        # term k is window_prob of its first-occurrence window: per latent, the
        # complements before step k exclude U up to their running max
        # threshold.  carry: each latent's running max so far.
        colors = self._colors(n, n + count - 1)
        a = self._threshold_array(n, n + count - 1, colors)
        maxima = (0.0,) * self._num_latents if carry is None else carry
        excluded = []
        own_excluded = np.zeros(count)
        for j in range(self._num_latents):
            mine = np.where(colors == j, a, 0.0)
            excluded.append(np.maximum.accumulate(np.concatenate(([maxima[j]], mine))))
            own_excluded = np.where(colors == j, excluded[j][:count], own_excluded)
        own = a - own_excluded
        own = np.where(own > 0.0, own, 0.0)
        term = None
        for j in range(self._num_latents):
            length = np.where(colors == j, own, 1.0 - excluded[j][:count])
            term = length if term is None else term * length
        return term, tuple(float(e[-1]) for e in excluded)

    def _complement(self, carry: Any) -> float:
        prob = 1.0
        for peak in carry:
            prob *= 1.0 - peak
        return self._finish_prob(prob)

    def sample_indicator_block(
        self,
        rngs: Sequence[np.random.Generator],
        windows: Sequence[tuple[int, int]],
        count: int,
    ) -> list[np.ndarray]:
        # every window reads the same latents, a (share, L) draw per generator;
        # strict < so that a threshold of 0 never realizes its event, matching
        # its probability
        share = _share(rngs, windows, count)
        runs, held, blocks = _stacked_runs(windows, count)
        u = _draw(rngs, (share, self._num_latents)).reshape(count, self._num_latents).T
        for lo, hi, row in runs:
            colors = self._colors(lo, hi)
            thresholds = self._threshold_array(lo, hi, colors)
            for i, (color, a) in enumerate(zip(colors, thresholds)):
                np.less(u[color], a, out=held[row + i])
        return blocks

    def _families_with_start(self, n: int) -> list[tuple[SequenceFamily, int]]:
        """(family, first index it is evaluated at for global index >= n) per latent."""
        if isinstance(self._thresholds, GlobalThresholds):
            return [(self._thresholds.family, n)] * self._num_latents
        # the first index >= n of latent j has position count(n - 1, j) + 1
        return [
            (fam, self._count(n - 1, j) + 1 + offset)
            for j, (fam, offset) in enumerate(
                zip(self._thresholds.families, self._thresholds.offsets)
            )
        ]

    def _families(self) -> list[SequenceFamily]:
        if isinstance(self._thresholds, GlobalThresholds):
            return [self._thresholds.family]
        return list(self._thresholds.families)

    def marginal_limit(self) -> float | None:
        limits = [f.limit() for f in self._families()]
        return limits[0] if None not in limits and len(set(limits)) == 1 else None

    def series_class(self, prefix_len: int) -> tuple[SeriesClass, str] | None:
        # Only the no-complement series is a plain marginal sum; windows with
        # complements interact across latents and are left to exact-zero and
        # tail-fit analysis.
        if prefix_len != 0:
            return None
        parts = [f.series_class(0) for f in self._families()]
        if None in parts:
            return None
        divergent = [why for cls, why in parts if cls is SeriesClass.DIVERGENT]
        if divergent:
            why = "; ".join(divergent)
            return SeriesClass.DIVERGENT, f"marginal sum diverges per latent family: {why}"
        why = "; ".join(why for _, why in parts)
        return SeriesClass.CONVERGENT, f"marginal sum converges per latent family: {why}"

    def union_bound(self, n: int) -> float | None:
        # Exact per-latent collapse: the union of threshold events on one
        # latent is the single event at the supremum threshold.
        prob_none = 1.0
        for fam, start in self._families_with_start(n):
            sup = fam.tail_sup(start)
            if sup is None:
                return 1.0
            prob_none *= 1.0 - min(1.0, sup)
        return 1.0 - prob_none

    def describe(self) -> str:
        head = f"{self._num_latents} uniform latent(s), coloring cycle {list(self._coloring)}"
        th = self._thresholds
        if isinstance(th, GlobalThresholds):
            return f"{head}, thresholds {th.family.describe()}"
        return f"{head}; " + "; ".join(
            f"latent {j}: {f.describe()} at position{offset:+d}"
            for j, (f, offset) in enumerate(zip(th.families, th.offsets))
        )


# ---------------------------------------------------------------------------
# marginal decay check


class DecayVerdict(enum.Enum):
    CERTIFIED_ZERO_LIMIT = "certified-zero-limit"
    LIKELY_ZERO_LIMIT = "likely-zero-limit"
    NOT_DECAYING = "not-decaying"
    INCONCLUSIVE = "inconclusive"


def _decay_probes(n_max: int) -> list[int]:
    """Small indices, then powers of two with their successors up to n_max.

    Adjacent pairs catch periodic alternation (a 2-cycle chain has marginals
    0, 1, 0, 1, ... which single-parity probes would miss).
    """
    probes = {1, 2, 3, 4, 5}
    k = 8
    while k <= n_max:
        probes.add(k)
        if k + 1 <= n_max:
            probes.add(k + 1)
        k *= 2
    return sorted(p for p in probes if p <= max(n_max, 1))


def marginal_decay_check(
    model: EventSequenceModel, marginals: np.ndarray, tol: float = 1e-6
) -> tuple[DecayVerdict, str]:
    """Decide whether P(A_n) -> 0, given ``marginals``, P(A_n) for n = 1..N.

    ``marginals`` is row 0 of ``model.window_series``.  Certification comes
    only from ``model.marginal_limit()``.  Probing the marginals at ``_decay_probes(N)``
    classifies LikelyZeroLimit (below tol at the largest probes) or
    NotDecaying (the running level persists), else Inconclusive.
    """
    # a marginal is a probability: every one sits below a tolerance of 1 or more
    if not 0.0 < tol < 1.0:
        raise ValueError(f"decay tolerance must be in (0, 1), got {tol!r}")
    limit = model.marginal_limit()
    if limit is not None:
        if limit == 0.0:
            return DecayVerdict.CERTIFIED_ZERO_LIMIT, (
                f"analytic marginal limit 0 ({model.describe()})"
            )
        return DecayVerdict.NOT_DECAYING, f"analytic marginal limit {limit:g} > 0"
    vals = [float(marginals[n - 1]) for n in _decay_probes(len(marginals))]
    tail_len = max(4, len(vals) // 2)
    tail = vals[-tail_len:]
    if all(v < tol for v in tail):
        return DecayVerdict.LIKELY_ZERO_LIMIT, (
            f"marginals below {tol:g} at the {tail_len} largest probes"
        )
    half = len(tail) // 2
    early, late = tail[:half] or tail, tail[half:]
    if max(late) >= tol and max(late) >= 0.9 * max(early):
        return DecayVerdict.NOT_DECAYING, (
            f"marginal level persists near {max(late):.3g} across the largest probes"
        )
    return DecayVerdict.INCONCLUSIVE, (
        "probed marginals decrease but have not fallen below tolerance"
    )
