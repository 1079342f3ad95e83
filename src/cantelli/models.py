"""Event-sequence models: exact window-probability backends.

Three backends compute window probabilities in closed form or by dynamic
programming:

* ``IndependentModel``: independent events with marginals from a sequence
  family; window probabilities are products.
* ``MarkovModel``: a finite chain observed through time-indexed event sets;
  window probabilities come from masked vector-matrix propagation.
* ``LatentUniformModel``: events are threshold cells of a few shared
  uniform latents; window probabilities are products of interval lengths, and
  emptiness is decidable exactly.  This backend builds the nested and
  interleaved counterexamples that separate the window criteria.

Each backend computes them with two array evaluators, equal bit for bit to
the one-window, one-index-at-a-time reference the tests keep
(``reference_window_prob``, which walks a window's field of indicator bits in
index order).  ``_inputs(lo, hi)`` is the one place where an
engine method evaluates a per-index input (family values, colors and
thresholds, or event masks): the window tables, the scans and the samplers
all read it.  The scalar rules
(``family.value``, ``EventSchedule.mask`` and ``MarkovModel.event_mask``,
``LatentUniformModel.color``, ``position`` and ``threshold``) are what the
oracle and the tests read, so the engines and the oracle share no input rule.
``window_series`` evaluates the window series of every complement-run length
0..m at once, from one ``_inputs`` evaluation (and, for a chain, one walk of
its distributions): the terms table, nothing else.  The Markov table
evaluates its columns through one common period of the chain's orbit and its
event schedule, and copies the rest.  ``tail_sum(m, n) == 0.0`` is the
package's one emptiness proof: every m-window from n on is empty, for every
index and not just the evaluated ones.  ``_scan`` is the one first-occurrence
recurrence per backend, over those inputs, and
``first_occurrence_terms(starts, count, carries)`` the one way into it: it
evaluates the inputs once per merged run of its starts' ranges, runs each
start's recurrence on its slice, and returns per start the terms, the
finished all-complement probabilities and the carry that goes on with the
scan.  One start is the call with one start; the engines compute prefix
windows only.  ``sample_indicator_block`` draws sampled indicators for many
windows and a batch of generators in one call: it fills one row per distinct
index the windows cover, reads each row's inputs once for the whole batch,
and takes each window's block off its rows.  Each generator's rows equal,
bit for bit, a call with that generator alone, whichever windows and
generators share the call.

A backend states the closed forms it can certify through ``marginal_limit``,
``series_class``, ``remainder_bounds``, ``tail_sum`` and ``describe``, and the
rounding error of its scan's sums and complements through ``scan_error``; the
base class knows none (None, "", or inf), and every certification rests on the
justification or description the backend records.

All models are immutable after construction and all queries are pure; the
Markov backend caches only its ``_Orbit`` walk of distributions.
"""

from __future__ import annotations

import enum
import math
import sys
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .families import (
    ROUNDOFF,
    ModelValueError,
    SequenceFamily,
    SequenceIndexError,
    SeriesClass,
    index_range,
)

__all__ = [
    "NumericFaultError",
    "EventSequenceModel",
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

    def remainder_bounds(self, n: int, complement: float) -> tuple[float | None, float] | None:
        """(lo, hi), bounds on what a first-occurrence scan leaves past its
        last index n - 1: P(no A_j from the scan's start through n - 1, and
        some A_j with j >= n), where ``complement`` is the scan's
        all-complement probability through n - 1; lo is None where the
        backend knows no lower end, and the pair None where it knows neither
        (0 and ``complement`` always bound it).  Only independent models
        read ``complement``."""
        return None

    def tail_sum(self, prefix_len: int, n: int) -> float | None:
        """An upper bound on the sum of the ``prefix_len``-window terms from n
        on, certified for every index, or None."""
        return None

    def scan_error(self, k: int) -> float:
        """A bound on the absolute error, against the model's exact values, of
        the sum of a ``_scan``'s first j terms and of its j-th complement, for
        every j <= k; inf when the backend derives none."""
        return math.inf

    def describe(self) -> str:
        return ""

    @abstractmethod
    def window_series(self, max_prefix_len: int, num_terms: int) -> np.ndarray:
        """Every m-window series for m = 0..max_prefix_len, from one evaluation.

        Returns the (max_prefix_len + 1, num_terms) table whose entry [m, n - 1]
        is the probability of ``first_occurrence(n, m)``; row 0 is the
        marginals P(A_n).  A zero entry proves nothing: ``tail_sum`` is the
        one proof that windows are empty.
        """

    def first_occurrence_terms(
        self, starts: Sequence[int], count: int, carries: Sequence[Any] | None = None
    ) -> list[tuple[np.ndarray, np.ndarray, Any]]:
        """The first-occurrence scans of n..n + count - 1, one (terms,
        complements, carry) per n of ``starts``.

        Term k is P(first occurrence at n + k) and complement k, finished,
        P(no occurrence in [n, n + k]).  ``carries`` holds one carry per start,
        or is None for none.  A carry returned by a scan that ended at n - 1
        goes on with that scan, bit for bit as one call: its terms and
        complements then count from that scan's start.  The per-index inputs are
        evaluated once per merged run of the starts' ranges, and each start's
        recurrence reads its own slice of them; every input is elementwise in
        its index, so each scan equals the call with its start alone, bit for
        bit.  A count of 0 returns two empty arrays and each carry as given; one
        past ``sys.maxsize`` bytes of inputs raises ``MemoryError``.
        """
        if count > sys.maxsize // 8:
            raise MemoryError(f"a scan of {count} terms does not fit in memory")
        carries = [None] * len(starts) if carries is None else carries
        if count == 0:
            return [(np.empty(0), np.empty(0), carry) for carry in carries]
        scans: list[Any] = [None] * len(starts)
        # the starts still to scan, the lowest last: each is read in the run
        # that holds it
        order = sorted(range(len(starts)), key=starts.__getitem__, reverse=True)
        for lo, hi in _merged([(n, n + count - 1) for n in starts]):
            inputs = self._inputs(lo, hi)
            while order and starts[order[-1]] <= hi:
                i = order.pop()
                at = starts[i] - lo
                own = tuple(x[at : at + count] for x in inputs)
                terms, complements, carry = self._scan(starts[i], own, carries[i])
                scans[i] = (terms, self._finish_probs(complements), carry)
        return scans

    @abstractmethod
    def _inputs(self, lo: int, hi: int) -> tuple[np.ndarray, ...]:
        """The scan's per-index inputs at lo..hi, each an array with one entry per index."""

    @abstractmethod
    def _scan(
        self, n: int, inputs: tuple[np.ndarray, ...], carry: Any
    ) -> tuple[np.ndarray, np.ndarray, Any]:
        """First-occurrence terms at n..n + count - 1, the all-complement
        probability after each of them, and the carry after the last, where
        ``inputs`` is ``_inputs(n, n + count - 1)``.

        ``carry`` is the state after index n - 1 of a scan begun earlier, or
        None to begin at n.  Each term is the probability of its
        first-occurrence window from the scan's start, and entry k of the
        complements, once finished, that of the all-complement window from the
        start through n + k.
        """

    @staticmethod
    def _finish_probs(x: np.ndarray) -> np.ndarray:
        """Probabilities clamped into [0, 1] from within ``_PROB_SLACK`` of it.

        An array already inside comes back as it is.  A non-finite entry, or
        one past the slack, is a fault that names the first such entry.
        """
        if x.size and x.min() >= 0.0 and x.max() <= 1.0:
            return x
        bad = ~((x >= -_PROB_SLACK) & (x <= 1.0 + _PROB_SLACK))
        if bad.any():
            v = float(x[np.argmax(bad)])
            if not math.isfinite(v):
                raise NumericFaultError(f"non-finite window probability: {v!r}")
            if v < 0.0:
                raise NumericFaultError(f"window probability {v!r} below 0")
            raise NumericFaultError(f"window probability {v!r} above 1")
        return np.where(x < 0.0, 0.0, np.where(x > 1.0, 1.0, x))


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

    def remainder_bounds(self, n: int, complement: float) -> tuple[float, float] | None:
        # Independence makes the remainder exactly complement * u_n, where
        # u_n = 1 - prod_{j>=n} (1 - p_j).  With S_lo <= sum_{j>=n} p_j <= S_hi
        # and p_j <= q < 1 from n on: 1 - p <= exp(-p) gives u_n >= 1 - exp(-S_lo)
        # (1 where the sum diverges, by the second Borel-Cantelli lemma), and
        # 1 - p >= exp(-p / (1 - q)) gives u_n <= 1 - exp(-S_hi / (1 - q)), as
        # does the union bound u_n <= S_hi.  expm1 is within one ulp and its
        # product, like q's sum, quotient and difference, rounds once more.
        family = self._family
        s_lo, s_hi = family.tail_sum_bounds(n)
        lower = 1.0 if s_lo == math.inf else -math.expm1(-s_lo) * (1.0 - 4.0 * ROUNDOFF)
        upper = min(1.0, s_hi)
        sup = family.tail_sup(n)
        q = math.inf if sup is None else sup + family.evaluation_error()
        if q < 1.0:
            upper = min(upper, -math.expm1(-s_hi / (1.0 - q)) * (1.0 + 8.0 * ROUNDOFF))
        return complement * lower, complement * upper

    def scan_error(self, k: int) -> float:
        # a survival product of j <= k factors rounds 2j times (each 1 - p
        # and each product) and a term once more, so each is within gamma_2k
        # of the exact products of the evaluated values, whose terms sum to
        # at most 1.  Each value lies within the family's evaluation error e
        # of its formula, which moves the survival product, and the sum of
        # the terms (1 minus it), by at most j * e.
        two_k = 2 * k * ROUNDOFF
        return two_k / (1.0 - two_k) + k * self._family.evaluation_error()

    def describe(self) -> str:
        return f"independent events, {self._family.describe()}"

    def window_series(self, max_prefix_len: int, num_terms: int) -> np.ndarray:
        # the window at n multiplies its factors in index order, as the
        # reference does: row m is the product of the first m complements, times p
        (p,) = self._inputs(1, num_terms + max_prefix_len)
        terms = np.empty((max_prefix_len + 1, num_terms))
        survive = np.ones(num_terms)  # 1.0 * x is x exactly
        for m in range(max_prefix_len + 1):
            window = p[m : m + num_terms]
            terms[m] = self._finish_probs(survive * window)
            survive *= 1.0 - window
        return terms

    def _inputs(self, lo: int, hi: int) -> tuple[np.ndarray, ...]:
        return (self._family.values(lo, hi),)

    def _scan(
        self, n: int, inputs: tuple[np.ndarray, ...], carry: Any
    ) -> tuple[np.ndarray, np.ndarray, Any]:
        # carry: the survival product, multiplied left to right from 1.0
        (p,) = inputs
        count = len(p)
        survive = np.cumprod(np.concatenate(([1.0 if carry is None else carry], 1.0 - p)))
        return survive[:count] * p, survive[1:], float(survive[-1])

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
                p = self._inputs(first, last)[0][:, None]
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
    The masks are the rows of one read-only array.  ``mask(n)`` and the Markov
    ``tail_sum`` walk pick E_n's row by the scalar rule ``_row(n)``;
    ``masks(lo, hi)`` has its own vectorized rule, which the scalar one checks.
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
        if tail is not None and explicit is None:
            raise ModelValueError("tail", "a tail follows only an explicit list of sets")
        self._num_states = num_states
        if constant is not None:
            rows = [self._mask(constant, "members")]
        elif cycle is not None:
            if not cycle:
                raise ModelValueError("cycle", "periodic event schedule needs at least one set")
            rows = [self._mask(s, f"cycle[{i}]") for i, s in enumerate(cycle)]
        else:
            assert explicit is not None
            rows = [self._mask(s, f"sets[{i}]") for i, s in enumerate(explicit)]
            if tail is not None:
                rows.append(self._mask(tail, "tail"))
        # (e, q) with E_n = E_{n - q} for n - q >= e (``_row``); None for an
        # explicit list without a tail, which never repeats
        self._period: tuple[int, int] | None = (1, len(rows))
        if explicit is not None:
            self._period = (len(rows), 1) if tail is not None else None
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
        return mask

    def mask(self, n: int) -> np.ndarray:
        """Boolean membership mask of E_n, a read-only row."""
        if n < 1:
            raise ValueError(f"event schedule queried at time {n} < 1")
        if self._period is None and n > len(self._rows):
            raise self._past_end(n)
        return self._rows[self._row(n)]

    def _row(self, n: int) -> int:
        """The index of E_n's row: n - 1 before e, and e - 1 + (n - e) % q from e on."""
        e, q = self._period or (math.inf, 1)  # an untailed list never repeats
        return n - 1 if n < e else e - 1 + (n - e) % q

    def masks(self, lo: int, hi: int) -> np.ndarray:
        """Masks of E_lo..E_hi as the rows of a bool array."""
        if lo < 1:
            raise ValueError(f"event schedule queried at time {lo} < 1")
        times = index_range(lo, hi)
        if self._period is None:
            if hi > len(self._rows):
                raise self._past_end(max(lo, len(self._rows) + 1))
            return self._rows[times - 1]
        e, q = self._period
        past = times - e
        return self._rows[e - 1 + np.where(past < 0, past, past % q)]

    def _past_end(self, n: int) -> SequenceIndexError:
        return SequenceIndexError(
            f"event schedule of length {len(self._rows)} queried at time {n} with no tail declared"
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
            out[t + 1 - lo :] = cycle[(index_range(t + 1, hi) - start) % len(cycle)]
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
    vector-matrix products as a single window.  Column n reads only x_n (the
    distribution at time n) and E_n..E_{n+m}; both repeat from some time on,
    so k ends one common period of the two, and the columns past k are copies
    (``_table_columns``).  A chain whose orbit does not repeat within N, or an
    explicit schedule with no tail, has k = N.  The distributions (v -> v @ T)
    are one ``_Orbit`` walk, walked at most once per query, and no series
    block is kept: memory stays O(S^2 + cycle) between queries.  ``tail_sum``
    walks the finite graph of (schedule row, state) pairs instead.

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
        transition = self._transition
        self._dists = _Orbit(self._initial, lambda v: v @ transition)
        # sampling cut points: a path enters the first state k with u < cut[k].
        # Cuts are the cumulative sums, +inf from the last positive entry on, so
        # no state of probability 0 is entered and a u at or past a sum short of
        # 1 lands on the last positive state.  Row S holds the initial vector's.
        rows = np.vstack((self._transition, self._initial))
        last_positive = s - 1 - np.argmax(rows[:, ::-1] > 0.0, axis=1)
        cuts = np.where(np.arange(s) < last_positive[:, None], np.cumsum(rows, axis=1), np.inf)
        self._cut_columns = tuple(cuts.T[:-1])  # the last column is all +inf

    @property
    def num_states(self) -> int:
        return self._num_states

    def event_mask(self, n: int) -> np.ndarray:
        return self._events.mask(n)

    def window_series(self, max_prefix_len: int, num_terms: int) -> np.ndarray:
        terms = np.empty((max_prefix_len + 1, num_terms))
        # dists row n - 1: the distribution at time n + m with the complements
        # at n..n + m - 1 masked in, as the scalar reference propagates it
        dists, masks, period = self._table_columns(max_prefix_len, num_terms)
        k = len(dists)
        for m in range(max_prefix_len + 1):
            window = masks[m : m + k]
            terms[m, :k] = self._finish_probs((dists * window).sum(axis=1))
            if m < max_prefix_len:
                dists = dists * ~window
                # one vector-matrix product per row, bit-identical to the reference
                # (a matrix-matrix product rounds differently)
                dists = (dists[:, None, :] @ self._transition)[:, 0, :]
        # each column from k on copies the one a period before it, in copies
        # that double in width: O(log N) slices for N columns
        start, end = k - period, k
        while end < num_terms:
            width = min(end - start, num_terms - end)
            terms[:, end : end + width] = terms[:, start : start + width]
            end += width
        return terms

    def tail_sum(self, prefix_len: int, n: int) -> float | None:
        # starts[r, s]: an m-window can occur from state s at a time of
        # schedule row r; after[r] is the row of the next time.  The walk takes
        # the supports from time n on (the first by binary powering of reach),
        # each with its row, and gives up at one that meets its row's starts.
        # Times of one row have the same rows after them, and reach distributes
        # over unions: once a support lies inside what its row saw earlier, so
        # does every later one.  Each step that goes on adds a (row, state)
        # pair, so the walk takes at most S * len(rows) steps, whatever the period.
        rows, period, reach = self._events._rows, self._events._period, self._transition > 0.0
        if period is None:
            return None
        after = np.append(np.arange(1, len(rows)), period[0] - 1)
        starts = rows
        for _ in range(prefix_len):
            starts = ~rows & (starts[after] @ reach.T)
        support = (self._initial > 0.0) @ np.linalg.matrix_power(reach, n - 1)
        row, seen = self._events._row(n), np.zeros_like(rows)
        while not (support & starts[row]).any():
            if not (support & ~seen[row]).any():
                return 0.0
            seen[row] |= support
            row, support = after[row], support @ reach
        return None

    def _table_columns(
        self, max_prefix_len: int, num_terms: int
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """What the evaluated columns of a window table read, and the table's period.

        Column n - 1 of a window table reads only the distribution x_n and the
        masks of E_n..E_{n+M}.  When x repeats from time c with period p, and
        E from time e with period q, column n - 1 equals column n - 1 - L for
        n > k = max(c, e) - 1 + L, where L = lcm(p, q); otherwise k = N.
        Returns x_1..x_k, the masks of E_1..E_{k+M} and L (0 with no period).
        """
        dists = self._dists
        head, cycle = dists.head(num_terms)
        k, period = num_terms, 0
        if cycle is not None and self._events._period is not None:
            (c, p), (e, q) = cycle, self._events._period
            period = math.lcm(p, q)
            k = min(num_terms, max(c, e) - 1 + period)
        rows = head[:k] if k <= len(head) else np.concatenate((head, dists.rows(len(head) + 1, k)))
        return rows, self._inputs(1, k + max_prefix_len)[0], period

    def _inputs(self, lo: int, hi: int) -> tuple[np.ndarray, ...]:
        return (self._events.masks(lo, hi),)

    def _scan(
        self, n: int, inputs: tuple[np.ndarray, ...], carry: Any
    ) -> tuple[np.ndarray, np.ndarray, Any]:
        # carry: the distribution masked to the complement at the last index,
        # before its step to the next
        v = self._dists.rows(n, n)[0] if carry is None else carry @ self._transition
        (masks,) = inputs
        count = len(masks)
        keeps = ~masks
        # row k: the distribution at n + k, stepped from the one before masked
        # to the complement
        dists = np.empty((count, self._num_states))
        dists[0] = v
        for k in range(1, count):
            v = (v * keeps[k - 1]) @ self._transition
            dists[k] = v
        misses = dists * keeps
        # summed per row like the reference's vector sum
        terms = self._finish_probs((dists * masks).sum(axis=1))
        return terms, misses.sum(axis=1), misses[-1].copy()

    def _walk(self, rngs: Sequence[np.random.Generator], steps: int, share: int):
        """States of the len(rngs) * share paths at times 1..steps, one array per time.

        Generator j's uniforms are the rows of ``rng.random((steps, share))``,
        drawn a segment of rows at a time (one stream, so the same draws); the
        uniforms at time t are the generators' rows for t, side by side.  A
        segment holds at most ``_DRAW_CHUNK`` uniforms over all generators.
        Every path starts in state S, whose cut row is the initial vector's, and
        each step counts the cut columns at or below the uniforms.
        """
        count = len(rngs) * share
        segment = max(1, _DRAW_CHUNK // max(1, count))
        states = np.full(count, self._num_states, dtype=np.intp)
        for done in range(0, steps, segment):
            draws = _draw(rngs, (min(segment, steps - done), share))
            for u in draws.transpose(1, 0, 2).reshape(draws.shape[1], count):
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
            (masks,) = self._inputs(lo, hi)
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
        # g, the largest cyclic gap between consecutive slots of one latent,
        # and M, the first index from which every latent's thresholds never
        # increase: from M + g - m on, each m-window holds an earlier index of
        # its occurring latent, at a threshold no lower, so it is empty
        self._gap = max(
            (b - a) % len(coloring) or len(coloring)
            for slots in self._cycle_slots
            for a, b in zip(slots, slots[1:] + slots[:1])
        )
        self._monotone_from = self._nonincreasing_from()

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

    def window_series(self, max_prefix_len: int, num_terms: int) -> np.ndarray:
        # the m-window at n holds each latent j in (lo, hi]: lo its largest
        # complement threshold, hi its occurrence threshold.  below[j] is
        # latent j's lo so far (0.0 and 1.0 leave max and min alone)
        colors, a = self._inputs(1, num_terms + max_prefix_len)
        below = np.zeros((self._num_latents, num_terms))
        terms = np.empty((max_prefix_len + 1, num_terms))
        for m in range(max_prefix_len + 1):
            mine, at = colors[m : m + num_terms], a[m : m + num_terms]
            prob = None
            for j in range(self._num_latents):
                span = np.where(mine == j, at, 1.0) - below[j]
                length = np.where(span > 0.0, span, 0.0)  # max(0.0, hi - lo)
                prob = length if prob is None else prob * length
            terms[m] = self._finish_probs(prob)
            for j in range(self._num_latents):
                np.maximum(below[j], np.where(mine == j, at, 0.0), out=below[j])
        return terms

    def _inputs(self, lo: int, hi: int) -> tuple[np.ndarray, ...]:
        # color(n) and threshold(n) for n = lo..hi.  Zeros come out as +0.0,
        # so numpy's max may stand in for Python's: the sign of a zero
        # threshold changes no result of this backend.
        colors = self._coloring_array[(index_range(lo, hi) - 1) % len(self._coloring)]
        if isinstance(self._thresholds, GlobalThresholds):
            a = self._thresholds.family.values(lo, hi)
        else:
            a = np.empty(hi - lo + 1)
            # the indices of one latent have consecutive positions
            for j, (fam, first) in enumerate(self._families_with_start(lo)):
                at = np.flatnonzero(colors == j)
                if at.size:
                    a[at] = fam.values(first, first + at.size - 1)
        bad = ~((a >= 0.0) & (a <= 1.0))
        if bad.any():
            k = int(np.argmax(bad))
            raise ValueError(f"threshold a_{lo + k} = {float(a[k])!r} outside [0, 1]")
        return colors, a + 0.0

    def _scan(
        self, n: int, inputs: tuple[np.ndarray, ...], carry: Any
    ) -> tuple[np.ndarray, np.ndarray, Any]:
        # per latent, the complements before step k exclude U up to their
        # running max threshold.  carry: each latent's running max so far.
        colors, a = inputs
        count = len(a)
        peaks = (0.0,) * self._num_latents if carry is None else carry
        term = complement = None
        carry = []
        for j, peak in enumerate(peaks):
            mine = colors == j
            excluded = np.maximum.accumulate(np.concatenate(([peak], np.where(mine, a, 0.0))))
            # free: P(U_j in (running max, 1]) before each index ([:count])
            # and after it ([1:]); over all latents, the product of the latter
            # is P(no occurrence from the start through it)
            free = 1.0 - excluded
            # own: P(U_j in (running max, a_k]) at the latent's own indices k
            own = a - excluded[:count]
            length = np.where(mine, np.where(own > 0.0, own, 0.0), free[:count])
            term = length if term is None else term * length
            complement = free[1:] if complement is None else complement * free[1:]
            carry.append(float(excluded[-1]))
        return term, complement, tuple(carry)

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
            colors, thresholds = self._inputs(lo, hi)
            for i, (color, a) in enumerate(zip(colors, thresholds)):
                np.less(u[color], a, out=held[row + i])
        return blocks

    def _nonincreasing_from(self) -> float | None:
        """The least index from which each latent's thresholds never increase, or None."""
        th = self._thresholds
        if isinstance(th, GlobalThresholds):
            k = th.family.nonincreasing_from()
            return None if k is None else max(1, k)
        first = 1
        for fam, offset, slots in zip(th.families, th.offsets, self._cycle_slots):
            k = fam.nonincreasing_from()
            if k is None:
                return None
            if k - offset > 1:  # the latent's index at position k - offset
                full, rest = divmod(k - offset - 1, len(slots))
                first = max(first, full * len(self._coloring) + slots[rest] + 1)
        return first

    def tail_sum(self, prefix_len: int, n: int) -> float | None:
        if self._monotone_from is None or prefix_len < self._gap:
            return None
        return 0.0 if n >= self._monotone_from + self._gap - prefix_len else None

    def scan_error(self, k: int) -> float:
        # a term is a product of one length hi - lo per latent: the
        # subtraction rounds once (within ROUNDOFF: a length is at most 1) and
        # each end is a threshold within its family's evaluation error; the
        # products round once each.  A complement is a product of L such
        # lengths, 1 - lo.  The bound counts each of the k terms in full.
        two_l = 2 * self._num_latents
        error = max(f.evaluation_error() for f in self._families())
        return k * (two_l * ROUNDOFF / (1.0 - two_l * ROUNDOFF) + two_l * error)

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

    def remainder_bounds(self, n: int, complement: float) -> tuple[float | None, float] | None:
        # Exact per-latent collapse: the union of threshold events on one
        # latent is the single event at the supremum threshold, and the
        # union from n on bounds the remainder from above; no lower end.
        prob_none = 1.0
        for fam, start in self._families_with_start(n):
            sup = fam.tail_sup(start)
            if sup is None:
                return None, 1.0
            prob_none *= 1.0 - min(1.0, sup)
        return None, 1.0 - prob_none

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
        raise ModelValueError("tol", f"decay tolerance must be in (0, 1), got {tol!r}")
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
